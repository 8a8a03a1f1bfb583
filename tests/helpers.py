"""Independent oracles and exhaustive-check utilities for the tests.

These deliberately avoid the code paths they are used to verify: the
pushforward oracle works from the raw point function, the compression
oracle scans every measurable target set against the defining
inequality, and the scaled mass tables are re-derived from atom weights
and cross-checked against the public rho before any law uses them.
`drop_lowest_image_atom` is a planted hom fault shared by the maps,
metric and mutant tests. `mutated` plants a fault by recompiling one
function with one snippet of its source replaced; only the one mutant
registry, `tests/mutants.py`, calls it, and a source rule keeps it so.
`python_child_output` runs a child interpreter on the malg under test.
`fraction_metric_check` is the metric axiom check in `Fraction`
arithmetic, the reference for the library's integer check;
`general_parse_rational` is the rational-string parser without a short
path, the reference for the library's parser;
`pair_scan_hom_laws` is the hom-law check over every ordered pair of
domain elements, the reference for the library's linear join and meet
certificates; `enumerated_null_ideal_preserved` and
`enumerated_well_definedness` walk every null target set and every pair
of target sets equal mod null, the references for the library's
one-pullback null-ideal laws; `reference_bruteforce` is the pair oracle
on positions in `fin_atoms`, the reference for the library's oracle on
atom masks. The other `reference_*` functions are the functor-law path
as it was before each object on it was built in one pass (a space's atom
classes, `MeasureAlgebra`'s fields, `identity_map`,
`induced_homomorphism`, `BooleanHom.apply` and `_pullback`), and
`reference_disagreement` names the first map on which the library's
path differs from them.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from operator import and_, or_
from pathlib import Path
from typing import Optional

import malg

import malg.algebra
import malg.maps
import malg.spaces

from malg import (
    UNBOUNDED,
    AlgebraElement,
    BooleanHom,
    BruteForceReport,
    BudgetExceeded,
    CompressionResult,
    ExtRational,
    ForeignElement,
    InvalidRational,
    LawReport,
    LawViolation,
    MeasurableMap,
    MeasureAlgebra,
    MetricAxiomViolation,
    NotInverseNilPreserving,
    build_algebra,
    is_inverse_nil_preserving,
    rho,
)
from malg.maps import _pullback
from malg.rationals import INF_TOKEN, MAX_DIGITS
from malg.spaces import FiniteMeasureSpace, _ids, _mask, _submasks


def oracle_pushforward_masses(phi: MeasurableMap) -> list[ExtRational]:
    """Per-target-atom mass, recomputed from the point function alone."""
    out = []
    for block in phi.target.atoms:
        block_points = set(block)
        mass = ExtRational(0)
        for a, src_block in enumerate(phi.source.atoms):
            if all(phi.point_fn[p] in block_points for p in src_block):
                mass = mass + phi.source.weights[a]
        out.append(mass)
    return out


def oracle_compression(phi: MeasurableMap) -> CompressionResult:
    """Infimal C with pushforward <= C * measure over EVERY measurable set.

    Set-level scan of the defining inequality, independent of the
    atomwise implementation it is used to check.
    """
    n = phi.target.n_atoms
    masses = oracle_pushforward_masses(phi)
    best = Fraction(0)
    for mask in range(1 << n):
        mass = ExtRational(0)
        weight = ExtRational(0)
        for b in range(n):
            if mask >> b & 1:
                mass = mass + masses[b]
                weight = weight + phi.target.weights[b]
        if mass.is_zero:
            continue
        if weight.is_zero or (mass.is_infinite and not weight.is_infinite):
            return UNBOUNDED
        if weight.is_infinite:
            continue
        ratio = mass.as_fraction() / weight.as_fraction()
        if ratio > best:
            best = ratio
    return CompressionResult.bounded(best)


def scaled_mass_table(algebra: MeasureAlgebra) -> tuple[list[int], int]:
    """Integer masses of every finite-ideal mask, plus the common denominator.

    Entry m of the table is denom * mu_bar(element(mask m over fin atoms)).
    The caller is expected to cross-check the table against rho before
    trusting it (see assert_table_matches_rho).
    """
    fin = algebra.fin_atoms
    weights = [algebra.space.weights[i].as_fraction() for i in fin]
    denom = lcm(*(w.denominator for w in weights)) if weights else 1
    scaled = [int(w * denom) for w in weights]
    table = [0] * (1 << len(fin))
    for mask in range(1, 1 << len(fin)):
        low = (mask & -mask).bit_length() - 1
        table[mask] = table[mask & (mask - 1)] + scaled[low]
    return table, denom


def fin_mask_elements(algebra: MeasureAlgebra) -> list:
    """Finite-ideal elements indexed by mask position over fin atoms."""
    fin = algebra.fin_atoms
    return [
        algebra.element(tuple(fin[i] for i in range(len(fin)) if mask >> i & 1))
        for mask in range(1 << len(fin))
    ]


def assert_table_matches_rho(algebra: MeasureAlgebra, table: list[int], denom: int):
    """table[a ^ b] must equal denom * rho(a, b) for every fin pair."""
    elems = fin_mask_elements(algebra)
    for a in range(len(elems)):
        for b in range(len(elems)):
            assert Fraction(table[a ^ b], denom) == rho(elems[a], elems[b])


def drop_lowest_image_atom(hom: BooleanHom) -> BooleanHom:
    """A planted fault: each atom's image loses its lowest source atom."""
    masks = {b: m & (m - 1) for b, m in hom.atom_masks.items()}
    return BooleanHom(hom.domain, hom.codomain, masks)


def mutated(fn, old: str, new: str):
    """A planted fault: `fn` recompiled from its source, in its own module
    globals, with the snippet `old` replaced by `new`. The snippet must
    occur exactly once, so a refactor that drops it fails here instead of
    planting nothing."""
    source = textwrap.dedent(inspect.getsource(fn))
    found = source.count(old)
    assert found == 1, f"{old!r} occurs {found} times in {fn.__name__}"
    namespace: dict = {}
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec")
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


def fraction_metric_check(points, rows) -> None:
    """Raise MetricAxiomViolation as FiniteMetricMeasureSpace must, on a
    square table of Fractions, by `Fraction` comparison and addition."""
    n = len(points)
    for i in range(n):
        if rows[i][i] != 0:
            raise MetricAxiomViolation(f"d({points[i]}, {points[i]}) != 0")
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise MetricAxiomViolation("distance table is not symmetric")
            if i != j and rows[i][j] <= 0:
                raise MetricAxiomViolation(
                    f"d({points[i]}, {points[j]}) must be positive"
                )
    for i in range(n):
        for j in range(n):
            for k in range(i + 1, n):
                if rows[i][k] > rows[i][j] + rows[j][k]:
                    raise MetricAxiomViolation(
                        "triangle inequality fails on "
                        f"({points[i]}, {points[j]}, {points[k]})"
                    )


def general_parse_rational(text: str) -> Optional[Fraction]:
    """parse_rational as it was before its short path: every string goes
    through the length and exponent checks and `Fraction(str)`."""
    if text.strip() == INF_TOKEN:
        return None
    exponent = text.lower().partition("e")[2]
    if len(text) > 2 * MAX_DIGITS + 16 or len(exponent.lstrip("+-0")) > 4:
        raise InvalidRational(f"not a rational: {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidRational(f"not a rational: {text!r}") from None
    if max(abs(value.numerator), value.denominator) >= 10**MAX_DIGITS:
        raise InvalidRational(
            f"numerator or denominator over {MAX_DIGITS} digits: {text!r}"
        )
    return value


def pair_scan_hom_laws(hom: BooleanHom) -> LawReport:
    """check_hom_laws as it was before its join and meet certificates:
    joins and meets are checked on every ordered pair of domain elements."""
    image = {a.mask: hom.apply(a).mask for a in hom.domain.all_elements()}
    top, image_top = hom.domain.top.mask, hom.codomain.top.mask
    found: list[tuple[str, dict[str, int]]] = []  # law, witness masks

    if image[0]:
        found.append(("preserves-zero", {"got": image[0]}))
    if image[top] != image_top:
        found.append(("preserves-top", {"got": image[top]}))
    for law, op in (("preserves-join", or_), ("preserves-meet", and_)):
        pair = next(
            ((a, b) for a, b in product(image, repeat=2)
             if image[op(a, b)] != op(image[a], image[b])),
            None,
        )
        if pair is not None:
            a, b = pair
            found.append((law, {
                "a": a,
                "b": b,
                "image_of_combined": image[op(a, b)],
                "combined_images": op(image[a], image[b]),
            }))
    a = next((a for a in image if image[a ^ top] != image[a] ^ image_top), None)
    if a is not None:
        found.append(("preserves-complement", {
            "a": a,
            "image_of_complement": image[a ^ top],
            "complement_of_image": image[a] ^ image_top,
        }))

    return LawReport(tuple(
        LawViolation(law, {
            key: [i for i in range(m.bit_length()) if m >> i & 1]
            for key, m in witness.items()
        })
        for law, witness in found
    ))


def enumerated_null_ideal_preserved(phi: MeasurableMap) -> bool:
    """null_ideal_preserved as it was before its one pullback.

    Enumerates all null target sets (exactly the unions of null atoms) and
    measures their preimages; agrees with is_inverse_nil_preserving.
    """
    nonnull_src = _mask(phi.source.nonnull_atom_ids)
    return not any(
        _pullback(phi, n) & nonnull_src
        for n in _submasks(_mask(phi.target.null_atom_ids))
    )


def enumerated_well_definedness(phi: MeasurableMap) -> bool:
    """check_well_definedness as it was before its one pullback.

    Enumerates every pair (S u N1, S u N2) with S over non-null target
    atom subsets and N1, N2 over null-atom subsets; those are exactly the
    pairs of target sets whose symmetric difference is null.
    """
    nonnull_src = _mask(phi.source.nonnull_atom_ids)
    null_pres = [
        _pullback(phi, n) for n in _submasks(_mask(phi.target.null_atom_ids))
    ]
    for s in _submasks(_mask(phi.target.nonnull_atom_ids)):
        base = _pullback(phi, s)
        for p1 in null_pres:
            for p2 in null_pres:
                if ((base | p1) ^ (base | p2)) & nonnull_src:
                    return False
    return True


def reference_bruteforce(phi: MeasurableMap, budget: int = 12) -> BruteForceReport:
    """lipschitz_bruteforce as it was before it enumerated atom masks:
    elements are masks over positions in `fin_atoms`, two tables filled by
    one recurrence each, and a memo that walks a chain of submasks. The
    hom is read through malg.maps, so a planted hom fault reaches it.

    Maximize rho1(hom a, hom b) / rho2(a, b) over all pairs a != b.
    Enumerates the full finite-measure ideal of the target algebra, so the
    number of non-null target atoms must not exceed `budget` (default 12);
    raises BudgetExceeded above that. A budget that is not exactly an int
    (a bool included) raises TypeError.
    """
    if type(budget) is not int:
        raise TypeError(f"budget must be an int, not {budget!r}")
    domain = build_algebra(phi.target)
    n_nonnull = len(domain.nonnull_atoms)
    if n_nonnull > budget:
        raise BudgetExceeded(
            f"{n_nonnull} non-null target atoms exceed the budget of {budget}"
        )
    if not is_inverse_nil_preserving(phi):
        return BruteForceReport(UNBOUNDED, None, None)
    hom = malg.maps.induced_homomorphism(phi)

    # target elements are masks over positions in `fin`; their images are
    # source atom masks
    fin = domain.fin_atoms
    nf = len(fin)
    action_masks = [hom.atom_masks[b] for b in fin]
    src_weights = phi.source.weights

    # image under the hom, per finite-ideal mask
    images = [0] * (1 << nf)
    for mask in range(1, 1 << nf):
        low = (mask & -mask).bit_length() - 1
        images[mask] = images[mask & (mask - 1)] | action_masks[low]

    infinite_src = phi.source._nonnull_mask ^ phi.source._fin_mask
    if images[-1] & infinite_src:
        return BruteForceReport(UNBOUNDED, None, None)  # fin ideal broken

    # target-side masses over the finite ideal
    mu2 = [Fraction(0)] * (1 << nf)
    fin_weights = [phi.target.weights[b].as_fraction() for b in fin]
    for mask in range(1, 1 << nf):
        low = (mask & -mask).bit_length() - 1
        mu2[mask] = mu2[mask & (mask - 1)] + fin_weights[low]

    mu1_cache: dict[int, Fraction] = {0: Fraction(0)}

    def mu1(mask: int) -> Fraction:
        got = mu1_cache.get(mask)
        if got is not None:
            return got
        # strip low bits down to a cached submask, then add them back in
        # turn; a loop, so a mask of thousands of bits stays in one frame
        chain = []
        while got is None:
            chain.append(mask)
            mask &= mask - 1
            got = mu1_cache.get(mask)
        for mask in reversed(chain):
            low = (mask & -mask).bit_length() - 1
            got += src_weights[low].as_fraction()
            mu1_cache[mask] = got
        return got

    def mask_key(mask: int) -> tuple[int, ...]:
        return tuple(fin[i] for i in range(nf) if mask >> i & 1)

    order = sorted(range(1 << nf), key=mask_key)
    if len(order) < 2:
        return BruteForceReport(CompressionResult.bounded(0), None, None)

    best: Optional[Fraction] = None
    best_pair: Optional[tuple[int, int]] = None
    for a in order:
        img_a = images[a]
        for b in order:
            if a == b:
                continue
            ratio = mu1(img_a ^ images[b]) / mu2[a ^ b]
            if best is None or ratio > best:
                best = ratio
                best_pair = (a, b)

    empty_pair: Optional[tuple[int, int]] = None
    for a in order:
        if a == 0:
            continue
        if mu1(images[a]) / mu2[a] == best:
            empty_pair = (a, 0)
            break

    pair = empty_pair if empty_pair is not None else best_pair
    witness = (
        domain.element(mask_key(pair[0])),
        domain.element(mask_key(pair[1])),
    )
    return BruteForceReport(
        CompressionResult.bounded(best), witness, empty_pair is not None
    )


def reference_atom_classes(weights) -> tuple:
    """The null, non-null and finite atoms of a space with these weights,
    as ids and as masks, read off each weight."""
    null = tuple(i for i, w in enumerate(weights) if w.is_zero)
    nonnull = tuple(i for i, w in enumerate(weights) if not w.is_zero)
    fin = tuple(i for i in nonnull if not weights[i].is_infinite)
    return null, nonnull, fin, _mask(null), _mask(nonnull), _mask(fin)


def reference_algebra_fields(space: FiniteMeasureSpace) -> tuple:
    """MeasureAlgebra's (fin_atoms, _top, _fin) as it computed them before
    its one loop: a generator and two `_mask` calls."""
    nonnull_atoms = space.nonnull_atom_ids
    fin_atoms = tuple(
        i for i in nonnull_atoms if not space.weights[i].is_infinite
    )
    return fin_atoms, _mask(nonnull_atoms), _mask(fin_atoms)


def reference_identity_map(space: FiniteMeasureSpace) -> MeasurableMap:
    """identity_map as it was before it built one dict."""
    preimages = tuple((a,) for a in range(space.n_atoms))
    return MeasurableMap(space, space, {p: p for p in space.points}, preimages)


def reference_induced_homomorphism(phi: MeasurableMap) -> BooleanHom:
    """induced_homomorphism as it was before its one loop per atom."""
    if not is_inverse_nil_preserving(phi):
        raise NotInverseNilPreserving(
            "map pushes positive mass onto a null target atom"
        )
    domain = build_algebra(phi.target)
    codomain = build_algebra(phi.source)
    pre, top = phi.atom_preimages, codomain._top
    return BooleanHom(
        domain, codomain, {b: _mask(pre[b]) & top for b in domain.nonnull_atoms}
    )


def reference_apply(hom: BooleanHom, elem: AlgebraElement) -> AlgebraElement:
    """BooleanHom.apply as it was before it walked the set bits itself."""
    if elem.algebra != hom.domain:
        raise ForeignElement("element is not in the hom's domain algebra")
    image = 0
    for b in _ids(elem.mask):
        image |= hom.atom_masks[b]
    return AlgebraElement(hom.codomain, image)


def reference_pullback(phi: MeasurableMap, target_mask: int) -> int:
    """_pullback as it was before it walked the set bits itself."""
    pre = 0
    for b in _ids(target_mask):
        pre |= _mask(phi.atom_preimages[b])
    return pre


def _raised(fn, *args):
    """fn(*args), or the type and message of the MalgError it raises."""
    try:
        return fn(*args)
    except NotInverseNilPreserving as exc:
        return type(exc), str(exc)


def reference_disagreement(maps) -> Optional[tuple]:
    """The first (map, what differs) on which the library's functor-law
    path differs from the reference_* functions, or None. The library is
    read through its modules, so a planted fault takes effect. Each side's
    space is built again by malg.spaces.FiniteMeasureSpace, and compared
    are its atom classes, with the classes read off its weights, and its
    algebra fields and identity map; then the induced hom's atom masks (or
    the exception it raises), `apply` on every domain element and
    `_pullback` on every target mask."""
    for phi in maps:
        for space in (phi.source, phi.target):
            rebuilt = malg.spaces.FiniteMeasureSpace(
                space.points, space.atoms, space.weights
            )
            classes = (
                rebuilt.null_atom_ids, rebuilt.nonnull_atom_ids, rebuilt._fin_ids,
                rebuilt._null_mask, rebuilt._nonnull_mask, rebuilt._fin_mask,
            )
            if classes != reference_atom_classes(space.weights):
                return phi, "atom classes"
            alg = malg.algebra.MeasureAlgebra(rebuilt)
            if (alg.fin_atoms, alg._top, alg._fin) != reference_algebra_fields(space):
                return phi, "algebra fields"
            ident = malg.maps.identity_map(rebuilt)
            ref = reference_identity_map(space)
            if (ident.point_fn, ident.atom_preimages) != (
                ref.point_fn, ref.atom_preimages
            ):
                return phi, "identity map"
        hom = _raised(malg.maps.induced_homomorphism, phi)
        ref = _raised(reference_induced_homomorphism, phi)
        if isinstance(hom, BooleanHom) and isinstance(ref, BooleanHom):
            if hom.atom_masks != ref.atom_masks:
                return phi, "atom masks"
            for elem in hom.domain.all_elements():
                if hom.apply(elem).mask != reference_apply(hom, elem).mask:
                    return phi, "apply"
        elif hom != ref:
            return phi, "induced hom"
        for mask in range(1 << phi.target.n_atoms):
            if malg.maps._pullback(phi, mask) != reference_pullback(phi, mask):
                return phi, "pullback"
    return None


def primes_from(start: int, count: int) -> list[int]:
    """The first `count` primes at or above `start`, by a sieve of one
    window of 200,000 integers (enough for about 9,000 primes near 10**9)."""
    size = 200_000
    sieve = bytearray([1]) * size
    for p in range(2, isqrt(start + size) + 1):
        first = max(p * p, (start + p - 1) // p * p)
        sieve[first - start :: p] = bytes(len(range(first - start, size, p)))
    found = [start + i for i in range(size) if sieve[i]]
    assert len(found) >= count, "sieve window too small"
    return found[:count]


def python_child_output(args, timeout=None, exit_code=0, max_memory=None) -> bytes:
    """stdout of `python *args` in a child that imports the malg under
    test, installed or not; the child must exit with `exit_code`.
    `max_memory` caps the child's address space, in bytes (POSIX only)."""
    src = str(Path(malg.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def limit_memory():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (max_memory, max_memory))

    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
        preexec_fn=limit_memory if max_memory else None,
    )
    assert proc.returncode == exit_code, proc.stderr
    return proc.stdout
