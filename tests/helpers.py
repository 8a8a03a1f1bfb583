"""Independent oracles and exhaustive-check utilities for the tests.

These deliberately avoid the code paths they are used to verify.
`point_preimages` reads each map's preimages off its point function and
the two spaces' point blocks alone, never off the map's preimage masks or
their `atom_preimages` view, and a source rule keeps it so. Over that table, `point_null_laws` decides the
two null-ideal laws from their definitions, the reference for the
library's one-pullback laws; `oracle_pushforward_masses` measures each
target atom's point preimage; `point_images` gives the induced hom's atom
masks; and `point_disagreement` names the first map on which the
library's functor-law path (a space's atom classes, `MeasureAlgebra`'s
fields, `identity_map`, the preimages `MeasurableMap` derives,
`induced_homomorphism`, `BooleanHom.apply` and `_join`) differs from
the point preimages. `definition_pair_oracle`, the reference for the
library's pair oracle, reads the two spaces' weights and a table of atom
images alone, from `point_images` or a planted faulty hom. The
compression oracle scans every measurable target set against the
defining inequality, and the scaled mass tables are re-derived from atom
weights and cross-checked against the public rho before any law uses them.
`drop_lowest_image_atom` is a planted hom fault shared by the maps,
metric and mutant tests. `mutated` plants a fault by recompiling one
function with one snippet of its source replaced; only the one mutant
registry, `tests/mutants.py`, calls it, and a source rule keeps it so.
`python_child_output` runs a child interpreter on the malg under test.
`fraction_metric_check` is the metric axiom check in `Fraction`
arithmetic, the reference for the library's integer check;
`general_parse_rational` is the rational-string parser without a short
path, the reference for the library's parser; and `pair_scan_hom_laws`
is the hom-law check over every ordered pair of domain elements, the
reference for the library's join certificate and complement pass.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations, product
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
    BooleanHom,
    BruteForceReport,
    CompressionResult,
    ExtRational,
    InvalidRational,
    LawReport,
    LawViolation,
    MeasurableMap,
    MeasureAlgebra,
    MetricAxiomViolation,
    NotInverseNilPreserving,
    rho,
)
from malg.rationals import INF_TOKEN, MAX_DIGITS


def point_preimages(phi: MeasurableMap) -> list[int]:
    """Entry t is the mask of the source atoms whose points all land in the
    point blocks of the target atoms of mask t: phi's preimage of t, read
    off `point_fn` and the two spaces' point blocks alone."""
    target_atom = {q: b for b, block in enumerate(phi.target.atoms) for q in block}
    hitting = {}  # a mask of target atoms hit: the source atoms hitting just those
    for a, block in enumerate(phi.source.atoms):
        hit = sum({1 << target_atom[phi.point_fn[p]] for p in block})
        hitting[hit] = hitting.get(hit, 0) | 1 << a
    table = [0] * (1 << len(phi.target.atoms))
    for hit, atoms in hitting.items():
        table = [pre | atoms if hit | t == t else pre for t, pre in enumerate(table)]
    return table


def point_null_laws(phi: MeasurableMap) -> tuple[bool, bool]:
    """(null_ideal_preserved, check_well_definedness) from their
    definitions over point_preimages, with null atoms read off the weights.

    A target set is null when it has null atoms only; its preimage must be
    null. Target sets s | n with s the same and n null are equal mod null;
    the preimage of each is taken directly and must equal, mod null, that
    of s. Equality mod null is an equivalence, so that covers every pair.
    """
    table = point_preimages(phi)
    null_tgt = sum(1 << b for b, w in enumerate(phi.target.weights) if w.is_zero)
    nonnull_src = sum(1 << a for a, w in enumerate(phi.source.weights) if not w.is_zero)
    null_ideal = all(
        not table[n] & nonnull_src for n in range(len(table)) if n | null_tgt == null_tgt
    )
    well_defined = all(
        not (pre ^ table[t & ~null_tgt]) & nonnull_src for t, pre in enumerate(table)
    )
    return null_ideal, well_defined


def oracle_pushforward_masses(phi: MeasurableMap) -> list[ExtRational]:
    """Per-target-atom mass: the source weights on each target atom's
    point preimage."""
    table, weights = point_preimages(phi), phi.source.weights
    return [
        sum((w for a, w in enumerate(weights) if table[1 << b] >> a & 1), ExtRational(0))
        for b in range(len(phi.target.atoms))
    ]


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
    top, image_top = hom.domain._top, hom.codomain._top
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


def point_images(phi: MeasurableMap) -> Optional[dict[int, int]]:
    """Each non-null target atom's point preimage without the null source
    atoms: the induced hom's atom masks by definition, or None when phi
    breaks the null-ideal law and has no hom."""
    if not point_null_laws(phi)[0]:
        return None
    table = point_preimages(phi)
    nonnull_src = sum(1 << a for a, w in enumerate(phi.source.weights) if not w.is_zero)
    return {
        b: table[1 << b] & nonnull_src
        for b, w in enumerate(phi.target.weights) if not w.is_zero
    }


def oracle_outputs(report: BruteForceReport) -> tuple:
    """A pair-oracle report's outputs as definition_pair_oracle gives them."""
    witness = report.witness
    masks = None if witness is None else tuple(elem.mask for elem in witness)
    return report.result, masks, report.attained_at_empty


def definition_pair_oracle(phi: MeasurableMap, images: Optional[dict]) -> tuple:
    """(value, witness masks, attained_at_empty) of the pair oracle by its
    definition: the largest rho1(hom a, hom b) / rho2(a, b) over ordered
    pairs a != b of finite target elements, as sorted atom-id tuples, where
    hom sends non-null target atom b to source-atom mask images[b] (None:
    no hom). Unbounded when the finite atoms' image meets an infinite
    source atom; the witness is the first (a, empty) that attains the
    value, else the first pair that does."""
    if images is None:
        return UNBOUNDED, None, None
    src, tgt = phi.source.weights, phi.target.weights
    fin = [b for b, w in enumerate(tgt) if not (w.is_zero or w.is_infinite)]
    elements = sorted(
        chain.from_iterable(combinations(fin, k) for k in range(len(fin) + 1))
    )
    mask = {e: sum(1 << b for b in e) for e in elements}
    image = {e: reduce(or_, (images[b] for b in e), 0) for e in elements}
    if any(image[tuple(fin)] >> a & 1 for a, w in enumerate(src) if w.is_infinite):
        return UNBOUNDED, None, None
    if len(elements) < 2:
        return CompressionResult.bounded(0), None, None

    def mass(weights, atoms: int) -> Fraction:
        picked = (w for i, w in enumerate(weights) if atoms >> i & 1)
        return sum((w.as_fraction() for w in picked), Fraction(0))

    @cache  # many pairs share their two symmetric differences
    def ratio(src_atoms: int, tgt_atoms: int) -> Fraction:
        return mass(src, src_atoms) / mass(tgt, tgt_atoms)

    pairs = [(a, b) for a in elements for b in elements if a != b]
    ratios = [ratio(image[a] ^ image[b], mask[a] ^ mask[b]) for a, b in pairs]
    best = max(ratios)
    at_empty = [(a, b) for (a, b), r in zip(pairs, ratios) if not b and r == best]
    a, b = at_empty[0] if at_empty else pairs[ratios.index(best)]
    return CompressionResult.bounded(best), (mask[a], mask[b]), bool(at_empty)


# how induced_homomorphism refuses a map that is not inverse-nil-preserving
_REFUSAL = (NotInverseNilPreserving, "map pushes positive mass onto a null target atom")


def point_disagreement(maps) -> Optional[tuple]:
    """The first (map, what differs) on which the library's functor-law
    path differs from point preimages, or None. The library is read
    through its modules, so a planted fault takes effect. Each side's space
    is built again by malg.spaces.FiniteMeasureSpace; its atom classes, as
    ids and as masks, and its algebra's fields must be those read off its
    weights, and its identity map must fix every point and have the
    preimage blocks of its points. Then the map built again by
    malg.maps.make_map must have the preimage blocks of its points; the
    induced hom must send each non-null target atom to its point preimage
    without the null source atoms, or refuse exactly the maps that break
    the null-ideal law; `apply` must do so on every domain element and
    `_join` over the preimage masks must give the point preimage of every
    target mask."""

    built = set()  # a space is rebuilt from its points, atoms and weights alone
    for phi in maps:
        for space in (phi.source, phi.target):
            if space in built:
                continue
            built.add(space)
            rebuilt = malg.spaces.FiniteMeasureSpace(
                space.points, space.atoms, space.weights
            )
            null = tuple(i for i, w in enumerate(space.weights) if w.is_zero)
            nonnull = tuple(i for i, w in enumerate(space.weights) if not w.is_zero)
            fin = tuple(i for i in nonnull if not space.weights[i].is_infinite)
            masks = tuple(sum(1 << i for i in ids) for ids in (null, nonnull, fin))
            classes = (
                rebuilt.null_atom_ids, rebuilt.nonnull_atom_ids, rebuilt._fin_ids,
                rebuilt._null_mask, rebuilt._nonnull_mask, rebuilt._fin_mask,
            )
            if classes != (null, nonnull, fin, *masks):
                return phi, "atom classes"
            alg = malg.algebra.MeasureAlgebra(rebuilt)
            if (alg.nonnull_atoms, alg.fin_atoms, alg._top, alg._fin) != (
                nonnull, fin, *masks[1:]
            ):
                return phi, "algebra fields"
            # the identity fixes every point, so each atom is its own preimage
            ident = malg.maps.identity_map(rebuilt)
            if (ident.point_fn, ident.atom_preimages) != (
                {p: p for p in space.points}, tuple((a,) for a in range(len(space.atoms)))
            ):
                return phi, "identity map"
        table = point_preimages(phi)
        blocks = tuple(
            tuple(a for a in range(len(phi.source.atoms)) if table[1 << b] >> a & 1)
            for b in range(len(phi.target.atoms))
        )
        remade = malg.maps.make_map(phi.source, phi.target, phi.point_fn)
        if remade.atom_preimages != blocks:
            return phi, "preimage blocks"
        nonnull_src = sum(
            1 << a for a, w in enumerate(phi.source.weights) if not w.is_zero
        )
        expected = point_images(phi)
        try:
            hom = malg.maps.induced_homomorphism(phi)
        except NotInverseNilPreserving as exc:
            if expected is not None or (type(exc), str(exc)) != _REFUSAL:
                return phi, "induced hom"
        else:
            if expected is None:
                return phi, "induced hom"
            if hom.atom_masks != expected:
                return phi, "atom masks"
            for elem in hom.domain.all_elements():
                if hom.apply(elem).mask != table[elem.mask] & nonnull_src:
                    return phi, "apply"
        for mask, pre in enumerate(table):
            if malg.spaces._join(phi._preimage_masks, mask) != pre:
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
