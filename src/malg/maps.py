"""Measurable maps and the machinery around them.

A map is measurable when the preimage of every target atom is a union of
source atoms. If on top of that the preimage of every null set is null
(`inverse-nil-preserving`), the map descends to a Boolean homomorphism
between the measure algebras, acting contravariantly.

Three routes compute the same constant and must agree exactly:

* :func:`compression` reads atomwise ratios off the pushforward measure;
* :func:`lipschitz_fast` takes the max of mu-bar ratios over single target
  atoms under the induced homomorphism;
* :func:`lipschitz_bruteforce` enumerates every pair of finite-measure
  algebra elements and maximizes the distance ratio.

The first two share no ratio code on purpose; the third is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import and_, or_
from typing import Mapping, Optional

from .algebra import AlgebraElement, MeasureAlgebra, build_algebra, mu_bar
from .errors import (
    BudgetExceeded,
    ForeignElement,
    NotInverseNilPreserving,
    NotMeasurable,
    SpaceMismatch,
    UnknownPoint,
)
from .rationals import ExtRational, to_fraction
from .spaces import FiniteMeasureSpace, _ids, _mask, _submasks


class MeasurableMap:
    """A point function whose atom preimages are unions of source atoms.

    `atom_preimages[b]` lists (sorted) the source atoms mapped into target
    atom b; the blocks are disjoint and jointly cover every source atom.
    Build with :func:`make_map`, which verifies measurability.
    """

    __slots__ = ("source", "target", "point_fn", "atom_preimages")

    point_fn: dict[str, str]
    atom_preimages: tuple[tuple[int, ...], ...]

    def __init__(self, source, target, point_fn, atom_preimages):
        self.source = source
        self.target = target
        self.point_fn = dict(point_fn)
        self.atom_preimages = atom_preimages

    def __call__(self, point: str) -> str:
        try:
            return self.point_fn[point]
        except KeyError:
            raise UnknownPoint(f"unknown point {point!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurableMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.point_fn == other.point_fn
        )

    def __repr__(self) -> str:
        return (
            f"MeasurableMap({len(self.source.points)} points -> "
            f"{len(self.target.points)} points)"
        )


def make_map(
    source: FiniteMeasureSpace,
    target: FiniteMeasureSpace,
    point_fn: Mapping[str, str],
) -> MeasurableMap:
    """Build a measurable map from a total point function.

    Raises UnknownPoint if the function is not total on the source points
    or hits labels outside the target, NotMeasurable if some target atom's
    preimage splits a source atom.
    """
    fn = dict(point_fn)
    src_points = set(source.points)
    missing = src_points - fn.keys()
    if missing:
        raise UnknownPoint(f"no image assigned for points {sorted(missing)}")
    extra = fn.keys() - src_points
    if extra:
        raise UnknownPoint(f"not source points: {sorted(extra)}")

    image_atom = {}
    for p, q in fn.items():
        image_atom[p] = target.atom_of(q)  # raises UnknownPoint on bad labels

    assigned: list[Optional[int]] = [None] * source.n_atoms
    for a, block in enumerate(source.atoms):
        hit = {image_atom[p] for p in block}
        if len(hit) > 1:
            names = [target.atoms[b] for b in sorted(hit)]
            raise NotMeasurable(
                f"source atom {block} splits across target atoms {names}"
            )
        assigned[a] = hit.pop()

    preimages = [[] for _ in range(target.n_atoms)]
    for a, b in enumerate(assigned):
        preimages[b].append(a)
    return MeasurableMap(
        source, target, fn, tuple(tuple(block) for block in preimages)
    )


def identity_map(space: FiniteMeasureSpace) -> MeasurableMap:
    return make_map(space, space, {p: p for p in space.points})


def compose(g: MeasurableMap, f: MeasurableMap) -> MeasurableMap:
    """The composite `g after f`; requires f's target to equal g's source."""
    if f.target != g.source:
        raise SpaceMismatch("f's target differs from g's source")
    fn = {p: g.point_fn[f.point_fn[p]] for p in f.source.points}
    return make_map(f.source, g.target, fn)


class PushforwardMeasure:
    """Image measure on the target: per-atom mass pulled through the map."""

    __slots__ = ("target", "masses")

    def __init__(self, target: FiniteMeasureSpace, masses: tuple[ExtRational, ...]):
        self.target = target
        self.masses = masses

    def __eq__(self, other) -> bool:
        if not isinstance(other, PushforwardMeasure):
            return NotImplemented
        return self.target == other.target and self.masses == other.masses

    def __repr__(self) -> str:
        return f"PushforwardMeasure({[str(m) for m in self.masses]})"


def pushforward(phi: MeasurableMap) -> PushforwardMeasure:
    masses = []
    for block in phi.atom_preimages:
        m = ExtRational(0)
        for a in block:
            m = m + phi.source.weights[a]
        masses.append(m)
    return PushforwardMeasure(phi.target, tuple(masses))


def is_inverse_nil_preserving(phi: MeasurableMap) -> bool:
    """True iff no mass lands on a null target atom.

    Checked on the preimage side: every source atom mapped into a null
    target atom must itself be null.
    """
    for b in phi.target.null_atom_ids:
        for a in phi.atom_preimages[b]:
            if not phi.source.weights[a].is_zero:
                return False
    return True


def _pullback(phi: MeasurableMap, target_mask: int) -> int:
    """Mask of the source atoms mapped into the target atoms of the mask."""
    pre = 0
    for b in _ids(target_mask):
        pre |= _mask(phi.atom_preimages[b])
    return pre


def null_ideal_preserved(phi: MeasurableMap) -> bool:
    """Null-ideal formulation: the preimage of every null set is null.

    Enumerates all null target sets (exactly the unions of null atoms) and
    measures their preimages; agrees with is_inverse_nil_preserving.
    """
    nonnull_src = _mask(phi.source.nonnull_atom_ids)
    return not any(
        _pullback(phi, n) & nonnull_src
        for n in _submasks(_mask(phi.target.null_atom_ids))
    )


def check_well_definedness(phi: MeasurableMap) -> bool:
    """True iff target sets equal mod null have preimages equal mod null.

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


class BooleanHom:
    """Action of a map on measure algebras, from target algebra to source.

    Determined by its values on atoms of the domain; applying it to an
    element takes the join of the atom actions.
    """

    __slots__ = ("domain", "codomain", "atom_action")

    atom_action: dict[int, AlgebraElement]

    def __init__(
        self,
        domain: MeasureAlgebra,
        codomain: MeasureAlgebra,
        atom_action: Mapping[int, AlgebraElement],
    ):
        if sorted(atom_action) != list(domain.nonnull_atoms):
            raise ValueError("atom_action must cover exactly the domain atoms")
        for elem in atom_action.values():
            if elem.algebra != codomain:
                raise ForeignElement("atom action lands outside the codomain")
        self.domain = domain
        self.codomain = codomain
        self.atom_action = dict(atom_action)

    def apply(self, elem: AlgebraElement) -> AlgebraElement:
        if elem.algebra != self.domain:
            raise ForeignElement("element is not in the hom's domain algebra")
        image = 0
        for b in _ids(elem.mask):
            image |= self.atom_action[b].mask
        return AlgebraElement(self.codomain, image)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanHom):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.atom_action == other.atom_action
        )

    def __repr__(self) -> str:
        return f"BooleanHom({len(self.atom_action)} atom actions)"


def induced_homomorphism(phi: MeasurableMap) -> BooleanHom:
    """The contravariant hom from the target algebra to the source algebra.

    Exists exactly when the map is inverse-nil-preserving; raises
    NotInverseNilPreserving otherwise.
    """
    if not is_inverse_nil_preserving(phi):
        raise NotInverseNilPreserving(
            "map pushes positive mass onto a null target atom"
        )
    domain = build_algebra(phi.target)
    codomain = build_algebra(phi.source)
    action = {
        b: AlgebraElement(codomain, _mask(phi.atom_preimages[b]) & codomain._top)
        for b in domain.nonnull_atoms
    }
    return BooleanHom(domain, codomain, action)


@dataclass(frozen=True)
class CompressionResult:
    """Either a finite infimal constant or the unbounded outcome."""

    value: Optional[Fraction]  # None encodes Unbounded

    @classmethod
    def bounded(cls, value) -> "CompressionResult":
        """A finite constant; a negative value raises ValueError."""
        frac = to_fraction(value)
        if frac < 0:
            raise ValueError(f"a compression constant is never negative, got {frac}")
        return cls(frac)

    @property
    def is_bounded(self) -> bool:
        return self.value is not None

    @property
    def degenerate(self) -> bool:
        return self.value == 0

    def le(self, other: "CompressionResult") -> bool:
        """Order with Unbounded on top."""
        if other.value is None:
            return True
        if self.value is None:
            return False
        return self.value <= other.value

    def times(self, other: "CompressionResult") -> "CompressionResult":
        """Product with Unbounded absorbing."""
        if self.value is None or other.value is None:
            return CompressionResult(None)
        return CompressionResult(self.value * other.value)

    def __str__(self) -> str:
        return "unbounded" if self.value is None else str(self.value)


UNBOUNDED = CompressionResult(None)


def compression(phi: MeasurableMap) -> CompressionResult:
    """Infimal C with pushforward <= C * target measure, atom by atom.

    Null target atoms receiving mass and finite atoms receiving infinite
    mass force Unbounded; atoms of infinite weight or zero mass constrain
    nothing. Bounded(0) is the degenerate zero-pushforward case.
    """
    push = pushforward(phi)
    best: Optional[Fraction] = None
    for b in range(phi.target.n_atoms):
        w = phi.target.weights[b]
        m = push.masses[b]
        if w.is_zero:
            if not m.is_zero:
                return UNBOUNDED
            continue
        if w.is_infinite:
            continue
        if m.is_infinite:
            return UNBOUNDED
        if m.is_zero:
            continue
        ratio = (m / w).as_fraction()
        if best is None or ratio > best:
            best = ratio
    return CompressionResult.bounded(best if best is not None else 0)


def lipschitz_fast(phi: MeasurableMap) -> CompressionResult:
    """Lipschitz constant of the induced hom via the single-atom reduction.

    Atoms are extremal for the distance-ratio sup (mediant inequality), so
    the max over finite-weight target atoms of mu-bar(image)/mu-bar(atom)
    already equals the constant. Unbounded when the map is not inp or the
    finite ideal is not preserved. Shares no ratio code with compression.
    """
    if not is_inverse_nil_preserving(phi):
        return UNBOUNDED
    hom = induced_homomorphism(phi)
    best: Optional[Fraction] = None
    for b in hom.domain.fin_atoms:
        image_mass = mu_bar(hom.atom_action[b])
        if image_mass.is_infinite:
            return UNBOUNDED  # finite ideal not preserved
        atom_mass = mu_bar(hom.domain.element((b,)))
        ratio = (image_mass / atom_mass).as_fraction()
        if best is None or ratio > best:
            best = ratio
    return CompressionResult.bounded(best if best is not None else 0)


@dataclass(frozen=True)
class BruteForceReport:
    """Outcome of the exhaustive pair enumeration.

    `witness` is the canonically-first attaining pair, preferring pairs
    whose second component is the zero element; `attained_at_empty` says
    whether any (a, zero) pair attains the max. Both are None when there
    is no pair to enumerate or the result is Unbounded.
    """

    result: CompressionResult
    witness: Optional[tuple[AlgebraElement, AlgebraElement]]
    attained_at_empty: Optional[bool]


def lipschitz_bruteforce(phi: MeasurableMap, budget: int = 12) -> BruteForceReport:
    """Maximize rho1(hom a, hom b) / rho2(a, b) over all pairs a != b.

    Enumerates the full finite-measure ideal of the target algebra, so the
    number of non-null target atoms must not exceed `budget` (default 12);
    raises BudgetExceeded above that.
    """
    domain = build_algebra(phi.target)
    n_nonnull = len(domain.nonnull_atoms)
    if n_nonnull > budget:
        raise BudgetExceeded(
            f"{n_nonnull} non-null target atoms exceed the budget of {budget}"
        )
    if not is_inverse_nil_preserving(phi):
        return BruteForceReport(UNBOUNDED, None, None)
    hom = induced_homomorphism(phi)

    # target elements are masks over positions in `fin`; their images are
    # source atom masks
    fin = domain.fin_atoms
    nf = len(fin)
    action_masks = [hom.atom_action[b].mask for b in fin]
    src_weights = phi.source.weights

    # image under the hom, per finite-ideal mask
    images = [0] * (1 << nf)
    for mask in range(1, 1 << nf):
        low = (mask & -mask).bit_length() - 1
        images[mask] = images[mask & (mask - 1)] | action_masks[low]

    infinite_src = _mask(i for i, w in enumerate(src_weights) if w.is_infinite)
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


@dataclass(frozen=True)
class LawViolation:
    law: str
    witness: dict


@dataclass(frozen=True)
class LawReport:
    violations: tuple[LawViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_hom_laws(hom: BooleanHom) -> LawReport:
    """Exhaustively verify the Boolean-homomorphism laws on the domain.

    Applies the hom once to every domain element, then checks preservation
    of zero, top, joins, meets, and complements on the table of image
    masks; the first counterexample found for each law (in canonical
    element order) is reported as its witness.
    """
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
        LawViolation(law, {key: list(_ids(m)) for key, m in witness.items()})
        for law, witness in found
    ))
