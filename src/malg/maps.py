"""Measurable maps and the machinery around them.

A map is measurable when the preimage of every target atom is a union of
source atoms. If on top of that the preimage of every null set is null
(`inverse-nil-preserving`), the map descends to a Boolean homomorphism
between the measure algebras, acting contravariantly.

Three routes compute the same constant and must agree exactly:

* :func:`compression` reads atomwise ratios off the pushforward measure,
  each a quotient of two Fractions;
* :func:`lipschitz_fast` takes the max of mu-bar ratios over single target
  atoms under the induced homomorphism, compared as int pairs by
  cross-multiplication;
* :func:`lipschitz_bruteforce` maximizes the distance ratio over the pairs
  of finite-measure algebra elements in its own Fraction pair loop. It
  visits each unordered pair once: both distances are symmetric in the
  pair, for any table of images, so the two orders of a pair have one
  ratio. One running best pair, the first to attain the max, gives the
  witness.

The three share no ratio code on purpose, so a fault in one route's
arithmetic leaves it alone against the other two; the third is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
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
from .spaces import (
    FiniteMeasureSpace,
    _atom_id,
    _canonical,
    _ids,
    _join,
    _require,
    _stray,
    _weighted_sum,
)


class MeasurableMap:
    """A point function whose atom preimages are unions of source atoms.

    The constructor is the one way in and checks the function: UnknownPoint
    if it is not total on the source points or hits labels outside the
    target, NotMeasurable if a target atom's preimage splits a source atom;
    every label is checked before any atom. Each target atom's preimage is
    kept as a mask of source atoms, and `point_fn`, a mapping or an
    iterable of (point, image) pairs, as one dict built from it.
    """

    __slots__ = ("source", "target", "point_fn", "_preimage_masks")

    point_fn: dict[str, str]
    _preimage_masks: tuple[int, ...]

    def __init__(self, source, target, point_fn):
        _require(source, FiniteMeasureSpace, "a map's source")
        _require(target, FiniteMeasureSpace, "a map's target")
        fn = dict(point_fn)
        atom_of = target._atom_of
        masks = [0] * target.n_atoms
        # one pass over the atoms; _refuse names the first fault, if any
        try:
            for a, block in enumerate(source.atoms):
                b = atom_of[fn[block[0]]]
                for p in block:
                    if atom_of[fn[p]] != b:
                        _refuse(source, target, fn)
                masks[b] |= 1 << a
        except (KeyError, TypeError):
            _refuse(source, target, fn)
        if len(fn) != len(source.points):
            _refuse(source, target, fn)
        self.source = source
        self.target = target
        self.point_fn = fn
        self._preimage_masks = tuple(masks)

    @property
    def atom_preimages(self) -> tuple[tuple[int, ...], ...]:
        """The source atoms mapped into each target atom, ascending."""
        return tuple(map(_ids, self._preimage_masks))

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


def _refuse(source, target, fn: dict) -> None:
    """Raise the first fault of fn: missing, extra, unknown labels, split atoms."""
    src_points = source._atom_of.keys()
    missing = src_points - fn.keys()
    if missing:
        raise UnknownPoint(f"no image assigned for points {sorted(missing)}")
    extra = fn.keys() - src_points
    if extra:
        raise UnknownPoint(f"not source points: {sorted(extra)}")
    if set(fn.values()) - target._atom_of.keys():
        for q in fn.values():
            target.atom_of(q)  # names the first bad label in fn's order
    for block in source.atoms:
        hit = sorted({target._atom_of[fn[x]] for x in block})
        if len(hit) > 1:
            names = [target.atoms[c] for c in hit]
            raise NotMeasurable(f"source atom {block} splits across target atoms {names}")


def make_map(
    source: FiniteMeasureSpace,
    target: FiniteMeasureSpace,
    point_fn: Mapping[str, str],
) -> MeasurableMap:
    """Build a measurable map from a total point function; see MeasurableMap."""
    return MeasurableMap(source, target, point_fn)


def identity_map(space: FiniteMeasureSpace) -> MeasurableMap:
    """The identity on `space`, checked like every other map."""
    return MeasurableMap(space, space, zip(space.points, space.points))


def compose(g: MeasurableMap, f: MeasurableMap) -> MeasurableMap:
    """The composite `g after f`; requires f's target to equal g's source."""
    if f.target != g.source:
        raise SpaceMismatch("f's target differs from g's source")
    f_fn, g_fn = f.point_fn, g.point_fn
    fn = {p: g_fn[f_fn[p]] for p in f.source.points}
    return MeasurableMap(f.source, g.target, fn)


def pushforward(phi: MeasurableMap) -> tuple[ExtRational, ...]:
    """The image measure: per target atom, the ExtRational weight of its preimage."""
    weights = phi.source.weights
    return tuple(_weighted_sum(weights, pre) for pre in phi._preimage_masks)


def is_inverse_nil_preserving(phi: MeasurableMap) -> bool:
    """True iff no mass lands on a null target atom.

    Checked on the preimage side: every source atom mapped into a null
    target atom must itself be null.
    """
    weights, masks = phi.source.weights, phi._preimage_masks
    for b in phi.target.null_atom_ids:
        for a in _ids(masks[b]):
            if not weights[a].is_zero:
                return False
    return True


def null_ideal_preserved(phi: MeasurableMap) -> bool:
    """Null-ideal formulation: the preimage of every null set is null.

    The preimage is a `_join` over atoms, so it is monotone and preserves
    joins. Every null target set lies inside N, the join of the null
    target atoms, so the law holds exactly when the preimage of N has
    measure zero; that one preimage is measured. Agrees with
    is_inverse_nil_preserving.
    """
    null_tgt = phi.target._null_mask
    pre = _join(phi._preimage_masks, null_tgt)
    return _weighted_sum(phi.source.weights, pre).is_zero


def check_well_definedness(phi: MeasurableMap) -> bool:
    """True iff target sets equal mod null have preimages equal mod null.

    Two target sets equal mod null differ only inside N, the join of the
    null target atoms. The preimage is a `_join` over atoms, so it is
    monotone and preserves joins: their preimages differ only inside the
    preimage of N. The pair (top, top ^ N) is itself equal mod null and
    its preimages differ by exactly the preimage of N, so comparing that
    one pair modulo null decides the law.
    """
    nonnull_src = phi.source._nonnull_mask
    null_tgt = phi.target._null_mask
    top, pre = phi.target._top, phi._preimage_masks
    return not (_join(pre, top) ^ _join(pre, top ^ null_tgt)) & nonnull_src


class BooleanHom:
    """Action of a map on measure algebras, from target algebra to source.

    Determined by its values on atoms of the domain, held as int masks:
    `atom_masks[b]` is the codomain atom mask of atom b's image. Applying
    it to an element takes the join of its atoms' images.

    The constructor copies `atom_masks` once and checks the copy in one
    pass: each key is a non-null domain atom and each mask exactly an int,
    and the union of the masks is non-negative and inside the codomain's
    top. Only a table that fails is walked again, by `_refuse_masks`, to
    name its first fault.
    """

    __slots__ = ("domain", "codomain", "atom_masks")

    atom_masks: dict[int, int]

    def __init__(
        self,
        domain: MeasureAlgebra,
        codomain: MeasureAlgebra,
        atom_masks: Mapping[int, int],
    ):
        _require(domain, MeasureAlgebra, "a hom's domain")
        _require(codomain, MeasureAlgebra, "a hom's codomain")
        masks = dict(atom_masks)
        union, fits = 0, False
        for b, mask in masks.items():
            if type(b) is not int or type(mask) is not int:
                break
            union |= mask
        else:
            atoms = domain.nonnull_atoms
            fits = (
                (tuple(masks) == atoms or sorted(masks) == list(atoms))
                and union >= 0
                and not union & ~codomain._top
            )
        if not fits:
            _refuse_masks(domain, codomain, masks)
        self.domain = domain
        self.codomain = codomain
        self.atom_masks = masks

    def apply(self, elem: AlgebraElement) -> AlgebraElement:
        if elem.algebra is not self.domain and elem.algebra != self.domain:
            raise ForeignElement("element is not in the hom's domain algebra")
        return AlgebraElement(self.codomain, _join(self.atom_masks, elem.mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanHom):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.atom_masks == other.atom_masks
        )

    def __repr__(self) -> str:
        return f"BooleanHom({len(self.atom_masks)} atom images)"


def _refuse_masks(domain: MeasureAlgebra, codomain: MeasureAlgebra, masks: dict) -> None:
    """Raise the first fault of a hom's atom masks: each key in turn, then
    the key set, then each mask in turn, its type before its range."""
    for b in masks:
        _atom_id(b)
    if sorted(masks) != list(domain.nonnull_atoms):
        raise ValueError("atom_masks must cover exactly the domain atoms")
    outside = ~codomain._top
    for mask in masks.values():
        if type(mask) is not int:
            raise TypeError(f"an atom image mask must be an int, not {mask!r}")
        # a negative mask has infinitely many bits: _ids would never stop on it
        if mask < 0 or mask & outside:
            raise ValueError(
                "atom image mask has null or out-of-range atoms: "
                + _stray(mask, outside)
            )


def induced_homomorphism(phi: MeasurableMap) -> BooleanHom:
    """The contravariant hom from the target algebra to the source algebra.

    Exists exactly when the map is inverse-nil-preserving; raises
    NotInverseNilPreserving otherwise. Each non-null target atom goes to
    the mask of its preimage with the null source atoms dropped. An
    endomorphism's hom has one algebra on both sides.
    """
    if not is_inverse_nil_preserving(phi):
        raise NotInverseNilPreserving(
            "map pushes positive mass onto a null target atom"
        )
    domain = build_algebra(phi.target)
    codomain = domain if phi.source is phi.target else build_algebra(phi.source)
    pre, top = phi._preimage_masks, codomain._top
    return BooleanHom(domain, codomain, {b: pre[b] & top for b in domain.nonnull_atoms})


@dataclass(frozen=True)
class CompressionResult:
    """Either a finite infimal constant or the unbounded outcome."""

    value: Optional[Fraction]  # None encodes Unbounded

    def __post_init__(self):
        value = self.value
        if value is not None and not isinstance(value, Fraction):
            raise TypeError(f"a compression constant is a Fraction or None, not {value!r}")
        if value is not None and value < 0:
            raise ValueError(f"a compression constant is never negative, got {value}")

    @classmethod
    def bounded(cls, value) -> "CompressionResult":
        """A finite constant; a negative value raises ValueError."""
        return cls(to_fraction(value))

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
    masses = pushforward(phi)
    best: Optional[Fraction] = None
    for b in range(phi.target.n_atoms):
        w = phi.target.weights[b]
        m = masses[b]
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
        ratio = m.as_fraction() / w.as_fraction()
        if best is None or ratio > best:
            best = ratio
    return CompressionResult.bounded(best if best is not None else 0)


def lipschitz_fast(phi: MeasurableMap) -> CompressionResult:
    """Lipschitz constant of the induced hom via the single-atom reduction.

    Atoms are extremal for the distance-ratio sup (mediant inequality), so
    the max over finite-weight target atoms of mu-bar(image)/mu-bar(atom)
    already equals the constant. Unbounded when the map is not inp or the
    finite ideal is not preserved. Shares no ratio code with compression:
    the best ratio is an int pair (num, den), compared by cross-multiplying
    over positive denominators, and made a Fraction once at the end.
    """
    try:
        hom = induced_homomorphism(phi)
    except NotInverseNilPreserving:
        return UNBOUNDED
    num, den = 0, 1
    for b in hom.domain.fin_atoms:
        image_mass = mu_bar(AlgebraElement(hom.codomain, hom.atom_masks[b]))
        if image_mass.is_infinite:
            return UNBOUNDED  # finite ideal not preserved
        image = image_mass.as_fraction()
        atom = phi.target.weights[b].as_fraction()  # finite, > 0
        p = image.numerator * atom.denominator
        q = image.denominator * atom.numerator
        if p * den > num * q:
            num, den = p, q
    return CompressionResult.bounded(Fraction(num, den))


@dataclass(frozen=True)
class BruteForceReport:
    """Outcome of the exhaustive pair enumeration.

    `witness` is the canonically-first attaining ordered pair, preferring
    pairs whose second component is the zero element; it is None when
    there is no pair to enumerate or the result is Unbounded.
    `attained_at_empty` is derived from it: whether its second component
    is zero, so whether any (a, zero) pair attains the max, and None with
    no witness. `pairs` counts the unordered pairs whose ratio was
    computed: 2^n (2^n - 1) / 2 for n non-null target atoms of finite
    weight, and 0 when none was. It takes no part in == and no report
    renders it. Each field is checked on construction: TypeError on a
    wrong type, ValueError on a witness that is not a pair or a negative
    count.
    """

    result: CompressionResult
    witness: Optional[tuple[AlgebraElement, AlgebraElement]]
    pairs: int = field(default=0, compare=False)

    def __post_init__(self):
        _require(self.result, CompressionResult, "a brute-force result")
        if self.witness is not None:
            if len(_require(self.witness, tuple, "a witness")) != 2:
                raise ValueError(f"a witness is a pair, not {self.witness!r}")
            for elem in self.witness:
                _require(elem, AlgebraElement, "a witness element")
        if _require(self.pairs, int, "a pair count") < 0:
            raise ValueError(f"a pair count is never negative, got {self.pairs}")

    @property
    def attained_at_empty(self) -> Optional[bool]:
        """Whether an (a, zero) pair attains the max; None with no witness."""
        return None if self.witness is None else self.witness[1].is_zero


DEFAULT_BUDGET = 12  # non-null target atoms the oracle enumerates by default


def lipschitz_bruteforce(
    phi: MeasurableMap, budget: int = DEFAULT_BUDGET
) -> BruteForceReport:
    """Maximize rho1(hom a, hom b) / rho2(a, b) over all pairs a != b.

    Enumerates the full finite-measure ideal of the target algebra, so the
    number of non-null target atoms must not exceed `budget` (DEFAULT_BUDGET);
    raises BudgetExceeded above that. A budget that is not exactly an int
    (a bool included) raises TypeError.

    Each unordered pair is visited once, a before b in canonical order.
    The max is that over ordered pairs: rho1(hom a, hom b) and rho2(a, b)
    are symmetric in (a, b) for any table of images, lawful or faulty.
    The witness is the same too: if the first ordered pair (x, y) to
    attain the max had y before x, then (y, x) would attain it and come
    earlier. The loop keeps one running best pair, replaced only by a
    row whose max is strictly larger, at that max's first place in the
    row, so it is the first unordered pair to attain the max. Zero comes
    first, so when any (zero, b) attains it, the best pair is the first
    such one and the witness is (b, zero); otherwise it is the best pair.
    """
    if type(budget) is not int:
        raise TypeError(f"budget must be an int, not {budget!r}")
    n_nonnull = len(phi.target.nonnull_atom_ids)
    if n_nonnull > budget:
        raise BudgetExceeded(
            f"{n_nonnull} non-null target atoms exceed the budget of {budget}"
        )
    try:
        hom = induced_homomorphism(phi)
    except NotInverseNilPreserving:
        return BruteForceReport(UNBOUNDED, None)
    domain = hom.domain

    # the finite ideal as atom masks in canonical order; each element less
    # its highest atom comes before it, so one pass fills the image under
    # the hom and the target mass of every element
    order = list(_canonical(domain._fin))
    atom_masks, tgt_weights = hom.atom_masks, phi.target.weights
    images: dict[int, int] = {0: 0}
    mu2: dict[int, Fraction] = {0: Fraction(0)}
    for mask in order[1:]:
        high = mask.bit_length() - 1
        rest = mask ^ (1 << high)
        images[mask] = images[rest] | atom_masks[high]
        mu2[mask] = mu2[rest] + tgt_weights[high].as_fraction()

    infinite_src = phi.source._nonnull_mask ^ phi.source._fin_mask
    if images[domain._fin] & infinite_src:
        return BruteForceReport(UNBOUNDED, None)  # fin ideal broken

    src_weights = phi.source.weights

    @cache
    def mu1(mask: int) -> Fraction:
        return sum((src_weights[a].as_fraction() for a in _ids(mask)), Fraction(0))

    best: Optional[Fraction] = None
    best_pair: Optional[tuple[int, int]] = None
    pairs = 0
    for i, a in enumerate(order[:-1]):
        img_a = images[a]
        row = order[i + 1:]
        ratios = [mu1(img_a ^ images[b]) / mu2[a ^ b] for b in row]
        pairs += len(ratios)
        top = max(ratios)
        if best is None or top > best:
            best, best_pair = top, (a, row[ratios.index(top)])

    if best_pair is None:
        return BruteForceReport(CompressionResult.bounded(0), None)
    a, b = best_pair
    pair = (b, 0) if a == 0 else best_pair
    witness = (AlgebraElement(domain, pair[0]), AlgebraElement(domain, pair[1]))
    return BruteForceReport(CompressionResult.bounded(best), witness, pairs)


@dataclass(frozen=True)
class LawViolation:
    """One broken law, named, with the witness that breaks it."""

    law: str
    witness: dict

    def __post_init__(self):
        _require(self.law, str, "a law's name")
        _require(self.witness, dict, "a law's witness")


@dataclass(frozen=True)
class LawReport:
    """The broken laws of one check, as a tuple of LawViolations."""

    violations: tuple[LawViolation, ...]

    def __post_init__(self):
        for violation in _require(self.violations, tuple, "a report's violations"):
            _require(violation, LawViolation, "a law violation")

    @property
    def ok(self) -> bool:
        return not self.violations


def _joins_certified(image: dict[int, int]) -> bool:
    """True iff the table of image masks preserves every join.

    Each nonzero element a is its lowest atom joined with the rest,
    a & -a and a & (a - 1); by induction on the atoms, the table keeps
    that one join for every a exactly when every image is image[0] joined
    with the images of the element's atoms, and such a table preserves
    every join.
    """
    return all(image[a] == image[a & (a - 1)] | image[a & -a] for a in image if a)


def _uncomplemented(image: dict[int, int], top: int, image_top: int) -> Optional[int]:
    """The table's first element whose complement maps to the wrong image, or None."""
    return next((a for a in image if image[a ^ top] != image[a] ^ image_top), None)


def check_hom_laws(hom: BooleanHom) -> LawReport:
    """Exhaustively verify the Boolean-homomorphism laws on the domain.

    Applies the hom once to every domain element, in canonical order, and
    decides all five laws from two linear tests on that one table of image
    masks: complements, and the join certificate. Kept joins put image[0]
    inside image[top]; the complement of 0 makes image[top] the codomain's
    top less image[0], so disjoint from it. So image[0] is 0 and image[top]
    is the codomain's top, and meets follow by De Morgan, since
    AlgebraElement keeps every image mask inside that top. A failing table
    is scanned law by law (zero, top, all ordered pairs for join and for
    meet, complement) for each law's first counterexample, its witness: up
    to 2 * 4^k pairs for k domain atoms, even when joins or meets hold. No
    CLI command calls this check, and the homs the library builds are lawful.
    """
    domain = hom.domain
    top, image_top = domain._top, hom.codomain._top
    image = {a: hom.apply(AlgebraElement(domain, a)).mask for a in _canonical(top)}
    bad = _uncomplemented(image, top, image_top)
    if bad is None and _joins_certified(image):
        return LawReport(())

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
    if bad is not None:
        found.append(("preserves-complement", {
            "a": bad,
            "image_of_complement": image[bad ^ top],
            "complement_of_image": image[bad] ^ image_top,
        }))

    return LawReport(tuple(
        LawViolation(law, {key: list(_ids(m)) for key, m in witness.items()})
        for law, witness in found
    ))
