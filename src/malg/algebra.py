"""The measure algebra of a space: its quotient by null sets.

Elements are represented by canonical representatives, i.e. sets of
non-null atoms held as atom bitmasks; projecting a measurable set just
drops its null atoms. That makes equality of classes an int comparison
and turns the quotient laws into testable homomorphism properties of
:func:`project`.

The symmetric-difference distance `rho` lives on the ideal of elements
with finite measure and embeds isometrically into L1 via indicator
functions (:func:`chi_embed` / :func:`l1_distance`).
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ForeignElement, ForeignFunction, ForeignSet, NotInFinIdeal
from .rationals import ExtRational, to_fraction
from .spaces import (
    FiniteMeasureSpace, MeasurableSet, _ids, _mask, _submasks, _weighted_sum
)


class MeasureAlgebra:
    """Boolean algebra of measurable sets modulo null sets."""

    __slots__ = (
        "space", "nonnull_atoms", "fin_atoms", "_top", "_fin", "__weakref__",
    )

    nonnull_atoms: tuple[int, ...]
    fin_atoms: tuple[int, ...]

    def __init__(self, space: FiniteMeasureSpace):
        self.space = space
        self.nonnull_atoms = space.nonnull_atom_ids
        self.fin_atoms = tuple(
            i for i in self.nonnull_atoms if not space.weights[i].is_infinite
        )
        self._top = _mask(self.nonnull_atoms)
        self._fin = _mask(self.fin_atoms)

    @property
    def size(self) -> int:
        return 1 << len(self.nonnull_atoms)

    def element(self, atom_ids: Iterable[int]) -> "AlgebraElement":
        return AlgebraElement(self, _mask(atom_ids))

    @property
    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, 0)

    @property
    def top(self) -> "AlgebraElement":
        return AlgebraElement(self, self._top)

    def all_elements(self) -> list["AlgebraElement"]:
        """Every element, in canonical order (lexicographic on sorted ids)."""
        ordered = sorted(_submasks(self._top), key=_ids)
        return [AlgebraElement(self, mask) for mask in ordered]

    def fin_elements(self) -> list["AlgebraElement"]:
        """Elements of finite measure, in canonical order."""
        ordered = sorted(_submasks(self._fin), key=_ids)
        return [AlgebraElement(self, mask) for mask in ordered]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, MeasureAlgebra):
            return NotImplemented
        return self.space == other.space

    def __hash__(self):
        return hash(("MeasureAlgebra", self.space))

    def __repr__(self) -> str:
        return f"MeasureAlgebra({len(self.nonnull_atoms)} non-null atoms)"


class AlgebraElement:
    """Canonical representative of a class: bit i of `mask` is non-null atom i."""

    __slots__ = ("algebra", "mask")

    def __init__(self, algebra: MeasureAlgebra, mask: int):
        # a negative mask has infinitely many bits: _ids would never stop on it
        if mask < 0 or mask & ~algebra._top:
            raise ValueError(f"atom mask {mask:#b} has null or out-of-range atoms")
        self.algebra = algebra
        self.mask = mask

    @property
    def atom_ids(self) -> frozenset[int]:
        return frozenset(_ids(self.mask))

    @property
    def sort_key(self) -> tuple[int, ...]:
        return _ids(self.mask)

    @property
    def is_zero(self) -> bool:
        return not self.mask

    def _check_same_algebra(self, other: "AlgebraElement") -> int:
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an AlgebraElement")
        if self.algebra != other.algebra:
            raise ForeignElement("elements belong to different algebras")
        return other.mask

    def meet(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.mask & self._check_same_algebra(other))

    def join(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.mask | self._check_same_algebra(other))

    def symmdiff(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.mask ^ self._check_same_algebra(other))

    def complement(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.mask ^ self.algebra._top)

    __and__ = meet
    __or__ = join
    __xor__ = symmdiff
    __invert__ = complement

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.mask == other.mask

    def __hash__(self):
        return hash((self.algebra, self.mask))

    def __repr__(self) -> str:
        return f"AlgebraElement({list(self.sort_key)})"


class L1Function:
    """A function constant on atoms, as an a.e.-class: one rational
    coefficient per non-null atom (null atoms carry no coefficient)."""

    __slots__ = ("space", "coefficients")

    def __init__(self, space: FiniteMeasureSpace, coefficients: Mapping[int, Fraction]):
        expected = list(space.nonnull_atom_ids)
        if sorted(coefficients) != expected:
            raise ValueError(
                f"coefficients must cover exactly the non-null atoms {expected}"
            )
        self.space = space
        self.coefficients = {i: to_fraction(coefficients[i]) for i in expected}

    def scale(self, factor) -> "L1Function":
        k = to_fraction(factor)
        return L1Function(
            self.space, {i: k * c for i, c in self.coefficients.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, L1Function):
            return NotImplemented
        return self.space == other.space and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        return f"L1Function({self.coefficients})"


def build_algebra(space: FiniteMeasureSpace) -> MeasureAlgebra:
    """The space's one measure algebra: built on the first call and
    returned by every later one while anything still holds it.

    The space keeps only a weak reference to it, so space and algebra
    form no reference cycle and are freed by reference counting.
    """
    ref = space._algebra
    algebra = None if ref is None else ref()
    if algebra is None:
        algebra = MeasureAlgebra(space)
        space._algebra = weakref.ref(algebra)
    return algebra


def project(algebra: MeasureAlgebra, mset: MeasurableSet) -> AlgebraElement:
    """Class of a measurable set: its atoms with the null ones dropped."""
    if mset.space != algebra.space:
        raise ForeignSet("set belongs to a different space")
    return AlgebraElement(algebra, mset.mask & algebra._top)


def mu_bar(elem: AlgebraElement) -> ExtRational:
    """Quotient measure: the weight sum of the element's atoms."""
    return _weighted_sum(elem.algebra.space.weights, elem.mask)


def is_fin(elem: AlgebraElement) -> bool:
    """True iff the element has finite measure."""
    return not mu_bar(elem).is_infinite


def rho(a: AlgebraElement, b: AlgebraElement) -> Fraction:
    """Symmetric-difference distance, defined only on the finite ideal."""
    a._check_same_algebra(b)
    if not is_fin(a) or not is_fin(b):
        raise NotInFinIdeal("rho is defined only on elements of finite measure")
    return mu_bar(a.symmdiff(b)).as_fraction()


def rho_c(a: AlgebraElement, b: AlgebraElement, c: AlgebraElement) -> Fraction:
    """Member of the generating pseudometric family: mass of (a ^ b) & c.

    Defined for arbitrary a, b as long as c has finite measure; for each
    fixed c this is a pseudometric, dominated by rho where rho is defined.
    """
    a._check_same_algebra(b)
    a._check_same_algebra(c)
    if not is_fin(c):
        raise NotInFinIdeal("the localizing element c must have finite measure")
    return mu_bar(a.symmdiff(b).meet(c)).as_fraction()


def chi_embed(elem: AlgebraElement) -> L1Function:
    """Indicator function of the element, as an L1 class."""
    if not is_fin(elem):
        raise NotInFinIdeal("chi is defined only on elements of finite measure")
    coeffs = {i: Fraction(elem.mask >> i & 1) for i in elem.algebra.nonnull_atoms}
    return L1Function(elem.algebra.space, coeffs)


def l1_distance(f: L1Function, g: L1Function) -> ExtRational:
    """Weighted L1 distance between two atom-constant functions."""
    if f.space != g.space:
        raise ForeignFunction("functions live on different spaces")
    total = ExtRational(0)
    for i in sorted(f.coefficients):
        gap = abs(f.coefficients[i] - g.coefficients[i])
        total = total + ExtRational(gap) * f.space.weights[i]
    return total
