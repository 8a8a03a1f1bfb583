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

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ForeignElement, ForeignFunction, ForeignSet, NotInFinIdeal
from .rationals import ZERO, ExtRational, to_fraction
from .spaces import (
    FiniteMeasureSpace,
    MeasurableSet,
    _AtomMask,
    _atom_id,
    _canonical,
    _ids,
    _mask,
    _require,
    _weighted_sum,
)


class MeasureAlgebra:
    """Boolean algebra of measurable sets modulo null sets."""

    __slots__ = ("space", "nonnull_atoms", "fin_atoms", "_top", "_fin")

    nonnull_atoms: tuple[int, ...]
    fin_atoms: tuple[int, ...]

    def __init__(self, space: FiniteMeasureSpace):
        _require(space, FiniteMeasureSpace, "an algebra's space")
        # the space sorted its atoms into these classes when it was built
        self.space = space
        self.nonnull_atoms = space.nonnull_atom_ids
        self.fin_atoms = space._fin_ids
        self._top = space._nonnull_mask
        self._fin = space._fin_mask

    def element(self, atom_ids: Iterable[int]) -> "AlgebraElement":
        return AlgebraElement(self, _mask(atom_ids, self.space.n_atoms))

    def all_elements(self) -> list["AlgebraElement"]:
        """Every element, in canonical order (lexicographic on sorted ids)."""
        return [AlgebraElement(self, mask) for mask in _canonical(self._top)]

    def fin_elements(self) -> list["AlgebraElement"]:
        """Elements of finite measure, in canonical order."""
        return [AlgebraElement(self, mask) for mask in _canonical(self._fin)]

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


class AlgebraElement(_AtomMask):
    """Canonical representative of a class: bit i of `mask` is non-null atom i."""

    __slots__ = ()
    __init__ = _AtomMask.__init__  # its own, where the bench tracer patches it
    algebra = _AtomMask._owner
    _owner_type = MeasureAlgebra
    _owner_role = "an element's algebra"
    _expected = "expected an AlgebraElement"
    _type_message = "an element's atom mask must be an int, not {mask!r}"
    _range_message = "atom mask has null or out-of-range atoms"
    _foreign = ForeignElement
    _foreign_message = "elements belong to different algebras"
    meet = _AtomMask.__and__
    join = _AtomMask.__or__
    symmdiff = _AtomMask.__xor__

    @property
    def sort_key(self) -> tuple[int, ...]:
        return _ids(self.mask)

    @property
    def is_zero(self) -> bool:
        return not self.mask

    def __repr__(self) -> str:
        return f"AlgebraElement({list(self.sort_key)})"


class L1Function:
    """A function constant on atoms, as an a.e.-class: one rational
    coefficient per non-null atom (null atoms carry no coefficient)."""

    __slots__ = ("space", "coefficients")

    def __init__(self, space: FiniteMeasureSpace, coefficients: Mapping[int, Fraction]):
        _require(space, FiniteMeasureSpace, "a function's space")
        expected = list(space.nonnull_atom_ids)
        if sorted(map(_atom_id, coefficients)) != expected:
            raise ValueError(
                f"coefficients must cover exactly the non-null atoms {expected}"
            )
        self.space = space
        self.coefficients = {i: to_fraction(coefficients[i]) for i in expected}

    def __eq__(self, other) -> bool:
        if not isinstance(other, L1Function):
            return NotImplemented
        return self.space == other.space and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        return f"L1Function({self.coefficients})"


def build_algebra(space: FiniteMeasureSpace) -> MeasureAlgebra:
    """The measure algebra of `space`, built in constant time from the atom
    classes the space computed once; every call returns an equal one."""
    return MeasureAlgebra(space)


def project(algebra: MeasureAlgebra, mset: MeasurableSet) -> AlgebraElement:
    """Class of a measurable set: its atoms with the null ones dropped."""
    if MeasurableSet._expect(mset).space != algebra.space:
        raise ForeignSet("set belongs to a different space")
    return AlgebraElement(algebra, mset.mask & algebra._top)


def mu_bar(elem: AlgebraElement) -> ExtRational:
    """Quotient measure: the weight sum of the element's atoms."""
    return _weighted_sum(AlgebraElement._expect(elem).algebra.space.weights, elem.mask)


def is_fin(elem: AlgebraElement) -> bool:
    """True iff the element has finite measure."""
    return not mu_bar(elem).is_infinite


def rho(a: AlgebraElement, b: AlgebraElement) -> Fraction:
    """Symmetric-difference distance, defined only on the finite ideal."""
    # the operator checks b's type and algebra
    diff = AlgebraElement._expect(a).symmdiff(b)
    if not is_fin(a) or not is_fin(b):
        raise NotInFinIdeal("rho is defined only on elements of finite measure")
    return mu_bar(diff).as_fraction()


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
    total = ZERO
    for i in sorted(f.coefficients):
        gap = abs(f.coefficients[i] - g.coefficients[i])
        total = total + ExtRational(gap) * f.space.weights[i]
    return total
