"""Finite measure spaces whose sigma-algebras are generated by a partition.

A space is an ordered finite set of point labels, a partition of those
points into atoms, and one non-negative (possibly infinite) weight per
atom. Measurable sets are exactly the unions of atoms; point subsets that
split an atom are not measurable and have no measure. Atoms are stored in
canonical order (sorted by their smallest member label) so that equal
spaces serialize identically.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (
    ArityMismatch,
    DuplicatePoint,
    ForeignSet,
    PartitionGap,
    PartitionOverlap,
    UnknownPoint,
)
from .rationals import ZERO, ExtRational


def _require(value, kind: type, role: str):
    """`value` if it is a `kind`; TypeError naming `role` otherwise."""
    if not isinstance(value, kind):
        raise TypeError(f"{role} must be a {kind.__name__}, not {value!r}")
    return value


# Atom bitmask helpers (bit i stands for atom i), shared across the package.


def _atom_id(i) -> int:
    """`i` if it is an atom id: TypeError unless it is exactly an int (a
    bool or a float is not), ValueError if it is negative."""
    if type(i) is not int:
        raise TypeError(f"an atom id must be an int, not {i!r}")
    if i < 0:
        raise ValueError(f"an atom id is never negative, got {i}")
    return i


def _mask(ids: Iterable[int], n_atoms: int) -> int:
    """The mask of `ids`, atom ids of an owner with `n_atoms` atoms; an id at
    or above that count raises ValueError naming it, before any shift."""
    mask = 0
    for i in ids:
        if _atom_id(i) >= n_atoms:
            raise ValueError(f"atom id {i} is out of range for {n_atoms} atoms")
        mask |= 1 << i
    return mask


def _stray(mask: int, outside: int) -> str:
    """Why a mask that meets `outside` is refused, in a few words: it is
    negative, or it has an atom there, the highest named. The mask in
    binary may run to millions of digits."""
    if mask < 0:  # infinitely many bits, all but finitely many in `outside`
        return "it is negative"
    return f"it has atom {(mask & outside).bit_length() - 1}"


def _ids(mask: int) -> tuple[int, ...]:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _join(table, mask: int) -> int:
    """The OR of `table[i]` over the atoms i of `mask`: the one join walk
    behind a map's preimages, a hom's `apply` and the composition law."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _canonical(top: int) -> Iterator[int]:
    """Every submask of `top` in canonical order (lexicographic on sorted atom
    ids), with no sort: each next one adds top's next atom above the highest,
    or, if that was top's highest, drops it and moves the new highest up."""
    sub = 0
    while True:
        yield sub
        n = sub.bit_length()
        if not top >> n:  # sub holds top's highest atom, or top is 0
            sub ^= 1 << n >> 1
            n = sub.bit_length()
            if not n:
                return
            sub ^= 1 << n - 1
        above = top >> n << n
        sub |= above & -above


def _weighted_sum(weights: Sequence[ExtRational], mask: int) -> ExtRational:
    """The exact sum of the weights of the atoms in `mask`, lowest first."""
    total = ZERO
    while mask:
        low = mask & -mask
        total = total + weights[low.bit_length() - 1]
        mask ^= low
    return total


class FiniteMeasureSpace:
    """Immutable finite measure space; build with :func:`make_space`."""

    # the mask of all atoms, and the atom classes computed once from the
    # weights: the null and non-null atoms, and the finite ones among the
    # non-null, as ids and as masks; none takes part in == or hash
    __slots__ = (
        "points", "atoms", "weights", "_atom_of",
        "null_atom_ids", "nonnull_atom_ids", "_fin_ids",
        "_top", "_null_mask", "_nonnull_mask", "_fin_mask",
    )

    points: tuple[str, ...]
    atoms: tuple[tuple[str, ...], ...]
    weights: tuple[ExtRational, ...]
    null_atom_ids: tuple[int, ...]
    nonnull_atom_ids: tuple[int, ...]

    def __init__(self, points, partition, weights):
        pts = tuple(points)
        seen: set[str] = set()
        for p in pts:
            if type(p) is not str:  # a document holds string labels only
                raise TypeError(f"point label {p!r} is not a str")
            if p in seen:
                raise DuplicatePoint(f"point {p!r} listed twice")
            seen.add(p)

        blocks = [tuple(sorted(block)) for block in partition]
        raw_weights = list(weights)
        if len(raw_weights) != len(blocks):
            raise ArityMismatch(
                f"{len(blocks)} partition blocks but {len(raw_weights)} weights"
            )
        # an ExtRational weight is kept, not copied
        coerced = [
            w if isinstance(w, ExtRational) else ExtRational(w) for w in raw_weights
        ]

        covered: set[str] = set()
        for block in blocks:
            if not block:
                raise PartitionGap("empty partition block")
            for p in block:
                if p not in seen:
                    raise UnknownPoint(f"partition mentions unknown point {p!r}")
                if p in covered:
                    if block.count(p) > 1:
                        raise DuplicatePoint(f"point {p!r} listed twice in one atom")
                    raise PartitionOverlap(f"point {p!r} lies in two blocks")
                covered.add(p)
        if covered != seen:
            missing = sorted(seen - covered)
            raise PartitionGap(f"points not covered by any block: {missing}")

        ordered = sorted(zip(blocks, coerced), key=lambda bw: bw[0][0])
        self.points = pts
        self.atoms = tuple(block for block, _ in ordered)
        self.weights = tuple(w for _, w in ordered)
        self._atom_of = {
            p: idx for idx, block in enumerate(self.atoms) for p in block
        }
        null, nonnull, fin = [], [], []
        nonnull_mask = fin_mask = 0
        for i, w in enumerate(self.weights):
            if w.is_zero:
                null.append(i)
                continue
            bit = 1 << i
            nonnull.append(i)
            nonnull_mask |= bit
            if not w.is_infinite:
                fin.append(i)
                fin_mask |= bit
        self.null_atom_ids = tuple(null)
        self.nonnull_atom_ids = tuple(nonnull)
        self._fin_ids = tuple(fin)
        self._top = (1 << len(self.atoms)) - 1
        self._null_mask = nonnull_mask ^ self._top
        self._nonnull_mask = nonnull_mask
        self._fin_mask = fin_mask

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def atom_of(self, point: str) -> int:
        """Index of the atom containing `point`."""
        try:
            return self._atom_of[point]
        except KeyError:
            raise UnknownPoint(f"unknown point {point!r}") from None

    @property
    def total_mass(self) -> ExtRational:
        return sum(self.weights, ZERO)

    @property
    def is_sigma_finite(self) -> bool:
        return self._fin_mask == self._nonnull_mask

    def atom_set(self, atom_ids: Iterable[int]) -> "MeasurableSet":
        return MeasurableSet(self, _mask(atom_ids, self.n_atoms))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteMeasureSpace):
            return NotImplemented
        return (
            self.points == other.points
            and self.atoms == other.atoms
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.points, self.atoms, self.weights))

    def __repr__(self) -> str:
        return f"FiniteMeasureSpace({len(self.points)} points, {self.n_atoms} atoms)"


class _AtomMask:
    """Atoms of one owner (a space or an algebra) as an int, bit i for atom i;
    results keep the caller's class, and sets never equal algebra elements."""

    __slots__ = ("_owner", "mask")

    def __init__(self, owner, mask: int):
        if type(mask) is not int:
            raise TypeError(self._type_message.format(mask=mask))
        _require(owner, self._owner_type, self._owner_role)
        # a negative mask has infinitely many bits: _ids would never stop on it
        if mask < 0 or mask & ~owner._top:
            message = self._range_message.format(owner=owner)
            raise ValueError(f"{message}: {_stray(mask, ~owner._top)}")
        self._owner = owner
        self.mask = mask

    @classmethod
    def _expect(cls, value):
        if not isinstance(value, cls):
            raise TypeError(cls._expected)
        return value

    def _same_owner(self, other) -> int:
        if self._owner != self._expect(other)._owner:
            raise self._foreign(self._foreign_message)
        return other.mask

    @property
    def atom_ids(self) -> frozenset[int]:
        return frozenset(_ids(self.mask))

    def __or__(self, other):
        return type(self)(self._owner, self.mask | self._same_owner(other))

    def __and__(self, other):
        return type(self)(self._owner, self.mask & self._same_owner(other))

    def __xor__(self, other):
        return type(self)(self._owner, self.mask ^ self._same_owner(other))

    def complement(self):
        return type(self)(self._owner, self.mask ^ self._owner._top)

    __invert__ = complement

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._owner == other._owner and self.mask == other.mask

    def __hash__(self):
        return hash((self._owner, self.mask))


class MeasurableSet(_AtomMask):
    """A union of atoms of one space: bit i of `mask` is atom i."""

    __slots__ = ()
    space = _AtomMask._owner
    _owner_type = FiniteMeasureSpace
    _owner_role = "a set's space"
    _expected = "expected a MeasurableSet"
    _type_message = "a set's atom mask must be an int, not {mask!r}"
    _range_message = "atom mask does not fit {owner.n_atoms} atoms"
    _foreign = ForeignSet
    _foreign_message = "sets belong to different spaces"
    union = _AtomMask.__or__
    intersection = _AtomMask.__and__
    symmetric_difference = _AtomMask.__xor__

    def __repr__(self) -> str:
        return f"MeasurableSet(atoms={list(_ids(self.mask))})"


def make_space(points: Sequence[str], partition, weights) -> FiniteMeasureSpace:
    """Validate and build a space; atoms come out in canonical order.

    Each weight goes through ExtRational, the one coercion of measure
    values: an int, a Fraction or a string ("p/q", "inf"); an ExtRational
    is kept as is. A negative weight raises NegativeWeight, malformed text
    InvalidRational, and a float TypeError, as does a point label that is
    not a str.

    Raises DuplicatePoint, PartitionGap, PartitionOverlap, UnknownPoint,
    or ArityMismatch on a malformed partition or weight count.
    """
    return FiniteMeasureSpace(points, partition, weights)

