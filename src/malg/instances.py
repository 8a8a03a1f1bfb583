"""Seeded deterministic generation of spaces and measurable maps.

Randomness comes from SplitMix64, implemented here with plain 64-bit
integer arithmetic so the very same instances come out on every platform
and Python version. Bounded draws use the modulo method; the slight bias
is irrelevant for test-instance generation and keeps the algorithm one
line. Trial i of a batch runs on its own stream derived from (seed, i),
so trials can be generated independently and in any order.

Generation scheme: atom counts uniform in [1, max_atoms] (default 8),
block sizes uniform in {1, 2}, weights p/q with p in [0, 16] and q in
[1, 16], a 1-in-10 chance of a null atom and a 1-in-20 chance of an
infinite weight per atom. Maps are drawn atom-first (each source atom
picks a target atom uniformly), then each point picks a uniform point of
the assigned target atom, which makes every generated map measurable.
"""

from __future__ import annotations

from fractions import Fraction

from .maps import MeasurableMap, make_map
from .rationals import INF, ZERO, ExtRational
from .spaces import FiniteMeasureSpace, make_space

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator over unsigned 64-bit ints."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def chance(self, numerator: int, denominator: int) -> bool:
        """True with probability numerator/denominator."""
        return self.below(denominator) < numerator


def trial_rng(seed: int, index: int) -> SplitMix64:
    """Independent stream for trial `index` of a batch seeded with `seed`."""
    return SplitMix64((seed ^ ((index + 1) * _GOLDEN)) & _MASK64)


def random_space(
    rng: SplitMix64,
    prefix: str = "p",
    max_atoms: int = 8,
    force_null: bool = False,
) -> FiniteMeasureSpace:
    """One random space; `force_null` guarantees at least one null atom."""
    n_atoms = 1 + rng.below(max_atoms)
    sizes = [1 + rng.below(2) for _ in range(n_atoms)]
    # zero-padded labels keep canonical atom order equal to creation order
    labels = [f"{prefix}{i:02d}" for i in range(sum(sizes))]
    blocks = []
    cursor = 0
    for size in sizes:
        blocks.append(labels[cursor : cursor + size])
        cursor += size

    weights: list[ExtRational] = []
    for _ in range(n_atoms):
        if rng.chance(1, 20):
            weights.append(INF)
        elif rng.chance(1, 10):
            weights.append(ZERO)
        else:
            weights.append(ExtRational(Fraction(rng.below(17), 1 + rng.below(16))))
    if force_null and not any(w.is_zero for w in weights):
        weights[rng.below(n_atoms)] = ZERO

    return make_space(labels, blocks, weights)


def random_map(
    rng: SplitMix64, source: FiniteMeasureSpace, target: FiniteMeasureSpace
) -> MeasurableMap:
    """Uniform measurable map: atom assignment first, then point images."""
    fn = {}
    for block in source.atoms:
        target_block = target.atoms[rng.below(target.n_atoms)]
        for p in block:
            fn[p] = target_block[rng.below(len(target_block))]
    return make_map(source, target, fn)


def random_instance(
    seed: int, index: int, force_null_target: bool = False
) -> MeasurableMap:
    """Trial `index` of the seeded batch: a map between two fresh spaces."""
    rng = trial_rng(seed, index)
    source = random_space(rng, prefix="p")
    target = random_space(rng, prefix="q", force_null=force_null_target)
    return random_map(rng, source, target)


def random_composable_pair(
    seed: int, index: int
) -> tuple[MeasurableMap, MeasurableMap]:
    """A composable pair (f, g) with f's target equal to g's source."""
    rng = trial_rng(seed, index)
    x1 = random_space(rng, prefix="p")
    x2 = random_space(rng, prefix="q")
    x3 = random_space(rng, prefix="r")
    f = random_map(rng, x1, x2)
    g = random_map(rng, x2, x3)
    return f, g
