"""Spaces: construction, canonical order, measure, set algebra."""

import random
from fractions import Fraction
from itertools import combinations, islice

import pytest

from malg import (
    INF,
    ArityMismatch,
    DuplicatePoint,
    ExtRational,
    FiniteMetricMeasureSpace,
    ForeignSet,
    InvalidRational,
    L1Function,
    MeasurableSet,
    NegativeWeight,
    PartitionGap,
    PartitionOverlap,
    UnknownPoint,
    build_algebra,
    make_space,
    mu_bar,
    project,
)
from malg.spaces import _canonical


def measure(space, mset):
    """A set's measure: null atoms weigh 0, so it is that of its class."""
    return mu_bar(project(build_algebra(space), mset))


def is_null(space, mset):
    return measure(space, mset).is_zero


def test_minimal_space(s2):
    assert s2.n_atoms == 2
    assert s2.atoms == (("q1",), ("q2",))
    assert s2.weights == (ExtRational(1), ExtRational(2))


def test_space_with_null_atom(s1):
    assert s1.n_atoms == 3
    assert s1.weights[2].is_zero
    assert s1.null_atom_ids == (2,)
    assert s1.nonnull_atom_ids == (0, 1)


def test_canonical_atom_order():
    # blocks deliberately scrambled; weights must follow their blocks
    sp = make_space(
        ["b", "a", "d", "c"],
        [["d"], ["b", "c"], ["a"]],
        [Fraction(3), Fraction(2), Fraction(1)],
    )
    assert sp.atoms == (("a",), ("b", "c"), ("d",))
    assert sp.weights == (ExtRational(1), ExtRational(2), ExtRational(3))
    assert sp.points == ("b", "a", "d", "c")


def test_construction_errors():
    with pytest.raises(PartitionOverlap):
        make_space(["p1", "p2"], [["p1"], ["p1", "p2"]], [1, 1])
    with pytest.raises(DuplicatePoint):
        make_space(["p1", "p1"], [["p1"]], [1])
    with pytest.raises(DuplicatePoint, match="'p1' listed twice in one atom"):
        make_space(["p1", "p2"], [["p2"], ["p1", "p2", "p1"]], [1, 1])
    with pytest.raises(PartitionGap):
        make_space(["p1", "p2"], [["p1"]], [1])
    with pytest.raises(PartitionGap):
        make_space(["p1"], [["p1"], []], [1, 1])
    with pytest.raises(ArityMismatch):
        make_space(["p1"], [["p1"]], [1, 2])
    with pytest.raises(NegativeWeight):
        make_space(["p1"], [["p1"]], [-1])
    with pytest.raises(NegativeWeight):
        make_space(["p1"], [["p1"]], [Fraction(-1, 2)])
    with pytest.raises(UnknownPoint):
        make_space(["p1"], [["p1", "zz"]], [1])
    with pytest.raises(TypeError):
        make_space(["p1"], [["p1"]], [0.1])  # floats are never exact weights
    with pytest.raises(InvalidRational):
        make_space(["p"], [["p"]], ["abc"])


@pytest.mark.parametrize("labels", [[1, 2], [0.5, 1.5], [("a",), ("b",)]])
def test_point_labels_must_be_strings(labels):
    # a document holds string labels only, so a space that space_to_obj
    # writes must be one that obj_to_space reads back
    with pytest.raises(TypeError, match="is not a str"):
        make_space(labels, [labels], [1])


def test_empty_space_is_valid():
    sp = make_space([], [], [])
    assert sp.n_atoms == 0
    assert sp.total_mass == ExtRational(0)


def test_measure_examples(s1):
    # 1/2 + 1/3, checked by hand against plain Fraction addition
    expected = Fraction(1, 2) + Fraction(1, 3)
    assert expected == Fraction(5, 6)
    assert measure(s1, s1.atom_set([0, 1])) == ExtRational(expected)
    assert measure(s1, s1.atom_set([0, 1, 2])) == ExtRational(expected)
    assert measure(s1, s1.atom_set([])) == ExtRational(0)


def test_measure_infinite_atom():
    sp = make_space(["w"], [["w"]], [INF])
    assert measure(sp, sp.atom_set([0])) == INF
    assert not sp.is_sigma_finite


def test_measure_foreign_set(s1, s2):
    with pytest.raises(ForeignSet):
        measure(s1, s2.atom_set([0]))


def test_set_operations(s1):
    empty, full = MeasurableSet(s1, 0), MeasurableSet(s1, 0b111)
    a = s1.atom_set([0])
    b = s1.atom_set([1])
    ab = s1.atom_set([0, 1])
    bc = s1.atom_set([1, 2])
    assert a.symmetric_difference(a) == empty
    assert a.symmetric_difference(empty) == a
    assert ab.intersection(bc) == b
    assert a.union(b) == ab
    assert ab.complement() == s1.atom_set([2])
    assert (a | b) == ab and (ab & bc) == b and (a ^ a) == empty
    assert ~empty == full
    with pytest.raises(ForeignSet):
        a.union(make_space(["z"], [["z"]], [1]).atom_set([0]))


def test_is_null(s1):
    assert is_null(s1, s1.atom_set([2]))
    assert not is_null(s1, s1.atom_set([0]))
    assert is_null(s1, s1.atom_set([]))


def all_sets(space):
    n = space.n_atoms
    return [
        space.atom_set([i for i in range(n) if mask >> i & 1])
        for mask in range(1 << n)
    ]


def test_additivity_exhaustive(fixture_spaces):
    for sp in fixture_spaces:
        if sp.n_atoms > 6:
            continue
        sets = all_sets(sp)
        for s in sets:
            for t in sets:
                if s.atom_ids & t.atom_ids:
                    continue
                assert measure(sp, s | t) == measure(sp, s) + measure(sp, t)


def test_monotonicity_exhaustive(fixture_spaces):
    for sp in fixture_spaces:
        if sp.n_atoms > 6:
            continue
        sets = all_sets(sp)
        for s in sets:
            for t in sets:
                if s.atom_ids <= t.atom_ids:
                    assert measure(sp, s) <= measure(sp, t)


def test_null_sets_form_an_ideal(fixture_spaces):
    for sp in fixture_spaces:
        if sp.n_atoms > 6:
            continue
        null_sets = [s for s in all_sets(sp) if is_null(sp, s)]
        for s in null_sets:
            for t in null_sets:
                assert is_null(sp, s | t)
            for sub in all_sets(sp):
                if sub.atom_ids <= s.atom_ids:
                    assert is_null(sp, sub)


def test_space_equality_and_hash(s1):
    twin = make_space(
        ["p1", "p2", "p3", "p4"],
        [["p3"], ["p4"], ["p1", "p2"]],
        [Fraction(1, 3), 0, Fraction(1, 2)],
    )
    assert twin == s1
    assert hash(twin) == hash(s1)
    assert len({twin, s1}) == 1
    # the values built on a space: a metric on it and an L1 function on it
    ones = [[int(i != j) for j in range(4)] for i in range(4)]
    twos = [[2 * d for d in row] for row in ones]
    metric, twin_metric = (FiniteMetricMeasureSpace(sp, ones) for sp in (s1, twin))
    assert metric == twin_metric and hash(metric) == hash(twin_metric)
    assert len({metric, twin_metric, FiniteMetricMeasureSpace(s1, twos)}) == 2
    f = L1Function(s1, {0: Fraction(1, 2), 1: 3})
    assert f == L1Function(twin, {0: Fraction(1, 2), 1: 3})
    assert f != L1Function(s1, {0: Fraction(1, 2), 1: 4})
    # and a set or an algebra element on it
    sets = [sp.atom_set([0, 2]) for sp in (s1, twin)]
    assert hash(sets[0]) == hash(sets[1])
    assert len({*sets, s1.atom_set([1])}) == 2
    elements = [build_algebra(sp).element([0]) for sp in (s1, twin)]
    assert hash(elements[0]) == hash(elements[1])
    assert len({*elements, build_algebra(s1).element([1])}) == 2


def _canonical_reference(top):
    """The submasks of `top` as id tuples read off by bit tests, sorted."""
    ids = [i for i in range(top.bit_length()) if top >> i & 1]
    subsets = sorted(c for r in range(len(ids) + 1) for c in combinations(ids, r))
    return [sum(1 << i for i in c) for c in subsets]


def test_canonical_submasks_match_sorted_combinations():
    # every mask of up to 10 atoms, gaps included, and random 13-bit ones
    rng = random.Random(35)
    tops = [*range(1 << 10), *(rng.getrandbits(13) for _ in range(40)), 0]
    for top in tops:
        assert list(_canonical(top)) == _canonical_reference(top), bin(top)


def test_canonical_submasks_need_no_recursion():
    # the 4,001st submask of 5,000 atoms is the first 4,000 atoms
    nth = next(islice(_canonical((1 << 5000) - 1), 4000, None))
    assert nth == (1 << 4000) - 1
