"""Negative controls: the test oracles must catch planted defects."""

from fractions import Fraction

import pytest

from malg import (
    UNBOUNDED,
    CompressionResult,
    build_algebra,
    compression,
    make_map,
    make_space,
)

from helpers import (
    assert_table_matches_rho,
    mutated,
    oracle_compression,
    scaled_mass_table,
)
from test_acceptance import _joint_lipschitz_violations


@pytest.fixture
def small_algebra():
    sp = make_space(
        ["a", "b", "c"], [["a"], ["b"], ["c"]], [1, Fraction(1, 2), Fraction(1, 3)]
    )
    return build_algebra(sp)


def test_scaled_table_matches_rho(small_algebra):
    table, denom = scaled_mass_table(small_algebra)
    assert_table_matches_rho(small_algebra, table, denom)
    assert table[0] == 0
    assert Fraction(table[-1], denom) == Fraction(11, 6)


def test_corrupted_table_is_detected(small_algebra):
    table, denom = scaled_mass_table(small_algebra)
    table[3] += 1
    with pytest.raises(AssertionError):
        assert_table_matches_rho(small_algebra, table, denom)


def test_corrupted_table_breaks_joint_lipschitz(small_algebra):
    table, _ = scaled_mass_table(small_algebra)
    assert _joint_lipschitz_violations(table) == 0
    table[7] = table[7] * 100 + 1
    assert _joint_lipschitz_violations(table) > 0


def test_oracle_compression_known_values(phi, psi):
    assert oracle_compression(phi) == CompressionResult.bounded(Fraction(5, 6))
    assert oracle_compression(psi) == UNBOUNDED


def test_oracle_disagrees_with_planted_bug(s1, s2):
    # a wrong map (different constant target) must not match phi's value
    wrong = make_map(s1, s2, {"p1": "q2", "p2": "q2", "p3": "q2", "p4": "q2"})
    assert oracle_compression(wrong) == CompressionResult.bounded(Fraction(5, 12))


def test_mutated_plants_exactly_one_edit(s2):
    phi = make_map(s2, s2, {p: p for p in s2.points})
    assert mutated(compression, "ratio > best", "ratio > best")(phi) == compression(phi)
    # a snippet that is absent, or occurs twice, plants nothing: it must fail
    for snippet in ("no such text", "return UNBOUNDED"):
        with pytest.raises(AssertionError, match="occurs"):
            mutated(compression, snippet, "")
