"""Generator determinism, bounds, and distribution sanity."""

from fractions import Fraction

import pytest

from malg.instances import (
    SplitMix64,
    random_composable_pair,
    random_instance,
    random_map,
    random_space,
    trial_rng,
)


def test_splitmix_reference_values():
    # golden values pin the algorithm across platforms and versions
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    rng = SplitMix64(1234567)
    assert rng.next_u64() == 6457827717110365317


def test_below_refuses_an_empty_range():
    # [0, bound) holds no value to draw for a bound of 0 or less
    rng = SplitMix64(0)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be positive"):
            rng.below(bound)


def test_same_seed_same_instance():
    a = random_instance(42, 3)
    b = random_instance(42, 3)
    assert a == b
    assert a.source == b.source and a.target == b.target


def test_trials_are_independent_streams():
    # generating trial 5 alone gives the same map as after trials 0..4
    alone = random_instance(9, 5)
    for i in range(6):
        last = random_instance(9, i)
    assert last == alone


def test_different_seeds_differ_somewhere():
    assert any(
        random_instance(1, i) != random_instance(2, i) for i in range(5)
    )


def test_space_bounds():
    for i in range(200):
        sp = random_space(trial_rng(31, i))
        assert 1 <= sp.n_atoms <= 8
        assert all(1 <= len(block) <= 2 for block in sp.atoms)
        for w in sp.weights:
            if not w.is_infinite:
                frac = w.as_fraction()
                assert 0 <= frac.numerator <= 16 * frac.denominator
                assert frac <= Fraction(16)


def test_maps_always_measurable():
    # make_map would raise NotMeasurable; constructing is the assertion
    for i in range(100):
        rng = trial_rng(32, i)
        src = random_space(rng, "p")
        tgt = random_space(rng, "q")
        m = random_map(rng, src, tgt)
        assert set(m.point_fn) == set(src.points)


def test_force_null_target():
    for i in range(60):
        inst = random_instance(33, i, force_null_target=True)
        assert any(w.is_zero for w in inst.target.weights)


def test_distribution_hits_all_weight_kinds():
    nulls = infs = 0
    for i in range(300):
        sp = random_space(trial_rng(34, i))
        nulls += sum(1 for w in sp.weights if w.is_zero)
        infs += sum(1 for w in sp.weights if w.is_infinite)
    assert nulls > 0 and infs > 0


def test_composable_pair_shares_middle_space():
    for i in range(30):
        f, g = random_composable_pair(35, i)
        assert f.target == g.source
        assert f.source.points[0].startswith("p")
        assert g.target.points[0].startswith("r")
