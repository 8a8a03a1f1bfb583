"""Measure algebras: projection, mu-bar, rho, the L1 embedding."""

import gc
import weakref
from fractions import Fraction
from itertools import product

import pytest

from malg import (
    INF,
    AlgebraElement,
    ExtRational,
    ForeignElement,
    ForeignFunction,
    L1Function,
    MeasurableSet,
    MeasureAlgebra,
    NotInFinIdeal,
    build_algebra,
    chi_embed,
    is_fin,
    l1_distance,
    make_space,
    mu_bar,
    project,
    random_instance,
    rho,
    rho_c,
)

from helpers import assert_table_matches_rho, fin_mask_elements, scaled_mass_table


def test_build_algebra_sizes(s1, s2):
    a1 = build_algebra(s1)
    assert a1.nonnull_atoms == (0, 1)
    assert a1.size == 4
    assert build_algebra(s2).size == 4


def test_build_algebra_returns_the_spaces_one_algebra(s1):
    alg = build_algebra(s1)
    assert build_algebra(s1) is alg
    twin = make_space(s1.points, s1.atoms, s1.weights)
    # an equal space has its own algebra, equal to the first one
    assert build_algebra(twin) is not alg
    assert build_algebra(twin) == alg and hash(twin) == hash(s1)
    assert twin == s1


def test_dropped_algebra_is_freed_by_reference_counting(s1):
    # the space holds its algebra weakly: no cycle, so dropping the last
    # holder frees the algebra with the cyclic collector off
    gc.disable()
    try:
        ref = weakref.ref(build_algebra(s1))
        assert ref() is None
        assert build_algebra(s1) == MeasureAlgebra(s1)
    finally:
        gc.enable()


def test_cached_atom_ids_match_the_weights():
    maps = [random_instance(3, i) for i in range(40)]
    spaces = [sp for phi in maps for sp in (phi.source, phi.target)]
    spaces += [
        make_space(["z1", "z2"], [["z1"], ["z2"]], [0, 0]),
        make_space(["i1", "i2"], [["i1"], ["i2"]], [INF, INF]),
        make_space(["a", "b", "c", "d"], [["a"], ["b"], ["c"], ["d"]], [0, INF, 2, 0]),
    ]
    for sp in spaces:
        null = tuple(i for i, w in enumerate(sp.weights) if w == 0)
        nonnull = tuple(i for i, w in enumerate(sp.weights) if w != 0)
        for _ in range(2):
            assert sp.null_atom_ids == null
            assert sp.nonnull_atom_ids == nonnull
        assert build_algebra(sp).nonnull_atoms == nonnull
    assert any(sp.null_atom_ids for sp in spaces[:-3])


def test_trivial_algebra_of_all_null_space():
    sp = make_space(["z1", "z2"], [["z1"], ["z2"]], [0, 0])
    alg = build_algebra(sp)
    assert alg.size == 1
    assert alg.zero == alg.top
    assert alg.all_elements() == [alg.zero]


def test_project_drops_null_atoms(s1):
    alg = build_algebra(s1)
    assert project(alg, s1.atom_set([0, 2])) == alg.element((0,))
    assert project(alg, s1.atom_set([2])) == alg.zero
    assert project(alg, s1.atom_set([0])) == project(alg, s1.atom_set([0, 2]))


def test_mu_bar(s1, s2):
    a1, a2 = build_algebra(s1), build_algebra(s2)
    assert mu_bar(a1.element((0,))) == ExtRational(1, 2)
    assert mu_bar(a1.zero) == ExtRational(0)
    assert mu_bar(a2.element((0, 1))) == ExtRational(3)


def test_mu_bar_positive_on_nonzero(fixture_spaces):
    for sp in fixture_spaces:
        alg = build_algebra(sp)
        for e in alg.all_elements():
            if not e.is_zero:
                assert mu_bar(e) > 0


def test_element_operations(s1):
    alg = build_algebra(s1)
    a = alg.element((0,))
    assert a.symmdiff(a) == alg.zero
    assert a.complement().complement() == a
    assert a.join(alg.element((1,))) == alg.top
    assert a.meet(alg.element((1,))) == alg.zero
    assert (a | alg.element((1,))) == alg.top and (a & alg.element((1,))) == alg.zero
    assert (a ^ a) == alg.zero and ~alg.zero == alg.top
    with pytest.raises(ForeignElement):
        a.meet(build_algebra(make_space(["z"], [["z"]], [1])).zero)


def test_masks_and_derived_views(s1):
    # bit i of a mask is atom i; atom_ids and sort_key are views of it
    alg = build_algebra(s1)
    full = s1.full_set()
    assert full.mask == 0b111 and full.atom_ids == frozenset({0, 1, 2})
    top = project(alg, full)  # the null atom 2 drops out
    assert top.mask == 0b011 and top.sort_key == (0, 1) and top == alg.top
    assert (~top).mask == 0 and top.atom_ids == frozenset({0, 1})
    with pytest.raises(ValueError):
        alg.element((2,))
    # the constructors take the mask itself
    assert AlgebraElement(alg, 0b011) == alg.top
    assert MeasurableSet(s1, 0b101) == s1.atom_set([0, 2])
    with pytest.raises(ValueError):
        AlgebraElement(alg, 0b100)  # atom 2 is null
    with pytest.raises(ValueError):
        AlgebraElement(alg, -1)  # must not loop over infinitely many bits
    with pytest.raises(ValueError):
        MeasurableSet(s1, -1)
    with pytest.raises(ValueError):
        MeasurableSet(s1, 0b1000)  # s1 has three atoms
    with pytest.raises(TypeError):
        AlgebraElement(alg, (0, 1))  # ids go through alg.element
    with pytest.raises(TypeError):
        MeasurableSet(s1, (0, 1))  # ids go through s1.atom_set


def test_project_is_homomorphism_worked_example(s1):
    alg = build_algebra(s1)
    a_set = s1.atom_set([0, 2])
    b_set = s1.atom_set([1, 2])
    lhs = project(alg, a_set ^ b_set)
    rhs = project(alg, a_set) ^ project(alg, b_set)
    assert lhs == rhs == alg.element((0, 1))


def test_project_is_homomorphism_exhaustive(fixture_spaces):
    for sp in fixture_spaces:
        alg = build_algebra(sp)
        sets = [
            sp.atom_set([i for i in range(sp.n_atoms) if mask >> i & 1])
            for mask in range(1 << sp.n_atoms)
        ]
        for s in sets:
            assert project(alg, ~s) == project(alg, s).complement()
        for s, t in product(sets, sets):
            assert project(alg, s | t) == project(alg, s) | project(alg, t)
            assert project(alg, s & t) == project(alg, s) & project(alg, t)
            assert project(alg, s ^ t) == project(alg, s) ^ project(alg, t)


def test_project_is_surjective(fixture_spaces):
    for sp in fixture_spaces:
        alg = build_algebra(sp)
        for e in alg.all_elements():
            assert project(alg, sp.atom_set(e.atom_ids)) == e


def test_is_fin(s1):
    alg = build_algebra(s1)
    assert all(is_fin(e) for e in alg.all_elements())
    inf_space = make_space(["m1", "m2"], [["m1"], ["m2"]], [INF, 2])
    inf_alg = build_algebra(inf_space)
    assert not is_fin(inf_alg.element((0,)))
    assert is_fin(inf_alg.element((1,)))
    assert is_fin(inf_alg.zero)


def test_rho_examples(s1, s2):
    a2 = build_algebra(s2)
    assert rho(a2.element((0,)), a2.element((1,))) == Fraction(3)
    assert rho(a2.element((0,)), a2.element((0,))) == Fraction(0)
    a1 = build_algebra(s1)
    assert rho(a1.element((0,)), a1.zero) == Fraction(1, 2)


def test_rho_errors(s1):
    a1 = build_algebra(s1)
    inf_alg = build_algebra(make_space(["m1", "m2"], [["m1"], ["m2"]], [INF, 2]))
    with pytest.raises(NotInFinIdeal):
        rho(inf_alg.element((0,)), inf_alg.zero)
    with pytest.raises(ForeignElement):
        rho(a1.zero, inf_alg.zero)


def test_rho_metric_axioms_exhaustive(fixture_spaces):
    for sp in fixture_spaces:
        alg = build_algebra(sp)
        table, denom = scaled_mass_table(alg)
        assert_table_matches_rho(alg, table, denom)
        size = len(table)
        for a in range(size):
            for b in range(size):
                assert table[a ^ b] >= 0
                assert (table[a ^ b] == 0) == (a == b)
                assert table[a ^ b] == table[b ^ a]
        for a in range(size):
            for b in range(size):
                ab = table[a ^ b]
                for c in range(size):
                    assert ab <= table[a ^ c] + table[c ^ b]


def test_boolean_operations_jointly_one_lipschitz_small(s1, s2):
    for sp in (s1, s2):
        alg = build_algebra(sp)
        elems = fin_mask_elements(alg)
        for a, b, c, d in product(elems, repeat=4):
            bound = rho(a, b) + rho(c, d)
            assert rho(a | c, b | d) <= bound
            assert rho(a & c, b & d) <= bound
            assert rho(a ^ c, b ^ d) <= bound


def test_rho_c_examples(s2):
    a2 = build_algebra(s2)
    d, e = a2.element((0,)), a2.element((1,))
    assert rho_c(d, e, a2.zero) == Fraction(0)
    assert rho_c(d, e, d) == Fraction(1)
    assert rho_c(e, e, a2.top) == Fraction(0)


def test_rho_c_requires_fin_localizer():
    inf_alg = build_algebra(make_space(["m1", "m2"], [["m1"], ["m2"]], [INF, 2]))
    full = inf_alg.top
    with pytest.raises(NotInFinIdeal):
        rho_c(inf_alg.zero, inf_alg.zero, full)
    # but rho_c accepts infinite-measure a and b
    assert rho_c(full, inf_alg.zero, inf_alg.element((1,))) == Fraction(2)


def test_rho_c_pseudometric_and_domination(fixture_spaces):
    for sp in fixture_spaces:
        alg = build_algebra(sp)
        fins = fin_mask_elements(alg)[:8]
        elems = alg.all_elements()[:8]
        for c in fins:
            for a in elems:
                assert rho_c(a, a, c) == 0
                for b in elems:
                    assert rho_c(a, b, c) == rho_c(b, a, c)
                    assert rho_c(a, b, c) == rho_c(a & c, b & c, c)
                    for e in elems:
                        assert rho_c(a, b, c) <= rho_c(a, e, c) + rho_c(e, b, c)


def test_rho_c_with_top_recovers_rho(s1, s2):
    for sp in (s1, s2):
        alg = build_algebra(sp)
        assert not sp.total_mass.is_infinite
        for a in alg.all_elements():
            for b in alg.all_elements():
                assert rho_c(a, b, alg.top) == rho(a, b)


def test_chi_embed(s1, s2):
    a2 = build_algebra(s2)
    assert chi_embed(a2.zero).coefficients == {0: 0, 1: 0}
    assert chi_embed(a2.element((0,))).coefficients == {0: 1, 1: 0}
    a1 = build_algebra(s1)
    assert chi_embed(a1.top).coefficients == {0: 1, 1: 1}
    inf_alg = build_algebra(make_space(["m1"], [["m1"]], [INF]))
    with pytest.raises(NotInFinIdeal):
        chi_embed(inf_alg.top)


def test_l1_distance_examples(s2):
    a2 = build_algebra(s2)
    f = chi_embed(a2.element((0,)))
    g = chi_embed(a2.element((1,)))
    assert l1_distance(f, f) == ExtRational(0)
    # both sides computed independently
    assert l1_distance(f, g) == ExtRational(3)
    assert rho(a2.element((0,)), a2.element((1,))) == Fraction(3)
    assert l1_distance(f.scale(2), g.scale(2)) == ExtRational(2) * l1_distance(f, g)


def test_l1_distance_foreign(s1, s2):
    f = chi_embed(build_algebra(s1).zero)
    g = chi_embed(build_algebra(s2).zero)
    with pytest.raises(ForeignFunction):
        l1_distance(f, g)


def test_l1_function_validates_coefficient_keys(s1):
    with pytest.raises(ValueError):
        L1Function(s1, {0: Fraction(1)})  # missing atom 1, and 2 is null
    f = L1Function(s1, {0: "-1/2", 1: 3})  # signs pass through
    assert f.coefficients == {0: Fraction(-1, 2), 1: Fraction(3)}
    with pytest.raises(TypeError):
        L1Function(s1, {0: 0.5, 1: 1})
    with pytest.raises(ValueError):
        L1Function(s1, {0: "1e5000", 1: 1})
    with pytest.raises(TypeError):
        f.scale(0.5)


def test_l1_infinite_weight_conventions():
    sp = make_space(["m1", "m2"], [["m1"], ["m2"]], [INF, 2])
    same_on_inf = L1Function(sp, {0: Fraction(1), 1: Fraction(0)})
    other = L1Function(sp, {0: Fraction(1), 1: Fraction(5)})
    assert l1_distance(same_on_inf, other) == ExtRational(10)
    differs_on_inf = L1Function(sp, {0: Fraction(2), 1: Fraction(0)})
    assert l1_distance(same_on_inf, differs_on_inf) == INF


def test_isometry_spot_check(s1):
    alg = build_algebra(s1)
    fins = fin_mask_elements(alg)
    for a in fins:
        for b in fins:
            assert l1_distance(chi_embed(a), chi_embed(b)) == ExtRational(rho(a, b))
