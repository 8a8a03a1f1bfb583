"""Measure algebras: projection, mu-bar, rho, the L1 embedding."""

import gc
import json
from fractions import Fraction
from functools import partial
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
    NotInverseNilPreserving,
    build_algebra,
    chi_embed,
    contravariance_check,
    is_fin,
    l1_distance,
    lipschitz_bruteforce,
    make_space,
    mu_bar,
    project,
    random_composable_pair,
    random_instance,
    rho,
)

from helpers import (
    assert_table_matches_rho,
    fin_mask_elements,
    python_child_output,
    scaled_mass_table,
)


def test_build_algebra_sizes(s1, s2):
    a1 = build_algebra(s1)
    assert a1.nonnull_atoms == (0, 1)
    assert len(a1.all_elements()) == 4
    assert len(build_algebra(s2).all_elements()) == 4


def test_build_algebra_returns_the_spaces_one_algebra(s1):
    # one algebra up to equality: every call, on the space or on an equal
    # twin, builds an algebra equal to the first, with the same hash
    alg = build_algebra(s1)
    assert build_algebra(s1) == alg and hash(build_algebra(s1)) == hash(alg)
    twin = make_space(s1.points, s1.atoms, s1.weights)
    assert build_algebra(twin) == alg and hash(build_algebra(twin)) == hash(alg)
    assert twin == s1 and hash(twin) == hash(s1)


def test_dropped_algebra_is_freed_by_reference_counting():
    # no space, algebra, map or hom holds a reference cycle: with the
    # cyclic collector off, building and dropping them leaves it nothing
    gc.disable()
    try:
        gc.collect()
        for index in range(20):
            f, g = random_composable_pair(5, index)
            MeasureAlgebra(f.source)
            build_algebra(g.target)
            lipschitz_bruteforce(f)
            try:
                contravariance_check(f, g)
            except NotInverseNilPreserving:
                pass
        del f, g
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_measure_algebra_reads_no_weight(monkeypatch):
    # the space sorts its atoms into null, non-null and finite when it is
    # built; its algebra copies those classes and reads no weight
    spaces = [random_instance(4, i).source for i in range(20)]
    spaces.append(make_space(["a", "b", "c"], [["a"], ["b"], ["c"]], [0, INF, 2]))
    reads = []

    def counted(name):
        fget = getattr(ExtRational, name).fget
        return property(lambda self: reads.append(name) or fget(self))

    for name in ("is_zero", "is_infinite"):
        monkeypatch.setattr(ExtRational, name, counted(name))
    for sp in spaces:
        MeasureAlgebra(sp)
        build_algebra(sp)
    assert reads == []


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
        fin = tuple(i for i in nonnull if sp.weights[i] != INF)
        null_mask, nonnull_mask, fin_mask = (
            sum(1 << i for i in ids) for ids in (null, nonnull, fin)
        )
        assert sp.null_atom_ids == null
        assert sp.nonnull_atom_ids == nonnull
        assert sp._fin_ids == fin
        assert (sp._null_mask, sp._nonnull_mask, sp._fin_mask) == (
            null_mask, nonnull_mask, fin_mask
        )
        assert sp.is_sigma_finite == (INF not in sp.weights)
        alg = build_algebra(sp)
        assert (alg.nonnull_atoms, alg.fin_atoms) == (nonnull, fin)
        assert (alg._top, alg._fin) == (nonnull_mask, fin_mask)
    assert any(sp.null_atom_ids for sp in spaces[:-3])
    assert any(sp._fin_ids != sp.nonnull_atom_ids for sp in spaces[:-3])


def test_trivial_algebra_of_all_null_space():
    sp = make_space(["z1", "z2"], [["z1"], ["z2"]], [0, 0])
    alg = build_algebra(sp)
    zero = alg.element(())
    assert zero == ~zero
    assert alg.all_elements() == [zero]


def test_project_drops_null_atoms(s1):
    alg = build_algebra(s1)
    assert project(alg, s1.atom_set([0, 2])) == alg.element((0,))
    assert project(alg, s1.atom_set([2])) == alg.element(())
    assert project(alg, s1.atom_set([0])) == project(alg, s1.atom_set([0, 2]))


def test_mu_bar(s1, s2):
    a1, a2 = build_algebra(s1), build_algebra(s2)
    assert mu_bar(a1.element((0,))) == ExtRational("1/2")
    assert mu_bar(a1.element(())) == ExtRational(0)
    assert mu_bar(a2.element((0, 1))) == ExtRational(3)


def test_mu_bar_positive_on_nonzero(fixture_spaces):
    for sp in fixture_spaces:
        alg = build_algebra(sp)
        for e in alg.all_elements():
            if not e.is_zero:
                assert mu_bar(e) > 0


def test_element_operations(s1):
    alg = build_algebra(s1)
    zero, top = alg.element(()), alg.element((0, 1))
    a = alg.element((0,))
    assert a.symmdiff(a) == zero
    assert a.complement().complement() == a
    assert a.join(alg.element((1,))) == top
    assert a.meet(alg.element((1,))) == zero
    assert (a | alg.element((1,))) == top and (a & alg.element((1,))) == zero
    assert (a ^ a) == zero and ~zero == top
    with pytest.raises(ForeignElement):
        a.meet(build_algebra(make_space(["z"], [["z"]], [1])).element(()))


def test_masks_and_derived_views(s1):
    # bit i of a mask is atom i; atom_ids and sort_key are views of it
    alg = build_algebra(s1)
    full = s1.atom_set(range(3))
    assert full.mask == 0b111 and full.atom_ids == frozenset({0, 1, 2})
    top = project(alg, full)  # the null atom 2 drops out
    assert top.mask == 0b011 and top.sort_key == (0, 1) and top == ~alg.element(())
    assert (~top).mask == 0 and top.atom_ids == frozenset({0, 1})
    with pytest.raises(ValueError):
        alg.element((2,))
    # the constructors take the mask itself
    assert AlgebraElement(alg, 0b011) == ~alg.element(())
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
    # a mask is exactly an int, as BooleanHom's atom masks are: no bool
    # (True would pass for atom 0), float or Fraction
    for bad in (True, 1.0, Fraction(1)):
        with pytest.raises(TypeError, match="must be an int"):
            AlgebraElement(alg, bad)
        with pytest.raises(TypeError, match="must be an int"):
            MeasurableSet(s1, bad)


# builds a 2-atom space's set, element and hom table from a mask of 2**24 + 1
# bits and from its negation, and prints each refusal's type and message
_HUGE_MASKS_CHILD = """
import json
from malg import AlgebraElement, BooleanHom, MeasurableSet, build_algebra, make_space
space = make_space(["a", "b"], [["a"], ["b"]], [1, 1])
alg = build_algebra(space)
seen = []
for mask in (1 << 2**24, -(1 << 2**24)):
    for make in (
        lambda: MeasurableSet(space, mask),
        lambda: AlgebraElement(alg, mask),
        lambda: BooleanHom(alg, alg, {0: mask, 1: 0}),
    ):
        try:
            make()
            seen.append("accepted")
        except Exception as exc:
            seen.append([type(exc).__name__, str(exc)])
print(json.dumps(seen))
"""


def test_huge_mask_messages_are_short():
    # a message naming the mask in binary would run to 16.7 million
    # characters; it names the highest stray atom, or says "negative"
    out = python_child_output(
        ["-c", _HUGE_MASKS_CHILD], timeout=30, max_memory=256 << 20
    )
    seen = json.loads(out)
    for kind in ("it has atom 16777216", "it is negative"):
        assert seen[:3] == [
            ["ValueError", f"atom mask does not fit 2 atoms: {kind}"],
            ["ValueError", f"atom mask has null or out-of-range atoms: {kind}"],
            ["ValueError", f"atom image mask has null or out-of-range atoms: {kind}"],
        ]
        assert all(len(message) < 200 for _, message in seen[:3])
        seen = seen[3:]
    assert seen == []


def test_atom_ids_are_exactly_non_negative_ints(s1):
    # the ids given to atom_set and element follow the mask rule: no bool
    # (False and True would pass for atoms 0 and 1), no float, no Fraction,
    # and no negative id (a shift by it would fail deep inside)
    alg = build_algebra(s1)
    for make in (s1.atom_set, alg.element):
        cases = (([False, True], "False"), ([0, 1.0], "1.0"), ([Fraction(1)], "Fraction"))
        for ids, named in cases:
            with pytest.raises(TypeError, match=f"atom id must be an int, not {named}"):
                make(ids)
        with pytest.raises(ValueError, match="atom id is never negative, got -1"):
            make([0, -1])
        # an id at or above the atom count is refused before any shift, with
        # a message that names the id rather than a mask of that many bits
        for big in (s1.n_atoms, 2**20):
            with pytest.raises(ValueError) as info:
                make([0, big])
            assert str(info.value) == f"atom id {big} is out of range for 3 atoms"
        assert make([0, 1]).mask == 0b011


def test_sets_and_elements_stay_apart(s1):
    # the two classes share their mask code, not their identity: equal masks
    # on one space still give a set and an element that never compare equal
    alg = build_algebra(s1)
    mset, elem = MeasurableSet(s1, 0b011), AlgebraElement(alg, 0b011)
    assert mset != elem and elem != mset
    assert not mset == elem and not elem == mset
    for op in (lambda x, y: x | y, lambda x, y: x.union(y)):
        with pytest.raises(TypeError, match="^expected a MeasurableSet$"):
            op(mset, elem)
    for op in (lambda x, y: x | y, lambda x, y: x.join(y)):
        with pytest.raises(TypeError, match="^expected an AlgebraElement$"):
            op(elem, mset)
    other_set, other_elem = s1.atom_set([2]), alg.element((1,))
    for result in (mset | other_set, mset & other_set, mset ^ other_set, ~mset):
        assert type(result) is MeasurableSet and result.space is s1
    for result in (elem | other_elem, elem & other_elem, elem ^ other_elem, ~elem):
        assert type(result) is AlgebraElement and result.algebra is alg
    assert (mset.space, elem.algebra) == (s1, alg)
    assert repr(mset) == "MeasurableSet(atoms=[0, 1])"
    assert repr(elem) == "AlgebraElement([0, 1])"
    # the benchmark's tracer swaps the constructor in the class's own dict
    assert "__init__" in AlgebraElement.__dict__


def test_wrong_argument_type_raises_type_error(s1):
    # a float, an int or the other class: the same TypeError the operators
    # raise, not an AttributeError from deep inside
    alg = build_algebra(s1)
    e = ~alg.element(())
    for bad in (0.5, 3, e):
        with pytest.raises(TypeError, match="^expected a MeasurableSet$"):
            project(alg, bad)
    for bad in (0.5, 3, s1.atom_set(range(3))):
        for fn in (mu_bar, is_fin, chi_embed, lambda x: rho(x, e), partial(rho, e)):
            with pytest.raises(TypeError, match="^expected an AlgebraElement$"):
                fn(bad)


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
    assert is_fin(inf_alg.element(()))


def test_rho_examples(s1, s2):
    a2 = build_algebra(s2)
    assert rho(a2.element((0,)), a2.element((1,))) == Fraction(3)
    assert rho(a2.element((0,)), a2.element((0,))) == Fraction(0)
    a1 = build_algebra(s1)
    assert rho(a1.element((0,)), a1.element(())) == Fraction(1, 2)


def test_rho_errors(s1):
    a1 = build_algebra(s1)
    inf_alg = build_algebra(make_space(["m1", "m2"], [["m1"], ["m2"]], [INF, 2]))
    with pytest.raises(NotInFinIdeal):
        rho(inf_alg.element((0,)), inf_alg.element(()))
    with pytest.raises(ForeignElement):
        rho(a1.element(()), inf_alg.element(()))


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


def test_chi_embed(s1, s2):
    a2 = build_algebra(s2)
    assert chi_embed(a2.element(())).coefficients == {0: 0, 1: 0}
    assert chi_embed(a2.element((0,))).coefficients == {0: 1, 1: 0}
    a1 = build_algebra(s1)
    assert chi_embed(~a1.element(())).coefficients == {0: 1, 1: 1}
    inf_alg = build_algebra(make_space(["m1"], [["m1"]], [INF]))
    with pytest.raises(NotInFinIdeal):
        chi_embed(~inf_alg.element(()))


def test_l1_distance_examples(s2):
    a2 = build_algebra(s2)
    f = chi_embed(a2.element((0,)))
    g = chi_embed(a2.element((1,)))
    assert l1_distance(f, f) == ExtRational(0)
    # both sides computed independently
    assert l1_distance(f, g) == ExtRational(3)
    assert rho(a2.element((0,)), a2.element((1,))) == Fraction(3)
    doubled = [L1Function(h.space, {i: 2 * c for i, c in h.coefficients.items()})
               for h in (f, g)]
    assert l1_distance(*doubled) == ExtRational(2) * l1_distance(f, g)


def test_l1_distance_foreign(s1, s2):
    f = chi_embed(build_algebra(s1).element(()))
    g = chi_embed(build_algebra(s2).element(()))
    with pytest.raises(ForeignFunction):
        l1_distance(f, g)


def test_l1_function_validates_coefficient_keys(s1):
    with pytest.raises(ValueError):
        L1Function(s1, {0: Fraction(1)})  # missing atom 1, and 2 is null
    f = L1Function(s1, {0: "-1/2", 1: 3})  # signs pass through
    assert f.coefficients == {0: Fraction(-1, 2), 1: Fraction(3)}
    with pytest.raises(TypeError):
        L1Function(s1, {0: 0.5, 1: 1})
    # a key is an atom id: 0.0 == 0 and True == 1 would pass a key-set check
    for coefficients, named in (
        ({0.0: 1, True: 2}, "0.0"), ({0: 1, True: 2}, "True"), ({0: 1, 1.0: 2}, "1.0")
    ):
        with pytest.raises(TypeError, match=f"atom id must be an int, not {named}"):
            L1Function(s1, coefficients)
    with pytest.raises(ValueError):
        L1Function(s1, {0: "1e5000", 1: 1})


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
