"""Maps: measurability, pushforward, the induced hom, compression routes."""

import inspect
import random
import time
from fractions import Fraction
from itertools import product

import pytest

import malg
import malg.maps
from malg import (
    INF,
    UNBOUNDED,
    AlgebraElement,
    BooleanHom,
    BruteForceReport,
    BudgetExceeded,
    CompressionResult,
    ExtRational,
    ForeignElement,
    LawReport,
    LawViolation,
    MeasurableMap,
    MeasurableSet,
    MorphismClassification,
    NotInverseNilPreserving,
    NotMeasurable,
    UnknownPoint,
    build_algebra,
    check_hom_laws,
    check_well_definedness,
    compose,
    compression,
    identity_map,
    induced_homomorphism,
    is_inverse_nil_preserving,
    lipschitz_bruteforce,
    lipschitz_fast,
    make_map,
    make_space,
    mu_bar,
    null_ideal_preserved,
    project,
    pushforward,
    random_instance,
)

from malg.maps import _joins_certified

from helpers import (
    definition_pair_oracle,
    oracle_compression,
    oracle_outputs,
    oracle_pushforward_masses,
    pair_scan_hom_laws,
    point_disagreement,
    point_images,
    point_null_laws,
    python_child_output,
)
from mutants import (
    MUTANTS,
    NULL,
    SHORTCUT,
    _drop_lowest_image_atom,
    _faulty_homs,
    _faulty_tables,
    _law_algebras,
    _null_law_maps,
    _planted,
    _report_items,
    _small_homs,
    assert_verdict,
    kill,
    mutant_names,
)


@pytest.fixture
def s3_to_q1(s3, s2):
    return make_map(s3, s2, {"r1": "q1", "r2": "q1"})


def test_make_map_preimages(phi):
    assert phi.atom_preimages == ((0, 1), (2,))


def test_identity_map_diagonal(s2):
    ident = identity_map(s2)
    assert ident.atom_preimages == ((0,), (1,))


def test_identity_map_matches_make_map(fixture_spaces):
    # identity_map hands its one dict to the checked constructor; on spaces
    # with null, infinite and multi-point atoms, and on the empty space, it
    # builds the same map as make_map
    for space in fixture_spaces:
        ident = identity_map(space)
        built = make_map(space, space, {p: p for p in space.points})
        assert ident.point_fn == built.point_fn
        assert ident.atom_preimages == built.atom_preimages


def test_full_atom_preimage_is_measurable(s2, s1):
    back = make_map(s2, s1, {"q1": "p1", "q2": "p3"})
    assert back.atom_preimages == ((0,), (1,), ())


def test_split_atom_rejected(s2):
    split_source = make_space(["r1", "r2"], [["r1", "r2"]], [1])
    for build in (make_map, MeasurableMap):
        with pytest.raises(NotMeasurable):
            build(split_source, s2, {"r1": "q1", "r2": "q2"})


def test_make_map_unknown_points(s3, s2):
    for build in (make_map, MeasurableMap):
        with pytest.raises(UnknownPoint):
            build(s3, s2, {"r1": "q1"})  # not total
        with pytest.raises(UnknownPoint):
            build(s3, s2, {"r1": "q1", "r2": "q1", "zz": "q1"})
        with pytest.raises(UnknownPoint):
            build(s3, s2, {"r1": "q1", "r2": "nope"})


def test_make_map_bad_label_wins_over_split_atom(s2):
    # atom {r1, r2} splits across q1 and q2, and r3's image is unknown:
    # every label is checked before any block
    source = make_space(["r1", "r2", "r3"], [["r1", "r2"], ["r3"]], [1, 1])
    for build in (make_map, MeasurableMap):
        with pytest.raises(UnknownPoint) as exc:
            build(source, s2, {"r1": "q1", "r2": "q2", "r3": "nope"})
        assert str(exc.value) == "unknown point 'nope'"


def test_constructor_derives_preimages_from_points():
    # preimages can no longer be handed in beside the point function, so
    # a map that drops atom 1 from x's preimage cannot be built: both atoms
    # of weight 1 land on x, and all three routes read 2
    s = make_space(["a", "b"], [["a"], ["b"]], [1, 1])
    t = make_space(["x", "y"], [["x"], ["y"]], [1, 1])
    with pytest.raises(TypeError):
        MeasurableMap(s, t, {"a": "x", "b": "x"}, ((0,), ()))
    m = MeasurableMap(s, t, {"a": "x", "b": "x"})
    assert m.atom_preimages == ((0, 1), ())
    assert m == make_map(s, t, {"a": "x", "b": "x"})
    two = CompressionResult.bounded(2)
    assert compression(m) == lipschitz_fast(m) == lipschitz_bruteforce(m).result == two


def test_pushforward_examples(phi, s2, s3_to_q1):
    # one ExtRational per target atom, the type of a space's weights
    assert pushforward(phi) == (ExtRational("5/6"), ExtRational(0))
    assert type(pushforward(phi)) is tuple
    assert {type(m) for m in pushforward(phi)} == {ExtRational}
    ident = identity_map(s2)
    assert pushforward(ident) == s2.weights
    # constant map: total mass lands on one Dirac atom
    assert pushforward(s3_to_q1) == (ExtRational(3), ExtRational(0))


def test_pushforward_total_mass_conserved(phi, psi):
    for m in (phi, psi):
        assert sum(pushforward(m), ExtRational(0)) == m.source.total_mass
    for i in range(40):
        inst = random_instance(11, i)
        assert sum(pushforward(inst), ExtRational(0)) == inst.source.total_mass


def test_pushforward_matches_point_level_oracle(phi, psi):
    for m in (phi, psi):
        assert list(pushforward(m)) == oracle_pushforward_masses(m)
    for i in range(40):
        inst = random_instance(12, i)
        assert list(pushforward(inst)) == oracle_pushforward_masses(inst)


def test_inverse_nil_preserving(phi, psi, s3, s2):
    assert is_inverse_nil_preserving(phi)
    assert not is_inverse_nil_preserving(psi)
    # any map into a space with no null atoms
    assert is_inverse_nil_preserving(make_map(s3, s2, {"r1": "q2", "r2": "q2"}))


def test_inp_formulations_agree(phi, psi):
    for m in (phi, psi):
        assert is_inverse_nil_preserving(m) == null_ideal_preserved(m)
    for i in range(60):
        inst = random_instance(13, i, force_null_target=(i % 2 == 0))
        assert is_inverse_nil_preserving(inst) == null_ideal_preserved(inst)


def test_well_definedness(phi, psi, s2):
    assert check_well_definedness(phi)
    assert not check_well_definedness(psi)
    assert check_well_definedness(identity_map(s2))


def test_well_definedness_witness_values(psi, s1, s2):
    # the defining failure: {p4} is null but its preimage carries mass 1
    null_set = s1.atom_set([2])
    assert mu_bar(project(build_algebra(s1), null_set)).is_zero
    pre = {q for q in s2.points if psi.point_fn[q] in s1.atoms[2]}
    assert pre == {"q1"}
    assert mu_bar(project(build_algebra(s2), s2.atom_set([0]))) == ExtRational(1)


def test_functor_path_matches_reference():
    # each object on the functor-law path against point preimages: atom
    # classes, algebra fields, identity maps, a map's derived preimages,
    # induced homs, apply on every domain element and _join over the
    # preimage masks on every target mask
    maps = [phi for phi, _ in _null_law_maps()]
    assert len(maps) == 23_100
    assert point_disagreement(maps) is None


def test_null_laws_match_enumerations():
    # both one-pullback laws against their definitions over point preimages
    maps = _null_law_maps()
    assert len(maps) == 23_100
    assert sum(not inp for _, inp in maps) == 6_924  # 550 of them random instances
    for phi, inp in maps:
        assert (
            (null_ideal_preserved(phi), check_well_definedness(phi))
            == point_null_laws(phi)
            == (inp, inp)
        ), phi


@pytest.mark.parametrize("name", mutant_names(NULL))
def test_null_law_mutant_breaks_agreement(name):
    assert_verdict(name)


def test_null_laws_bounded_cost_on_hostile_target():
    # 40 null and 40 non-null target atoms: enumerating the null target
    # sets and the pairs equal mod null would take 2^40 * 4^40 steps
    script = """if True:
        from malg import check_well_definedness, make_map, make_space
        from malg import null_ideal_preserved

        def discrete(prefix):
            points = [f"{prefix}{i:02d}" for i in range(80)]
            space = make_space(points, [[x] for x in points], [0] * 40 + [1] * 40)
            return points, space

        p, source = discrete("p")
        q, target = discrete("q")
        lawful = dict(zip(p, q))
        # p40 carries mass and lands on the null atom q00
        unlawful = {**lawful, "p00": "q40", "p40": "q00"}
        for point_fn in (lawful, unlawful):
            phi = make_map(source, target, point_fn)
            print(null_ideal_preserved(phi), check_well_definedness(phi))
    """
    out = python_child_output(["-c", script], timeout=20, max_memory=256 << 20)
    assert out.split() == [b"True", b"True", b"False", b"False"]


def test_induced_homomorphism(phi, s2):
    hom = induced_homomorphism(phi)
    dom = hom.domain
    assert hom.apply(dom.element((0,))) == hom.codomain.element((0, 1))
    assert hom.apply(dom.element((1,))) == hom.codomain.element(())
    ident_hom = induced_homomorphism(identity_map(s2))
    for e in ident_hom.domain.all_elements():
        assert ident_hom.apply(e) == e


def test_induced_homomorphism_requires_inp(psi):
    with pytest.raises(NotInverseNilPreserving):
        induced_homomorphism(psi)


def test_hom_apply(phi):
    hom = induced_homomorphism(phi)
    dom = hom.domain
    assert hom.apply(dom.element((0, 1))) == hom.codomain.element((0, 1))
    assert hom.apply(dom.element(())) == hom.codomain.element(())
    with pytest.raises(ForeignElement):
        hom.apply(hom.codomain.element(()))


def test_boolean_hom_rejects_bad_masks(phi):
    hom = induced_homomorphism(phi)
    dom, cod = hom.domain, hom.codomain
    masks = hom.atom_masks
    assert masks == {0: 0b011, 1: 0}  # p4, the preimage of q2, is null
    assert BooleanHom(dom, cod, masks) == hom
    # the README's no-floats rule: a mask is exactly an int, so floats,
    # bools, Fractions and elements are refused
    for bad in (3.0, True, Fraction(3), cod.element((0, 1))):
        with pytest.raises(TypeError, match="must be an int"):
            BooleanHom(dom, cod, {**masks, 0: bad})
    # a negative mask (which _ids would walk forever), the null atom p4,
    # and a bit past the codomain's atoms
    for bad in (-1, -0b100, 0b111, 0b1000):
        with pytest.raises(ValueError, match="null or out-of-range"):
            BooleanHom(dom, cod, {**masks, 0: bad})
    # masks bad in two ways: the first bad mask in the dict's order is
    # named, by the exception a check of each mask in turn raises
    with pytest.raises(ValueError, match="out-of-range atoms: it is negative$"):
        BooleanHom(dom, cod, {0: -1, 1: 3.0})
    with pytest.raises(TypeError, match="must be an int, not 3.0"):
        BooleanHom(dom, cod, {0: 3.0, 1: -1})
    with pytest.raises(TypeError, match="must be an int, not True"):
        BooleanHom(dom, cod, {1: True, 0: 0b111})
    with pytest.raises(ValueError, match="out-of-range atoms: it has atom 2$"):
        BooleanHom(dom, cod, {0: 0b111, 1: True})
    # the keys are exactly the domain's non-null atoms
    for keys in ((0,), (0, 1, 2), (1, 2), (0, 10**100)):
        with pytest.raises(ValueError, match="cover exactly"):
            BooleanHom(dom, cod, dict.fromkeys(keys, 0))
    # and each key is an atom id, exactly a non-negative int: a float or a
    # bool equal to an atom is refused, and named before any bad mask
    for bad in ({0: 0b011, 1.0: 0}, {0.0: 0b011, 1: 0}, {0: 0b011, True: 0}):
        key = [b for b in bad if type(b) is not int][0]
        with pytest.raises(TypeError, match=f"atom id must be an int, not {key!r}"):
            BooleanHom(dom, cod, bad)
    with pytest.raises(TypeError, match="atom id must be an int, not 1.0"):
        BooleanHom(dom, cod, {0: 3.0, 1.0: -1})
    with pytest.raises(ValueError, match="atom id is never negative, got -1"):
        BooleanHom(dom, cod, {0: 0b011, -1: 0})
    # a domain with a null atom: its key is refused too
    back = induced_homomorphism(identity_map(phi.source))
    assert list(back.atom_masks) == [0, 1]
    with pytest.raises(ValueError, match="cover exactly"):
        BooleanHom(back.domain, back.codomain, {**back.atom_masks, 2: 0})


def test_compression_worked_example(phi):
    assert compression(phi) == CompressionResult.bounded(Fraction(5, 6))
    assert compression(phi) == oracle_compression(phi)
    assert CompressionResult.bounded("5/6") == compression(phi)
    with pytest.raises(TypeError):
        CompressionResult.bounded(5 / 6)


def test_bounded_rejects_negative_values():
    for value in (-3, Fraction(-1, 2), "-1"):
        with pytest.raises(ValueError, match="never negative"):
            CompressionResult.bounded(value)
    assert str(CompressionResult.bounded(0)) == "0"
    # the constructor itself takes a Fraction >= 0 or None only
    with pytest.raises(TypeError):
        CompressionResult(0.5)
    with pytest.raises(ValueError, match="never negative"):
        CompressionResult(Fraction(-1))
    assert CompressionResult.bounded("1/2").times(CompressionResult.bounded(4)).value == 2


def test_compression_order_and_product_tables():
    # the four values ascend, with Unbounded on top; Unbounded absorbs
    # every product, 0's too, where ExtRational has 0 * inf == 0
    values = (*map(CompressionResult.bounded, (0, "1/2", 2)), UNBOUNDED)
    assert ExtRational(0) * INF == ExtRational(0)
    for i, a in enumerate(values):
        assert [a.le(b) for b in values] == [i <= j for j in range(4)], a
    products = [
        ["0", "0", "0", "unbounded"],
        ["0", "1/4", "1", "unbounded"],
        ["0", "1", "4", "unbounded"],
        ["unbounded"] * 4,
    ]
    assert [[str(a.times(b)) for b in values] for a in values] == products


def _constructor_cases():
    """For each public class: valid arguments, and for some argument
    positions float-bearing values besides a bare float."""
    space = make_space(["a", "b"], [["a"], ["b"]], [1, 2])
    point = make_space(["x"], [["x"]], [1])
    algebra, point_algebra = build_algebra(space), build_algebra(point)
    pair = (AlgebraElement(algebra, 1), AlgebraElement(algebra, 0))
    violation = LawViolation("preserves-zero", {"got": [0]})
    return {
        "AlgebraElement": ((algebra, 1), {}),
        "BooleanHom": ((point_algebra, algebra, {0: 3}), {2: [{0: 0.5}]}),
        "BruteForceReport": (
            (CompressionResult(Fraction(1, 2)), pair, 3), {1: [(0.5, pair[1])]},
        ),
        "CompressionResult": ((Fraction(1, 2),), {}),
        "ExtRational": ((Fraction(1, 2),), {}),
        "FiniteMeasureSpace": ((["a"], [["a"]], [1]), {2: [[0.5]]}),
        "FiniteMetricMeasureSpace": (
            (space, [[0, 1], [1, 0]]), {1: [[[0, 0.5], [0.5, 0]]]},
        ),
        "L1Function": ((space, {0: 1, 1: 2}), {1: [{0: 0.5, 1: 2}]}),
        "LawReport": (((violation,),), {0: [(violation, 0.5)]}),
        "LawViolation": (("preserves-zero", {"got": [0]}), {}),
        "MeasurableMap": ((space, point, {"a": "x", "b": "x"}), {}),
        "MeasurableSet": ((space, 1), {}),
        "MeasureAlgebra": ((space,), {}),
        "MorphismClassification": (
            (True, CompressionResult(Fraction(1, 2)), CompressionResult(Fraction(2))), {},
        ),
    }


def test_public_constructors_refuse_floats():
    # the README's no-floats rule at every public constructor: a float in
    # any argument raises TypeError or ValueError, never another error
    # and never a value; exceptions take any message, as in Python
    public = {
        name for name in malg.__all__
        if isinstance(getattr(malg, name), type)
        and not issubclass(getattr(malg, name), BaseException)
    }
    cases = _constructor_cases()
    assert public == cases.keys()
    for name, (args, float_bearing) in cases.items():
        cls = getattr(malg, name)
        assert len(inspect.signature(cls).parameters) == len(args), name
        cls(*args)
        for i in range(len(args)):
            for bad in (0.5, *float_bearing.get(i, ())):
                with pytest.raises((TypeError, ValueError)):
                    cls(*args[:i], bad, *args[i + 1:])
                    pytest.fail(f"{name} accepted {bad!r} as argument {i}")


def test_public_constructors_refuse_negatives():
    # -1 where a count, a mask or a constant cannot be negative: a negative
    # mask has infinitely many bits, and no weight, constant or pair count
    # below zero means anything; nor does an unbounded Lipschitz constant
    # on finite spaces
    space = make_space(["a"], [["a"]], [1])
    algebra = build_algebra(space)
    one = CompressionResult(Fraction(1))
    cases = {
        "ExtRational": lambda: ExtRational(-1),
        "CompressionResult": lambda: CompressionResult(Fraction(-1)),
        "MeasurableSet": lambda: MeasurableSet(space, -1),
        "AlgebraElement": lambda: AlgebraElement(algebra, -1),
        "BooleanHom": lambda: BooleanHom(algebra, algebra, {0: -1}),
        "BruteForceReport": lambda: BruteForceReport(one, None, -1),
        "MorphismClassification": lambda: MorphismClassification(True, one, UNBOUNDED),
    }
    for name, build in cases.items():
        with pytest.raises(ValueError):
            build()
            pytest.fail(f"{name} accepted a negative")


def test_report_records_check_their_fields():
    space = make_space(["a"], [["a"]], [1])
    elem = AlgebraElement(build_algebra(space), 1)
    one = CompressionResult(Fraction(1))
    for args in ((Fraction(1), None), (one, [elem, elem]), (one, (elem, 1)), (one, None, "3")):
        with pytest.raises(TypeError):
            BruteForceReport(*args)
    with pytest.raises(ValueError, match="pair"):
        BruteForceReport(one, (elem,))
    assert BruteForceReport(one, (elem, elem), 0).pairs == 0
    for violations in (["x"], ("x",), [LawViolation("preserves-zero", {})]):
        with pytest.raises(TypeError):
            LawReport(violations)
    assert LawReport(()).ok


def test_compression_constant_maps(s3_to_q1, s3):
    assert compression(s3_to_q1) == CompressionResult.bounded(3)
    null_target = make_space(["q1", "q2"], [["q1"], ["q2"]], [0, 2])
    into_null = make_map(s3, null_target, {"r1": "q1", "r2": "q1"})
    assert compression(into_null) == UNBOUNDED


def test_compression_zero_source_degenerate(s2):
    zero_source = make_space(["z1"], [["z1"]], [0])
    m = make_map(zero_source, s2, {"z1": "q1"})
    got = compression(m)
    assert got == CompressionResult.bounded(0)
    assert got.degenerate
    assert is_inverse_nil_preserving(m)


def test_compression_bounded_implies_inp():
    for i in range(80):
        inst = random_instance(14, i, force_null_target=(i % 3 == 0))
        if compression(inst).is_bounded:
            assert is_inverse_nil_preserving(inst)


def test_compression_matches_set_level_oracle():
    for i in range(80):
        inst = random_instance(15, i, force_null_target=(i % 4 == 0))
        assert compression(inst) == oracle_compression(inst)


def test_compression_infinite_weight_conventions():
    inf_target = make_space(["q1", "q2"], [["q1"], ["q2"]], [INF, 1])
    fin_source = make_space(["p1", "p2"], [["p1"], ["p2"]], [5, 2])
    m = make_map(fin_source, inf_target, {"p1": "q1", "p2": "q2"})
    # finite mass on an infinite atom constrains nothing
    assert compression(m) == CompressionResult.bounded(2)

    inf_source = make_space(["p1", "p2"], [["p1"], ["p2"]], [INF, 2])
    m3 = make_map(inf_source, inf_target, {"p1": "q2", "p2": "q2"})
    # infinite mass on a finite atom
    assert compression(m3) == UNBOUNDED


def test_max_finite_density_equals_compression():
    for i in range(60):
        inst = random_instance(16, i)
        if not is_inverse_nil_preserving(inst):
            continue
        masses = pushforward(inst)
        weights = inst.target.weights
        # pushforward density on finite non-null atoms: the infinite
        # atoms constrain nothing and inp leaves no mass on null ones
        atoms = [
            b
            for b in range(inst.target.n_atoms)
            if not (weights[b].is_infinite or weights[b].is_zero)
        ]
        if any(masses[b].is_infinite for b in atoms):
            continue
        peak = max(
            (masses[b].as_fraction() / weights[b].as_fraction() for b in atoms),
            default=Fraction(0),
        )
        assert compression(inst) == CompressionResult.bounded(peak)


def test_lipschitz_fast(phi, s2):
    assert lipschitz_fast(phi) == CompressionResult.bounded(Fraction(5, 6))
    assert lipschitz_fast(identity_map(s2)) == CompressionResult.bounded(1)


def test_lipschitz_fast_fin_ideal_violation():
    inf_source = make_space(["p1"], [["p1"]], [INF])
    fin_target = make_space(["q1"], [["q1"]], [1])
    m = make_map(inf_source, fin_target, {"p1": "q1"})
    assert lipschitz_fast(m) == UNBOUNDED
    assert compression(m) == UNBOUNDED
    assert lipschitz_bruteforce(m).result == UNBOUNDED


def test_lipschitz_bruteforce_worked_example(phi):
    report = lipschitz_bruteforce(phi)
    assert report.result == CompressionResult.bounded(Fraction(5, 6))
    a, b = report.witness
    assert a.sort_key == (0,) and b.is_zero
    assert report.attained_at_empty is True


def test_lipschitz_bruteforce_identity(s2):
    report = lipschitz_bruteforce(identity_map(s2))
    assert report.result == CompressionResult.bounded(1)


def test_lipschitz_bruteforce_budget():
    points = [f"t{i:02d}" for i in range(14)]
    big = make_space(points, [[p] for p in points], [1] * 14)
    with pytest.raises(BudgetExceeded):
        lipschitz_bruteforce(identity_map(big))
    # explicit budget raises sooner
    with pytest.raises(BudgetExceeded):
        lipschitz_bruteforce(identity_map(big), budget=4)
    # the budget counts non-null atoms: the null atom is free, the
    # infinite one counts, and a budget equal to the count enumerates
    inf = ExtRational.infinity()
    space = make_space(
        ["u", "v", "w", "z"], [["u"], ["v"], ["w"], ["z"]], [1, 2, inf, 0]
    )
    report = lipschitz_bruteforce(identity_map(space), budget=3)
    assert report.result == CompressionResult.bounded(1)
    with pytest.raises(BudgetExceeded, match="3 non-null target atoms"):
        lipschitz_bruteforce(identity_map(space), budget=2)


def test_lipschitz_bruteforce_budget_must_be_int(s2):
    # no float at an API boundary: 12.5 would otherwise act as a budget of
    # 12, and True as a budget of 1
    for budget in (12.5, 2.0, Fraction(12), "12", True, False):
        with pytest.raises(TypeError):
            lipschitz_bruteforce(identity_map(s2), budget=budget)


def test_lipschitz_bruteforce_trivial_algebra():
    zero_space = make_space(["z"], [["z"]], [0])
    m = make_map(zero_space, zero_space, {"z": "z"})
    report = lipschitz_bruteforce(m)
    assert report.result == CompressionResult.bounded(0)
    assert report.witness is None and report.attained_at_empty is None


def test_three_routes_agree_on_worked_examples(phi, psi, s2, s3_to_q1):
    for m in (phi, psi, identity_map(s2), s3_to_q1):
        comp = compression(m)
        assert comp == lipschitz_fast(m) == lipschitz_bruteforce(m).result


def test_three_routes_agree_on_random_instances():
    for i in range(120):
        inst = random_instance(17, i, force_null_target=(i % 4 == 0))
        comp = compression(inst)
        fast = lipschitz_fast(inst)
        brute = lipschitz_bruteforce(inst)
        assert comp == fast == brute.result, f"instance {i}"
        if brute.result.is_bounded and brute.result.value > 0:
            assert brute.attained_at_empty is True


def test_bruteforce_matches_reference(monkeypatch):
    # the oracle against its definition on 100 random instances: on the
    # point preimages, and under a planted fault of the induced hom on the
    # faulty hom's atom masks; test_every_small_map checks every small form
    randoms = [phi for phi, _ in _null_law_maps()[-1200:-1100]]  # seed 0

    def outputs() -> list:
        return [oracle_outputs(malg.maps.lipschitz_bruteforce(phi)) for phi in randoms]

    clean = outputs()
    assert clean == [definition_pair_oracle(phi, point_images(phi)) for phi in randoms]

    monkeypatch.setattr(malg.maps, "induced_homomorphism", _drop_lowest_image_atom)
    faulty = outputs()
    assert faulty != clean  # the fault reaches the oracle
    assert faulty == [
        definition_pair_oracle(
            phi,
            _drop_lowest_image_atom(phi).atom_masks if point_null_laws(phi)[0] else None,
        )
        for phi in randoms
    ]


def test_preimage_symmdiff_identity(phi, psi):
    # mu1(pre A ^ pre B) equals pushforward mass of A ^ B, exhaustively
    maps = [phi, psi] + [random_instance(18, i) for i in range(20)]
    for m in maps:
        masses = pushforward(m)
        src_alg = build_algebra(m.source)
        n = m.target.n_atoms
        pre = [frozenset(block) for block in m.atom_preimages]
        for amask in range(1 << n):
            for bmask in range(1 << n):
                a_pre: frozenset = frozenset()
                b_pre: frozenset = frozenset()
                mass_sym = ExtRational(0)
                for b in range(n):
                    if amask >> b & 1:
                        a_pre = a_pre | pre[b]
                    if bmask >> b & 1:
                        b_pre = b_pre | pre[b]
                    if (amask ^ bmask) >> b & 1:
                        mass_sym = mass_sym + masses[b]
                lhs = mu_bar(project(src_alg, m.source.atom_set(a_pre ^ b_pre)))
                assert lhs == mass_sym


def test_check_hom_laws_pass(phi, s2):
    assert check_hom_laws(induced_homomorphism(phi)).ok
    assert check_hom_laws(induced_homomorphism(identity_map(s2))).ok


def test_check_hom_laws_catch_duplicated_image(phi):
    hom = induced_homomorphism(phi)
    # corrupt: duplicate atom 0's image onto atom 1, breaking disjointness
    corrupted = BooleanHom(
        hom.domain,
        hom.codomain,
        {0: hom.atom_masks[0], 1: hom.atom_masks[0]},
    )
    report = check_hom_laws(corrupted)
    assert not report.ok
    assert [(v.law, v.witness) for v in report.violations] == [
        (
            "preserves-meet",
            {"a": [0], "b": [1], "image_of_combined": [], "combined_images": [0, 1]},
        ),
        (
            "preserves-complement",
            {"a": [0], "image_of_complement": [0, 1], "complement_of_image": []},
        ),
    ]


class _WrongOnPair(BooleanHom):
    """Correct atom images, but apply maps the element {0, 1} to the image
    of {0} alone; counts its own apply calls."""

    def apply(self, elem):
        self.calls = getattr(self, "calls", 0) + 1
        if elem.sort_key == (0, 1):
            elem = self.domain.element((0,))
        return super().apply(elem)


def test_check_hom_laws_apply_once_per_element():
    space = make_space(["a", "b", "c"], [["a"], ["b"], ["c"]], [1, 2, 3])
    hom = induced_homomorphism(identity_map(space))
    faulty = _WrongOnPair(hom.domain, hom.codomain, hom.atom_masks)
    report = check_hom_laws(faulty)
    assert faulty.calls == 2**3
    assert [(v.law, v.witness) for v in report.violations] == [
        (
            "preserves-join",
            {"a": [0], "b": [1], "image_of_combined": [0], "combined_images": [0, 1]},
        ),
        (
            "preserves-meet",
            {"a": [0, 1], "b": [1], "image_of_combined": [1], "combined_images": []},
        ),
        (
            "preserves-complement",
            {"a": [0, 1], "image_of_complement": [2], "complement_of_image": [1, 2]},
        ),
    ]


def test_check_hom_laws_scans_complements_once(monkeypatch):
    # one table in one order: a hom that breaks a law is not re-scanned
    # to name its witnesses
    scans = []
    scan = malg.maps._uncomplemented
    monkeypatch.setattr(
        malg.maps, "_uncomplemented", lambda *args: scans.append(args) or scan(*args)
    )
    space = make_space(["a", "b", "c"], [["a"], ["b"], ["c"]], [1, 2, 3])
    hom = induced_homomorphism(identity_map(space))
    assert check_hom_laws(hom).ok
    assert not check_hom_laws(_WrongOnPair(hom.domain, hom.codomain, hom.atom_masks)).ok
    assert len(scans) == 2


def test_swapped_images_still_lawful(s2):
    # permuting a disjoint cover is again a homomorphism, so a pure swap
    # is undetectable by the law checker (it fails functor checks instead)
    hom = induced_homomorphism(identity_map(s2))
    swapped = BooleanHom(
        hom.domain,
        hom.codomain,
        {0: hom.atom_masks[1], 1: hom.atom_masks[0]},
    )
    assert check_hom_laws(swapped).ok


def test_hom_laws_random_instances():
    sizes = []
    for i in range(40):
        inst = random_instance(19, i)
        if not is_inverse_nil_preserving(inst):
            continue
        hom = induced_homomorphism(inst)
        assert check_hom_laws(hom).ok
        sizes.append(len(hom.domain.nonnull_atoms))
    assert max(sizes) > 5


def _assert_matches_pair_scan(hom) -> set[str]:
    """check_hom_laws gives the pair scan's report; the join certificate
    holds exactly when the pair scan finds no counterexample to joins, and
    the certificate with no complement counterexample exactly when it
    finds no violation at all (a test that is too strict would leave the
    reports alike and only cost the pair scans). Returns the violated
    laws."""
    report = check_hom_laws(hom)
    reference = pair_scan_hom_laws(hom)
    assert _report_items(report) == _report_items(reference)
    image = {e.mask: hom.apply(e).mask for e in hom.domain.all_elements()}
    top, codomain_top = hom.domain._top, hom.codomain._top
    complements = all(image[a ^ top] == image[a] ^ codomain_top for a in image)
    joins = _joins_certified(image)
    laws = {v.law for v in reference.violations}
    assert joins == ("preserves-join" not in laws)
    assert (joins and complements) == (not laws)
    return laws


def test_check_hom_laws_matches_pair_scan_on_small_homs():
    laws = set()
    n_homs = 0
    for hom in _small_homs():
        laws |= _assert_matches_pair_scan(hom)
        n_homs += 1
    assert n_homs == 875
    # a join of atom images always keeps zero and joins
    assert laws == {"preserves-top", "preserves-meet", "preserves-complement"}


def test_check_hom_laws_matches_pair_scan_on_faulty_tables():
    seen = set()
    for kind, hom in _faulty_homs():
        laws = _assert_matches_pair_scan(hom)
        if kind == "join-form":
            assert "preserves-join" not in laws
        if kind == "meet-form":
            assert "preserves-meet" not in laws
        if kind == "complement-form":
            assert "preserves-complement" not in laws
            if "preserves-join" in laws:
                seen.add("complement kept, join broken")
        seen.add(frozenset(laws & {"preserves-join", "preserves-meet"}))
        seen.update(laws & {"preserves-zero", "preserves-top"})
    assert seen >= {
        frozenset({"preserves-join"}),
        frozenset({"preserves-meet"}),
        frozenset({"preserves-join", "preserves-meet"}),
        "preserves-zero",
        "preserves-top",
        "complement kept, join broken",
    }


@pytest.mark.parametrize("name", mutant_names(SHORTCUT))
def test_shortcut_mutant_leaves_pair_scan(name):
    assert_verdict(name)


def _hom_law_inputs():
    """The hom-laws observer's inputs, in order: the small homs and one
    seeded round of faulty tables over every pair of law algebras."""
    homs = [(h.domain, h.codomain, list(h.atom_masks.items())) for h in _small_homs()]
    rng = random.Random(12)
    algebras = [alg for alg in _law_algebras() if alg.nonnull_atoms]
    tables = [
        (kind, list(table.items()))
        for domain, codomain in product(algebras, repeat=2)
        for kind, table in _faulty_tables(rng, domain, codomain)
    ]
    return homs, tables


def test_order_fault_in_maps_alone_is_seen_by_check_hom_laws():
    # planted everywhere, the order fault changes the observer's inputs
    # too; planted in malg.maps alone it leaves them as they are, so the
    # row is killed by what check_hom_laws reports on the same homs
    clean_inputs = _hom_law_inputs()
    with _planted(MUTANTS["canonical-yields-complements"]):
        assert _hom_law_inputs() != clean_inputs
    with _planted(MUTANTS["canonical-yields-complements-in-maps"]):
        assert _hom_law_inputs() == clean_inputs
    assert kill("canonical-yields-complements-in-maps")[0] == "hom-laws"


def test_check_hom_laws_linear_in_elements():
    # 12 target atoms, each hit by two of 24 source atoms: a scan of the
    # joins and meets of all pairs would take 2 * 4^12 steps
    rng = random.Random(7)
    weight = lambda: Fraction(rng.randint(1, 16), rng.randint(1, 16))
    q = [f"q{i:02d}" for i in range(12)]
    p = [f"p{i:02d}" for i in range(24)]
    target = make_space(q, [[x] for x in q], [weight() for _ in q])
    source = make_space(p, [[x] for x in p], [weight() for _ in p])
    images = q + q
    rng.shuffle(images)
    hom = induced_homomorphism(make_map(source, target, dict(zip(p, images))))
    start = time.perf_counter()
    report = check_hom_laws(hom)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert elapsed < 1, elapsed


def test_compose_and_identity_laws(phi, s1, s2):
    ident1, ident2 = identity_map(s1), identity_map(s2)
    assert compose(ident2, phi) == phi
    assert compose(phi, ident1) == phi


def test_compose_permutes_pushforward(phi, s2):
    swap = make_map(s2, s2, {"q1": "q2", "q2": "q1"})
    composed = compose(swap, phi)
    assert pushforward(composed) == (0, Fraction(5, 6))


def test_fin_ideal_preserved_when_bounded():
    from malg import is_fin

    for i in range(60):
        inst = random_instance(20, i)
        if not compression(inst).is_bounded:
            continue
        hom = induced_homomorphism(inst)
        for e in hom.domain.fin_elements():
            assert is_fin(hom.apply(e)), (i, e)
