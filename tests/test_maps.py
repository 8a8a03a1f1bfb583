"""Maps: measurability, pushforward, the induced hom, compression routes."""

from fractions import Fraction

import pytest

from malg import (
    INF,
    UNBOUNDED,
    BooleanHom,
    BudgetExceeded,
    CompressionResult,
    ExtRational,
    ForeignElement,
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
    measure,
    null_ideal_preserved,
    pushforward,
    random_instance,
)

from helpers import oracle_compression, oracle_pushforward_masses


@pytest.fixture
def s3_to_q1(s3, s2):
    return make_map(s3, s2, {"r1": "q1", "r2": "q1"})


def test_make_map_preimages(phi):
    assert phi.atom_preimages == ((0, 1), (2,))


def test_identity_map_diagonal(s2):
    ident = identity_map(s2)
    assert ident.atom_preimages == ((0,), (1,))


def test_full_atom_preimage_is_measurable(s2, s1):
    back = make_map(s2, s1, {"q1": "p1", "q2": "p3"})
    assert back.atom_preimages == ((0,), (1,), ())


def test_split_atom_rejected(s2):
    split_source = make_space(["r1", "r2"], [["r1", "r2"]], [1])
    with pytest.raises(NotMeasurable):
        make_map(split_source, s2, {"r1": "q1", "r2": "q2"})


def test_make_map_unknown_points(s3, s2):
    with pytest.raises(UnknownPoint):
        make_map(s3, s2, {"r1": "q1"})  # not total
    with pytest.raises(UnknownPoint):
        make_map(s3, s2, {"r1": "q1", "r2": "q1", "zz": "q1"})
    with pytest.raises(UnknownPoint):
        make_map(s3, s2, {"r1": "q1", "r2": "nope"})


def test_pushforward_examples(phi, s2, s3_to_q1):
    assert pushforward(phi).masses == (ExtRational(5, 6), ExtRational(0))
    ident = identity_map(s2)
    assert pushforward(ident).masses == s2.weights
    # constant map: total mass lands on one Dirac atom
    assert pushforward(s3_to_q1).masses == (ExtRational(3), ExtRational(0))


def test_pushforward_total_mass_conserved(phi, psi):
    for m in (phi, psi):
        assert sum(pushforward(m).masses, ExtRational(0)) == m.source.total_mass
    for i in range(40):
        inst = random_instance(11, i)
        assert sum(pushforward(inst).masses, ExtRational(0)) == inst.source.total_mass


def test_pushforward_matches_point_level_oracle(phi, psi):
    for m in (phi, psi):
        assert list(pushforward(m).masses) == oracle_pushforward_masses(m)
    for i in range(40):
        inst = random_instance(12, i)
        assert list(pushforward(inst).masses) == oracle_pushforward_masses(inst)


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
    assert measure(s1, null_set).is_zero
    pre = {q for q in s2.points if psi.point_fn[q] in null_set.member_points()}
    assert pre == {"q1"}
    assert measure(s2, s2.atom_set([0])) == ExtRational(1)


def test_induced_homomorphism(phi, s2):
    hom = induced_homomorphism(phi)
    dom = hom.domain
    assert hom.apply(dom.element((0,))) == hom.codomain.element((0, 1))
    assert hom.apply(dom.element((1,))) == hom.codomain.zero
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
    assert hom.apply(dom.zero) == hom.codomain.zero
    with pytest.raises(ForeignElement):
        hom.apply(hom.codomain.zero)


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
    assert CompressionResult.bounded("1/2").times(CompressionResult.bounded(4)).value == 2


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
        push = pushforward(inst)
        weights = inst.target.weights
        # pushforward density on finite non-null atoms: the infinite
        # atoms constrain nothing and inp leaves no mass on null ones
        densities = [
            push.masses[b] / weights[b]
            for b in range(inst.target.n_atoms)
            if not (weights[b].is_infinite or weights[b].is_zero)
        ]
        if any(d.is_infinite for d in densities):
            continue
        peak = max((d.as_fraction() for d in densities), default=Fraction(0))
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


def test_preimage_symmdiff_identity(phi, psi):
    # mu1(pre A ^ pre B) equals pushforward mass of A ^ B, exhaustively
    maps = [phi, psi] + [random_instance(18, i) for i in range(20)]
    for m in maps:
        push = pushforward(m)
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
                        mass_sym = mass_sym + push.masses[b]
                lhs = measure(m.source, m.source.atom_set(a_pre ^ b_pre))
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
        {0: hom.atom_action[0], 1: hom.atom_action[0]},
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
    """Correct atom actions, but apply maps the element {0, 1} to the image
    of {0} alone; counts its own apply calls."""

    def apply(self, elem):
        self.calls = getattr(self, "calls", 0) + 1
        if elem.sort_key == (0, 1):
            elem = self.domain.element((0,))
        return super().apply(elem)


def test_check_hom_laws_apply_once_per_element():
    space = make_space(["a", "b", "c"], [["a"], ["b"], ["c"]], [1, 2, 3])
    hom = induced_homomorphism(identity_map(space))
    faulty = _WrongOnPair(hom.domain, hom.codomain, hom.atom_action)
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


def test_swapped_images_still_lawful(s2):
    # permuting a disjoint cover is again a homomorphism, so a pure swap
    # is undetectable by the law checker (it fails functor checks instead)
    hom = induced_homomorphism(identity_map(s2))
    swapped = BooleanHom(
        hom.domain,
        hom.codomain,
        {0: hom.atom_action[1], 1: hom.atom_action[0]},
    )
    assert check_hom_laws(swapped).ok


def test_hom_laws_random_instances():
    for i in range(40):
        inst = random_instance(19, i)
        if not is_inverse_nil_preserving(inst):
            continue
        if len(build_algebra(inst.target).nonnull_atoms) > 5:
            continue
        assert check_hom_laws(induced_homomorphism(inst)).ok


def test_compose_and_identity_laws(phi, s1, s2):
    ident1, ident2 = identity_map(s1), identity_map(s2)
    assert compose(ident2, phi) == phi
    assert compose(phi, ident1) == phi


def test_compose_permutes_pushforward(phi, s2):
    swap = make_map(s2, s2, {"q1": "q2", "q2": "q1"})
    composed = compose(swap, phi)
    assert pushforward(composed).masses == (ExtRational(0), ExtRational(5, 6))


def test_fin_ideal_preserved_when_bounded():
    from malg import is_fin

    for i in range(60):
        inst = random_instance(20, i)
        if not compression(inst).is_bounded:
            continue
        hom = induced_homomorphism(inst)
        for e in hom.domain.fin_elements():
            assert is_fin(hom.apply(e)), (i, e)
