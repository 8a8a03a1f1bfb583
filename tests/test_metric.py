"""Metric layer: Lipschitz constants, classification, functor laws."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from malg import (
    UNBOUNDED,
    ArityMismatch,
    BooleanHom,
    CompressionResult,
    InvalidRational,
    MeasureAlgebra,
    MetricAxiomViolation,
    NonPositiveFactor,
    NotInverseNilPreserving,
    SpaceMismatch,
    UnknownPoint,
    classify,
    compose,
    compression,
    compression_submultiplicativity,
    contravariance_check,
    identity_map,
    induced_homomorphism,
    lipschitz_point,
    make_map,
    make_metric_space,
    make_space,
    random_composable_pair,
    rescale_space,
)
import malg.metric
from malg.formats import MAX_DISTANCE_DIGITS, MAX_METRIC_POINTS
from malg.metric import (
    FiniteMetricMeasureSpace,
    composition_law_violations,
    identity_law_violations,
)

from helpers import (
    drop_lowest_image_atom,
    fraction_metric_check,
    oracle_compression,
    primes_from,
    python_child_output,
)


def three_point_metric():
    return make_metric_space(
        ["a", "b", "c"],
        [1, 1, 1],
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    )


def test_metric_axiom_validation():
    three_point_metric()  # fine
    with pytest.raises(MetricAxiomViolation):
        make_metric_space(["a", "b"], [1, 1], [[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(MetricAxiomViolation):
        make_metric_space(["a", "b"], [1, 1], [[1, 1], [1, 0]])  # diagonal
    with pytest.raises(MetricAxiomViolation):
        make_metric_space(["a", "b"], [1, 1], [[0, 0], [0, 0]])  # indiscernible
    with pytest.raises(MetricAxiomViolation):
        make_metric_space(
            ["a", "b", "c"],
            [1, 1, 1],
            [[0, 1, 5], [1, 0, 1], [5, 1, 0]],  # 5 > 1 + 1
        )
    # several triples fail; the message names the first in (i, j, k) order
    first = r"^triangle inequality fails on \(a, c, b\)$"
    with pytest.raises(MetricAxiomViolation, match=first):
        make_metric_space(
            ["a", "b", "c", "d"],
            [1, 1, 1, 1],
            [[0, 5, 1, 1], [5, 0, 1, 1], [1, 1, 0, 9], [1, 1, 9, 0]],
        )
    with pytest.raises(TypeError):
        make_metric_space(["a", "b"], [1, 1], [[0, 0.5], [0.5, 0]])  # float
    with pytest.raises(ValueError):
        make_metric_space(["a", "b"], [1, 1], [[0, "inf"], ["inf", 0]])
    with pytest.raises(ArityMismatch):
        FiniteMetricMeasureSpace(
            make_space(["a", "b"], [["a"], ["b"]], [1, 1]), [[0, 1]]
        )


def test_make_metric_space_uses_singleton_atoms():
    mm = three_point_metric()
    assert mm.base.atoms == (("a",), ("b",), ("c",))
    assert mm.distance("a", "c") == Fraction(2)


def test_distance_unknown_point():
    mm = three_point_metric()
    with pytest.raises(UnknownPoint, match="'z'"):
        mm.distance("a", "z")
    with pytest.raises(UnknownPoint, match="'z'"):
        mm.distance("z", "a")


def _verdict(check, points, table):
    """None if `check` accepts the table, else its error type and message."""
    try:
        check(points, table)
    except MetricAxiomViolation as exc:
        return type(exc).__name__, str(exc)
    return None


def _integer_check(points, table):
    make_metric_space(points, [1] * len(points), table)


def _assert_same_verdict(table):
    """The integer check and the Fraction reference agree; returns the verdict."""
    points = [f"x{i}" for i in range(len(table))]
    expected = _verdict(fraction_metric_check, points, table)
    assert _verdict(_integer_check, points, table) == expected, table
    return expected


# small and large denominators, so that cross-multiplied terms differ in size
_DENOMINATORS = (1, 1, 2, 3, 7, 16, 97, 10**9 + 7, 2**61 - 1)


def _random_fraction(rng, top: int) -> Fraction:
    q = rng.choice(_DENOMINATORS)
    return Fraction(rng.randrange(top * q + 1), q)


def _random_table(rng) -> list[list[Fraction]]:
    """A table on 1-8 points: a line metric (every triangle may be tight),
    a band of distances in [1, 2] (always a metric) or free entries (often
    not), then sometimes one entry nudged by a tiny amount, zeroed, made
    asymmetric or put on the diagonal."""
    n = rng.randint(1, 8)
    shape = rng.choice(("line", "band", "free"))
    if shape == "line":
        xs = [_random_fraction(rng, 6) for _ in range(n)]
        table = [[abs(x - y) for y in xs] for x in xs]
    else:
        table = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = _random_fraction(rng, 1 if shape == "band" else 4)
                table[i][j] = table[j][i] = 1 + v if shape == "band" else v
    i, j = rng.randrange(n), rng.randrange(n)
    nudge = Fraction(rng.choice((-1, 1)), rng.choice(_DENOMINATORS[3:]) ** 2)
    defect = rng.choice(("none", "none", "nudge", "nudge", "zero", "asym", "diag"))
    if defect == "nudge" and i != j:
        table[i][j] = table[j][i] = table[i][j] + nudge
    elif defect == "zero" and i != j:
        table[i][j] = table[j][i] = Fraction(0)
    elif defect == "asym" and i != j:
        # p / (q + p) is in lowest terms and keeps the numerator of p / q
        p, q = table[i][j].numerator, table[i][j].denominator
        table[i][j] = rng.choice((table[i][j] + nudge, Fraction(p, q + p)))
    elif defect == "diag":
        table[i][i] = nudge
    return table


def _verdict_kind(verdict) -> str:
    if verdict is None:
        return "accepted"
    for kind in ("triangle", "symmetric", "positive", "!= 0"):
        if kind in verdict[1]:
            return kind
    return verdict[1]


def test_integer_axiom_check_matches_fraction_reference():
    rng = random.Random(2024)
    kinds = ("accepted", "triangle", "symmetric", "positive", "!= 0")
    seen = dict.fromkeys(kinds, 0)
    for _ in range(3000):
        seen[_verdict_kind(_assert_same_verdict(_random_table(rng)))] += 1
    # every verdict occurs often enough for the comparison to mean something
    assert min(seen.values()) >= 100, seen


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 6))
    entry = st.fractions(min_value=0, max_value=3, max_denominator=12) | (
        st.sampled_from(_DENOMINATORS).map(lambda q: 1 + Fraction(q // 2, q))
    )
    table = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = draw(entry)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(entry)
    return table


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_tables())
def test_integer_axiom_check_matches_fraction_reference_hypothesis(table):
    _assert_same_verdict(table)


def _metric_build_seconds(tmp_path, n, entries, timeout) -> float:
    """Seconds a child process spends in `obj_to_metric_space` on an
    n-point metric document with the given upper-triangle entries."""
    points = [f"p{i}" for i in range(n)]
    doc = {
        "points": points,
        "atoms": [[p] for p in points],
        "weights": ["1"] * n,
        "dist": [str(v) for v in entries],
    }
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    script = (
        "import json, sys, time\n"
        "from malg.formats import obj_to_metric_space\n"
        "obj = json.loads(open(sys.argv[1]).read())\n"
        "start = time.perf_counter()\n"
        "obj_to_metric_space(obj)\n"
        "print(time.perf_counter() - start)\n"
    )
    return float(python_child_output(["-c", script, str(path)], timeout=timeout))


def test_metric_document_at_cap_is_bounded(tmp_path):
    # every distance in [1, 2] with denominator 16: a metric, so every
    # triple is compared; the Fraction check took 11.6 s (Python 3.11,
    # 2-core x86) where this one takes under 1 s
    rng = random.Random(5)
    n = MAX_METRIC_POINTS
    entries = [1 + Fraction(rng.randint(0, 16), 16) for _ in range(n * (n - 1) // 2)]
    assert _metric_build_seconds(tmp_path, n, entries, timeout=60) < 4


def test_metric_document_at_digit_cap_is_bounded(tmp_path):
    # the longest distances a document may hold, every entry (q + r)/q in
    # [1, 2) with q of MAX_DISTANCE_DIGITS digits, on half the points cap:
    # an eighth of its triples, about 0.3 s (2-core x86, Python 3.11.7),
    # where all 200 points take about 2.2 s
    rng = random.Random(7)
    n = MAX_METRIC_POINTS // 2
    low = 10 ** (MAX_DISTANCE_DIGITS - 1)
    entries = []
    for _ in range(n * (n - 1) // 2):
        q = rng.randrange(low, 4 * low)
        entries.append(Fraction(q + rng.randrange(q), q))
    longest = max(len(str(v.denominator)) for v in entries)
    assert longest == MAX_DISTANCE_DIGITS
    assert _metric_build_seconds(tmp_path, n, entries, timeout=60) < 2


def test_metric_triangle_cost_follows_the_three_entries(tmp_path):
    # a distinct 10-digit prime denominator per entry: one common
    # denominator of every entry would have 31,600 digits, and each
    # comparison would pay for all of them
    rng = random.Random(6)
    n = 80
    entries = [
        Fraction(p + rng.randrange(1, p), p)
        for p in primes_from(10**9, n * (n - 1) // 2)
    ]
    assert _metric_build_seconds(tmp_path, n, entries, timeout=60) < 0.6


def test_lipschitz_point_constant_is_zero(s3_metric, s2_metric):
    const = make_map(s3_metric.base, s2_metric.base, {"r1": "q1", "r2": "q1"})
    assert lipschitz_point(const, s3_metric, s2_metric) == CompressionResult.bounded(0)


def test_lipschitz_point_identity(s2_metric):
    ident = identity_map(s2_metric.base)
    assert lipschitz_point(ident, s2_metric, s2_metric) == CompressionResult.bounded(1)
    singleton = make_metric_space(["o"], [1], [[0]])
    ident1 = identity_map(singleton.base)
    assert lipschitz_point(ident1, singleton, singleton) == CompressionResult.bounded(0)


def test_lipschitz_point_two_point_ratio():
    src = make_metric_space(["a", "b"], [1, 1], [[0, 1], [1, 0]])
    dst = make_metric_space(["x", "y"], [1, 1], [[0, 5], [5, 0]])
    m = make_map(src.base, dst.base, {"a": "x", "b": "y"})
    assert lipschitz_point(m, src, dst) == CompressionResult.bounded(5)


def test_lipschitz_point_space_mismatch(s2_metric, s3_metric):
    ident = identity_map(s2_metric.base)
    with pytest.raises(SpaceMismatch):
        lipschitz_point(ident, s3_metric, s2_metric)


def test_classify_constant_map_competition(s3_metric, s2_metric):
    const = make_map(s3_metric.base, s2_metric.base, {"r1": "q1", "r2": "q1"})
    mc = classify(const, s3_metric, s2_metric)
    assert mc.lipschitz_point == CompressionResult.bounded(0)
    assert mc.compression == CompressionResult.bounded(3)
    assert mc.short is True
    assert mc.bounded_deformation is True
    assert mc.rescale_source_to_short is None


def test_classify_identity(s2_metric):
    mc = classify(identity_map(s2_metric.base), s2_metric, s2_metric)
    assert mc.measurable and mc.inverse_nil_preserving
    assert mc.compression == CompressionResult.bounded(1)
    assert mc.lipschitz_point == CompressionResult.bounded(1)
    assert mc.short is True and mc.bounded_deformation is True


def test_classify_without_metric(psi):
    mc = classify(psi)
    assert mc.measurable
    assert not mc.inverse_nil_preserving
    assert mc.compression == UNBOUNDED
    assert mc.lipschitz_point is None
    assert mc.short is None and mc.bounded_deformation is None


def test_classify_reports_rescale_factors():
    src = make_metric_space(["a", "b"], [1, 1], [[0, 1], [1, 0]])
    dst = make_metric_space(["x", "y"], [1, 1], [[0, 5], [5, 0]])
    m = make_map(src.base, dst.base, {"a": "x", "b": "y"})
    mc = classify(m, src, dst)
    assert mc.short is False
    assert mc.rescale_source_to_short == Fraction(5)
    assert mc.rescale_target_to_short == Fraction(1, 5)
    # applying the guidance makes the map short
    assert lipschitz_point(m, rescale_space(src, 5), dst) == CompressionResult.bounded(1)
    assert lipschitz_point(m, src, rescale_space(dst, Fraction(1, 5))) == (
        CompressionResult.bounded(1)
    )


def test_rescale_space():
    mm = three_point_metric()
    assert rescale_space(mm, 1) == mm
    doubled = rescale_space(mm, 2)
    assert doubled.distance("a", "c") == Fraction(4)
    assert doubled.base == mm.base
    with pytest.raises(NonPositiveFactor):
        rescale_space(mm, 0)
    with pytest.raises(NonPositiveFactor):
        rescale_space(mm, Fraction(-1, 2))
    assert rescale_space(mm, "1/2").distance("a", "c") == Fraction(1)
    with pytest.raises(TypeError):
        rescale_space(mm, 0.1)  # would be 3602879701896397/36028797018963968
    with pytest.raises(ValueError):
        rescale_space(mm, "1e5000")  # over the digit bound
    with pytest.raises(InvalidRational):
        rescale_space(mm, "abc")


def test_rescaling_scales_lipschitz_exactly(s2_metric, s3_metric):
    m = make_map(s3_metric.base, s2_metric.base, {"r1": "q1", "r2": "q2"})
    base = lipschitz_point(m, s3_metric, s2_metric).value
    for factor in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
        src_scaled = lipschitz_point(m, rescale_space(s3_metric, factor), s2_metric)
        assert src_scaled.value == base / factor
        dst_scaled = lipschitz_point(m, s3_metric, rescale_space(s2_metric, factor))
        assert dst_scaled.value == base * factor


def test_rescaling_leaves_measure_side_alone(s2_metric, s3_metric):
    m = make_map(s3_metric.base, s2_metric.base, {"r1": "q1", "r2": "q2"})
    before = classify(m, s3_metric, s2_metric)
    after = classify(m, rescale_space(s3_metric, 9), s2_metric)
    assert before.compression == after.compression
    assert before.inverse_nil_preserving == after.inverse_nil_preserving


def test_compose_space_mismatch(phi, s3):
    with pytest.raises(SpaceMismatch):
        compose(phi, phi)
    with pytest.raises(SpaceMismatch):
        compose(identity_map(s3), phi)


def test_contravariance_on_worked_pair(phi, s2):
    swap = make_map(s2, s2, {"q1": "q2", "q2": "q1"})
    report = contravariance_check(phi, swap)
    assert report.ok


def test_contravariance_identity_laws(s2):
    report = contravariance_check(identity_map(s2), identity_map(s2))
    assert report.ok


def test_contravariance_requires_inp(psi, s1):
    with pytest.raises(NotInverseNilPreserving):
        contravariance_check(psi, identity_map(s1))


def test_contravariance_random_pairs():
    checked = 0
    index = 0
    while checked < 25:
        f, g = random_composable_pair(21, index)
        index += 1
        try:
            report = contravariance_check(f, g)
        except NotInverseNilPreserving:
            continue
        assert report.ok, index
        checked += 1


def test_contravariance_builds_one_algebra_per_space(monkeypatch):
    built = []
    original = MeasureAlgebra.__init__

    def counting_init(self, space):
        built.append(space)
        original(self, space)

    monkeypatch.setattr(MeasureAlgebra, "__init__", counting_init)
    checked = 0
    for index in range(40):
        f, g = random_composable_pair(22, index)
        built.clear()
        try:
            report = contravariance_check(f, g)
        except NotInverseNilPreserving:
            continue
        assert report.ok
        assert len(built) == 3, index
        assert {id(sp) for sp in built} == {id(f.source), id(f.target), id(g.target)}
        checked += 1
    assert checked >= 10


def test_corrupted_hom_fails_contravariance(phi, s2):
    swap = make_map(s2, s2, {"q1": "q2", "q2": "q1"})
    gf = compose(swap, phi)
    hom_f = induced_homomorphism(phi)
    hom_g = induced_homomorphism(swap)
    hom_gf = induced_homomorphism(gf)
    # swap the two atom images of f's hom: still a lawful hom, but it no
    # longer matches the composite
    corrupted_f = BooleanHom(
        hom_f.domain,
        hom_f.codomain,
        {0: hom_f.atom_action[1], 1: hom_f.atom_action[0]},
    )
    violations = composition_law_violations(hom_gf, corrupted_f, hom_g)
    assert violations
    assert violations[0].law == "contravariant-composition"
    assert "element" in violations[0].witness


def _swap_lowest_actions(hom):
    # the two lowest atoms trade images: still a lawful hom
    action = dict(hom.atom_action)
    if len(action) >= 2:
        a, b = sorted(action)[:2]
        action[a], action[b] = action[b], action[a]
    return BooleanHom(hom.domain, hom.codomain, action)


def _check_against_walk(violations, differing) -> bool:
    """The atom check flags a law exactly when the exhaustive walk finds a
    differing element, and its witness is the lowest differing atom."""
    assert bool(violations) == bool(differing)
    if violations:
        atoms = [e.sort_key for e in differing if len(e.sort_key) == 1]
        assert violations[0].witness["element"] == list(min(atoms))
    return bool(violations)


@pytest.mark.parametrize(
    "corrupt", [None, _swap_lowest_actions, drop_lowest_image_atom]
)
def test_composition_atom_check_matches_walk(corrupt):
    outcomes = []
    for index in range(40):
        f, g = random_composable_pair(24, index)
        try:
            homs = [induced_homomorphism(m) for m in (compose(g, f), f, g)]
        except NotInverseNilPreserving:
            continue
        if corrupt is None:
            variants = [homs]
        else:
            variants = [
                homs[:k] + [corrupt(homs[k])] + homs[k + 1:] for k in range(3)
            ]
        for hom_gf, hom_f, hom_g in variants:
            differing = [
                e
                for e in hom_gf.domain.all_elements()
                if hom_gf.apply(e) != hom_f.apply(hom_g.apply(e))
            ]
            violations = composition_law_violations(hom_gf, hom_f, hom_g)
            outcomes.append(_check_against_walk(violations, differing))
    assert len(outcomes) >= 20
    assert any(outcomes) == (corrupt is not None)


@pytest.mark.parametrize(
    "corrupt", [None, _swap_lowest_actions, drop_lowest_image_atom]
)
def test_identity_atom_check_matches_walk(monkeypatch, fixture_spaces, corrupt):
    def induced(phi):
        hom = induced_homomorphism(phi)
        return hom if corrupt is None else corrupt(hom)

    monkeypatch.setattr(malg.metric, "induced_homomorphism", induced)
    outcomes = []
    for space in fixture_spaces:
        hom = induced(identity_map(space))
        differing = [e for e in hom.domain.all_elements() if hom.apply(e) != e]
        violations = identity_law_violations(space)
        outcomes.append(_check_against_walk(violations, differing))
    assert any(outcomes) == (corrupt is not None)


def test_submultiplicativity_identity(phi, s2):
    assert compression_submultiplicativity(phi, identity_map(s2))
    gf = compose(identity_map(s2), phi)
    assert compression(gf) == compression(phi)


def test_submultiplicativity_degenerate(s2, s3):
    zero_source = make_space(["z1"], [["z1"]], [0])
    z = make_map(zero_source, s3, {"z1": "r1"})
    const = make_map(s3, s2, {"r1": "q1", "r2": "q1"})
    assert compression_submultiplicativity(z, const)
    assert compression(compose(const, z)) == CompressionResult.bounded(0)


def test_submultiplicativity_random_pairs():
    for i in range(60):
        f, g = random_composable_pair(22, i)
        assert compression_submultiplicativity(f, g)
        # cross-check the composite against the independent oracle
        assert compression(compose(g, f)) == oracle_compression(compose(g, f))


def test_submultiplicativity_mismatch(phi):
    with pytest.raises(SpaceMismatch):
        compression_submultiplicativity(phi, phi)


def discrete_metric_on(space):
    n = len(space.points)
    table = [[Fraction(0 if i == j else 1) for j in range(n)] for i in range(n)]
    return FiniteMetricMeasureSpace(space, table)


def test_classify_psi_with_metric(psi):
    mc = classify(psi, discrete_metric_on(psi.source), discrete_metric_on(psi.target))
    assert not mc.inverse_nil_preserving
    assert mc.compression == UNBOUNDED
    assert mc.bounded_deformation is False
    assert mc.lipschitz_point is not None and mc.lipschitz_point.is_bounded


def test_bounded_deformation_matches_bruteforce_route():
    # the corollary in finite form: with a metric present, bounded
    # deformation holds exactly when the brute-force Lipschitz constant
    # of the induced hom is bounded (pointwise Lipschitz is automatic)
    from malg import lipschitz_bruteforce, random_instance

    for i in range(40):
        inst = random_instance(23, i, force_null_target=(i % 3 == 0))
        mc = classify(
            inst, discrete_metric_on(inst.source), discrete_metric_on(inst.target)
        )
        assert mc.lipschitz_point.is_bounded
        assert mc.bounded_deformation == lipschitz_bruteforce(inst).result.is_bounded
