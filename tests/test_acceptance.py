"""Acceptance suite.

Every criterion runs at its stated tolerance (exact rational equality
throughout, runtime ceilings asserted literally) and prints one
pass/fail line; run `pytest tests/test_acceptance.py -v -s` to see them.
"""

from fractions import Fraction
from hashlib import sha256
from itertools import product
from time import perf_counter

import pytest

from malg import (
    CompressionResult,
    ExtRational,
    build_algebra,
    check_hom_laws,
    check_well_definedness,
    chi_embed,
    classify,
    compression,
    compression_submultiplicativity,
    contravariance_check,
    identity_map,
    induced_homomorphism,
    is_fin,
    is_inverse_nil_preserving,
    l1_distance,
    lipschitz_bruteforce,
    lipschitz_fast,
    make_map,
    make_metric_space,
    make_space,
    null_ideal_preserved,
    project,
    random_composable_pair,
    random_instance,
    rho,
    NotInverseNilPreserving,
)
from malg.cli import main

from helpers import assert_table_matches_rho, fin_mask_elements, scaled_mass_table

THEOREM_SEED = 101
FORCED_NULL_SEED = 202
FUNCTOR_SEED = 303
THEOREM_TRIALS = 200
FORCED_NULL_TRIALS = 50
FUNCTOR_PAIRS = 100


def report_line(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} ({detail})")


@pytest.fixture(scope="module")
def theorem_batch():
    t0 = perf_counter()
    runs = []
    for i in range(THEOREM_TRIALS):
        phi = random_instance(THEOREM_SEED, i)
        runs.append(
            (phi, compression(phi), lipschitz_fast(phi), lipschitz_bruteforce(phi))
        )
    return runs, perf_counter() - t0


def test_criterion_1_compression_lipschitz_agreement(theorem_batch):
    runs, elapsed = theorem_batch
    for phi, comp, fast, brute in runs:
        assert len(build_algebra(phi.source).nonnull_atoms) <= 8
        assert len(build_algebra(phi.target).nonnull_atoms) <= 8
    disagreements = [
        i
        for i, (_, comp, fast, brute) in enumerate(runs)
        if not (comp == fast == brute.result)
    ]
    unbounded = sum(1 for _, comp, _, _ in runs if not comp.is_bounded)
    ok = not disagreements and elapsed < 60
    report_line(
        1,
        ok,
        f"{len(runs)} instances, {unbounded} unbounded, "
        f"{len(disagreements)} disagreements, {elapsed:.1f}s",
    )
    assert not disagreements
    assert elapsed < 60


def test_criterion_2_inp_equivalence_chain(theorem_batch):
    runs, _ = theorem_batch
    maps = [phi for phi, _, _, _ in runs]
    maps += [
        random_instance(FORCED_NULL_SEED, i, force_null_target=True)
        for i in range(FORCED_NULL_TRIALS)
    ]
    t0 = perf_counter()
    mismatches = 0
    inp_count = 0
    for phi in maps:
        inp = is_inverse_nil_preserving(phi)
        null_ideal = null_ideal_preserved(phi)
        well_defined = check_well_definedness(phi)
        try:
            induced_homomorphism(phi)
            hom_exists = True
        except NotInverseNilPreserving:
            hom_exists = False
        if not (inp == null_ideal == well_defined == hom_exists):
            mismatches += 1
        inp_count += inp
    elapsed = perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10
    report_line(
        2,
        ok,
        f"{len(maps)} maps ({inp_count} inp), {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 10


def test_criterion_3_b_empty_extremality(theorem_batch):
    runs, _ = theorem_batch
    positive = [
        brute
        for _, _, _, brute in runs
        if brute.result.is_bounded and brute.result.value > 0
    ]
    failures = [r for r in positive if r.attained_at_empty is not True]
    ok = bool(positive) and not failures
    report_line(
        3, ok, f"{len(positive)} bounded-positive runs, {len(failures)} failures"
    )
    assert positive, "batch produced no bounded-positive run"
    assert not failures


def test_criterion_4_chi_isometry(fixture_spaces):
    t0 = perf_counter()
    assert len(fixture_spaces) == 20
    pairs = 0
    for sp in fixture_spaces:
        algebra = build_algebra(sp)
        assert len(algebra.nonnull_atoms) <= 5
        fins = fin_mask_elements(algebra)
        chis = [chi_embed(e) for e in fins]
        for i, a in enumerate(fins):
            for j, b in enumerate(fins):
                assert l1_distance(chis[i], chis[j]) == ExtRational(rho(a, b))
                pairs += 1
    elapsed = perf_counter() - t0
    ok = elapsed < 5
    report_line(4, ok, f"{pairs} element pairs over 20 spaces, {elapsed:.1f}s")
    assert elapsed < 5


def _joint_lipschitz_violations(table) -> int:
    size = len(table)
    bad = 0
    for a in range(size):
        for b in range(size):
            bound_ab = table[a ^ b]
            for c in range(size):
                ac_or, bc_or = a | c, b | c
                ac_and, bc_and = a & c, b & c
                ac_xor, bc_xor = a ^ c, b ^ c
                for d in range(size):
                    bound = bound_ab + table[c ^ d]
                    if table[ac_or ^ (b | d)] > bound:
                        bad += 1
                    if table[ac_and ^ (b & d)] > bound:
                        bad += 1
                    if table[ac_xor ^ (b ^ d)] > bound:
                        bad += 1
    return bad


def test_criterion_5_metric_and_homomorphism_laws(fixture_spaces, phi):
    t0 = perf_counter()
    violations = 0

    # rho metric axioms, exhaustive per algebra over the finite ideal
    for sp in fixture_spaces:
        algebra = build_algebra(sp)
        table, denom = scaled_mass_table(algebra)
        assert_table_matches_rho(algebra, table, denom)
        size = len(table)
        for a in range(size):
            for b in range(size):
                dab = table[a ^ b]
                if dab < 0 or (dab == 0) != (a == b) or dab != table[b ^ a]:
                    violations += 1
                for c in range(size):
                    if dab > table[a ^ c] + table[c ^ b]:
                        violations += 1

    # Boolean operations jointly 1-Lipschitz, exhaustive 4-tuples
    for sp in fixture_spaces:
        table, _ = scaled_mass_table(build_algebra(sp))
        violations += _joint_lipschitz_violations(table)

    # project is a Boolean homomorphism with kernel the null ideal
    for sp in fixture_spaces:
        algebra = build_algebra(sp)
        sets = [
            sp.atom_set([i for i in range(sp.n_atoms) if mask >> i & 1])
            for mask in range(1 << sp.n_atoms)
        ]
        for s in sets:
            if project(algebra, ~s) != project(algebra, s).complement():
                violations += 1
        for s, t in product(sets, sets):
            if project(algebra, s | t) != project(algebra, s) | project(algebra, t):
                violations += 1
            if project(algebra, s & t) != project(algebra, s) & project(algebra, t):
                violations += 1
            if project(algebra, s ^ t) != project(algebra, s) ^ project(algebra, t):
                violations += 1

    # induced-homomorphism laws on worked, identity, and seeded maps
    homs = [induced_homomorphism(phi)]
    homs += [induced_homomorphism(identity_map(sp)) for sp in fixture_spaces]
    found = 0
    index = 0
    while found < 20:
        inst = random_instance(THEOREM_SEED, 1000 + index)
        index += 1
        if not is_inverse_nil_preserving(inst):
            continue
        if len(build_algebra(inst.target).nonnull_atoms) > 5:
            continue
        homs.append(induced_homomorphism(inst))
        found += 1
    for hom in homs:
        violations += len(check_hom_laws(hom).violations)

    elapsed = perf_counter() - t0
    ok = violations == 0 and elapsed < 10
    report_line(5, ok, f"{violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 10


def test_criterion_6_functor_laws():
    t0 = perf_counter()
    checked = 0
    index = 0
    law_failures = 0
    submult_failures = 0
    while checked < FUNCTOR_PAIRS:
        f, g = random_composable_pair(FUNCTOR_SEED, index)
        index += 1
        if not (is_inverse_nil_preserving(f) and is_inverse_nil_preserving(g)):
            continue
        if not contravariance_check(f, g).ok:
            law_failures += 1
        if not compression_submultiplicativity(f, g):
            submult_failures += 1
        checked += 1
    elapsed = perf_counter() - t0
    ok = law_failures == 0 and submult_failures == 0 and elapsed < 10
    report_line(
        6,
        ok,
        f"{checked} composable inp pairs from {index} candidates, "
        f"{law_failures} law failures, {submult_failures} submult failures, "
        f"{elapsed:.1f}s",
    )
    assert law_failures == 0
    assert submult_failures == 0
    assert elapsed < 10


def test_criterion_7_constant_map_phenomenon():
    t0 = perf_counter()
    source = make_metric_space(["r1", "r2"], [1, 2], [[0, 1], [1, 0]])
    target = make_metric_space(
        ["q1", "q2", "q3"],
        [Fraction(1, 4), 2, 0],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    )
    total = source.base.total_mass.as_fraction()
    assert total == Fraction(3)

    cases = []
    for point, weight in (("q1", Fraction(1, 4)), ("q2", Fraction(2))):
        const = make_map(source.base, target.base, {"r1": point, "r2": point})
        mc = classify(const, source, target)
        cases.append(
            mc.lipschitz_point == CompressionResult.bounded(0)
            and mc.compression == CompressionResult.bounded(total / weight)
        )
    into_null = make_map(source.base, target.base, {"r1": "q3", "r2": "q3"})
    mc = classify(into_null, source, target)
    cases.append(
        mc.lipschitz_point == CompressionResult.bounded(0)
        and not mc.compression.is_bounded
    )
    elapsed = perf_counter() - t0
    ok = all(cases) and elapsed < 1
    report_line(7, ok, f"{len(cases)} constant-map fixtures, {elapsed:.2f}s")
    assert all(cases)
    assert elapsed < 1


def test_criterion_8_fin_ideal_preservation():
    t0 = perf_counter()
    inf = ExtRational.infinity()
    src = make_space(["a0", "a1"], [["a0"], ["a1"]], [inf, 1])
    tgt = make_space(["b0", "b1"], [["b0"], ["b1"]], [inf, 2])

    preserving = [
        make_map(src, tgt, {"a0": "b0", "a1": "b1"}),
        identity_map(src),
    ]
    for phi in preserving:
        assert any(w.is_infinite for w in phi.source.weights)
        comp = compression(phi)
        assert comp.is_bounded, comp
        hom = induced_homomorphism(phi)
        for e in hom.domain.fin_elements():
            assert is_fin(hom.apply(e))

    # converse failure: infinite source atom over a finite target atom
    fin_tgt = make_space(["c0"], [["c0"]], [1])
    violating = make_map(src, fin_tgt, {"a0": "c0", "a1": "c0"})
    assert not compression(violating).is_bounded
    hom = induced_homomorphism(violating)
    broken = [e for e in hom.domain.fin_elements() if not is_fin(hom.apply(e))]
    assert broken, "expected a finite element with infinite image"
    elapsed = perf_counter() - t0
    ok = elapsed < 1
    report_line(
        8,
        ok,
        f"{len(preserving)} preserving fixtures, 1 violating fixture, {elapsed:.2f}s",
    )
    assert elapsed < 1


def test_criterion_9_cli_determinism(tmp_path):
    t0 = perf_counter()
    first = tmp_path / "run1.json"
    second = tmp_path / "run2.json"
    argv = ["theorem-check", "--trials", "50", "--seed", "7"]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    elapsed = perf_counter() - t0
    ok = identical and elapsed < 5
    report_line(9, ok, f"byte-identical={identical}, {elapsed:.1f}s")
    assert identical
    assert elapsed < 5
    # the reports of the initial import, pinned byte for byte
    text = tmp_path / "run.txt"
    assert main(argv + ["--format", "text", "--output", str(text)]) == 0
    assert sha256(first.read_bytes()).hexdigest() == (
        "399a7327e413eacb5bdb9f315ee50d234b06a1d1f4aca7ef7187da822c5588e1"
    )
    assert sha256(text.read_bytes()).hexdigest() == (
        "60de6e687c3e88b8ef3aeb6c0e8e850390b0eecd1aa3141fc684ae70590c0193"
    )
