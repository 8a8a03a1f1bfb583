"""CLI: exit codes, report shapes, determinism."""

import json
import random
import time

import pytest

import malg.maps
import malg.metric
from malg import (
    AlgebraElement,
    ExtRational,
    PushforwardMeasure,
    identity_map,
    induced_homomorphism,
    make_map,
    make_space,
    mu_bar,
)
from malg.cli import main
from malg.formats import (
    MAX_DISTANCE_DIGITS,
    MAX_METRIC_POINTS,
    dumps_canonical,
    map_to_obj,
    space_to_obj,
)

from helpers import drop_lowest_image_atom, python_child_output


@pytest.fixture
def phi_file(phi, tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(dumps_canonical(map_to_obj(phi)))
    return str(path)


@pytest.fixture
def psi_file(psi, tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(dumps_canonical(map_to_obj(psi)))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(capsys, s1, tmp_path):
    path = tmp_path / "s1.json"
    path.write_text(dumps_canonical(space_to_obj(s1)))
    code, report = run_cli(capsys, ["validate", str(path)])
    assert code == 0 and report["exit_code"] == 0
    entry = report["results"]["files"][0]
    assert entry["kind"] == "space"
    assert entry["sigma_finite"] is True
    assert entry["canonical"] == space_to_obj(s1)
    assert report["violations"] == []
    assert str(path) in report["inputs"]


def test_validate_flags_infinite_space(capsys, tmp_path):
    doc = {"points": ["w"], "atoms": [["w"]], "weights": ["inf"]}
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, ["validate", str(path)])
    assert code == 0
    assert report["results"]["files"][0]["sigma_finite"] is False


def test_validate_partition_overlap(capsys, tmp_path):
    doc = {"points": ["a", "b"], "atoms": [["a"], ["a", "b"]], "weights": ["1", "1"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, ["validate", str(path)])
    assert code == 2
    assert report["results"]["files"][0]["error"] == "PartitionOverlap"


def test_validate_non_measurable_map(capsys, tmp_path):
    doc = {
        "source": {"points": ["r1", "r2"], "atoms": [["r1", "r2"]], "weights": ["1"]},
        "target": {"points": ["q1", "q2"], "atoms": [["q1"], ["q2"]], "weights": ["1", "2"]},
        "fn": {"r1": "q1", "r2": "q2"},
    }
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, ["validate", str(path)])
    assert code == 2
    entry = report["results"]["files"][0]
    assert entry["error"] == "NotMeasurable"
    assert "r1" in entry["detail"]


def _malformed_document(kind, phi) -> bytes:
    if kind == "invalid-utf8":
        return b'{"source": "\xff\xfe", "target": {}, "fn": {}}'
    if kind == "deep-nesting":
        return b"[" * 100_000 + b"]" * 100_000
    obj = map_to_obj(phi)
    if kind == "nested-atom":
        obj["source"]["atoms"][0] = [["p1"]]
    elif kind == "huge-weight":
        obj["source"]["weights"][0] = "1e5000"
    else:
        obj["target"]["dist"] = ["1e5000"]
    return json.dumps(obj).encode()


@pytest.mark.parametrize("command", ["validate", "classify", "theorem-check"])
@pytest.mark.parametrize(
    "kind, error",
    [
        ("invalid-utf8", "InvalidDocument"),
        ("nested-atom", "InvalidDocument"),
        ("huge-weight", "InvalidDocument"),
        ("huge-distance", "InvalidDocument"),
        ("deep-nesting", "MalgError"),  # the error of any invalid JSON
    ],
)
def test_malformed_document_exits_2(capsys, phi, tmp_path, kind, error, command):
    path = tmp_path / "bad.json"
    path.write_bytes(_malformed_document(kind, phi))
    code, report = run_cli(capsys, [command, str(path)])
    assert code == 2 and report["exit_code"] == 2
    results = report["results"]
    entry = results["files"][0] if command == "validate" else results
    assert entry["error"] == error
    assert entry["file"] == str(path)


@pytest.mark.parametrize("command", ["validate", "classify", "theorem-check"])
def test_metric_document_over_cap_exits_2(capsys, tmp_path, command):
    # one point over the cap, and a metric: every distance is 1
    n = MAX_METRIC_POINTS + 1
    points = [f"p{i}" for i in range(n)]
    source = {
        "points": points,
        "atoms": [[p] for p in points],
        "weights": ["1"] * n,
        "dist": ["1"] * (n * (n - 1) // 2),
    }
    target = {"points": ["q"], "atoms": [["q"]], "weights": ["1"]}
    doc = {"source": source, "target": target, "fn": dict.fromkeys(points, "q")}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, [command, str(path)])
    assert code == 2 and report["exit_code"] == 2
    results = report["results"]
    entry = results["files"][0] if command == "validate" else results
    assert entry["error"] == "InvalidDocument"
    assert entry["file"] == str(path)
    assert f"at most {MAX_METRIC_POINTS} points, got {n}" in entry["detail"]


def test_metric_document_with_long_distances_exits_2(tmp_path):
    # 30 points, every distance (q + r)/q in [1, 2) with q of 4,299 digits:
    # a metric, whose triangle check took about 14 s before the digit cap
    rng = random.Random(8)
    n = 30
    low = 10**4298
    dist = []
    for _ in range(n * (n - 1) // 2):
        q = rng.randrange(low, 4 * low)
        dist.append(f"{q + rng.randrange(q)}/{q}")
    points = [f"p{i}" for i in range(n)]
    doc = {
        "points": points,
        "atoms": [[p] for p in points],
        "weights": ["1"] * n,
        "dist": dist,
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    out = python_child_output(
        ["-m", "malg", "validate", str(path)], timeout=60, exit_code=2
    )
    elapsed = time.perf_counter() - start
    entry = json.loads(out)["results"]["files"][0]
    assert entry["error"] == "InvalidDocument"
    assert f"over {MAX_DISTANCE_DIGITS} digits" in entry["detail"]
    assert elapsed < 2, elapsed


def test_result_too_long_to_print_exits_2(capsys, tmp_path):
    # each weight is within the digit bound, but their ratio is 10**8598
    big = make_space(["a"], [["a"]], ["1e4299"])
    small = make_space(["b"], [["b"]], ["1e-4299"])
    path = tmp_path / "ratio.json"
    path.write_text(dumps_canonical(map_to_obj(make_map(big, small, {"a": "b"}))))
    code, _ = run_cli(capsys, ["validate", str(path)])
    assert code == 0
    for command in ("classify", "theorem-check"):
        code, report = run_cli(capsys, [command, str(path)])
        assert code == 2
        assert report["results"]["error"] == "InvalidDocument"
        assert report["results"]["file"] == str(path)


def test_validate_missing_file(capsys, tmp_path):
    code, report = run_cli(capsys, ["validate", str(tmp_path / "nope.json")])
    assert code == 2


def test_classify_phi(capsys, phi_file):
    code, report = run_cli(capsys, ["classify", phi_file])
    assert code == 0
    got = report["results"]["classification"]
    assert got["inp"] is True
    assert got["compression"] == "5/6"
    assert got["degenerate"] is False
    assert "lipschitz" not in got
    assert report["results"]["sigma_finite"] == {"source": True, "target": True}


def test_classify_psi(capsys, psi_file):
    code, report = run_cli(capsys, ["classify", psi_file])
    assert code == 0
    got = report["results"]["classification"]
    assert got["inp"] is False
    assert got["compression"] == "unbounded"


def test_classify_constant_with_metric(capsys, s3_metric, s2_metric, tmp_path):
    const = make_map(s3_metric.base, s2_metric.base, {"r1": "q1", "r2": "q1"})
    path = tmp_path / "const.json"
    path.write_text(dumps_canonical(map_to_obj(const, s3_metric, s2_metric)))
    code, report = run_cli(capsys, ["classify", str(path)])
    assert code == 0
    got = report["results"]["classification"]
    assert got["lipschitz"] == "0"
    assert got["compression"] == "3"
    assert got["bounded_deformation"] is True
    assert got["short"] is True


def test_classify_map_with_path_refs(capsys, phi, tmp_path):
    (tmp_path / "src.json").write_text(dumps_canonical(space_to_obj(phi.source)))
    (tmp_path / "tgt.json").write_text(dumps_canonical(space_to_obj(phi.target)))
    doc = {"source": "src.json", "target": "tgt.json", "fn": dict(phi.point_fn)}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, ["classify", str(path)])
    assert code == 0
    assert report["results"]["classification"]["compression"] == "5/6"
    assert len(report["inputs"]) == 3


def test_theorem_check_single_map(capsys, phi_file):
    code, report = run_cli(capsys, ["theorem-check", phi_file])
    assert code == 0
    rec = report["results"]["instances"][0]
    assert rec["compression"] == rec["lipschitz_fast"] == rec["lipschitz_bruteforce"] == "5/6"
    assert rec["agree"] is True
    assert rec["degenerate"] is False
    assert rec["witness"] == {"pair": [[0], []], "attained_at_empty": True}


def test_theorem_check_trials(capsys):
    code, report = run_cli(capsys, ["theorem-check", "--trials", "25", "--seed", "7"])
    assert code == 0
    assert report["results"]["checked"] == 25
    assert report["results"]["agreements"] == 25
    assert report["violations"] == []


def test_theorem_check_many_source_atoms(capsys, tmp_path):
    # the oracle's source-side mass of one image spans 1,200 atoms; it
    # must not recurse once per atom
    points = [f"p{i}" for i in range(1200)]
    doc = {
        "source": {"points": points, "atoms": [[p] for p in points],
                   "weights": ["1"] * len(points)},
        "target": {"points": ["q"], "atoms": [["q"]], "weights": ["1"]},
        "fn": {p: "q" for p in points},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, ["theorem-check", str(path)])
    assert code == 0
    rec = report["results"]["instances"][0]
    assert rec["compression"] == rec["lipschitz_bruteforce"] == "1200"
    assert rec["agree"] is True


def test_theorem_check_budget_exceeded(capsys, phi_file):
    for budget in ("1", "0"):  # 0 is a budget, not a usage error
        code, report = run_cli(capsys, ["theorem-check", phi_file, "--budget", budget])
        assert code == 3
        assert report["results"]["error"]["error"] == "BudgetExceeded"


def test_negative_budget_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theorem-check", "--trials", "1", "--budget", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget must be 0 or more" in captured.err


@pytest.mark.parametrize("case", ["missing-directory", "directory", "nul-byte"])
def test_unwritable_output_exits_2(capsys, phi_file, tmp_path, case):
    output = {
        "missing-directory": str(tmp_path / "nope" / "report.json"),
        "directory": str(tmp_path),
        "nul-byte": str(tmp_path / "a\0b.json"),
    }[case]
    assert main(["classify", phi_file, "--output", output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("malg: error: cannot write --output ")
    assert captured.err.count("\n") == 1


def test_theorem_check_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theorem-check"])
    assert exc.value.code == 2
    assert "theorem-check needs a map path or --trials N" in capsys.readouterr().err


def test_theorem_check_mutation_exits_1(capsys, phi_file, monkeypatch):
    # plant a wrong fast path; the report must flag the disagreement with
    # a serialized counterexample and exit 1
    from fractions import Fraction

    import malg.cli as cli
    from malg.maps import CompressionResult

    monkeypatch.setattr(
        cli, "lipschitz_fast", lambda m: CompressionResult.bounded(Fraction(1, 7))
    )
    code, report = run_cli(capsys, ["theorem-check", phi_file])
    assert code == 1
    violation = report["violations"][0]
    assert violation["law"] == "compression-lipschitz-agreement"
    witness = violation["witness"]
    assert witness["lipschitz_fast"] == "1/7"
    assert witness["compression"] == "5/6"
    assert witness["instance"]["fn"]["p1"] == "q1"


def test_validate_reports_per_file(capsys, s1, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(dumps_canonical(space_to_obj(s1)))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["a"], "atoms": [[]], "weights": ["1"]}))
    code, report = run_cli(capsys, ["validate", str(bad), str(good)])
    assert code == 2
    entries = report["results"]["files"]
    assert entries[0]["error"] == "PartitionGap"
    assert entries[1]["kind"] == "space"


def test_theorem_check_deterministic_output(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["theorem-check", "--trials", "30", "--seed", "5"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_functor_check_identity_pair(capsys, phi, s1, tmp_path):
    ident = identity_map(s1)
    f_path = tmp_path / "id.json"
    f_path.write_text(dumps_canonical(map_to_obj(ident)))
    g_path = tmp_path / "phi.json"
    g_path.write_text(dumps_canonical(map_to_obj(phi)))
    code, report = run_cli(capsys, ["functor-check", str(f_path), str(g_path)])
    assert code == 0
    assert report["results"]["submultiplicative"] is True
    assert report["results"]["compression_gf"] == "5/6"
    assert report["violations"] == []


def test_functor_check_non_composable(capsys, phi_file):
    code, report = run_cli(capsys, ["functor-check", phi_file, phi_file])
    assert code == 2
    assert report["results"]["error"] == "SpaceMismatch"


def test_functor_check_linear_in_atoms(tmp_path):
    # 26 singleton atoms: walking the 2^26 elements of each algebra would
    # not finish, the atom check is linear
    points = [f"p{i}" for i in range(26)]
    space = make_space(points, [[p] for p in points], [1] * len(points))
    path = tmp_path / "id26.json"
    path.write_text(dumps_canonical(map_to_obj(identity_map(space))))
    start = time.perf_counter()
    out = python_child_output(
        ["-m", "malg", "functor-check", str(path), str(path)], timeout=20
    )
    elapsed = time.perf_counter() - start
    report = json.loads(out)
    assert report["exit_code"] == 0 and report["violations"] == []
    assert elapsed < 2, elapsed


def test_text_format(capsys, phi_file):
    code = main(["classify", phi_file, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command: classify\n")
    assert "exit_code: 0" in out
    assert "violations: none" in out


def test_module_entry_point(phi_file):
    report = json.loads(python_child_output(["-m", "malg", "classify", phi_file]))
    assert report["results"]["classification"]["compression"] == "5/6"


def _skip_last_source_atom(phi):
    # off-by-one: each preimage block loses its last source atom
    masses = tuple(
        sum((phi.source.weights[a] for a in block[:-1]), ExtRational(0))
        for block in phi.atom_preimages
    )
    return PushforwardMeasure(phi.target, masses)


def _lowest_atom_only(elem):
    # counts only the lowest atom of the element
    return mu_bar(AlgebraElement(elem.algebra, elem.mask & -elem.mask))


def _drop_lowest_image_atom(phi):
    # the images stay disjoint, so fast and the oracle still agree with
    # each other
    return drop_lowest_image_atom(induced_homomorphism(phi))


@pytest.mark.parametrize(
    "name, fault, odd_one_out",
    [
        # only compression reads the pushforward
        ("pushforward", _skip_last_source_atom, "compression"),
        # only lipschitz_fast reads mu_bar
        ("mu_bar", _lowest_atom_only, "lipschitz_fast"),
        # fast and the oracle share the hom, compression does not
        ("induced_homomorphism", _drop_lowest_image_atom, "compression"),
    ],
)
def test_planted_fault_caught(capsys, monkeypatch, name, fault, odd_one_out):
    monkeypatch.setattr(malg.maps, name, fault)
    code, report = run_cli(capsys, ["theorem-check", "--trials", "30", "--seed", "7"])
    assert code == 1 and report["violations"]
    # every violation shows the faulty route alone against the other two
    routes = ("compression", "lipschitz_fast", "lipschitz_bruteforce")
    for violation in report["violations"]:
        witness = violation["witness"]
        a, b = (witness[r] for r in routes if r != odd_one_out)
        assert a == b != witness[odd_one_out]


def test_planted_fault_caught_by_functor_check(
    capsys, monkeypatch, phi, s1, tmp_path
):
    monkeypatch.setattr(malg.metric, "induced_homomorphism", _drop_lowest_image_atom)
    f_path, g_path = tmp_path / "id.json", tmp_path / "phi.json"
    f_path.write_text(dumps_canonical(map_to_obj(identity_map(s1))))
    g_path.write_text(dumps_canonical(map_to_obj(phi)))
    code, report = run_cli(capsys, ["functor-check", str(f_path), str(g_path)])
    assert code == 1
    laws = {v["law"] for v in report["violations"]}
    assert laws == {"identity-hom", "contravariant-composition"}


def test_parser_reused_across_calls(capsysbinary, s1, phi_file, tmp_path):
    # one process, one parser: usage errors and --help leave it fit for
    # the next call, and every report matches a fresh process's bytes
    import malg.cli as cli

    space = tmp_path / "s1.json"
    space.write_text(dumps_canonical(space_to_obj(s1)))
    cli.build_parser.cache_clear()
    reports = []

    def call(argv):
        assert main(argv) == 0
        reports.append((argv, capsysbinary.readouterr().out))

    call(["validate", str(space), phi_file])
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    err = capsysbinary.readouterr().err.decode()
    assert err.startswith("usage: malg classify") and "required: map" in err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsysbinary.readouterr().out.startswith(b"usage: malg")
    call(["classify", phi_file])
    call(["classify", phi_file, "--format", "text"])
    call(["theorem-check", "--trials", "5", "--seed", "7"])
    assert cli.build_parser.cache_info().misses == 1
    for argv, out in reports:
        assert out == python_child_output(["-m", "malg", *argv]), argv
