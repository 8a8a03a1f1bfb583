"""CLI: exit codes, report shapes, determinism."""

import errno
import hashlib
import json
import os
import random
import time

import pytest

import malg.metric
from malg import identity_map, make_map, make_space
from malg.cli import main
from malg.formats import (
    MAX_DISTANCE_DIGITS,
    MAX_METRIC_POINTS,
    dumps_canonical,
    map_to_obj,
    space_to_obj,
)

from helpers import primes_from, python_child_output
from mutants import (
    CLASSIFY,
    FUNCTOR,
    HOM,
    ROUTE,
    _drop_lowest_image_atom,
    assert_verdict,
    mutant_names,
)


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


def test_validate_metric_space(capsys, s2_metric, tmp_path):
    path = tmp_path / "s2-metric.json"
    path.write_text(dumps_canonical(space_to_obj(s2_metric)))
    code, report = run_cli(capsys, ["validate", str(path)])
    assert code == 0 and report["exit_code"] == 0
    entry = report["results"]["files"][0]
    assert entry["kind"] == "metric_space"
    assert entry["sigma_finite"] is True
    assert entry["canonical"] == space_to_obj(s2_metric)
    assert entry["canonical"]["dist"] == ["1"]


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


def test_validate_point_repeated_in_one_atom(capsys, tmp_path):
    doc = {"points": ["a", "b"], "atoms": [["a", "a"], ["b"]], "weights": ["1", "1"]}
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, ["validate", str(path)])
    assert code == 2
    entry = report["results"]["files"][0]
    assert entry["error"] == "DuplicatePoint"
    assert entry["detail"] == "point 'a' listed twice in one atom"


def test_validate_negative_weight(capsys, tmp_path):
    doc = {"points": ["a"], "atoms": [["a"]], "weights": ["-1/2"]}
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, ["validate", str(path)])
    assert code == 2 and report["exit_code"] == 2
    entry = report["results"]["files"][0]
    assert entry["error"] == "InvalidDocument"
    assert entry["detail"] == "weights[0]: weight '-1/2' is negative"


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


def test_validate_bad_label_wins_over_split_atom(capsys, tmp_path):
    doc = {
        "source": {
            "points": ["r1", "r2", "r3"],
            "atoms": [["r1", "r2"], ["r3"]],
            "weights": ["1", "1"],
        },
        "target": {"points": ["q1", "q2"], "atoms": [["q1"], ["q2"]], "weights": ["1", "2"]},
        "fn": {"r1": "q1", "r2": "q2", "r3": "nope"},
    }
    path = tmp_path / "split-and-unknown.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, ["validate", str(path)])
    assert code == 2
    entry = report["results"]["files"][0]
    assert entry["error"] == "UnknownPoint"
    assert entry["detail"] == "unknown point 'nope'"


def _malformed_document(kind, phi) -> bytes:
    if kind == "invalid-utf8":
        return b'{"source": "\xff\xfe", "target": {}, "fn": {}}'
    if kind == "deep-nesting":
        return b"[" * 100_000 + b"]" * 100_000
    obj = map_to_obj(phi)
    if kind == "json-list":
        obj = [obj]
    elif kind == "nested-atom":
        obj["source"]["atoms"][0] = [["p1"]]
    elif kind == "huge-weight":
        obj["source"]["weights"][0] = "1e5000"
    elif kind == "weights-not-list":
        obj["source"]["weights"] = "1"
    elif kind == "dist-not-list":
        obj["target"]["dist"] = "1"
    elif kind == "dist-inf":
        obj["target"]["dist"] = ["inf"]
    else:
        obj["target"]["dist"] = ["1e5000"]
    return json.dumps(obj).encode()


# the detail of each kind whose detail is one fixed message; a JSON list is
# refused as a space by validate and as a map by the other commands
MALFORMED_DETAILS = {
    "json-list": "{} document must be a JSON object",
    "weights-not-list": "weights: must be a list",
    "dist-not-list": "dist: must be a list of rational strings",
    "dist-inf": "dist[0]: not a rational: 'inf'",
}


@pytest.mark.parametrize("command", ["validate", "classify", "theorem-check"])
@pytest.mark.parametrize(
    "kind, error",
    [
        ("invalid-utf8", "InvalidDocument"),
        ("json-list", "InvalidDocument"),
        ("nested-atom", "InvalidDocument"),
        ("weights-not-list", "InvalidDocument"),
        ("dist-not-list", "InvalidDocument"),
        ("dist-inf", "InvalidDocument"),
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
    if kind in MALFORMED_DETAILS:
        document = "space" if command == "validate" else "map"
        assert entry["detail"] == MALFORMED_DETAILS[kind].format(document)


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


def test_sum_too_long_to_print_exits_2(tmp_path):
    # not only a ratio: 2,000 weights 1/p, each of a few digits, sum on one
    # target atom to a value whose denominator, the product of the first
    # 2,000 primes, has over 7,000 digits
    primes = primes_from(2, 2000)
    points = [f"p{i}" for i in range(len(primes))]
    doc = {
        "source": {
            "points": points,
            "atoms": [[p] for p in points],
            "weights": [f"1/{q}" for q in primes],
        },
        "target": {"points": ["q"], "atoms": [["q"]], "weights": ["1"]},
        "fn": dict.fromkeys(points, "q"),
    }
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(doc))
    for command in ("classify", "theorem-check"):
        out = python_child_output(
            ["-m", "malg", command, str(path)], timeout=30, exit_code=2
        )
        entry = json.loads(out)["results"]
        assert entry["error"] == "InvalidDocument"
        assert entry["detail"] == "a result is too long to print"
        assert entry["file"] == str(path)


def test_validate_missing_file(capsys, tmp_path):
    code, report = run_cli(capsys, ["validate", str(tmp_path / "nope.json")])
    assert code == 2


@pytest.mark.parametrize("kind", ["fifo", "device"])
@pytest.mark.parametrize("referenced", [False, True], ids=["top-level", "referenced"])
def test_special_file_exits_2(phi, tmp_path, kind, referenced):
    # reading a FIFO blocks until a writer comes, /dev/zero never ends:
    # both are refused before a byte is read; a child process with a
    # timeout and a memory cap catches a hang or an unbounded read
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs here")
        os.mkfifo(tmp_path / "pipe")
        special = str(tmp_path / "pipe")
    else:
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero here")
        special = "/dev/zero"
    if referenced:
        obj = map_to_obj(phi)
        obj["source"] = "pipe" if kind == "fifo" else special
        path = tmp_path / "map.json"
        path.write_text(json.dumps(obj))
        argv, file = ["classify", str(path)], str(path)
    else:
        argv, file = ["validate", special], special
    out = python_child_output(
        ["-m", "malg", *argv], timeout=20, exit_code=2, max_memory=256 << 20
    )
    report = json.loads(out)
    results = report["results"]
    entry = results if referenced else results["files"][0]
    assert entry["error"] == "InvalidDocument"
    assert entry["file"] == file
    assert entry["detail"] == f"not a regular file: {special}"
    # the special file is refused unread: only a map that names it is read
    assert list(report["inputs"]) == ([file] if referenced else [])


def _os_error(code: int, path: str) -> str:
    return f"[Errno {code}] {os.strerror(code)}: {path!r}"


@pytest.mark.parametrize(
    "case", ["empty", "directory", "missing-double-slash", "nul-byte", "trailing-slash"]
)
def test_odd_input_path_is_read_as_given(capsys, phi_file, tmp_path, case):
    # a path is opened and echoed as given: "" is not read as ".", nor
    # "a//b.json" as "a/b.json", nor "phi.json/" as "phi.json"
    nul = f"{tmp_path}/a\0b.json"
    path, error, detail = {
        "empty": ("", "FileNotFoundError", _os_error(errno.ENOENT, "")),
        "directory": (
            str(tmp_path), "IsADirectoryError", _os_error(errno.EISDIR, str(tmp_path))
        ),
        "missing-double-slash": (
            f"{tmp_path}/a//b.json",
            "FileNotFoundError",
            _os_error(errno.ENOENT, f"{tmp_path}/a//b.json"),
        ),
        "nul-byte": (
            nul, "InvalidDocument", f"bad path {nul!r}: embedded null byte"
        ),
        "trailing-slash": (
            phi_file + "/", "NotADirectoryError", _os_error(errno.ENOTDIR, phi_file + "/")
        ),
    }[case]
    want = {"error": error, "detail": detail, "file": path}
    code, report = run_cli(capsys, ["validate", path])
    assert (code, report["inputs"], report["results"]["files"]) == (2, {}, [want])
    code, report = run_cli(capsys, ["classify", path])
    assert (code, report["inputs"], report["results"]) == (2, {}, want)


@pytest.mark.parametrize("ref", ["./space.json", "sub/../space.json"])
def test_space_reference_resolves_against_the_map(capsys, phi, tmp_path, ref):
    # a reference is joined to the map's directory with pathlib, which
    # drops a "." and keeps a "..", and is echoed and read by that name
    (tmp_path / "sub").mkdir()
    space = tmp_path / "space.json"
    space.write_text(dumps_canonical(space_to_obj(phi.target)))
    obj = map_to_obj(phi)
    obj["target"] = ref
    path = tmp_path / "map.json"
    path.write_text(json.dumps(obj))
    code, report = run_cli(capsys, ["classify", str(path)])
    assert code == 0
    assert report["results"]["classification"]["compression"] == "5/6"
    key = str(space) if ref.startswith("./") else f"{tmp_path}/{ref}"
    digest = hashlib.sha256(space.read_bytes()).hexdigest()
    assert list(report["inputs"]) == [str(path), key]
    assert report["inputs"][key] == digest


def test_inline_documents_build_no_path(capsys, monkeypatch, phi_file, s1, tmp_path):
    # a path is a str from argv to the open: only a space reference,
    # joined to its map's directory, builds a pathlib.Path
    def no_path(*args):
        raise AssertionError(f"Path{args} built")

    space = tmp_path / "s1.json"
    space.write_text(dumps_canonical(space_to_obj(s1)))
    monkeypatch.setattr(malg.cli, "Path", no_path)
    out = str(tmp_path / "out.json")
    for argv in (["classify", phi_file], ["validate", phi_file, str(space)]):
        assert main([*argv, "--output", out]) == 0
        assert json.loads((tmp_path / "out.json").read_text())["exit_code"] == 0


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
    # phi's target has exactly 2 non-null atoms: a budget of 2 enumerates
    code, report = run_cli(capsys, ["theorem-check", phi_file, "--budget", "2"])
    assert code == 0
    assert report["results"]["instances"][0]["lipschitz_bruteforce"] == "5/6"


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
    if case == "missing-directory":  # the path is named as given, twice
        assert captured.err == (
            f"malg: error: cannot write --output {output!r}: "
            f"{_os_error(errno.ENOENT, output)}\n"
        )


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


def test_theorem_check_keeps_violations_at_budget_stop(capsys, monkeypatch):
    # seed 7: instance 0 has 6 non-null target atoms and disagrees under a
    # wrong fast path, instance 1 has 8; the violation found first stays
    # in the report next to the budget error, and exit 1 wins over exit 3
    from fractions import Fraction

    import malg.cli as cli
    from malg.maps import CompressionResult

    monkeypatch.setattr(
        cli, "lipschitz_fast", lambda m: CompressionResult.bounded(Fraction(1, 7))
    )
    argv = ["theorem-check", "--seed", "7", "--budget", "6"]
    code, one = run_cli(capsys, argv + ["--trials", "1"])
    assert code == 1 and len(one["violations"]) == 1
    code, two = run_cli(capsys, argv + ["--trials", "2"])
    assert code == 1 and two["exit_code"] == 1
    assert two["violations"] == one["violations"]
    assert two["results"] == {
        "seed": 7,
        "trials": 2,
        "budget": 6,
        "error": {
            "error": "BudgetExceeded",
            "detail": "8 non-null target atoms exceed the budget of 6",
        },
    }


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


def test_text_report_escapes_undecodable_input_path(monkeypatch, s1, tmp_path):
    # a file name of bytes that are not UTF-8 shows in the text report
    # escaped, as in the json report, on stdout and in --output alike
    path = tmp_path / os.fsdecode(b"\xff.json")
    path.write_text(dumps_canonical(space_to_obj(s1)))
    monkeypatch.setenv("PYTHONIOENCODING", "utf-8")
    argv = ["-m", "malg", "validate", str(path), "--format", "text"]
    out = python_child_output(argv)
    python_child_output([*argv, "--output", str(tmp_path / "out.txt")])
    assert out == (tmp_path / "out.txt").read_bytes()
    assert f"input: {tmp_path}/\\udcff.json sha256=".encode() in out


def test_module_entry_point(phi_file):
    report = json.loads(python_child_output(["-m", "malg", "classify", phi_file]))
    assert report["results"]["classification"]["compression"] == "5/6"


@pytest.mark.parametrize("name", mutant_names(ROUTE))
def test_planted_fault_caught(name):
    assert_verdict(name)


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


# Report bytes of every command, as sha256 of stdout: any change to the
# envelope, its key order, the text layout or an entry shows here. The
# documents they name come from conftest's pinned_documents; test_formats
# checks the renderer on the same reports.
PINNED_CASES = {
    "validate": (["validate", "bad.json", "s1.json"], 2),
    "classify": (["classify", "phi.json"], 0),
    "classify-metric": (["classify", "const.json"], 0),
    "classify-missing": (["classify", "nope.json"], 2),
    "theorem-check": (["theorem-check", "phi.json"], 0),
    "theorem-check-budget": (["theorem-check", "phi.json", "--budget", "0"], 3),
    "functor-check": (["functor-check", "id.json", "phi.json"], 0),
    "functor-check-mismatch": (["functor-check", "phi.json", "phi.json"], 2),
    "validate-spellings": (["validate", "spellings.json"], 0),
    "classify-spellings": (["classify", "spellings.json"], 0),
    "theorem-check-spellings": (["theorem-check", "spellings.json"], 0),
}
PINNED_SHA256 = {
    ("classify", "json"): "eef777a3c0a73deb68a7feb5c60d80deb403a960d2d13fb5b179b1efff099de9",
    ("classify", "text"): "f35088a6c7afcc3c381b1310bbb6993f5188799770b4daa0e62855c7893f7ac8",
    ("classify-metric", "json"): "7987a39805b32b57ec2cb3c1890b9ec607218750ee3df84830ca5ec723df2380",
    ("classify-metric", "text"): "311bdd2b48811d9171fc1d9ce832068adabb12a8f6df1618511f1977ceb814e9",
    ("classify-missing", "json"): "bd92e928c5d93faf17b5b4d594aa1f07f43cc44c2bdfdd54a7dde8a2a5c32d4a",
    ("classify-missing", "text"): "b385371f2c70fb40951568c75d949d9cd761b7e196a0b324710a8b3d278eece9",
    ("classify-spellings", "json"): "2188332ba77560b930c5d09f2dfa18181edf4ae0f051eaa7b1faf6d81e736cb5",
    ("classify-spellings", "text"): "3f491f04cae246a1b6ab55938fa243392fb7032027a47a79ae90b8b761681bfd",
    ("functor-check", "json"): "39797fc9b36815166ef8a5b88dfa2cd2f424dfc41990d76c788ff448a6a50b1d",
    ("functor-check", "text"): "6a5b73d3d695887ad7e236ee94c2183b423a84267b465cf376c015a79f07d118",
    ("functor-check-mismatch", "json"): "53da5965b14c8b509a8797ed9732b11bb00c74558429cee60ea78cada7817977",
    ("functor-check-mismatch", "text"): "836e8367c38410776aa33455cd19e79eadd6842a01332456bcc69ed68b4b154b",
    ("theorem-check", "json"): "81586feae517d4889362db4b54b49f299b0fed19f321ad9c4f83c43834d69250",
    ("theorem-check", "text"): "fdbd9578cca0ae9db3eb3080f37a3823159954ccaa874bed293f513dfbc0d2e6",
    ("theorem-check-budget", "json"): "e1d99bb2aa93ae67e313eb69464c5951903c2512a7d6ed0db4c7cbb481a31716",
    ("theorem-check-budget", "text"): "de7f63e9cde51ef500439edef97f19b400838d707c93e14f6aab5e03a979e82e",
    ("theorem-check-spellings", "json"): "a4a06f52eaa9cef239c5d7fb68c093154d4fad0bde6dc1620995129503922c54",
    ("theorem-check-spellings", "text"): "aaf51d2de7c00918635501102d800b05513605055302853875b89e36b835f3d1",
    ("validate", "json"): "e161560d7fa9f6e7e0381ad7b857c9f3d2577a3df4c00ae7163f5eaa2b36d436",
    ("validate", "text"): "5c4f5abe0f9da36d0eeccecd6e165f1778b290f1db875c6ccbb15ecbe0f7a315",
    ("validate-spellings", "json"): "be3b1450b65514a45d76a78fc32e3f2cb87c5008fee65602a6a851cf6e7a840e",
    ("validate-spellings", "text"): "b16678784983968b24b37a4c96e07335a39b8722c75dcf65635799c5e95a9918",
}


# functor-check on the pinned id.json and phi.json with the planted
# _drop_lowest_image_atom fault: these pin the witnesses of its violations,
# which test_planted_fault_caught_by_functor_check checks by law name only
PLANTED_FAULT_SHA256 = {
    "json": "842b299594a0b868505b001bab22c3c9a5771c14ed0b8d9b0a53c071c45f7f53",
    "text": "ab66971f9f640e5ae0e4124381083eafb366c1fce8ad8424178bd86113602c33",
}


def _report_digest(capsys, argv, exit_code) -> str:
    assert main(argv) == exit_code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_report_bytes_pinned(capsys, pinned_documents, case, fmt):
    argv, exit_code = PINNED_CASES[case]
    digest = _report_digest(capsys, [*argv, "--format", fmt], exit_code)
    assert digest == PINNED_SHA256[case, fmt]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_planted_fault_report_bytes_pinned(capsys, monkeypatch, pinned_documents, fmt):
    monkeypatch.setattr(malg.metric, "induced_homomorphism", _drop_lowest_image_atom)
    argv = ["functor-check", "id.json", "phi.json", "--format", fmt]
    assert _report_digest(capsys, argv, 1) == PLANTED_FAULT_SHA256[fmt]


@pytest.mark.parametrize("name", mutant_names(FUNCTOR))
def test_law_mutant_changes_functor_check(name):
    assert_verdict(name)


@pytest.mark.parametrize("name", mutant_names(CLASSIFY))
def test_classify_mutant_changes_reports(name):
    assert_verdict(name)


@pytest.mark.parametrize("name", mutant_names(HOM))
def test_hom_mutant_changes_reports(name):
    assert_verdict(name)
