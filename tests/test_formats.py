"""Document round trips, canonical strings, parse errors, and the one
report renderer."""

import gc
import json
import sys
from fractions import Fraction

import pytest

import malg.cli
import malg.formats
from malg import (
    ArityMismatch,
    ExtRational,
    FiniteMetricMeasureSpace,
    InvalidDocument,
    PartitionOverlap,
    make_map,
    make_metric_space,
    make_space,
    random_instance,
)
from malg.cli import _text, main
from malg.formats import (
    MAX_DISTANCE_DIGITS,
    dumps_canonical,
    dumps_indented,
    map_to_obj,
    obj_to_map,
    obj_to_metric_space,
    obj_to_space,
    parse_space_document,
    space_to_obj,
)
from malg.maps import UNBOUNDED, CompressionResult, compression

from test_cli import PINNED_CASES


def test_space_round_trip_is_bit_exact(s1):
    text = dumps_canonical(space_to_obj(s1))
    again = obj_to_space(json.loads(text))
    assert again == s1
    assert dumps_canonical(space_to_obj(again)) == text


def test_round_trip_random_spaces():
    for i in range(40):
        sp = random_instance(51, i).source
        text = dumps_canonical(space_to_obj(sp))
        assert dumps_canonical(space_to_obj(obj_to_space(json.loads(text)))) == text


def test_weight_strings_are_normalized():
    sp = make_space(["a", "b", "c"], [["a"], ["b"], ["c"]], ["3/1", "6/8", "inf"])
    obj = space_to_obj(sp)
    assert obj["weights"] == ["3", "3/4", "inf"]
    assert sp.weights[2] == ExtRational.infinity()


def test_field_order_fixed(s1):
    obj = space_to_obj(s1)
    assert list(obj.keys()) == ["points", "atoms", "weights"]
    mm = make_metric_space(["a", "b"], [1, 1], [[0, 1], [1, 0]])
    assert list(space_to_obj(mm).keys()) == ["points", "atoms", "weights", "dist"]


def test_parse_space_errors():
    with pytest.raises(InvalidDocument):
        obj_to_space({"points": ["a"], "atoms": [["a"]]})  # missing weights
    with pytest.raises(InvalidDocument):
        obj_to_space({"points": ["a"], "atoms": [["a"]], "weights": [1]})
    with pytest.raises(InvalidDocument):
        obj_to_space({"points": ["a"], "atoms": [["a"]], "weights": ["x"]})
    with pytest.raises(InvalidDocument):
        obj_to_space({"points": ["a"], "atoms": [["a"]], "weights": ["-1/2"]})
    with pytest.raises(PartitionOverlap):
        obj_to_space(
            {"points": ["a", "b"], "atoms": [["a"], ["a", "b"]], "weights": ["1", "1"]}
        )


def test_metric_space_round_trip():
    mm = make_metric_space(
        ["a", "b", "c"],
        [1, Fraction(1, 2), 2],
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    )
    obj = space_to_obj(mm)
    assert obj["dist"] == ["1", "2", "1"]
    again = obj_to_metric_space(json.loads(dumps_canonical(obj)))
    assert again == mm
    assert dumps_canonical(space_to_obj(again)) == dumps_canonical(obj)


def test_metric_dist_arity_checked():
    obj = space_to_obj(
        make_metric_space(["a", "b"], [1, 1], [[0, 1], [1, 0]])
    )
    obj["dist"] = ["1", "2"]
    with pytest.raises(ArityMismatch):
        obj_to_metric_space(obj)


def test_metric_distance_digits_capped():
    obj = space_to_obj(
        make_metric_space(["a", "b"], [1, 1], [[0, 1], [1, 0]])
    )
    for at_cap in ("9" * MAX_DISTANCE_DIGITS, "1/" + "9" * MAX_DISTANCE_DIGITS):
        obj["dist"] = [at_cap]
        assert obj_to_metric_space(obj).dist[0][1] == Fraction(at_cap)
    ten = "1" + "0" * MAX_DISTANCE_DIGITS
    message = rf"dist\[0\]: .* {MAX_DISTANCE_DIGITS} digits"
    for over in (ten, "1/" + ten, f"1e-{MAX_DISTANCE_DIGITS}"):
        obj["dist"] = [over]
        with pytest.raises(InvalidDocument, match=message):
            obj_to_metric_space(obj)


def test_metric_writer_keeps_the_digit_cap():
    # a space the library builds may exceed the cap; writing it is refused,
    # so every metric document malg writes reads back
    mm = make_metric_space(["a", "b", "c"], [1, 1, 1], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def rescaled(factor):
        k = Fraction(factor)
        return FiniteMetricMeasureSpace(mm.base, [[k * d for d in row] for row in mm.dist])

    at_cap = rescaled("1/" + "9" * MAX_DISTANCE_DIGITS)
    assert obj_to_metric_space(space_to_obj(at_cap)).dist == at_cap.dist
    over = rescaled("1/1" + "0" * MAX_DISTANCE_DIGITS)
    with pytest.raises(InvalidDocument, match=rf"dist\[0\]: .* {MAX_DISTANCE_DIGITS} digits"):
        space_to_obj(over)
    # d(a, b) * 5e17 has 18 digits, d(a, c) * 5e17 = 1e18 has 19
    longer = rescaled("5" + "0" * (MAX_DISTANCE_DIGITS - 1))
    with pytest.raises(InvalidDocument, match=r"dist\[1\]: "):
        space_to_obj(longer)


def test_parse_space_document_detects_metric():
    mm = make_metric_space(["a", "b"], [1, 1], [[0, 1], [1, 0]])
    parsed = parse_space_document(space_to_obj(mm))
    assert parsed == mm
    parsed_plain = parse_space_document(space_to_obj(mm.base))
    assert parsed_plain == mm.base


def test_map_round_trip(phi):
    obj = map_to_obj(phi)
    assert list(obj.keys()) == ["source", "target", "fn"]
    again, sm, tm = obj_to_map(json.loads(dumps_canonical(obj)))
    assert again == phi and sm is None and tm is None
    assert dumps_canonical(map_to_obj(again)) == dumps_canonical(obj)


def test_map_with_metric_spaces(s3_metric, s2_metric):
    m = make_map(s3_metric.base, s2_metric.base, {"r1": "q1", "r2": "q1"})
    obj = map_to_obj(m, s3_metric, s2_metric)
    again, sm, tm = obj_to_map(obj)
    assert again == m and sm == s3_metric and tm == s2_metric


def test_map_with_path_references(phi, tmp_path):
    src_doc = space_to_obj(phi.source)
    (tmp_path / "src.json").write_text(dumps_canonical(src_doc))
    obj = {
        "source": "src.json",
        "target": space_to_obj(phi.target),
        "fn": dict(phi.point_fn),
    }
    lookup = {"src.json": json.loads((tmp_path / "src.json").read_text())}
    again, _, _ = obj_to_map(obj, resolver=lookup.__getitem__)
    assert again == phi
    with pytest.raises(InvalidDocument):
        obj_to_map(obj)  # no resolver supplied


def test_map_parse_errors(phi):
    obj = map_to_obj(phi)
    bad = dict(obj)
    bad["fn"] = {"p1": 3}
    with pytest.raises(InvalidDocument):
        obj_to_map(bad)
    missing = {"source": obj["source"], "fn": obj["fn"]}
    with pytest.raises(InvalidDocument):
        obj_to_map(missing)


def test_compression_serialization(phi):
    # the two fields every classify and theorem-check report carries
    def text(result):
        return {"compression": _text(result), "degenerate": result.degenerate}

    assert text(compression(phi)) == {
        "compression": "5/6",
        "degenerate": False,
    }
    assert text(UNBOUNDED) == {
        "compression": "unbounded",
        "degenerate": False,
    }
    assert text(CompressionResult.bounded(0)) == {
        "compression": "0",
        "degenerate": True,
    }


# --- the one report renderer ----------------------------------------------


def _json_indent2(obj) -> str:
    return json.dumps(obj, indent=2)


def _outcome(render, obj):
    """What render makes of obj: its text, or the type and message of the
    exception it raises."""
    try:
        return render(obj)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def rendered(monkeypatch):
    """The objects the CLI passes to dumps_indented, by either report
    format, in call order."""
    seen = []

    def spy(obj):
        seen.append(obj)
        return dumps_indented(obj)

    monkeypatch.setattr(malg.formats, "dumps_indented", spy)
    monkeypatch.setattr(malg.cli, "dumps_indented", spy)
    return seen


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_renderer_matches_json_on_pinned_reports(
    capsys, pinned_documents, rendered, case, fmt
):
    argv, exit_code = PINNED_CASES[case]
    assert main([*argv, "--format", fmt]) == exit_code
    out = capsys.readouterr().out
    [obj] = rendered  # each report is one call of the one renderer
    assert dumps_indented(obj) == _json_indent2(obj)
    if fmt == "json":
        assert out == _json_indent2(obj) + "\n"
    else:
        assert out.endswith("\nresults:\n" + _json_indent2(obj) + "\n")


def _cyclic_garbage(fn) -> list:
    """Type names of the objects that only the cyclic collector frees
    after fn() runs."""
    gc.collect()
    saved, flags = gc.garbage[:], gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return sorted(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved


def test_reference_report_renders_as_json_without_garbage(capsys, rendered):
    assert main(["theorem-check", "--trials", "200", "--seed", "7"]) == 0
    capsys.readouterr()
    [report] = rendered
    assert dumps_indented(report) == _json_indent2(report)
    assert _cyclic_garbage(lambda: dumps_canonical(report)) == []

    def cycle():
        loop = []
        loop.append(loop)

    assert _cyclic_garbage(cycle) == ["list"]  # the probe sees a cycle


LONG = 7 * 10**4999  # 5,000 digits: past the default int-to-str limit

EDGE_CASES = [
    {}, [], {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[]]], {"": {"": []}},
    "", "plain", 'quote " backslash \\ slash /', "\x00\x1f\x7f\n\t\r\b\f",
    "\u00e9 \u00fc \u0663 \u65e5\u672c", "\U0001f600", "\u2028\u2029",
    "\udcff.json", {"\udcff": "\ud800x", "\u00e9": ["\U0001f600"]},
    0, -1, 10**20, -(10**20), LONG, -LONG, [LONG], {"n": LONG},
    True, False, None, [True, False, None, 0, "0", ""],
    {"nested": {"list": [1, [2, [3, {}]]], "flag": True, "none": None}},
]


# explicit ids: pytest's own would print the 5,000-digit ints
@pytest.mark.parametrize("obj", EDGE_CASES, ids=[str(i) for i in range(len(EDGE_CASES))])
def test_renderer_matches_json_on_edge_cases(obj):
    text = _outcome(dumps_indented, obj)
    assert text == _outcome(_json_indent2, obj)
    if isinstance(text, str):
        assert dumps_canonical(obj) == text + "\n"


def test_renderer_matches_json_on_long_ints():
    # past the limit both raise the same ValueError (above); without it,
    # both write every digit
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this Python has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        for obj in (LONG, [-LONG], {"n": LONG}):
            assert dumps_indented(obj) == _json_indent2(obj)
    finally:
        set_limit(limit)


@pytest.mark.parametrize(
    "obj", [0.5, [0.5], {"a": 0.5}, Fraction(1, 2), (1,), {1: "a"}, {"a": {None: 1}}]
)
def test_renderer_refuses_non_report_values(obj):
    # no floats anywhere: a float, and any type a report never holds, is a
    # TypeError, not a guess at its text
    with pytest.raises(TypeError):
        dumps_indented(obj)
