"""Document round trips, canonical strings, parse errors."""

import json
from fractions import Fraction

import pytest

from malg import (
    ArityMismatch,
    ExtRational,
    InvalidDocument,
    PartitionOverlap,
    make_map,
    make_metric_space,
    make_space,
    random_instance,
)
from malg.cli import _text
from malg.formats import (
    dumps_canonical,
    map_to_obj,
    metric_space_to_obj,
    obj_to_map,
    obj_to_metric_space,
    obj_to_space,
    parse_space_document,
    space_to_obj,
)
from malg.maps import UNBOUNDED, CompressionResult, compression


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
    assert list(metric_space_to_obj(mm).keys()) == ["points", "atoms", "weights", "dist"]


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
    obj = metric_space_to_obj(mm)
    assert obj["dist"] == ["1", "2", "1"]
    again = obj_to_metric_space(json.loads(dumps_canonical(obj)))
    assert again == mm
    assert dumps_canonical(metric_space_to_obj(again)) == dumps_canonical(obj)


def test_metric_dist_arity_checked():
    obj = metric_space_to_obj(
        make_metric_space(["a", "b"], [1, 1], [[0, 1], [1, 0]])
    )
    obj["dist"] = ["1", "2"]
    with pytest.raises(ArityMismatch):
        obj_to_metric_space(obj)


def test_parse_space_document_detects_metric():
    mm = make_metric_space(["a", "b"], [1, 1], [[0, 1], [1, 0]])
    parsed = parse_space_document(metric_space_to_obj(mm))
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
