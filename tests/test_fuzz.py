"""Fuzzing: the rational parser and the CLI on hostile input.

Both tests are derandomized, so every run draws the same examples.
"""

import copy
import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from malg import InvalidRational, make_map, make_metric_space, make_space
from malg.cli import main
from malg.formats import map_to_obj
from malg.rationals import MAX_DIGITS, parse_rational

_BOUND = 10**MAX_DIGITS

# strings glued from number pieces reach deeper than arbitrary text
_number_like = st.lists(
    st.sampled_from(list("0123456789+-./eE _") + ["inf", "e4299", "e-4300", "e10000"]),
    max_size=12,
).map("".join)
_edges = st.sampled_from(["inf", " inf ", "1e4300", "1e-4299"])


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.text() | _number_like | _edges)
def test_parse_rational_total(text):
    try:
        value = parse_rational(text)
    except InvalidRational:
        return
    assert value is None or (
        isinstance(value, Fraction)
        and abs(value.numerator) < _BOUND
        and value.denominator < _BOUND
    )


def _documents() -> list[dict]:
    src = make_space(["p1", "p2", "p3"], [["p1", "p2"], ["p3"]], ["1/2", "0"])
    dst = make_space(["q1", "q2"], [["q1"], ["q2"]], ["1", "inf"])
    plain = map_to_obj(make_map(src, dst, {"p1": "q1", "p2": "q1", "p3": "q2"}))
    a = make_metric_space(["a", "b", "c"], [1, 2, 0], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    b = make_metric_space(["x", "y"], ["1/3", 1], [[0, 3], [3, 0]])
    metric = map_to_obj(make_map(a.base, b.base, {"a": "x", "b": "y", "c": "y"}), a, b)
    return [plain, metric]


_DOCUMENTS = _documents()
_NUMBERS = ["0", "1", "2", "3", "1/2", "1/3", "inf", "1e4299", "1e-4299"]
_tokens = st.sampled_from(["", "-1", "1/0", "1e5000", "p1", "p3", "q2", "x"])
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | _tokens,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_tokens, inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Key paths of every node of a JSON tree, the root () first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))  # keep the root
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.integers(0, 3)) == 0:
            del parent[path[-1]]
        elif parent[path[-1]] in _NUMBERS:  # a weight or distance stays one
            parent[path[-1]] = draw(st.sampled_from(_NUMBERS) | _tokens)
        else:
            parent[path[-1]] = draw(_tokens | _json)
    return doc


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_mutated_documents())
def test_cli_survives_mutated_documents(tmp_path_factory, doc):
    folder = tmp_path_factory.getbasetemp()
    path, out = folder / "fuzz-map.json", folder / "fuzz-report"
    path.write_text(json.dumps(doc))
    for command in ("validate", "classify", "theorem-check"):
        assert main([command, str(path), "--output", str(out)]) in (0, 2, 3)
    assert main(["functor-check", str(path), str(path), "--output", str(out)]) in (0, 2)
