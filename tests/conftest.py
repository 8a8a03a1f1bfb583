"""Shared fixtures: the worked examples, the documents of the pinned CLI
reports and the 20-space fixture set."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from malg import (
    ExtRational,
    identity_map,
    make_map,
    make_metric_space,
    make_space,
)
from malg.formats import dumps_canonical, map_to_obj, space_to_obj
from malg.instances import random_space, trial_rng

FIXTURE_SEED = 404


@pytest.fixture
def s1():
    """Three atoms A={p1,p2}, B={p3}, C={p4} with weights 1/2, 1/3, 0."""
    return make_space(
        ["p1", "p2", "p3", "p4"],
        [["p1", "p2"], ["p3"], ["p4"]],
        [Fraction(1, 2), Fraction(1, 3), 0],
    )


@pytest.fixture
def s2():
    """Two singleton atoms D={q1}, E={q2} with weights 1, 2."""
    return make_space(["q1", "q2"], [["q1"], ["q2"]], [1, 2])


@pytest.fixture
def s3():
    """Two singleton atoms with weights 1 and 2 (constant-map source)."""
    return make_space(["r1", "r2"], [["r1"], ["r2"]], [1, 2])


@pytest.fixture
def phi(s1, s2):
    """p1,p2,p3 -> q1 and p4 -> q2; compression 5/6."""
    return make_map(s1, s2, {"p1": "q1", "p2": "q1", "p3": "q1", "p4": "q2"})


@pytest.fixture
def psi(s2, s1):
    """q1 -> p4 (null atom), q2 -> p1; not inverse-nil-preserving."""
    return make_map(s2, s1, {"q1": "p4", "q2": "p1"})


@pytest.fixture
def s2_metric():
    return make_metric_space(["q1", "q2"], [1, 2], [[0, 1], [1, 0]])


@pytest.fixture
def s3_metric():
    return make_metric_space(["r1", "r2"], [1, 2], [[0, 1], [1, 0]])


# A metric map whose weights and distances spell numbers in each way the
# parser accepts: a fraction, leading zeros, decimals, an exponent, a sign,
# spaces, an underscore, a non-ASCII digit and "inf".
SPELLINGS = {
    "source": {
        "points": ["a", "b", "c"],
        "atoms": [["a"], ["b"], ["c"]],
        "weights": ["6/4", "007", " 2 "],
        "dist": ["25e-1", "+3", "\u0663"],
    },
    "target": {
        "points": ["x", "y", "z"],
        "atoms": [["x"], ["y"], ["z"]],
        "weights": ["1.25", "inf", "1_000"],
        "dist": ["+3", " 2 ", "1.25"],
    },
    "fn": {"a": "x", "b": "x", "c": "z"},
}


@pytest.fixture
def pinned_documents(monkeypatch, tmp_path, phi, s1, s2_metric, s3_metric):
    """The documents the pinned cases name, in the working directory."""
    const = make_map(s3_metric.base, s2_metric.base, {"r1": "q1", "r2": "q1"})
    documents = {
        "s1.json": dumps_canonical(space_to_obj(s1)),
        "bad.json": json.dumps({"points": ["a"], "atoms": [[]], "weights": ["1"]}),
        "phi.json": dumps_canonical(map_to_obj(phi)),
        "const.json": dumps_canonical(map_to_obj(const, s3_metric, s2_metric)),
        "id.json": dumps_canonical(map_to_obj(identity_map(s1))),
        "spellings.json": json.dumps(SPELLINGS),
    }
    for name, text in documents.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


def build_fixture_spaces() -> list:
    """Twenty deterministic spaces, every algebra has <= 5 non-null atoms.

    Handcrafted corner cases (null atoms, infinite weights, the empty
    space, one algebra with exactly five non-null atoms) plus twelve
    seeded random spaces capped at four atoms.
    """
    inf = ExtRational.infinity()
    spaces = [
        make_space(
            ["p1", "p2", "p3", "p4"],
            [["p1", "p2"], ["p3"], ["p4"]],
            [Fraction(1, 2), Fraction(1, 3), 0],
        ),
        make_space(["q1", "q2"], [["q1"], ["q2"]], [1, 2]),
        make_space(["r1", "r2"], [["r1"], ["r2"]], [1, 2]),
        make_space(["z1", "z2"], [["z1"], ["z2"]], [0, 0]),
        make_space([], [], []),
        make_space(["w1"], [["w1"]], [inf]),
        make_space(["m1", "m2", "m3"], [["m1"], ["m2"], ["m3"]], [inf, 2, 0]),
        make_space(
            ["f1", "f2", "f3", "f4", "f5"],
            [["f1"], ["f2"], ["f3"], ["f4"], ["f5"]],
            [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)],
        ),
    ]
    for i in range(12):
        spaces.append(
            random_space(trial_rng(FIXTURE_SEED, i), prefix="x", max_atoms=4)
        )
    assert len(spaces) == 20
    return spaces


@pytest.fixture(scope="session")
def fixture_spaces():
    return build_fixture_spaces()
