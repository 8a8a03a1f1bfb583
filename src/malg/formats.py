"""JSON documents for spaces, metric spaces, maps, and results.

Field order is fixed and all rationals are lowest-term strings ("5/6",
"3", "0", "inf"), so serializing equal values always produces identical
bytes. Distance tables serialize as the upper triangle, flattened
row-major in point order.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Optional

from .algebra import AlgebraElement
from .errors import ArityMismatch, InvalidDocument
from .maps import MeasurableMap, make_map
from .metric import FiniteMetricMeasureSpace
from .rationals import INF, ExtRational, parse_rational
from .spaces import FiniteMeasureSpace, make_space

# The metric axioms are checked on every triple of points, so a metric
# document's cost grows with the cube of its points and with the digits of
# its distances; 200 points with small denominators validate in about a
# second, and 200 points whose distances all have 18-digit numerators and
# denominators in about 2 s (Python 3.11, 2-core x86).
MAX_METRIC_POINTS = 200
MAX_DISTANCE_DIGITS = 18


def dumps_canonical(obj) -> str:
    """Stable textual form of a report object (insertion-ordered keys)."""
    return json.dumps(obj, indent=2) + "\n"


def _read_rational(text, field: str, kind: str) -> Optional[Fraction]:
    """A document's rational string; None stands for "inf"."""
    if not isinstance(text, str):
        raise InvalidDocument(f"{field}: expected a {kind} string")
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise InvalidDocument(f"{field}: {exc}") from None


def _read_weight(text, field: str) -> ExtRational:
    value = _read_rational(text, field, "weight")
    if value is not None and value < 0:
        raise InvalidDocument(f"{field}: weight {text!r} is negative")
    return INF if value is None else ExtRational(value)


def space_to_obj(space: FiniteMeasureSpace) -> dict:
    return {
        "points": list(space.points),
        "atoms": [list(block) for block in space.atoms],
        "weights": [str(w) for w in space.weights],
    }


def metric_space_to_obj(mm: FiniteMetricMeasureSpace) -> dict:
    obj = space_to_obj(mm.base)
    points = mm.base.points
    upper = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            upper.append(str(_short_distance(mm.dist[i][j], len(upper))))
    obj["dist"] = upper
    return obj


def _short_distance(value: Fraction, k: int) -> Fraction:
    """The upper-triangle entry `dist[k]`, if its numerator and
    denominator fit MAX_DISTANCE_DIGITS; read and write both check it, so
    every metric document malg writes reads back."""
    if max(abs(value.numerator), value.denominator) >= 10**MAX_DISTANCE_DIGITS:
        raise InvalidDocument(
            f"dist[{k}]: numerator or denominator over {MAX_DISTANCE_DIGITS} digits"
        )
    return value


def _require_keys(obj: dict, keys: tuple[str, ...], kind: str):
    if not isinstance(obj, dict):
        raise InvalidDocument(f"{kind} document must be a JSON object")
    for key in keys:
        if key not in obj:
            raise InvalidDocument(f"{kind} document is missing {key!r}")


def _labels(value) -> bool:
    return isinstance(value, list) and all(isinstance(p, str) for p in value)


def obj_to_space(obj: dict) -> FiniteMeasureSpace:
    _require_keys(obj, ("points", "atoms", "weights"), "space")
    points = obj["points"]
    atoms = obj["atoms"]
    weights = obj["weights"]
    if not _labels(points):
        raise InvalidDocument("points: must be a list of strings")
    if not isinstance(atoms, list) or not all(isinstance(b, list) for b in atoms):
        raise InvalidDocument("atoms: must be a list of lists")
    if not all(map(_labels, atoms)):
        raise InvalidDocument("atoms: blocks must be lists of strings")
    if not isinstance(weights, list):
        raise InvalidDocument("weights: must be a list")
    parsed = [_read_weight(w, f"weights[{i}]") for i, w in enumerate(weights)]
    return make_space(points, atoms, parsed)


def obj_to_metric_space(obj: dict) -> FiniteMetricMeasureSpace:
    base = obj_to_space(obj)
    flat = obj.get("dist")
    n = len(base.points)
    if n > MAX_METRIC_POINTS:
        raise InvalidDocument(
            f"points: a metric document has at most {MAX_METRIC_POINTS} points, got {n}"
        )
    if not isinstance(flat, list):
        raise InvalidDocument("dist: must be a list of rational strings")
    if len(flat) != n * (n - 1) // 2:
        raise ArityMismatch(
            f"dist: expected {n * (n - 1) // 2} upper-triangle entries, got {len(flat)}"
        )
    table = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            value = _read_rational(flat[k], f"dist[{k}]", "rational")
            if value is None:
                raise InvalidDocument(f"dist[{k}]: not a rational: {flat[k]!r}")
            table[i][j] = _short_distance(value, k)
            table[j][i] = value
            k += 1
    return FiniteMetricMeasureSpace(base, table)


def parse_space_document(obj: dict):
    """Space or metric space, depending on the presence of "dist"."""
    if isinstance(obj, dict) and "dist" in obj:
        return obj_to_metric_space(obj)
    return obj_to_space(obj)


def map_to_obj(
    phi: MeasurableMap,
    source_metric: Optional[FiniteMetricMeasureSpace] = None,
    target_metric: Optional[FiniteMetricMeasureSpace] = None,
) -> dict:
    source = (
        metric_space_to_obj(source_metric)
        if source_metric is not None
        else space_to_obj(phi.source)
    )
    target = (
        metric_space_to_obj(target_metric)
        if target_metric is not None
        else space_to_obj(phi.target)
    )
    return {
        "source": source,
        "target": target,
        "fn": {p: phi.point_fn[p] for p in phi.source.points},
    }


def obj_to_map(
    obj: dict, resolver: Optional[Callable[[str], dict]] = None
) -> tuple[
    MeasurableMap,
    Optional[FiniteMetricMeasureSpace],
    Optional[FiniteMetricMeasureSpace],
]:
    """Parse a map document; space entries may be inline objects or,
    when a resolver is supplied, path strings the resolver loads."""
    _require_keys(obj, ("source", "target", "fn"), "map")

    def load(entry, field):
        if isinstance(entry, str):
            if resolver is None:
                raise InvalidDocument(f"{field}: path references not supported here")
            entry = resolver(entry)
        if not isinstance(entry, dict):
            raise InvalidDocument(f"{field}: expected a space object or path")
        return parse_space_document(entry)

    source = load(obj["source"], "source")
    target = load(obj["target"], "target")
    source_metric = source if isinstance(source, FiniteMetricMeasureSpace) else None
    target_metric = target if isinstance(target, FiniteMetricMeasureSpace) else None
    source_base = source.base if source_metric else source
    target_base = target.base if target_metric else target

    fn = obj["fn"]
    if not isinstance(fn, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in fn.items()
    ):
        raise InvalidDocument("fn: must map point labels to point labels")
    phi = make_map(source_base, target_base, fn)
    return phi, source_metric, target_metric


def element_to_obj(elem: AlgebraElement) -> list[int]:
    return list(elem.sort_key)

