"""JSON documents for spaces, metric spaces, maps, and results.

Field order is fixed and all rationals are lowest-term strings ("5/6",
"3", "0", "inf"), so serializing equal values always produces identical
bytes. Distance tables serialize as the upper triangle, flattened
row-major in point order. Every report is written by `dumps_indented`,
which gives the bytes of `json.dumps(obj, indent=2)`.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

from .algebra import AlgebraElement
from .errors import ArityMismatch, InvalidDocument, NegativeWeight
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
_TOO_BIG = 10**MAX_DISTANCE_DIGITS


def dumps_indented(obj) -> str:
    """The bytes of `json.dumps(obj, indent=2)`, written directly.

    Reads dicts with str keys, lists, strs, ints, bools and None; any other
    value, a float included, raises TypeError. Strings are escaped by the
    json module's ASCII escaper (its C version where there is one), and the
    text is one join of one list of chunks, so a render leaves no cyclic
    garbage behind, where json's indenting encoder leaves its closures.
    """
    chunks: list[str] = []
    _write(obj, chunks, "\n")
    return "".join(chunks)


def _write(value, out: list, newline: str) -> None:
    """Append `value`'s chunks to `out`; `newline` is the line break and
    indent of the line `value` starts on."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"a report key is a str, not {key!r}")
            out.append(lead)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(item, out, inner)
            lead = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _write(item, out, inner)
            lead = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"a report value cannot be a {kind.__name__}: {value!r}")


def dumps_canonical(obj) -> str:
    """Stable textual form of a report object (insertion-ordered keys)."""
    return dumps_indented(obj) + "\n"


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
    try:
        return INF if value is None else ExtRational(value)
    except NegativeWeight:
        raise InvalidDocument(f"{field}: weight {text!r} is negative") from None


def space_to_obj(space: FiniteMeasureSpace | FiniteMetricMeasureSpace) -> dict:
    """A space's document; a metric space's adds the `dist` upper triangle."""
    metric = isinstance(space, FiniteMetricMeasureSpace)
    base = space.base if metric else space
    obj = {
        "points": list(base.points),
        "atoms": [list(block) for block in base.atoms],
        "weights": [str(w) for w in base.weights],
    }
    if metric:
        upper = []
        for i in range(len(base.points)):
            for j in range(i + 1, len(base.points)):
                upper.append(str(_short_distance(space.dist[i][j], len(upper))))
        obj["dist"] = upper
    return obj


def _short_distance(value: Fraction, k: int) -> Fraction:
    """The upper-triangle entry `dist[k]`, if its numerator and
    denominator fit MAX_DISTANCE_DIGITS; read and write both check it, so
    every metric document malg writes reads back."""
    if max(abs(value.numerator), value.denominator) >= _TOO_BIG:
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
    return {
        "source": space_to_obj(source_metric or phi.source),
        "target": space_to_obj(target_metric or phi.target),
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

