"""Batch command-line interface.

Four commands: `validate` parses space/map documents and reports the
first structural error per file; `classify` emits the full morphism
classification; `theorem-check` runs the three compression computations
and demands exact agreement; `functor-check` certifies contravariance
and compression submultiplicativity for a composable pair.

Each handler loads its own documents through a `_Loader` and returns
`(results, violations, exit_code)`; `main` alone turns that, or an input
error, into the report envelope and renders it. Reports are
deterministic: identical inputs and flags give byte-identical output.
Exit codes: 0 clean, 1 law violation, 2 input error, 3 budget exceeded.
When theorem-check has found violations before an instance exceeds the
budget, the report keeps them next to the budget error and the exit code
is 1: a found disagreement outranks an unfinished run.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import stat
import sys
from pathlib import Path
from typing import Optional

from .errors import BudgetExceeded, InvalidDocument, MalgError
from .formats import (
    dumps_canonical,
    dumps_indented,
    element_to_obj,
    map_to_obj,
    obj_to_map,
    parse_space_document,
    space_to_obj,
)
from .instances import random_instance
from .maps import (
    DEFAULT_BUDGET,
    MeasurableMap,
    compose,
    compression,
    lipschitz_bruteforce,
    lipschitz_fast,
)
from .metric import (
    FiniteMetricMeasureSpace,
    MorphismClassification,
    classify,
    compression_submultiplicativity,
    contravariance_check,
)


class _Loader:
    """Reads JSON files, remembering a digest of every file touched."""

    def __init__(self):
        self.digests: dict[str, str] = {}

    def read_obj(self, path: str):
        # the path is opened as given: a pathlib.Path would only parse it again
        try:
            mode = os.stat(path).st_mode
        except (OSError, ValueError):  # missing, or a NUL: the open says which
            mode = stat.S_IFREG
        if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            # a FIFO, socket or device: reading it may block or never end
            raise InvalidDocument(f"not a regular file: {path}")
        try:
            with open(path, "rb") as file:
                data = file.read()
        except ValueError as exc:  # a path no file can have, e.g. with a NUL
            raise InvalidDocument(f"bad path {path!r}: {exc}") from None
        self.digests[path] = hashlib.sha256(data).hexdigest()
        try:
            return json.loads(data)
        except UnicodeDecodeError as exc:
            raise InvalidDocument(f"not UTF-8: {exc}") from None
        except (ValueError, RecursionError) as exc:  # syntax, long number, deep nest
            raise MalgError(f"invalid JSON: {exc}") from exc

    def load_map(self, path: str, obj=None):
        """Parse a map document; `obj` is the document if already read."""
        obj = self.read_obj(path) if obj is None else obj
        # a space reference resolves against the map's directory, and only
        # a reference builds a Path
        return obj_to_map(obj, lambda ref: self.read_obj(str(Path(path).parent / ref)))


def _error_entry(path: Optional[str], exc: Exception) -> dict:
    entry = {"error": type(exc).__name__, "detail": str(exc)}
    if path is not None:
        entry["file"] = path
    return entry


def _text(value) -> str:
    """A number as report text. A value derived from in-bound weights, a
    ratio of two or a sum of many, can pass the int-to-str digit limit;
    that is an input error, not a crash."""
    try:
        return str(value)
    except ValueError:
        raise InvalidDocument("a result is too long to print") from None


def _space_entry(parsed) -> dict:
    metric = isinstance(parsed, FiniteMetricMeasureSpace)
    return {
        "kind": "metric_space" if metric else "space",
        "sigma_finite": (parsed.base if metric else parsed).is_sigma_finite,
        "canonical": space_to_obj(parsed),
    }


def cmd_validate(args, loader: _Loader) -> tuple[dict, list, int]:
    entries = []
    failed = False
    for path in args.paths:
        try:
            obj = loader.read_obj(path)
            if isinstance(obj, dict) and "fn" in obj:
                phi, sm, tm = loader.load_map(path, obj)
                entries.append(
                    {"file": path, "kind": "map", "canonical": map_to_obj(phi, sm, tm)}
                )
            else:
                entry = _space_entry(parse_space_document(obj))
                entries.append({"file": path, **entry})
        except (MalgError, OSError) as exc:
            failed = True
            entries.append(_error_entry(path, exc))
    return {"files": entries}, [], 2 if failed else 0


def _classification_obj(mc: MorphismClassification) -> dict:
    out = {
        "measurable": mc.measurable,
        "inp": mc.inverse_nil_preserving,
        "compression": _text(mc.compression),
        "degenerate": mc.compression.degenerate,
    }
    if mc.lipschitz_point is not None:
        out["lipschitz"] = _text(mc.lipschitz_point)
        out["short"] = mc.short
        out["bounded_deformation"] = mc.bounded_deformation
        if mc.rescale_source_to_short is not None:
            out["rescale_source_to_short"] = _text(mc.rescale_source_to_short)
            out["rescale_target_to_short"] = _text(mc.rescale_target_to_short)
    return out


def cmd_classify(args, loader: _Loader) -> tuple[dict, list, int]:
    phi, source_metric, target_metric = loader.load_map(args.map)
    mc = classify(phi, source_metric, target_metric)
    results = {
        "classification": _classification_obj(mc),
        "sigma_finite": {
            "source": phi.source.is_sigma_finite,
            "target": phi.target.is_sigma_finite,
        },
    }
    return results, [], 0


def _theorem_record(index: int, phi: MeasurableMap, budget: int) -> dict:
    comp = compression(phi)
    fast = lipschitz_fast(phi)
    brute = lipschitz_bruteforce(phi, budget=budget)
    agree = comp == fast == brute.result
    witness = None
    if brute.witness is not None:
        witness = {
            "pair": [element_to_obj(brute.witness[0]), element_to_obj(brute.witness[1])],
            "attained_at_empty": brute.attained_at_empty,
        }
    return {
        "index": index,
        "compression": _text(comp),
        "degenerate": comp.degenerate,
        "lipschitz_fast": _text(fast),
        "lipschitz_bruteforce": _text(brute.result),
        "agree": agree,
        "witness": witness,
    }


def cmd_theorem_check(args, loader: _Loader) -> tuple[dict, list, int]:
    if args.map is not None:
        instances = [(0, loader.load_map(args.map)[0])]
    else:  # drawn one at a time, so memory does not grow with --trials
        instances = ((i, random_instance(args.seed, i)) for i in range(args.trials))

    head = {"seed": args.seed, "trials": args.trials, "budget": args.budget}
    records = []
    violations = []
    for index, phi in instances:
        try:
            record = _theorem_record(index, phi, args.budget)
        except BudgetExceeded as exc:
            error = {**head, "error": _error_entry(None, exc)}
            return error, violations, 1 if violations else 3
        records.append(record)
        if not record["agree"]:
            violations.append(
                {
                    "law": "compression-lipschitz-agreement",
                    "witness": {
                        "index": index,
                        "instance": map_to_obj(phi),
                        "compression": record["compression"],
                        "lipschitz_fast": record["lipschitz_fast"],
                        "lipschitz_bruteforce": record["lipschitz_bruteforce"],
                    },
                }
            )
    results = {
        **head,
        "checked": len(records),
        "agreements": sum(1 for r in records if r["agree"]),
        "instances": records,
    }
    return results, violations, 1 if violations else 0


def cmd_functor_check(args, loader: _Loader) -> tuple[dict, list, int]:
    f = loader.load_map(args.f)[0]
    g = loader.load_map(args.g)[0]
    report = contravariance_check(f, g)  # an unfit pair raises: exit 2 in main
    submult = compression_submultiplicativity(f, g)
    violations = [
        {"law": v.law, "witness": v.witness} for v in report.violations
    ]
    compressions = {
        "compression_f": _text(compression(f)),
        "compression_g": _text(compression(g)),
        "compression_gf": _text(compression(compose(g, f))),
    }
    if not submult:
        violations.append(
            {"law": "compression-submultiplicativity", "witness": dict(compressions)}
        )
    results = {**compressions, "submultiplicative": submult}
    return results, violations, 1 if violations else 0


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return dumps_canonical(report)
    lines = [f"command: {report['command']}", f"exit_code: {report['exit_code']}"]
    for path, digest in report["inputs"].items():
        # a path from bytes that are not UTF-8 holds lone surrogates: escape
        # them, as the json report does, so the report encodes as UTF-8
        path = path.encode("utf-8", "backslashreplace").decode("utf-8")
        lines.append(f"input: {path} sha256={digest}")
    violations = report["violations"]
    if violations:
        lines.append(f"violations: {len(violations)}")
        for v in violations:
            lines.append(f"  - {v['law']}: {json.dumps(v['witness'])}")
    else:
        lines.append("violations: none")
    lines.append("results:")
    lines.append(dumps_indented(report["results"]))
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built by the first call and shared by every later
    one. Parsing only reads it: each call gets a fresh namespace, and
    errors and help go to the sys.stderr and sys.stdout of the moment."""
    parser = argparse.ArgumentParser(
        prog="malg",
        description="Exact measure-algebra computations on finite measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", default=None, help="write the report to this path")

    p_validate = sub.add_parser("validate", help="parse and validate documents")
    p_validate.add_argument("paths", nargs="+")
    add_common(p_validate)
    p_validate.set_defaults(handler=cmd_validate)

    p_classify = sub.add_parser("classify", help="classify one map document")
    p_classify.add_argument("map")
    add_common(p_classify)
    p_classify.set_defaults(handler=cmd_classify)

    p_theorem = sub.add_parser(
        "theorem-check",
        help="check compression == fast Lipschitz == brute-force Lipschitz",
    )
    p_theorem.add_argument("map", nargs="?", default=None)
    p_theorem.add_argument("--trials", type=int, default=0)
    p_theorem.add_argument("--seed", type=int, default=0)
    p_theorem.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    add_common(p_theorem)
    p_theorem.set_defaults(handler=cmd_theorem_check)

    p_functor = sub.add_parser(
        "functor-check", help="contravariance and submultiplicativity for a pair"
    )
    p_functor.add_argument("f")
    p_functor.add_argument("g")
    add_common(p_functor)
    p_functor.set_defaults(handler=cmd_functor_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "theorem-check":
        if args.map is None and args.trials <= 0:
            parser.error("theorem-check needs a map path or --trials N")
        if args.budget < 0:
            parser.error("--budget must be 0 or more")
    loader = _Loader()
    try:
        results, violations, exit_code = args.handler(args, loader)
    except (MalgError, OSError) as exc:  # the one path from bad input to exit 2
        # functor-check reads two maps, so its entry names no file
        error = _error_entry(getattr(args, "map", None), exc)
        results, violations, exit_code = error, [], 2
    report = {
        "command": args.command,
        "inputs": loader.digests,
        "results": results,
        "violations": violations,
        "exit_code": exit_code,
    }
    text = render(report, args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as out:
                out.write(text)
        except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
            print(f"malg: error: cannot write --output {args.output!r}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
