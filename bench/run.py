"""malg benchmark: one command, three workloads, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload theorem-batch --seed 7 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Human-readable lines come first (the run
environment, the unscaled timings, every metric with its unit); the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Results and, in a traced run,
the spans are also written under ``.bench_out/``; scratch files go under
``.bench_tmp/`` and are removed on exit. ``bench/test_smoke.py`` runs every
workload at a tiny size.

The run is single-process and single-threaded. malg is imported from
``src/`` of the current directory and from nowhere else; without it the
run exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

from tracer import Tracer
from workloads import DIGEST_HEX, WORKLOADS, fingerprint_hash

SETUP_ROUNDS = 9  # timed set-up rounds, after one untimed warm-up round
# The shared host's speed drifts by up to 2x within minutes (CPU time equals
# wall time throughout, so it is not scheduling). Every timing is therefore
# scaled by REF_NOMINAL_S over the time of a fixed reference loop run next
# to it, i.e. reported as if on a host where that loop takes 25 ms.
REF_NOMINAL_S = 0.025
DIGESTS = Path(__file__).resolve().parent / "digests.json"

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SELF_TIME = (
    "maps.lipschitz_bruteforce",
    "maps.lipschitz_fast",
    "maps.compression",
    "maps.induced_homomorphism",
    "maps.check_hom_laws",
    "maps.check_well_definedness",
    "maps.null_ideal_preserved",
    "metric.contravariance_check",
    "metric.FiniteMetricMeasureSpace",
    "metric.classify",
    "spaces.make_space",
    "formats.obj_to_map",
    "formats.dumps_canonical",
    "instances.random_instance",
    "cli.build_parser",
    "cli.render",
)
COUNTS = (
    "maps.lipschitz_bruteforce.calls",
    "maps.lipschitz_bruteforce.pairs",
    "maps.check_hom_laws.pairs",
    "spaces.make_space.calls",
    "algebra.AlgebraElement.created",
    "rationals.ExtRational.created",
    "cli.render.bytes",
)
EXIT_COUNTS = ("cli.main.exit.0", "cli.main.exit.1", "cli.main.exit.2",
               "cli.main.exit.3", "cli.main.raised")
# self-time groups whose share of the traced pass shows what each workload exercises
SHARES = {
    "share.oracle": ("maps.lipschitz_bruteforce",),
    "share.law_check": (
        "maps.check_hom_laws", "maps.check_well_definedness", "maps.null_ideal_preserved",
        "maps.is_inverse_nil_preserving", "metric.contravariance_check",
    ),
    "share.parse_render": (
        "cli.main", "cli.build_parser", "cli.render", "formats.obj_to_map",
        "formats.map_to_obj", "formats.dumps_canonical", "spaces.make_space",
        "metric.FiniteMetricMeasureSpace",
    ),
}


def per_layer_units() -> list[tuple[str, str]]:
    out = [(name + ".s", "s") for name in SELF_TIME]
    out += [(name, "bytes" if name.endswith(".bytes") else "count") for name in COUNTS]
    out += [(name, "count") for name in EXIT_COUNTS]
    out += [(name, "ratio") for name in SHARES]
    out += [("fail_ratio", "ratio"), ("trace.overhead_ratio", "ratio")]
    return out


def import_malg(src: Path):
    """Import malg afresh from ``src`` (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "malg" or n.startswith("malg.")]:
        del sys.modules[name]
    malg = importlib.import_module("malg")
    importlib.import_module("malg.cli")
    if Path(malg.__file__).resolve().parent != (src / "malg").resolve():
        raise ImportError(f"malg was imported from {malg.__file__}, not {src}")
    return malg


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop, the host-speed yardstick.

    Its mix resembles the workloads' hot paths but runs no malg code:
    small-rational arithmetic and comparison, frozensets and tuple-keyed
    dicts, building and using an argparse parser, and a JSON round trip."""
    t0 = perf_counter()
    best = Fraction(0)
    seen = {}
    for i in range(1, 1500):
        ratio = (Fraction(i % 17, i % 13 + 1) + Fraction(1, i % 11 + 1)) / Fraction(i % 7 + 1, 3)
        if ratio > best:
            best = ratio
        seen[(i % 64, i % 3)] = sorted(frozenset((i % 29, i % 31)))
    for _ in range(9):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("a", "b", "c", "d"):
            p = sub.add_parser(name)
            p.add_argument("path")
            p.add_argument("--format", choices=("json", "text"), default="json")
            p.add_argument("--n", type=int, default=0)
        parser.parse_args(["b", "doc.json", "--n", "3"])
    json.loads(json.dumps({"best": [str(best)] * 50, "seen": list(seen.values())}, indent=2))
    return perf_counter() - t0


def set_up(cls, src: Path, seed: int, workdir: Path, tiny: bool, rounds: int):
    """Import malg and build the inputs ``rounds`` times after a warm-up round.

    Returns the last round's workload and the median set-up time, raw and
    scaled to the nominal host speed."""
    raw, scaled = [], []
    for r in range(rounds + 1):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = perf_counter()
        malg = import_malg(src)
        workload = cls(malg, seed, workdir, tiny)
        workload.build_inputs()
        if r:
            raw.append(perf_counter() - t0)
            scaled.append(raw[-1] * REF_NOMINAL_S / reference_seconds())
    if not raw:
        return workload, None, None
    return workload, statistics.median(raw), statistics.median(scaled)


def sample_host(p):
    p.marks.append((len(p.latencies), reference_seconds()))


def timed_passes(workload, seconds: float, verdicts) -> list:
    """Passes until ``seconds`` have elapsed (at least one).

    The reference loop runs before and after each pass and between its
    groups of calls; each call's latency is scaled by the mean of the two
    reference times around its group. A slow spell of the host slows those
    two samples too, so the scaling removes it from the call's latency."""
    passes = []
    ref_before = reference_seconds()
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        w0, c0 = perf_counter(), process_time()
        p = workload.run_pass(verify=False, marker=sample_host)
        p.wall, p.cpu = perf_counter() - w0, process_time() - c0
        ref_after = reference_seconds()
        bounds = [(0, ref_before)] + p.marks + [(len(p.latencies), ref_after)]
        for (i0, r0), (i1, r1) in zip(bounds, bounds[1:]):
            factor = REF_NOMINAL_S / ((r0 + r1) / 2)
            p.scaled += [x * factor for x in p.latencies[i0:i1]]
        ref_before = ref_after
        verdicts.add(p)
        passes.append(p)
    return passes


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Verdicts:
    """Compares each pass's checks with the warm-up pass and the recorded digest.

    Checks on documents of the ROADMAP-listed defect kinds are tallied
    apart (``defect_attempted``/``defect_failed``) and show in ``fail_ratio``:
    they fail on defects already listed, so ``attempted``/``failed`` cover
    every other check and ``failed`` counts the newly wrong results."""

    def __init__(self, warm, recorded):
        self.reference = [c.fingerprint for c in warm.checks]
        self.defect = [c.known_defect for c in warm.checks]
        self.bad = {i for i, c in enumerate(warm.checks) if not c.ok}
        self.digest_mismatches = 0
        if recorded is not None:
            hashes = [fingerprint_hash(fp) for fp in self.reference]
            expected = [recorded[i:i + DIGEST_HEX] for i in range(0, len(recorded), DIGEST_HEX)]
            if len(expected) != len(hashes):
                self.bad.update(range(len(hashes)))
                self.digest_mismatches = len(hashes)
            else:
                wrong = {i for i, (h, e) in enumerate(zip(hashes, expected)) if h != e}
                self.digest_mismatches = len(wrong)
                self.bad |= wrong
        self.attempted = 0
        self.failed = 0
        self.defect_attempted = 0
        self.defect_failed = 0

    def add(self, p):
        for i, c in enumerate(p.checks):
            failed = i in self.bad or not c.ok or c.fingerprint != self.reference[i]
            if self.defect[i]:
                self.defect_attempted += 1
                self.defect_failed += failed
            else:
                self.attempted += 1
                self.failed += failed

    @property
    def fail_ratio(self) -> float:
        """Failed checks over all checks, known-defect documents included."""
        return (self.failed + self.defect_failed) / (self.attempted + self.defect_attempted)


def malg_sources(root: Path) -> Path:
    """The checkout's ``src`` directory, put first on the import path."""
    src = root / "src"
    if not (src / "malg" / "__init__.py").is_file():
        raise ImportError(f"no malg sources under {src}")
    sys.path.insert(0, str(src))
    return src


def run(args) -> int:
    root = Path.cwd()
    src = malg_sources(root)
    cls = WORKLOADS[args.workload]
    workdir = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    out_dir = root / ".bench_out"
    try:
        workload, raw_setup_s, setup_s = set_up(
            cls, src, args.seed, workdir, args.tiny, 1 if args.trace else SETUP_ROUNDS
        )
        workload.choose_batch()
        warm = workload.run_pass(verify=True)
        recorded = None
        if not args.tiny and DIGESTS.is_file():
            recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed))
        verdicts = Verdicts(warm, recorded)
        passes = timed_passes(workload, args.seconds, verdicts)
        traced = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                for _ in range(2):
                    tracer.reset()
                    p = timed_passes(workload, 0, verdicts)[0]
                    traced.append((p, tracer.self_times(), dict(tracer.counts), tracer.spans))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "timed_passes": len(passes),
        "cpu_over_wall": round(sum(p.cpu for p in passes) / sum(p.wall for p in passes), 4),
        "host_speed_scale": [round(p.scaled_seconds / p.seconds, 4) for p in passes],
        "pass_seconds_scaled": [round(p.scaled_seconds, 4) for p in passes],
        **workload.describe(),
    }
    if verdicts.digest_mismatches or recorded is None:
        env["digest"] = "not recorded for this seed" if recorded is None else (
            f"{verdicts.digest_mismatches} checks differ from the recorded digest")
    else:
        env["digest"] = "matches"
    print("env " + json.dumps(env))

    if args.trace:
        metrics = trace_metrics(traced, passes, verdicts)
        if metrics is None:
            return 1
    else:
        values = e2e_values(passes, setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        raw = e2e_values(passes, raw_setup_s, scaled=False)
        print("raw " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        print(f"note op latency: {len(passes[0].latencies)} calls per pass, "
              f"{len(passes)} passes; p50 and p95 are each pass's, median over passes")

    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }
    print(f"note fail_ratio {verdicts.fail_ratio:.6g}: {verdicts.failed} of "
          f"{verdicts.attempted} checked results failed, and {verdicts.defect_failed} of "
          f"{verdicts.defect_attempted} on documents of the known defect kinds")
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"env": env, **result}, indent=1))
    if args.trace:
        spans = [{"pass": k, "spans": t[3]} for k, t in enumerate(traced)]
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


def e2e_values(passes, setup_s, scaled=True) -> dict:
    """End-to-end values; rates and latency quantiles are per pass, then the
    median over the run's passes, so one slow spell moves one pass only."""
    per_pass = [p.scaled if scaled else p.latencies for p in passes]
    return {
        "setup_s": setup_s,
        "items_per_s": statistics.median(p.items / sum(lat) for p, lat in zip(passes, per_pass)),
        "op_p50_ms": statistics.median(quantile(lat, 50) for lat in per_pass) * 1e3,
        "op_p95_ms": statistics.median(quantile(lat, 95) for lat in per_pass) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_metrics(traced, passes, verdicts):
    """Per-layer metrics from the two traced passes, or None if counts differ."""
    (pa, self_a, counts_a, _), (pb, self_b, counts_b, _) = traced
    if counts_a != counts_b or pa.exits != pb.exits:
        diff = sorted(k for k in counts_a.keys() | counts_b.keys()
                      if counts_a.get(k) != counts_b.get(k))
        print(f"error: counts differ between two traced passes: {diff}", file=sys.stderr)
        return None
    # self times are scaled to the nominal host speed, like every timing
    sa, sb = pa.scaled_seconds / pa.seconds, pb.scaled_seconds / pb.seconds
    traced_seconds = (pa.scaled_seconds + pb.scaled_seconds) / 2
    self_time = {k: (self_a.get(k, 0.0) * sa + self_b.get(k, 0.0) * sb) / 2
                 for k in self_a.keys() | self_b.keys()}
    values = {name + ".s": self_time.get(name, 0.0) for name in SELF_TIME}
    values.update({name: counts_a.get(name, 0) for name in COUNTS})
    for code in (0, 1, 2, 3):
        values[f"cli.main.exit.{code}"] = pa.exits.get(code, 0)
    values["cli.main.raised"] = pa.exits.get("raised", 0)
    for name, members in SHARES.items():
        values[name] = sum(self_time.get(m, 0.0) for m in members) / traced_seconds
    values["fail_ratio"] = verdicts.fail_ratio
    values["trace.overhead_ratio"] = traced_seconds / statistics.median(
        p.scaled_seconds for p in passes)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few items (smoke test)")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ImportError as exc:
        print(f"error: cannot import malg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
