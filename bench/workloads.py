"""The three benchmark workloads.

Each workload is a closed loop with one caller. ``build_inputs`` makes the
inputs from the seed (it runs inside the timed set-up); ``run_pass`` makes
every call of one pass and returns, per op, its latency and a fingerprint
of its exact values, and whether the op met its expected outcome.

The workloads drive malg only through its public functions and
``malg.cli.main``, looked up as module attributes at call time so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter


@dataclass
class Check:
    """One checked result: an instance, a law verdict or a CLI exit."""

    fingerprint: str  # the exact values, compared against the recorded digest
    ok: bool  # met the outcome the benchmark expects independently
    known_defect: bool = False  # on a document of a ROADMAP-listed defect kind


@dataclass
class Pass:
    latencies: list = field(default_factory=list)  # one per call into malg
    checks: list = field(default_factory=list)
    exits: Counter = field(default_factory=Counter)  # CLI exit code -> calls
    items: int = 0
    # Called between groups of calls, so the runner can sample the host's
    # speed there; it appends (calls so far, reference seconds) to marks.
    marker: object = None
    marks: list = field(default_factory=list)
    scaled: list = field(default_factory=list)  # latencies at nominal host speed
    wall: float = 0.0
    cpu: float = 0.0

    @property
    def seconds(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_seconds(self) -> float:
        return sum(self.scaled)

    def mark(self):
        if self.marker is not None:
            self.marker(self)


DIGEST_HEX = 6  # hex digits of SHA-256 kept per checked result


def fingerprint_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def _call_main(malg_cli, argv, result: Pass):
    """Call the CLI in-process; returns the exit code or "raised"."""
    t0 = perf_counter()
    try:
        code = malg_cli.main(argv)
    except Exception:  # a traceback the CLI should have turned into exit 2
        code = "raised"
    result.latencies.append(perf_counter() - t0)
    result.exits[code] += 1
    return code


# ---------------------------------------------------------------- theorem-batch


class TheoremBatch:
    """``theorem-check --trials 200 --seed S`` in-process, one call per pass.

    The oracle's cost grows as 4^nf, so the work in a 200-instance batch
    varies about 2x between seeds. To keep passes of different seeds the
    same size, the batch seed S is the first candidate derived from the
    workload seed whose brute-force pair count (2^nf (2^nf - 1) summed over
    bounded instances) lies within BAND of PAIRS_TARGET.
    """

    name = "theorem-batch"
    PAIRS_TARGET = 500_000
    BAND = 0.01

    def __init__(self, malg, seed: int, workdir: Path, tiny: bool):
        self.malg = malg
        self.seed = seed
        self.workdir = workdir
        self.trials = 5 if tiny else 200
        self.tiny = tiny
        self.batch_seed = seed
        self.out = workdir / "theorem.json"

    def build_inputs(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def _pairs(self, batch_seed: int) -> int:
        total = 0
        for i in range(self.trials):
            phi = self.malg.random_instance(batch_seed, i)
            if self.malg.compression(phi).is_bounded:
                nf = len(self.malg.build_algebra(phi.target).fin_atoms)
                total += (1 << nf) * ((1 << nf) - 1)
        return total

    def choose_batch(self):
        """Pick the batch seed (outside the timed set-up: it is not user work)."""
        if self.tiny:
            return
        lo = self.PAIRS_TARGET * (1 - self.BAND)
        hi = self.PAIRS_TARGET * (1 + self.BAND)
        for j in range(10_000):
            candidate = self.seed + 1000 * j
            if lo <= self._pairs(candidate) <= hi:
                self.batch_seed = candidate
                return
        raise RuntimeError("no batch seed within the pair-count band")

    def describe(self) -> dict:
        return {"batch_seed": self.batch_seed, "trials": self.trials}

    def run_pass(self, verify: bool, marker=None) -> Pass:
        argv = [
            "theorem-check", "--trials", str(self.trials),
            "--seed", str(self.batch_seed), "--output", str(self.out),
        ]
        self.out.unlink(missing_ok=True)
        result = Pass(items=self.trials, marker=marker)
        code = _call_main(self.malg.cli, argv, result)
        records = []
        if code == 0:
            try:
                records = json.loads(self.out.read_text())["results"]["instances"]
            except (OSError, ValueError, KeyError, TypeError):
                pass
        for i in range(self.trials):
            rec = records[i] if i < len(records) else None
            try:
                fp = self._fingerprint(i, code, rec)
                ok = rec is not None and (not verify or self._check(rec))
            except (KeyError, TypeError, ValueError):  # the digested values are missing
                fp, ok = f"{i}|unreadable", False
            result.checks.append(Check(fp, ok))
        return result

    @staticmethod
    def _fingerprint(i, code, rec) -> str:
        if rec is None:
            return f"{i}|exit={code}"
        w = rec["witness"]  # only the keys digested; later reports may add more
        witness = None if w is None else (w["pair"], w["attained_at_empty"])
        return (
            f"{rec['index']}|{rec['compression']}|{rec['degenerate']}|"
            f"{rec['lipschitz_fast']}|{rec['lipschitz_bruteforce']}|{rec['agree']}|"
            f"{json.dumps(witness)}"
        )

    def _check(self, rec) -> bool:
        """The three routes agree and the witness pair attains the constant.

        The witness ratio is recomputed here from the instance's atom
        weights and preimages, with the benchmark's own arithmetic.
        """
        value = rec["compression"]
        if not (rec["agree"] and value == rec["lipschitz_fast"] == rec["lipschitz_bruteforce"]):
            return False
        w = rec["witness"]
        if w is None:
            return value in ("unbounded", "0")
        if value == "unbounded":
            return False
        phi = self.malg.random_instance(self.batch_seed, rec["index"])
        a, b = (set(x) for x in w["pair"])
        diff = a ^ b
        src = set()
        for t in diff:
            src.update(phi.atom_preimages[t])
        num = sum((phi.source.weights[s].as_fraction() for s in src), Fraction(0))
        den = sum((phi.target.weights[t].as_fraction() for t in diff), Fraction(0))
        # the oracle prefers a pair (a, zero); one attains the constant on every
        # bounded instance (the b = empty extremality of acceptance criterion 3)
        return den > 0 and num / den == Fraction(value) and w["attained_at_empty"] is True and not b


# ------------------------------------------------------------ fixed-shape inputs
# The law checks and the parsers cost what the spaces' shapes make them cost,
# so law-sweep and doc-roundtrip fix every shape by position and let the seed
# choose only weights, distances and map assignments. Each seed then does the
# same amount of work.


def shaped_space(m, rng: random.Random, prefix: str, n_atoms: int, shape: int,
                 nulls=(), infinite=()):
    """Atom j has 1 + (shape + j) % 2 points; weights are seeded p/q in (0, 16]."""
    sizes = [1 + (shape + j) % 2 for j in range(n_atoms)]
    labels = [f"{prefix}{k:02d}" for k in range(sum(sizes))]
    blocks, cursor = [], 0
    for size in sizes:
        blocks.append(labels[cursor:cursor + size])
        cursor += size
    weights = [
        0 if j in nulls else m.INF if j in infinite
        else Fraction(rng.randint(1, 16), rng.randint(1, 16))
        for j in range(n_atoms)
    ]
    return m.make_space(labels, blocks, weights)


def seeded_map(m, rng: random.Random, source, target, inp: bool):
    """Each source atom picks a target atom, each point a point of it.

    The verdicts that decide how much work a map costs depend only on the
    shapes: source atoms of positive weight avoid null target atoms and
    infinite ones go to infinite target atoms where there are any; without
    ``inp``, the first positive-weight source atom goes to a null target
    atom where there is one."""
    by_kind = {"null": [], "finite": [], "infinite": []}
    for b, w in enumerate(target.weights):
        by_kind["null" if w.is_zero else "infinite" if w.is_infinite else "finite"].append(b)
    positive = by_kind["finite"] + by_kind["infinite"]
    fn = {}
    spoil = not inp
    for block, w in zip(source.atoms, source.weights):
        if w.is_zero:
            choices = range(target.n_atoms)
        elif spoil and by_kind["null"]:
            choices, spoil = by_kind["null"], False
        elif w.is_infinite and by_kind["infinite"]:
            choices = by_kind["infinite"]
        else:
            choices = positive or range(target.n_atoms)
        target_block = target.atoms[rng.choice(choices)]
        for p in block:
            fn[p] = rng.choice(target_block)
    return m.make_map(source, target, fn)


# -------------------------------------------------------------------- law-sweep


class LawSweep:
    """Direct calls to the exhaustive law checks.

    * ``check_hom_laws`` on the induced homs of a structured family: n
      singleton target atoms of positive weight, 2n singleton source atoms,
      each target atom hit by two source atoms (n = 6 and 7);
    * ``is_inverse_nil_preserving``, ``null_ideal_preserved`` and
      ``check_well_definedness`` on 48 maps from 8 atoms into 6 atoms, two
      of them null; three maps in four are inverse-nil-preserving by
      construction;
    * ``contravariance_check`` on 106 composable pairs over 6, 6 and 5
      atoms of positive weight (so every pair is inverse-nil-preserving).

    The counts put the median call in the middle of the full-enumeration
    ``check_well_definedness`` calls and the 95th percentile among the
    contravariance checks, each a family of equal-shape calls.
    """

    name = "law-sweep"

    def __init__(self, malg, seed: int, workdir: Path, tiny: bool):
        self.malg = malg
        self.seed = seed
        self.hom_sizes = (3,) if tiny else (6, 7)
        self.n_null_maps = 5 if tiny else 48
        self.n_pairs = 5 if tiny else 106

    def _structured_hom(self, rng: random.Random, n: int):
        m = self.malg
        q = [f"q{i:02d}" for i in range(n)]
        p = [f"p{i:02d}" for i in range(2 * n)]
        weight = lambda: Fraction(rng.randint(1, 16), rng.randint(1, 16))
        target = m.make_space(q, [[x] for x in q], [weight() for _ in q])
        source = m.make_space(p, [[x] for x in p], [weight() for _ in p])
        images = q + q
        rng.shuffle(images)
        return m.induced_homomorphism(m.make_map(source, target, dict(zip(p, images))))

    def build_inputs(self):
        m = self.malg
        rng = random.Random(self.seed)
        self.homs = [self._structured_hom(rng, n) for n in self.hom_sizes]
        self.null_maps = []
        for i in range(self.n_null_maps):
            source = shaped_space(m, rng, "p", 8, i)
            target = shaped_space(m, rng, "q", 6, i, nulls=(0, 3))
            self.null_maps.append(seeded_map(m, rng, source, target, inp=i % 4 != 3))
        self.pairs = []
        for i in range(self.n_pairs):
            x1 = shaped_space(m, rng, "p", 6, i)
            x2 = shaped_space(m, rng, "q", 6, i + 1)
            x3 = shaped_space(m, rng, "r", 5, i)
            self.pairs.append((seeded_map(m, rng, x1, x2, True), seeded_map(m, rng, x2, x3, True)))

    def choose_batch(self):
        pass

    def describe(self) -> dict:
        return {"hom_sizes": list(self.hom_sizes), "null_maps": self.n_null_maps,
                "pairs": self.n_pairs}

    @staticmethod
    def _inp_oracle(phi) -> bool:
        # no positive-weight source atom lands in a null target atom
        for block, w in zip(phi.source.atoms, phi.source.weights):
            image = phi.point_fn[block[0]]
            if not w.is_zero and phi.target.weights[phi.target.atom_of(image)].is_zero:
                return False
        return True

    def run_pass(self, verify: bool, marker=None) -> Pass:
        m = self.malg
        out = Pass(marker=marker)

        def timed(fn, *args):
            t0 = perf_counter()
            value = fn(*args)
            out.latencies.append(perf_counter() - t0)
            return value

        for i, hom in enumerate(self.homs):
            report = timed(m.check_hom_laws, hom)
            laws = [v.law for v in report.violations]
            out.checks.append(Check(f"hom{i}|{laws}", report.ok))
            out.mark()
        for i, phi in enumerate(self.null_maps):
            if i % 12 == 11:
                out.mark()
            expected = self._inp_oracle(phi)
            for fn in ("is_inverse_nil_preserving", "null_ideal_preserved", "check_well_definedness"):
                verdict = timed(getattr(m, fn), phi)
                out.checks.append(Check(f"null{i}|{fn}|{verdict}", verdict == expected))
        for i, (f, g) in enumerate(self.pairs):
            if i % 16 == 0:
                out.mark()
            report = timed(m.contravariance_check, f, g)
            laws = [v.law for v in report.violations]
            out.checks.append(Check(f"pair{i}|{laws}", report.ok))
        out.items = len(out.latencies)
        return out


# ---------------------------------------------------------------- doc-roundtrip

MALFORMED_KINDS = (
    "bad-json",
    "missing-key",
    "negative-weight",
    "not-measurable",
    "unknown-point",
    "triangle",
    # ROADMAP open item 4: at the seed these raise out of main instead of exit 2
    "invalid-utf8",
    "nested-atom",
    "huge-exponent",
)
KNOWN_DEFECTS = {"invalid-utf8", "nested-atom", "huge-exponent"}
CLASSIFICATION_KEYS = (
    "measurable", "inp", "compression", "degenerate", "lipschitz", "short",
    "bounded_deformation", "rescale_source_to_short", "rescale_target_to_short",
)


class DocRoundtrip:
    """Map documents on disk through validate, classify (json, text) and
    theorem-check at a small budget. Every tenth document is malformed and
    must exit 2; one valid document in three carries metrics, and one in
    five names its target space by a relative path.

    Document i maps 1 + i % 8 source atoms into 1 + (i // 8) % 8 target
    atoms, with null and infinite atoms at fixed positions, and three maps in
    four are inverse-nil-preserving (see ``seeded_map``), so the work per
    document repeats across seeds; the seed picks weights, distances and
    the point images."""

    name = "doc-roundtrip"
    BUDGET = 6

    def __init__(self, malg, seed: int, workdir: Path, tiny: bool):
        self.malg = malg
        self.seed = seed
        self.workdir = workdir
        self.n_docs = 20 if tiny else 200
        self.out = workdir / "out.txt"

    # -- generation

    @staticmethod
    def _dist(rng: random.Random, n: int) -> list[str]:
        # every distance in [1, 2], so the triangle inequality always holds
        return [str(1 + Fraction(rng.randint(0, 16), 16)) for _ in range(n * (n - 1) // 2)]

    def _map_obj(self, rng, i: int):
        m = self.malg
        source = shaped_space(m, rng, "p", 1 + i % 8, i, nulls={(3 - i) % 10},
                              infinite={(7 - i) % 20})
        target = shaped_space(m, rng, "q", 1 + (i // 8) % 8, i + 1,
                              nulls={(5 - i) % 10}, infinite={(11 - i) % 20})
        phi = seeded_map(m, rng, source, target, inp=i % 4 != 3)
        nonnull_target = sum(1 for w in target.weights if not w.is_zero)
        return m.formats.map_to_obj(phi), nonnull_target

    def _valid_doc(self, rng, i: int):
        obj, nonnull_target = self._map_obj(rng, i)
        if i % 3 == 0:
            for side in ("source", "target"):
                obj[side]["dist"] = self._dist(rng, len(obj[side]["points"]))
        if i % 5 == 1:
            side_file = f"space{i:03d}.json"
            (self.workdir / side_file).write_text(json.dumps(obj["target"]))
            obj["target"] = side_file
        return json.dumps(obj, indent=1).encode(), nonnull_target

    def _malformed_doc(self, rng, i: int, kind: str) -> bytes:
        obj, _ = self._map_obj(rng, i)
        src, tgt = obj["source"], obj["target"]
        if kind == "bad-json":
            return json.dumps(obj).encode()[:-7]
        if kind == "missing-key":
            del obj["fn"], src["weights"]
        elif kind == "negative-weight":
            src["weights"][0] = "-1/2"
        elif kind == "not-measurable":
            src["points"].append("pzz")
            src["atoms"][0] = src["atoms"][0] + ["pzz"]
            tgt["points"].append("qzz")
            tgt["atoms"].append(["qzz"])
            tgt["weights"].append("1")
            obj["fn"]["pzz"] = "qzz"
        elif kind == "unknown-point":
            obj["fn"][src["points"][0]] = "nowhere"
        elif kind == "triangle":
            src["points"] += ["pzx", "pzy"]
            src["atoms"] += [["pzx"], ["pzy"]]
            src["weights"] += ["1", "1"]
            obj["fn"]["pzx"] = obj["fn"]["pzy"] = tgt["points"][0]
            n = len(src["points"])
            src["dist"] = self._dist(rng, n)
            src["dist"][-1] = "5"  # d(pzx, pzy) = 5 > d(pzx, p00) + d(p00, pzy)
        elif kind == "invalid-utf8":
            return b'{"source": "\xff\xfe", "target": {}, "fn": {}}'
        elif kind == "nested-atom":
            src["atoms"][0] = [[src["atoms"][0][0]]]
        elif kind == "huge-exponent":
            src["weights"][0] = "1e5000"
        return json.dumps(obj, indent=1).encode()

    def build_inputs(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(self.seed)
        kinds = list(MALFORMED_KINDS)
        rng.shuffle(kinds)
        self.docs = []  # (path, kind or None, nonnull target atoms)
        for i in range(self.n_docs):
            path = self.workdir / f"doc{i:03d}.json"
            if i % 10 == 9:
                kind = kinds[(i // 10) % len(kinds)]
                data, nonnull = self._malformed_doc(rng, i, kind), None
            else:
                kind = None
                data, nonnull = self._valid_doc(rng, i)
            path.write_bytes(data)
            self.docs.append((str(path), kind, nonnull))

    def choose_batch(self):
        pass

    def describe(self) -> dict:
        return {"docs": self.n_docs, "budget": self.BUDGET}

    # -- the pass

    def _commands(self, path):
        out = str(self.out)
        return (
            ("validate", ["validate", path, "--output", out]),
            ("classify-json", ["classify", path, "--output", out]),
            ("classify-text", ["classify", path, "--format", "text", "--output", out]),
            ("theorem", ["theorem-check", path, "--budget", str(self.BUDGET), "--output", out]),
        )

    def _values(self, cmd: str) -> object:
        """The exact values of one report, read back from the output file.

        Only named keys are kept, so fields that later reports add do not
        change the digest."""
        text = self.out.read_text()
        if cmd == "classify-text":
            results = json.loads(text.split("\nresults:\n", 1)[1])
        else:
            results = json.loads(text)["results"]
        if cmd == "validate":
            return [(e.get("kind"), e.get("sigma_finite")) for e in results["files"]]
        if cmd.startswith("classify"):
            c = results["classification"]
            return {k: c[k] for k in CLASSIFICATION_KEYS if k in c}
        inst = results["instances"][0]
        w = inst["witness"]
        witness = None if w is None else [w["pair"], w["attained_at_empty"]]
        return [inst[k] for k in ("compression", "lipschitz_fast", "lipschitz_bruteforce",
                                  "agree")] + [witness]

    def run_pass(self, verify: bool, marker=None) -> Pass:
        out = Pass(marker=marker)
        cli = self.malg.cli
        for d, (path, kind, nonnull) in enumerate(self.docs):
            if d % 20 == 19:
                out.mark()
            classified = None
            for cmd, argv in self._commands(path):
                self.out.unlink(missing_ok=True)
                code = _call_main(cli, argv, out)
                if kind is not None:
                    # the value of a malformed document is only its exit code
                    fp = f"{d}|{cmd}|malformed"
                    out.checks.append(Check(fp, code == 2, kind in KNOWN_DEFECTS))
                    continue
                expected = 3 if cmd == "theorem" and nonnull > self.BUDGET else 0
                ok = code == expected
                values = None
                if ok and code == 0:
                    try:
                        values = self._values(cmd)
                    except (OSError, ValueError, KeyError, TypeError, IndexError):
                        ok = False  # the digested values are missing
                if ok and cmd.startswith("classify"):
                    # json and text reports must carry the same classification,
                    # and a map is short exactly when its Lipschitz constant is <= 1
                    ok = (classified is None or values == classified) and (
                        "lipschitz" not in values
                        or values["short"] == (Fraction(values["lipschitz"]) <= 1))
                    classified = values
                if ok and values is not None and cmd == "theorem":
                    ok = values[3] is True and classified is not None and (
                        values[0] == classified["compression"])
                fp = f"{d}|{cmd}|exit={code}|{json.dumps(values)}"
                out.checks.append(Check(fp, ok))
        out.items = len(out.latencies)
        return out


WORKLOADS = {w.name: w for w in (TheoremBatch, LawSweep, DocRoundtrip)}
