"""Record the digest of every workload's exact values for a range of seeds.

    python3 bench/record_digests.py 0 15

For each workload and seed this makes the inputs, runs one verified pass
and stores, per checked result, the first 6 hex digits of the SHA-256 of
its fingerprint in ``bench/digests.json``. A seed is recorded only when
every result meets the benchmark's own checks, apart from documents of the
known defect kinds; those keep their expected fingerprint, so their
failures stay counted (apart, in ``fail_ratio``). Later runs of the same
seed count every result that differs from the digest as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import DIGESTS, malg_sources, set_up
from workloads import WORKLOADS, fingerprint_hash


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    root = Path.cwd()
    src = malg_sources(root)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name, cls in WORKLOADS.items():
        table = digests.setdefault(name, {})
        for seed in range(first, last + 1):
            workdir = root / ".bench_tmp" / f"record-{name}"
            try:
                workload, _, _ = set_up(cls, src, seed, workdir, False, 0)
                workload.choose_batch()
                checks = workload.run_pass(verify=True).checks
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            bad = [c.fingerprint for c in checks if not c.ok and not c.known_defect]
            if bad:
                print(f"{name} seed {seed}: {len(bad)} results fail, not recorded: {bad[:3]}")
                return 1
            table[str(seed)] = "".join(fingerprint_hash(c.fingerprint) for c in checks)
            print(f"{name} seed {seed}: {len(checks)} results recorded", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
