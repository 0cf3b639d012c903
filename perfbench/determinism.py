#!/usr/bin/env python3
"""Check that a seed fixes the query list and every count of the traced run.

    python3 perfbench/determinism.py --workload hardy_sweep --seed 7

Runs the traced benchmark twice with the same seed and compares the query
digest and every count metric (``*.calls``, ``monotones.nm.nfev``,
``boxes.lp.nit``, ``monotones.hardy_overshoot_n``, ``preorder.found_frac``,
``wrong_frac``).  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "share")


def traced_run(workload: str, seed: int) -> tuple[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = lines[0].split()[-1]
    metrics = json.loads(lines[-1])["metrics"]
    return digest, {k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    (d1, c1), (d2, c2) = traced_run(args.workload, args.seed), traced_run(args.workload, args.seed)
    diffs = [f"{k}: {c1[k]} != {c2.get(k)}" for k in c1 if c1[k] != c2.get(k)]
    if d1 != d2:
        diffs.insert(0, f"query digest {d1} != {d2}")
    print(f"{args.workload} seed {args.seed}: digest {d1}, {len(c1)} counts compared")
    for line in diffs:
        print("differs: " + line)
    print("deterministic" if not diffs else "NOT deterministic")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
