#!/usr/bin/env python3
"""Run one workload over several seeds and report how steady each metric is.

    python3 perfbench/spread.py --workload decide --seeds 1-10

For every end-to-end metric this prints the median over the runs and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json.  Runs are sequential, so they
do not compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="list like 1-5,9")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        took = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed} ({took:.1f} s) correct={result['correct']} failed={result['failed']} {json.dumps(line)}",
              flush=True)
        for name, v in result["metrics"].items():
            values.setdefault(name, []).append(v["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "n/a"
        print(f"{name:40s} median {med:.6g} spread {spread} bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
