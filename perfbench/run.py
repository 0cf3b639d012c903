#!/usr/bin/env python3
"""losrkit benchmark: one closed-loop client running a seeded query workload.

    python3 perfbench/run.py --workload decide --seed 3 --seconds 25 --trace 0

Run from the root of a source checkout; losrkit is imported from ``src``.
``--trace 0`` runs a fixed number of blocks of queries drawn from the seed,
set by ``--seconds`` and the workload's nominal block time (and at least
``MIN_SAMPLES`` queries), and reports the end-to-end metrics.  ``--trace 1``
runs block 0 once untraced and once with every layer wrapped, and reports the
per-layer metrics and the tracing overhead.  Every answer is checked against
an independent reference outside the timed region.  The last line of standard
output is one JSON object; the lines before it are for people.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the benchmark is a single client, and a BLAS thread pool
# would compete for the second CPU with the rest of the machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_SAMPLES = 100  # so that ten queries lie beyond the 90th percentile
SETUP_REPEATS = 5
OVERSHOOT_TOL = 1e-9


def _die(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_losrkit():
    if not (SRC / "losrkit" / "__init__.py").is_file():
        _die(f"no losrkit sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import losrkit
    import losrkit.cli  # noqa: F401  (the CLI module is not imported by the package)

    if Path(losrkit.__file__).resolve().parent != (SRC / "losrkit").resolve():
        _die(f"imported losrkit from {losrkit.__file__}, not from {SRC}")
    return losrkit


# ---------------------------------------------------------------------------
# Machine and environment


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() or "none"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "losrkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(loadavg) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # older numpy has no dict mode; the vendor is informational
        blas_name = "unknown"
    mem = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": mem,
        "loadavg_start": [round(x, 2) for x in loadavg],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Measurement


def measure_setup(workload: str, snippet: str) -> list[float]:
    """Fresh interpreter -> import losrkit -> one warm-up query, timed whole."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            _die(f"set-up query for {workload} failed:\n{proc.stderr.decode()[-2000:]}", 1)
    return times


def run_pass(queries, tracer=None):
    """Send each query after the previous one returns; time each one."""
    answers, errors, latency = [], [], []
    start = time.perf_counter()
    for q in queries:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.open("query." + q.kind)
        try:
            answers.append(q.run())
            errors.append(None)
        except Exception as exc:  # a failed query counts as wrong; the loop goes on
            answers.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.close()
        latency.append(time.perf_counter() - t0)
    return answers, errors, latency, time.perf_counter() - start


def check_pass(queries, answers, errors) -> list[int]:
    """Indices of queries whose answer is an error or fails its reference."""
    failed = []
    for i, q in enumerate(queries):
        try:
            ok = errors[i] is None and bool(q.check(answers[i], answers))
        except Exception:  # a malformed answer the reference cannot parse
            ok = False
        if not ok:
            failed.append(i)
    return failed


def self_check(queries, answers, failed) -> tuple[int, list[str]]:
    """Feed each reference a perturbed answer; it must call it wrong."""
    missed = []
    count = 0
    for i, q in enumerate(queries):
        if i in failed:
            continue
        count += 1
        try:
            caught = not q.check(q.wrong(answers[i], answers), answers)
        except Exception:  # a reference that cannot parse the answer rejects it
            caught = True
        if not caught:
            missed.append(q.key)
    return count, missed


def query_digest(queries) -> str:
    h = hashlib.sha256()
    for q in queries:
        h.update(f"{q.kind}|{q.key}\n".encode())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def hardy_retries(queries) -> int:
    """Extra optimizer seeds the last pass of ``queries`` needed."""
    return sum(max(len(q.attempts) - 1, 0) for q in queries)


def per_kind_summary(kinds, latencies) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(lat * 1e3)
    return {k: {"n": len(v), "median_ms": statistics.median(v), "max_ms": max(v)} for k, v in by_kind.items()}


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def layer_metrics(tracer, queries, answers) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    from tracer import LAYERS

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    m = {f"{layer}.self_s": (tracer.layer_self(layer), "s") for layer in LAYERS}
    for name in (
        "states.schmidt_spectrum",
        "states.apply_channel",
        "states.born_box",
        "states.validate",
        "preorder.factor_spectrum",
        "boxes.deterministic_vertices",
        "boxes.local_membership",
        "boxes.lp",
        "monotones.yield_hardy",
        "monotones.yield_linear",
        "monotones.pauli_expectations",
        "monotones.hardy_grid_maximum",
    ):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    factor_calls = calls.get("preorder.factor_spectrum", 0)
    found = counts["preorder.factor_spectrum.found"] / factor_calls if factor_calls else 0.0
    overshoot = sum(
        1
        for q, a in zip(queries, answers)
        if q.hardy_closed is not None and a is not None and a > q.hardy_closed + OVERSHOOT_TOL
    )
    m.update({
        "states.load_state.self_s": (self_s.get("states.load_state", 0.0), "s"),
        "preorder.found_frac": (found, "share"),
        "boxes.box_ctor.calls": (calls.get("boxes.box_ctor", 0), "count"),
        "boxes.lp.nit": (counts["boxes.lp.nit"], "count"),
        "boxes.lp.a_ub_mb_max": (counts["boxes.lp.a_ub_mb_max"], "MB"),
        "monotones.nm.calls": (calls.get("monotones.nm", 0), "count"),
        "monotones.nm.nfev": (counts["monotones.nm.nfev"], "count"),
        "monotones.nm.s": (tracer.total_s.get("monotones.nm", 0.0), "s"),
        "monotones.hardy_overshoot_n": (overshoot, "count"),
        "monotones.hardy_retry_n": (hardy_retries(queries), "count"),
        "selftest.flag_roundtrip_check.calls": (calls.get("selftest.flag_roundtrip_check", 0), "count"),
        "selftest.flag_mixed_state.self_s": (self_s.get("selftest.flag_mixed_state", 0.0), "s"),
        "cli.main.calls": (calls.get("cli.main", 0), "count"),
    })
    return m


def slowest_query_lps(tracer) -> dict:
    """The slowest traced query and the durations of its LP solves."""
    roots = [s for s in tracer.spans if s[1] is None]
    if not roots:
        return {}
    root = max(roots, key=lambda s: s[4] - s[3])
    children: dict[int, list] = {}
    for s in tracer.spans:
        children.setdefault(s[1], []).append(s)
    lps, stack = [], [root[0]]
    while stack:
        for s in children.get(stack.pop(), []):
            if s[2] == "boxes.lp":
                lps.append(s)
            stack.append(s[0])
    lps.sort(key=lambda s: s[3])
    return {"kind": root[2], "s": root[4] - root[3], "lp_s": [s[4] - s[3] for s in lps]}


def check_declared(metrics: dict, key: str) -> None:
    """The metrics must be exactly the ones BENCHMARK.json declares."""
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return
    names = {m["name"] for m in declared.get(key, [])}
    if names != set(metrics):
        _die(f"metrics differ from BENCHMARK.json {key}: {sorted(names ^ set(metrics))}", 3)


class Checks:
    """Reference verdicts accumulated over the passes of a run."""

    def __init__(self):
        self.attempted = self.failed = self.self_checked = 0
        self.wrong: list[tuple[str, str | None]] = []
        self.missed: list[str] = []

    def add(self, queries, answers, errors, self_check_too: bool) -> None:
        failed = check_pass(queries, answers, errors)
        if self_check_too:
            n, missed = self_check(queries, answers, failed)
            self.self_checked += n
            self.missed += missed
        self.wrong += [(queries[i].key, errors[i]) for i in failed]
        self.attempted += len(queries)
        self.failed += len(failed)


def measure_end_to_end(args, L, build, first, workdir, checks, result) -> dict[str, tuple[float, str]]:
    from workloads import BLOCK_S, WARMUP_SNIPPETS

    setup = measure_setup(args.workload, WARMUP_SNIPPETS[args.workload])
    # Each block is a fresh draw of the same query mix.  The block count is
    # fixed before any query runs, so every run of a workload times the same
    # number of queries however fast the machine is.
    blocks = max(math.ceil(MIN_SAMPLES / len(first)), round(args.seconds / BLOCK_S[args.workload]))
    latencies, kinds, wall, retries = [], [], 0.0, 0
    for block in range(blocks):
        queries = first if block == 0 else build(L, args.seed, block, workdir)
        answers, errors, lat, block_wall = run_pass(queries)
        wall += block_wall
        latencies += lat
        kinds += [q.kind for q in queries]
        retries += hardy_retries(queries)
        checks.add(queries, answers, errors, self_check_too=True)
    lat_ms = [x * 1e3 for x in latencies]
    p90 = _percentile(lat_ms, 90)
    result.update(
        blocks=blocks,
        wall_s=wall,
        samples=len(latencies),
        beyond_p90=sum(1 for x in lat_ms if x > p90),
        hardy_retries=retries,
        setup_runs_s=setup,
        per_kind=per_kind_summary(kinds, latencies),
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_qps": (len(latencies) / wall, "1/s"),
        "query_p50_ms": (_percentile(lat_ms, 50), "ms"),
        "query_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def measure_layers(args, queries, checks, result) -> dict[str, tuple[float, str]]:
    from tracer import LAYERS, Tracer

    answers_u, errors_u, _, wall_u = run_pass(queries)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        answers, errors, _, wall_t = run_pass(queries, tracer)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    checks.add(queries, answers_u, errors_u, self_check_too=False)
    checks.add(queries, answers, errors, self_check_too=True)
    metrics = layer_metrics(tracer, queries, answers)
    metrics["wrong_frac"] = (checks.failed / checks.attempted, "share")
    spans_path = OUT / f"spans-{args.workload}.jsonl"
    tracer.write(spans_path)
    traced_total = sum(s[4] - s[3] for s in tracer.spans if s[1] is None)
    result.update(
        untraced_wall_s=wall_u,
        traced_wall_s=wall_t,
        trace_overhead_s=wall_t - wall_u,
        answers_repeat=answers_u == answers,
        traced_total_s=traced_total,
        layer_share={layer: metrics[f"{layer}.self_s"][0] / traced_total for layer in LAYERS},
        missing_names=tracer.missing,
        spans=len(tracer.spans),
        spans_file=str(spans_path.relative_to(ROOT)),
        slowest_query=slowest_query_lps(tracer),
        top_self_s=dict(sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:12]),
    )
    return metrics


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _die("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)

    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    L = import_losrkit()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment(loadavg)
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as workdir:
        build = WORKLOADS[args.workload]
        first = build(L, args.seed, 0, workdir)
        digest = query_digest(first)
        # Warm-up, untimed: importing losrkit already pays for scipy; one query
        # covers the rest of the first-call set-up (measured at a few ms).
        run_pass(first[:1])
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "query_digest_block0": digest, "queries_per_block": len(first), "env": env}
        if args.trace == 0:
            metrics = measure_end_to_end(args, L, build, first, workdir, checks, result)
            check_declared(metrics, "end_to_end")
        else:
            metrics = measure_layers(args, first, checks, result)
            check_declared(metrics, "per_layer")
    if checks.missed:
        _die(f"self-check: references accepted perturbed answers for {checks.missed}", 3)
    wrong_frac = checks.failed / checks.attempted
    result.update(attempted=checks.attempted, failed=checks.failed, wrong_frac=wrong_frac,
                  self_checked=checks.self_checked, wrong=checks.wrong[:10])
    (OUT / f"result-{args.workload}.json").write_text(json.dumps(result, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} queries/block {len(first)} digest {digest}")
    print("env " + json.dumps(env))
    for key in ("blocks", "samples", "beyond_p90", "hardy_retries", "wall_s", "untraced_wall_s", "traced_wall_s",
                "trace_overhead_s", "answers_repeat", "traced_total_s", "spans", "missing_names"):
        if key in result:
            print(f"{key} {result[key]}")
    for key in ("per_kind", "layer_share", "slowest_query", "top_self_s"):
        if key in result:
            print(f"{key} {json.dumps(result[key])}")
    print(f"references: {checks.attempted} answers checked, {checks.failed} wrong; "
          f"self-check rejected {checks.self_checked} perturbed answers")
    for key, err in checks.wrong[:10]:
        print(f"wrong: {key}: {err or 'failed its reference check'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace == 0:
        print(f"wrong_frac {wrong_frac:.6g} share")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
