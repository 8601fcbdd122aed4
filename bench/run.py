"""Benchmark entry point.

    python3 bench/run.py --workload fixture_sessions --seed 1 --seconds 30 --trace 0

Runs one workload in this process, one operation at a time, and prints the
full result record as one JSON line, then a summary line (the last line of
standard output) with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of an untraced run, whose
timings are CPU time (see bench/README.md for why, and for the wall-clock
figures the full record keeps);
with `--trace 1` they are the per-layer metrics of a traced pass over a
fixed number of operations, plus the tracing overhead measured against
untraced passes over the same operations. The full record is also written to
`bench/results/`. See bench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread: BLAS worker threads that spin after a call in the output
# checks would add CPU time to the engine call that follows.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_REPS = 3  # set-ups per untraced run; setup_s is their median
# Operations in each pass of a traced run: whole cycles of the workload.
TRACE_OPS = {"fixture_sessions": 8, "large_repo_sessions": 8, "memory_mix": 150}
MIN_TAIL = 10  # a percentile needs this many samples beyond it


def percentile(values: list[float], q: float) -> tuple[float | None, int]:
    """Linear-interpolated q-th percentile and the sample count. Above the
    median the value is None unless MIN_TAIL samples lie beyond it."""
    n = len(values)
    if n == 0 or (q > 50 and n * (100 - q) / 100 < MIN_TAIL):
        return None, n
    ordered = sorted(values)
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), n


def _import_engine() -> None:
    """Import patchloop from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "patchloop" / "__init__.py").is_file():
        raise SystemExit(f"no engine sources under {src}")
    sys.path.insert(0, str(src))
    import patchloop

    if Path(patchloop.__file__).resolve().parent != (src / "patchloop").resolve():
        raise SystemExit(f"patchloop imported from {patchloop.__file__}, not {src}")


def _environment(args, params: dict) -> dict:
    import numpy

    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    lines = proc.stdout.split()
    sha = dirty = None
    if proc.returncode == 0 and Path(lines[0]).resolve() == ROOT:
        sha = lines[1]
        # Uncommitted changes to tracked files mean HEAD is not the code measured.
        dirty = bool(subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True).stdout.strip())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "params": params}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(wl, seconds: float | None = None, n_ops: int | None = None) -> dict:
    """Closed loop: operation i+1 starts when operation i returns. A timed
    run stops at the whole-cycle boundary nearest to `seconds` (after at
    least one cycle), so every cycle's mix of operations is complete."""
    import workloads

    walls: list[float] = []
    cpus: list[float] = []
    failed = 0
    cycle = wl.ops_per_cycle
    started = time.perf_counter()
    i = 0
    while n_ops is None or i < n_ops:
        if seconds is not None and i and i % cycle == 0:
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * elapsed / (i // cycle) > seconds:
                break
        wall0, cpu0 = time.perf_counter(), workloads.cpu_seconds()
        try:
            cost, ok = wl.op(i)
        except Exception as exc:  # an operation that raises counts as failed
            print(f"operation {i} raised {type(exc).__name__}: {exc}")
            cost = workloads.Cost(time.perf_counter() - wall0, workloads.cpu_seconds() - cpu0)
            ok = False
        walls.append(cost.wall)
        cpus.append(cost.cpu)
        failed += not ok
        i += 1
    return {"walls": walls, "cpus": cpus, "failed": failed}


def _timing_metrics(prefix: str, walls: list[float]) -> dict:
    out = {}
    for q in (50, 90):
        value, n = percentile(walls, q)
        out[f"{prefix}_ms_p{q}"] = {"value": None if value is None else 1000.0 * value,
                                    "unit": "ms", "n": n}
    return out


def untraced(args, workdir: Path) -> tuple[dict, dict, dict, dict]:
    import workloads

    setups, engine = [], []  # whole set-ups; the engine calls within them
    for _ in range(SETUP_REPS):
        wl = workloads.make(args.workload, workdir, args.seed)
        whole, calls = workloads.measure(wl.setup)
        setups.append(whole)
        engine.append(calls)
    wl.prepare_checks()
    res = run_ops(wl, seconds=args.seconds)
    save_s = wl.finish()
    walls, cpus, n = res["walls"], res["cpus"], len(res["walls"])
    attempted, failed = n, res["failed"]

    summary = {
        "ops_per_cpu_s": (n / sum(cpus), "1/s"),
        "op_cpu_ms_p50": (1000.0 * percentile(cpus, 50)[0], "ms"),
        "setup_s": (statistics.median(c.cpu for c in engine), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail: dict = {"error_rate": {"value": failed / attempted, "unit": "ratio", "n": attempted},
                    "setup_s": {"value": summary["setup_s"][0], "unit": "s", "n": SETUP_REPS,
                                "cpu_samples": [c.cpu for c in engine],
                                "wall_samples": [c.wall for c in engine]},
                    "setup_whole_wall_s": {"value": statistics.median(c.wall for c in setups),
                                           "unit": "s", "n": SETUP_REPS,
                                           "samples": [c.wall for c in setups]},
                    "peak_rss_mb": {"value": summary["peak_rss_mb"][0], "unit": "MB", "n": 1}}
    if args.workload == "memory_mix":
        lat = wl.latency
        detail["memory_ops_per_s"] = {"value": n / sum(walls), "unit": "1/s", "n": n}
        detail.update(_timing_metrics("insert", lat["insert"]))
        detail.update(_timing_metrics("retrieve", lat["retrieve"]))
        detail["merged_ratio"] = {"value": wl.counters["merged"] / max(1, wl.counters["inserts"]),
                                  "unit": "ratio", "n": wl.counters["inserts"]}
    else:
        detail["sessions_per_s"] = {"value": n / sum(walls), "unit": "1/s", "n": n}
        detail.update(_timing_metrics("session", walls))
        detail["prompt_tokens_per_session"] = {
            "value": wl.harness_counts()["prompt_tokens_per_session"], "unit": "tokens", "n": n}
        detail["ignored_files_lost"] = {"value": wl.counters["ignored_files_lost"],
                                        "unit": "count", "n": n}
    detail["save_store_ms"] = {"value": 1000.0 * save_s, "unit": "ms", "n": 1}
    counts = {"attempted": attempted, "failed": failed}
    return summary, detail, counts, wl.params


def traced(args, workdir: Path) -> tuple[dict, dict, dict, dict]:
    import layers
    import workloads
    from spans import Tracer

    n_ops = TRACE_OPS[args.workload]

    def one_pass(tracer: Tracer | None = None):
        wl = workloads.make(args.workload, workdir, args.seed)
        wl.setup()
        wl.prepare_checks()
        if tracer is None:
            res = run_ops(wl, n_ops=n_ops)
            wl.finish()
            return wl, res
        layers.install(tracer)
        try:
            wl.attach(tracer)
            res = run_ops(wl, n_ops=n_ops)
            wl.finish()
            import patchloop.memory as memory

            tracer.wrap("bench.load", memory.load_store)(wl.memory_file)
        finally:
            tracer.uninstall()
        return wl, res

    # The first pass in a process runs cold (up to a third slower), so it
    # only warms up. The untraced passes on either side of the traced one
    # are averaged per operation, which cancels slow drift in CPU speed.
    passes = [one_pass()[1], one_pass()[1]]
    tracer = Tracer()
    wl, res = one_pass(tracer)
    passes += [res, one_pass()[1]]
    plain_walls = [(a + b) / 2 for a, b in zip(passes[1]["walls"], passes[3]["walls"])]

    reduced = tracer.reduce()
    metrics = layers.per_layer_metrics(reduced, tracer.counts, wl.harness_counts())
    plain_s, traced_s = sum(plain_walls), sum(res["walls"])
    # Per operation: the engine layers' self times in the traced pass against
    # the same operation's mean wall time in the untraced passes.
    engine = [reduced["op_engine_s"].get(i, 0.0) for i in range(n_ops)]
    gap_s = sum(abs(e - p) for e, p in zip(engine, plain_walls))
    abs_overhead_s = sum(abs(t - p) for t, p in zip(res["walls"], plain_walls))
    overhead_s = traced_s - plain_s
    metrics.update({
        "trace.ops": (n_ops, "count"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.overhead_ms": (1000.0 * overhead_s, "ms"),
        "trace.overhead_ratio": (overhead_s / plain_s, "ratio"),
        "trace.attribution_gap_ms": (1000.0 * gap_s, "ms"),
    })
    detail = {
        "untraced_wall_s": plain_s, "traced_wall_s": traced_s,
        "engine_self_s": sum(engine), "abs_overhead_ms": 1000.0 * abs_overhead_s,
        "per_op_ms": {"untraced": [1000.0 * w for w in plain_walls],
                      "traced": [1000.0 * w for w in res["walls"]],
                      "engine_self": [1000.0 * e for e in engine]},
        "layer_self_ms": layers.layer_self_ms(reduced),
    }
    counts = {"attempted": len(passes) * n_ops, "failed": sum(p["failed"] for p in passes)}
    return metrics, detail, counts, wl.params


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fixture_sessions", "large_repo_sessions", "memory_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_engine()
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, detail, counts, params = (traced if args.trace else untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {**_environment(args, params), **counts, "detail": detail,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
