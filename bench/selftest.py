"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times, subprocess_kind, union_length  # noqa: E402


def test_percentile_reports_sample_count():
    assert run.percentile([float(v) for v in range(1, 11)], 50) == (5.5, 10)
    assert run.percentile([], 50) == (None, 0)
    # p90 needs ten samples beyond it, so at least 100 samples.
    assert run.percentile([1.0] * 99, 90) == (None, 99)
    value, n = run.percentile([float(v) for v in range(100)], 90)
    assert n == 100 and value == pytest.approx(89.1)


def test_cost_counts_cpu_of_waited_for_children():
    # The child computes for tens of milliseconds while this process waits.
    cost, proc = workloads.measure(subprocess.run,
                                   [sys.executable, "-S", "-c", "sum(range(5_000_000))"])
    assert proc.returncode == 0
    assert cost.cpu >= 0.03 and cost.wall >= 0.03


def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] overruns.
    starts = [0.0, 1.0, 3.0, 8.0, 3.5]
    ends = [10.0, 4.0, 6.0, 12.0, 3.75]
    parents = [-1, 0, 0, 0, 2]
    selfs = self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10 - (5 + 2))
    assert selfs[2] == pytest.approx(3 - 0.25)
    assert union_length([(1, 4), (3, 6), (3.5, 3.75)], 0, 10) == pytest.approx(5)


def test_engine_self_times_leave_out_bench_spans():
    tracer = Tracer()
    inner = tracer.wrap("embedding.inner", lambda x: x + 1)
    outer = tracer.wrap("memory.insert", lambda x: inner(inner(x)))
    tracer.current_op = 0
    assert tracer.wrap("bench.op", outer)(1) == 3
    reduced = tracer.reduce()
    assert reduced["calls"] == {"bench.op": 1, "memory.insert": 1, "embedding.inner": 2}
    # The engine's self times of the operation are the insert span's duration.
    assert reduced["op_engine_s"][0] == pytest.approx(tracer.end[1] - tracer.start[1], abs=1e-12)


def test_subprocess_kind_by_argv():
    assert subprocess_kind(["git", "diff"]) == "git"
    assert subprocess_kind("python3 poc.py") == "oracle"
    assert subprocess_kind(["/bin/bash"]) == "shell"


def test_generators_are_byte_identical_for_one_seed():
    def dump(seed: int) -> str:
        repo = gen.c_repo(seed, n_files=120, n_build=10)
        payload = {
            "files": repo["files"],
            "ignored": {k: v.hex() for k, v in repo["ignored"].items()},
            "c_transcripts": [gen.c_transcript(s, repo) for s in gen.SHAPES],
            "demo": gen.demo_repo(),
            "demo_transcripts": [gen.demo_transcript(s) for s in gen.SHAPES],
            "shapes": [gen.shape_at(seed, i) for i in range(16)],
            "session_corpus": gen.session_corpus(seed, "bufferkit", "CWE-787", "python", n=50),
            "keys": [gen.session_keys(seed, i, "pktkit", "CWE-787", "c") for i in range(4)],
        }
        base = gen.memory_corpus(seed, 60, 10, 10)
        payload["memory"] = base
        payload["ops"] = [gen.memory_op(seed, i, base) for i in range(40)]
        return json.dumps(payload, sort_keys=True)

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


def test_every_cycle_holds_each_shape_once():
    for cycle in range(5):
        shapes = [gen.shape_at(3, 4 * cycle + k) for k in range(4)]
        assert sorted(shapes) == sorted(gen.SHAPES)


@pytest.mark.parametrize("workload,n_ops", [("fixture_sessions", 4), ("memory_mix", 25)])
def test_counts_repeat_across_two_traced_runs(tmp_path, monkeypatch, workload, n_ops):
    run._import_engine()
    monkeypatch.setitem(run.TRACE_OPS, workload, n_ops)
    args = argparse.Namespace(workload=workload, seed=5, seconds=1.0, trace=1)
    first = run.traced(args, tmp_path / "a")
    second = run.traced(args, tmp_path / "b")
    for result in (first, second):
        assert result[2]["failed"] == 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(first[0]) == {m["name"] for m in declared["per_layer"]}
    counts = {k for k, (_, unit) in first[0].items() if unit == "count"}
    assert counts
    for key in counts:
        assert first[0][key] == second[0][key], key


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    run._import_engine()
    args = argparse.Namespace(workload="memory_mix", seed=5, seconds=0.2, trace=0)
    metrics, detail, counts, _ = run.untraced(args, tmp_path / "w")
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert counts["failed"] == 0 and counts["attempted"] % 5 == 0  # whole cycles only
    assert detail["error_rate"]["value"] == 0.0
