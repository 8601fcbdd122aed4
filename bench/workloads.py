"""The three workloads: set-up, one closed-loop operation, and output checks.

Each workload object owns one work directory. `setup()` builds every input
from the seed and warms the process, and returns the `Cost` of the engine
calls it made; `op(i)` runs operation `i` and returns its `Cost`, timing
only the engine call; `finish()` persists the store. Output checks,
checkout restores and reference computations happen outside the timed
region.
"""

from __future__ import annotations

import json
import math
import re
import resource
import shutil
import subprocess
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import gen
from spans import Tracer

_GIT = ["git", "-c", "user.email=bench@example.com", "-c", "user.name=bench"]


def git(repo: Path, *args: str) -> str:
    proc = subprocess.run([*_GIT, *args], cwd=repo, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
    return proc.stdout


def write_tree(root: Path, files: dict) -> None:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")


def write_jsonl(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _strip_index_lines(diff: str) -> str:
    """Blob ids in `index` lines depend on how the diff was produced."""
    return "\n".join(l for l in diff.splitlines() if not l.startswith("index "))


def cpu_seconds() -> float:
    """CPU time of this process (nanosecond clock) and of the child processes
    it has waited for (microseconds), which includes every subprocess the
    engine runs to completion."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Cost(NamedTuple):
    wall: float  # seconds
    cpu: float  # CPU seconds, as `cpu_seconds` counts them

    def plus(self, other: Cost) -> Cost:
        return Cost(self.wall + other.wall, self.cpu + other.cpu)


def measure(fn, *args) -> tuple[Cost, object]:
    w0, c0 = time.perf_counter(), cpu_seconds()
    result = fn(*args)
    return Cost(time.perf_counter() - w0, cpu_seconds() - c0), result


class Timer:
    """Cost of the engine call only; the traced run adds a root span."""

    def __init__(self, tracer: Tracer | None, name: str) -> None:
        self.tracer = tracer
        self.nid = tracer.intern(name) if tracer else -1

    def __call__(self, op_index: int, fn, *args) -> tuple[Cost, object]:
        if self.tracer is None:
            return measure(fn, *args)
        self.tracer.current_op = op_index
        idx = self.tracer.open(self.nid)
        try:
            return measure(fn, *args)
        finally:
            self.tracer.close(idx)
            self.tracer.current_op = -1


# ---------------------------------------------------------------------------
# Scripted repair sessions
# ---------------------------------------------------------------------------


class Sessions:
    """Scripted sessions run one at a time against one shared store, as
    `repair --tasks --jobs 1` runs them."""

    ops_per_cycle = 4

    def __init__(self, name: str, workdir: Path, seed: int) -> None:
        self.name, self.workdir, self.seed = name, workdir, seed
        self.large = name == "large_repo_sessions"
        self.params = {"corpus_l1": gen.SESSION_CORPUS_L1, "shapes": list(gen.SHAPES),
                       "attempt_cap": 3}
        if self.large:
            self.params.update(files=gen.C_FILES, ignored_build_files=gen.C_BUILD_FILES)
            self.keys = ("pktkit", "CWE-787", "c")
        else:
            self.keys = ("bufferkit", "CWE-787", "python")
        self.attach(None)
        self.counters = {"ignored_files_lost": 0, "prompt_tokens": 0, "attempts": 0,
                         "turns": 0, "accepted": 0, "verified": 0, "sessions": 0}

    def attach(self, tracer: Tracer | None) -> None:
        self.timer = Timer(tracer, "bench.session")
        self.save_timer = Timer(tracer, "bench.save")

    def setup(self) -> Cost:
        import patchloop.memory as memory
        from patchloop.config import EngineConfig, build_embedder

        self.cfg = EngineConfig()
        self.repo = self.workdir / "repo"
        if self.large:
            spec = gen.c_repo(self.seed)
            files, self.ignored = spec["files"], spec["ignored"]
            self.transcripts = {s: gen.c_transcript(s, spec) for s in gen.SHAPES}
            self.task_extra = {"poc_command": "sh poc.sh", "regression_command": "sh regress.sh",
                               "ground_truth_files": [spec["target"]]}
            self.edit = (spec["target"], gen.C_OLD, gen.C_OLD + gen.C_GUARD)
        else:
            files, self.ignored = gen.demo_repo(), {}
            self.transcripts = {s: gen.demo_transcript(s) for s in gen.SHAPES}
            # -S: the interpreter skips site-packages and its .pth hooks,
            # which belong to the host's Python, not to the engine, and would
            # be most of each oracle subprocess's start-up time.
            self.task_extra = {"poc_command": "python3 -S poc.py",
                               "regression_command": "python3 -S tests.py",
                               "ground_truth_files": [gen.DEMO_FILE]}
            self.edit = (gen.DEMO_FILE, gen.DEMO_OLD, gen.DEMO_GOOD)
        write_tree(self.repo, files)
        git(self.repo, "init", "-q")
        git(self.repo, "add", "-A")
        git(self.repo, "commit", "-qm", "baseline")
        write_tree(self.repo, self.ignored)
        for shape, records in self.transcripts.items():
            write_jsonl(self.workdir / f"{shape}.jsonl", records)
        self.memory_file = self.workdir / "memory.jsonl"
        write_jsonl(self.memory_file, gen.session_corpus(self.seed, *self.keys))
        load, self.store = measure(memory.load_store, self.memory_file,
                                   build_embedder(self.cfg.retrieval))
        self.out_dir = self.workdir / "out"
        warm, _ = self._session(-1, "success", warmup=True)
        return load.plus(warm)

    def _restore(self) -> int:
        """Reset the checkout to pristine, ignored tree included; returns how
        many ignored files the session deleted. Ignored files the session
        left intact stay where they are: on a disk that discards freed
        blocks, deleting and rewriting them would slow the file operations
        of the sessions that follow."""
        lost = sum(1 for rel in self.ignored if not (self.repo / rel).exists())
        changed = {rel: data for rel, data in self.ignored.items()
                   if not (self.repo / rel).is_file() or (self.repo / rel).read_bytes() != data}
        keep = [f"--exclude=/{rel}" for rel in self.ignored if rel not in changed]
        git(self.repo, "reset", "-q", "--hard")
        git(self.repo, "clean", "-q", "-fdx", *keep)
        write_tree(self.repo, changed)
        return lost

    def _session(self, index: int, shape: str, warmup: bool = False) -> tuple[Cost, bool]:
        import patchloop.cli as cli

        task = {"repo": str(self.repo), "build_command": None,
                "pass_predicates": {"poc_command": "sanitizer_clean",
                                    "regression_command": "exit_zero"},
                "transcript": str(self.workdir / f"{shape}.jsonl"),
                **gen.session_keys(self.seed, index, *self.keys), **self.task_extra}
        task_file = self.workdir / "session.json"
        task_file.write_text(json.dumps(task), encoding="utf-8")
        try:
            cost, (_, report_path) = self.timer(index, cli.repair_one, task_file,
                                                self.memory_file, self.cfg, self.out_dir,
                                                self.store)
            ok = warmup or self._check(shape, report_path)
        finally:
            lost = self._restore()
            if not warmup:
                self.counters["ignored_files_lost"] += lost
        return cost, ok

    def _check(self, shape: str, report_path: Path) -> bool:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        outcome, failed = gen.EXPECTED[shape]
        want_diff = self._expected if outcome == "success" else ""
        ok = (report["outcome"] == outcome and report["failed_attempts"] == failed
              and _strip_index_lines(report["final_diff"]) == want_diff)
        if not ok:
            print(f"session check failed for {shape}: outcome={report['outcome']} "
                  f"failed_attempts={report['failed_attempts']}")
        c = self.counters
        c["sessions"] += 1
        c["prompt_tokens"] += report["prompt_tokens"]
        c["attempts"] += len(report["attempts"])
        for attempt in report["attempts"]:
            verdict = attempt["verdict"]
            if not verdict["logs"].startswith("empty patch"):
                c["verified"] += 1
                c["accepted"] += verdict["vuln_mitigated"] and verdict["functionality_preserved"]
        trajectory = report_path.with_name(report_path.name.replace(".report.json",
                                                                    ".trajectory.jsonl"))
        with trajectory.open(encoding="utf-8") as fh:
            c["turns"] += sum(1 for line in fh if json.loads(line).get("role") == "assistant")
        return ok

    def prepare_checks(self) -> None:
        """The final diff every successful shape must end with: the accepted
        edit applied to a pristine checkout, diffed by `git diff`."""
        path, old, new = self.edit
        target = self.repo / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        self._expected = _strip_index_lines(git(self.repo, "diff"))
        git(self.repo, "checkout", "--", path)

    def op(self, index: int) -> tuple[Cost, bool]:
        return self._session(index, gen.shape_at(self.seed, index))

    def finish(self) -> float:
        import patchloop.memory as memory

        cost, _ = self.save_timer(-1, memory.save_store, self.store, self.memory_file)
        return cost.wall

    def harness_counts(self) -> dict:
        c = self.counters
        return {"ignored_files_lost": c["ignored_files_lost"],
                "prompt_tokens_per_session": c["prompt_tokens"] / max(1, c["sessions"]),
                "attempts": c["attempts"], "turns": c["turns"],
                "accepted": c["accepted"], "verified": c["verified"]}


# ---------------------------------------------------------------------------
# Memory ingest and retrieval
# ---------------------------------------------------------------------------

_CVE_RE = re.compile(r"cve-(\d{4})-(\d+)", re.IGNORECASE)


def _ts(instance_id: str) -> tuple[float, float, float]:
    m = _CVE_RE.search(instance_id)
    return (0.0, float(m.group(1)), float(m.group(2))) if m else (1.0, math.inf, 0.0)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    """The documented similarity, evaluated with the same float operations
    as the engine so that ties stay ties."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def _unit_rows(vectors: list[np.ndarray]) -> np.ndarray:
    m = np.stack(vectors)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)


class Reference:
    """Brute-force mirror of the store: every entry's keys and raw
    description, patch and failed-patch vectors, kept in store order."""

    THRESHOLD = 0.95
    EDGE = 1e-9

    def __init__(self, embed) -> None:
        self.embed = embed  # the embedder defines similarity; no cache here
        self.rows: dict[str, list[dict]] = {"L1": [], "L2": [], "L3": []}

    @staticmethod
    def _patch_text(rec: dict) -> str:
        return rec.get("fix_patch") or rec["fail_patch"] + "\n" + rec["correction_delta"]

    def add(self, rec: dict) -> None:
        self.rows[rec["tier"]].append({
            "iid": rec["instance_id"], "project": rec["project"], "cwe": rec["cwe"],
            "language": rec["language"], "ts": _ts(rec["instance_id"]),
            "desc": self.embed(rec["description"]), "patch": self.embed(self._patch_text(rec)),
            "fail": self.embed(rec["fail_patch"]) if "fail_patch" in rec else None,
        })

    def merges(self, rec: dict) -> bool | None:
        """Whether an insert must merge: some same-tier entry has both
        cosines above the threshold. None when a cosine sits on the edge."""
        rows = self.rows[rec["tier"]]
        if not rows:
            return False
        q_desc = _unit_rows([self.embed(rec["description"])])[0]
        q_patch = _unit_rows([self.embed(self._patch_text(rec))])[0]
        d = _unit_rows([r["desc"] for r in rows]) @ q_desc
        p = _unit_rows([r["patch"] for r in rows]) @ q_patch
        if np.any(np.abs(d - self.THRESHOLD) < self.EDGE) or np.any(np.abs(p - self.THRESHOLD) < self.EDGE):
            return None
        return bool(np.any((d > self.THRESHOLD) & (p > self.THRESHOLD)))

    def retrieve(self, tier: str, keys: dict, override: str | None,
                 k_min: int, top_n: int) -> list[tuple[str, int, float]]:
        """The filters and order documented in `retrieval.retrieve`."""
        q_ts = _ts(keys["instance_id"])
        p1, p2 = [], []
        for r in self.rows[tier]:
            if r["iid"] == keys["instance_id"]:
                continue
            if r["cwe"] != keys["cwe"] or r["language"] != keys["language"]:
                continue
            if r["project"] == keys["project"]:
                if r["ts"] < q_ts:
                    p1.append(r)
            else:
                p2.append(r)
        pools = [(1, p1)] + ([(2, p2)] if len(p1) < k_min else [])
        q = self.embed(override if override is not None else keys["description"])
        field = "fail" if override is not None and tier == "L3" else "desc"
        scored = [(prio, _cosine(q, r[field]), r) for prio, pool in pools for r in pool]
        scored.sort(key=lambda s: (s[0], -s[1], -s[2]["ts"][0], -s[2]["ts"][1],
                                   -s[2]["ts"][2], s[2]["iid"]))
        return [(r["iid"], prio, sim) for prio, sim, r in scored[:top_n]]


class MemoryMix:
    """About one write to four reads against a store of ~2.6k entries."""

    ops_per_cycle = 5

    def __init__(self, name: str, workdir: Path, seed: int) -> None:
        self.name, self.workdir, self.seed = name, workdir, seed
        self.params = {"l1": gen.MEMORY_L1, "l2": gen.MEMORY_L2, "l3": gen.MEMORY_L3,
                       "dup_share": gen.DUP_SHARE, "writes_per_reads": "1:4", "k_min": 2,
                       "top_n": 4}
        self.attach(None)
        self.latency: dict[str, list[float]] = {"insert": [], "retrieve": []}
        self.counters = {"merged": 0, "inserts": 0}

    def attach(self, tracer: Tracer | None) -> None:
        self.timers = {k: Timer(tracer, f"bench.{k}") for k in ("insert", "retrieve", "save")}

    def _entry(self, rec: dict):
        from patchloop.memory import L1Entry, L2Entry, L3Entry, RetrievalKeys

        keys = RetrievalKeys(rec["project"], rec["cwe"], rec["language"], rec["instance_id"],
                             rec["description"])
        if rec["tier"] == "L1":
            return L1Entry(keys=keys, fix_patch=rec["fix_patch"])
        if rec["tier"] == "L2":
            return L2Entry(keys=keys, fix_patch=rec["fix_patch"], rationale=rec["rationale"])
        return L3Entry(keys=keys, fail_patch=rec["fail_patch"],
                       correction_delta=rec["correction_delta"],
                       transition_insight=rec["transition_insight"])

    def setup(self) -> Cost:
        import patchloop.memory as memory
        import patchloop.retrieval as retrieval
        from patchloop.config import RetrievalConfig, build_embedder

        p = self.params
        self.base = gen.memory_corpus(self.seed)
        self.memory_file = self.workdir / "memory.jsonl"
        write_jsonl(self.memory_file, self.base)
        engine, self.store = measure(memory.load_store, self.memory_file,
                                     build_embedder(RetrievalConfig()))
        # Warm-up: one fresh insert per tier embeds and caches every stored
        # text; one retrieval per tier primes the read path.
        self.warm_records = [self._fresh(tier, k) for k, tier in enumerate(memory.TIERS)]
        for rec in self.warm_records:
            entry = self._entry(rec)
            query = retrieval.Query(keys=entry.keys, k_min=p["k_min"], top_n=p["top_n"])
            engine = engine.plus(measure(memory.insert, self.store, entry)[0])
            engine = engine.plus(measure(retrieval.retrieve, self.store, rec["tier"], query)[0])
        return engine

    def _fresh(self, tier: str, k: int) -> dict:
        """The first write of tier `tier` in a side stream the run never uses."""
        i = 0
        while True:
            op = gen.memory_op(self.seed + 7919 * (k + 1), i, self.base, dup_share=0.0)
            if op["kind"] == "insert" and op["record"]["tier"] == tier:
                return op["record"]
            i += 1

    def prepare_checks(self) -> None:
        from patchloop.embedding import DeterministicEmbedder

        self.ref = Reference(DeterministicEmbedder().embed)
        for rec in self.base + self.warm_records:
            self.ref.add(rec)
        for tier, rows in self.ref.rows.items():
            if len(rows) != len(self.store.tier_entries(tier)):
                raise RuntimeError(f"warm-up merged into {tier}; the reference would drift")

    def op(self, index: int) -> tuple[Cost, bool]:
        import patchloop.memory as memory
        import patchloop.retrieval as retrieval

        spec = gen.memory_op(self.seed, index, self.base)
        if spec["kind"] == "insert":
            rec = spec["record"]
            entry = self._entry(rec)
            want = self.ref.merges(rec)
            size = len(self.store.tier_entries(rec["tier"]))
            cost, outcome = self.timers["insert"](index, memory.insert, self.store, entry)
            merged = outcome == memory.InsertOutcome.MERGED
            grew = len(self.store.tier_entries(rec["tier"])) - size
            ok = (want is None or want == merged) and grew == (0 if merged else 1)
            if not merged:
                self.ref.add(rec)
            self.counters["inserts"] += 1
            self.counters["merged"] += merged
            self.latency["insert"].append(cost.wall)
        else:
            keys = memory.RetrievalKeys(**spec["keys"])
            query = retrieval.Query(keys=keys, k_min=self.params["k_min"], top_n=self.params["top_n"])
            cost, ranked = self.timers["retrieve"](index, retrieval.retrieve, self.store,
                                                   spec["tier"], query, spec["override"])
            got = [(r.entry.keys.instance_id, int(r.priority_tier), r.similarity) for r in ranked]
            want = self.ref.retrieve(spec["tier"], spec["keys"], spec["override"],
                                     self.params["k_min"], self.params["top_n"])
            ok = got == want
            self.latency["retrieve"].append(cost.wall)
        if not ok:
            print(f"memory op {index} ({spec['kind']}) disagrees with the reference")
        return cost, ok

    def finish(self) -> float:
        import patchloop.memory as memory

        cost, _ = self.timers["save"](-1, memory.save_store, self.store, self.memory_file)
        return cost.wall

    def harness_counts(self) -> dict:
        return {"ignored_files_lost": 0, "prompt_tokens_per_session": 0, "attempts": 0,
                "turns": 0, "accepted": 0, "verified": 0}


WORKLOADS = {
    "fixture_sessions": Sessions,
    "large_repo_sessions": Sessions,
    "memory_mix": MemoryMix,
}


def make(name: str, workdir: Path, seed: int):
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return WORKLOADS[name](name, workdir, seed)
