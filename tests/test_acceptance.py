"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The retrieval and pruning checks compare the engine against independent
brute-force references implemented here with no shared code paths; the
end-to-end checks replay scripted transcripts against the bundled
vulnerable fixture repository.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import conftest as fx
from patchloop import cli
from patchloop.agent import RepairTask, SessionRunner, Transition, decide_transition, log_compress
from patchloop.gateway import ScriptedGateway
from patchloop.localizer import index_repository, iter_grep, parse_crash_report
from patchloop.memory import (
    InsertOutcome,
    L1Entry,
    L2Entry,
    L3Entry,
    MemoryStore,
    RetrievalKeys,
    insert,
)
from patchloop.oracle import OracleSpec, VerificationVerdict
from patchloop.retrieval import Query, retrieve
from patchloop.workspace import Workspace


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {title}")


# ---------------------------------------------------------------------------
# Independent reference implementations (no engine code paths)
# ---------------------------------------------------------------------------


def ref_embed(text: str, dim: int = 64) -> list[float]:
    vec = [0.0] * dim
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:4], "big") % dim] += 1.0 if digest[4] % 2 == 0 else -1.0
    return vec


def ref_cosine(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    return 0.0 if na == 0.0 or nb == 0.0 else dot / (na * nb)


_REF_CVE = re.compile(r"cve-(\d{4})-(\d+)", re.IGNORECASE)


def ref_timestamp(instance_id: str, fallback_seq: int | None) -> tuple:
    m = _REF_CVE.search(instance_id)
    if m:
        return (0, int(m.group(1)), int(m.group(2)))
    if fallback_seq is not None:
        return (1, fallback_seq, 0)
    return (1, math.inf, 0)


def ref_retrieve(store, tier, query, override=None):
    """filter -> score -> sort -> truncate, written from the contract."""
    q = query.keys
    q_ts = ref_timestamp(q.instance_id, None)
    p1, p2 = [], []
    for e in store.tier_entries(tier):
        if e.keys.instance_id == q.instance_id:
            continue
        if e.keys.cwe != q.cwe or e.keys.language != q.language:
            continue
        if e.keys.project == q.project:
            if ref_timestamp(e.keys.instance_id, e.fallback_seq) < q_ts:
                p1.append(e)
        else:
            p2.append(e)
    pool = [(1, e) for e in p1]
    if len(p1) < query.k_min:
        pool += [(2, e) for e in p2]

    def cand_text(e):
        return e.fail_patch if (override is not None and isinstance(e, L3Entry)) else e.keys.description

    qv = ref_embed(override if override is not None else q.description)
    rows = []
    for prio, e in pool:
        sim = ref_cosine(qv, ref_embed(cand_text(e)))
        ts = ref_timestamp(e.keys.instance_id, e.fallback_seq)
        rows.append((prio, sim, ts, e))
    rows.sort(key=lambda r: (r[0], -r[1], tuple(-x for x in r[2]), r[3].keys.instance_id))
    return [(e.keys.instance_id, prio, sim) for prio, sim, _, e in rows[: query.top_n]]


WORDS = (
    "overflow heap stack copy length buffer payload parser decoder frame "
    "tag size alloc realloc write read bound check guard index free use "
    "after session close race leak null pointer wrap truncate header"
).split()


def random_store_and_query(rng: random.Random):
    projects = ["alpha", "beta", "gamma"]
    cwes = ["CWE-787", "CWE-416", "CWE-190"]
    langs = ["c", "python"]
    store = MemoryStore()
    seq = 0
    used_ids = set()
    for tier in ("L1", "L2", "L3"):
        for _ in range(rng.randint(3, 12)):
            proj = rng.choice(projects)
            if rng.random() < 0.15:
                iid = f"{proj}.nots-{rng.randint(1, 10_000)}"
            else:
                iid = f"{proj}.cve-{rng.randint(2015, 2026)}-{rng.randint(1, 40000)}"
            if iid in used_ids:
                continue
            used_ids.add(iid)
            desc = " ".join(rng.choices(WORDS, k=rng.randint(4, 12)))
            keys = RetrievalKeys(proj, rng.choice(cwes), rng.choice(langs), iid, desc)
            patch_tag = " ".join(rng.choices(WORDS, k=4))
            patch = f"--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-{patch_tag}\n+{patch_tag} fixed\n"
            fallback = None
            if "nots-" in iid:
                fallback = seq
                seq += 1
            if tier == "L1":
                entry = L1Entry(keys=keys, fix_patch=patch, fallback_seq=fallback)
            elif tier == "L2":
                entry = L2Entry(keys=keys, fix_patch=patch, rationale="r", fallback_seq=fallback)
            else:
                entry = L3Entry(
                    keys=keys,
                    fail_patch=f"--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-{desc}\n+z\n",
                    correction_delta=patch,
                    transition_insight="t",
                    fallback_seq=fallback,
                )
            store.add(entry)
    # a handful of entries deliberately share the query's instance id
    query_iid = f"alpha.cve-{rng.randint(2018, 2024)}-{rng.randint(1, 40000)}"
    for tier in ("L1",):
        leak_keys = RetrievalKeys(
            rng.choice(projects), "CWE-787", "c", query_iid, "leaked twin entry"
        )
        store.add(
            L1Entry(keys=leak_keys, fix_patch="--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-l\n+m\n")
        )
    q_keys = RetrievalKeys(
        "alpha",
        rng.choice(cwes),
        rng.choice(langs),
        query_iid,
        " ".join(rng.choices(WORDS, k=8)),
    )
    k_min = rng.randint(1, 3)
    query = Query(q_keys, k_min=k_min, top_n=rng.randint(k_min, 6))
    override = None
    if rng.random() < 0.3:
        override = " ".join(rng.choices(WORDS, k=6))
    return store, query, override


# ---------------------------------------------------------------------------
# 1 + 2: retrieval equivalence, leakage and temporal safety
# ---------------------------------------------------------------------------


def test_criterion_1_and_2_retrieval_matches_brute_force_with_no_leakage():
    rng = random.Random(1337)
    started = time.perf_counter()
    stores = 0
    with criterion(2, "no instance-id leakage; P1 strictly predates the query"):
        with criterion(1, "retrieve == brute-force reference on 200 randomized stores"):
            while stores < 200:
                store, query, override = random_store_and_query(rng)
                stores += 1
                for tier in ("L1", "L2", "L3"):
                    got = retrieve(store, tier, query, query_text_override=override)
                    want = ref_retrieve(store, tier, query, override=override)
                    assert [(r.entry.keys.instance_id, int(r.priority_tier)) for r in got] == [
                        (iid, prio) for iid, prio, _ in want
                    ], f"store {stores} tier {tier}"
                    for r, (_, _, ref_sim) in zip(got, want):
                        assert r.similarity == pytest.approx(ref_sim, abs=1e-9)
                    # criterion 2 on the same stores
                    q_ts = ref_timestamp(query.keys.instance_id, None)
                    for r in got:
                        assert r.entry.keys.instance_id != query.keys.instance_id
                        if int(r.priority_tier) == 1:
                            e_ts = ref_timestamp(
                                r.entry.keys.instance_id, r.entry.fallback_seq
                            )
                            if e_ts[0] == 0 and q_ts[0] == 0:
                                assert e_ts < q_ts
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"retrieval sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3: documented ranking example
# ---------------------------------------------------------------------------


def test_criterion_3_crash_ranking_example(crash_repo):
    with criterion(3, "iter_grep('len') ranks utils.c:45, utils.c:40, main.c:102"):
        index = index_repository(crash_repo)
        report = parse_crash_report(fx.CRASH_REPORT)
        result = iter_grep(index, "len", report)
        resolved = [(o.file, o.line_range) for o in result]
        assert resolved == [
            ("utils.c", (35, 46)),   # centered on the crash line 45, clamped at EOF
            ("utils.c", (30, 46)),   # centered on the signature line 40
            ("main.c", (92, 106)),   # centered on the caller line 102
        ]
        assert [o.rank for o in result] == [1, 2, 3]


# ---------------------------------------------------------------------------
# 4: tri-state routing
# ---------------------------------------------------------------------------


def test_criterion_4_tristate_exhaustive():
    with criterion(4, "verdict routing covers all four boolean combinations"):
        table = {
            (True, True): Transition.SUCCESS,
            (False, True): Transition.RELOCATE,
            (True, False): Transition.REGENERATE,
            (False, False): Transition.RELOCATE,
        }
        for (mitigated, preserved), expected in table.items():
            verdict = VerificationVerdict(mitigated, preserved, build_ok=True, logs="")
            assert decide_transition(verdict) == expected


# ---------------------------------------------------------------------------
# 5 + 6: loop cap and memory consolidation on scripted sessions
# ---------------------------------------------------------------------------


def scripted_session(repo, transcript_path, builder, store):
    builder(transcript_path)
    spec = OracleSpec(
        poc_command="python3 poc.py",
        regression_command="python3 tests.py",
        pass_predicates={"poc_command": "sanitizer_clean", "regression_command": "exit_zero"},
    )
    workspace = Workspace(repo)
    oracle = fx.CountingOracle(repo, spec, command_timeout=60, total_budget=600)
    task = RepairTask(workspace=workspace, oracle=oracle, keys=fx.DEMO_KEYS,
                      ground_truth_files=["app/buffer.py"])
    runner = SessionRunner(task, store, ScriptedGateway.from_file(transcript_path))
    try:
        report = runner.run()
    finally:
        workspace.close()
    return report, runner


def test_criterion_5_loop_cap(tmp_path):
    with criterion(5, "four scripted failures stop at 3 attempts and 3 oracle runs"):
        repo = fx.init_repo(tmp_path / "demo5", dict(fx.DEMO_FILES))
        report, runner = scripted_session(
            repo, tmp_path / "t5.jsonl", fx.transcript_four_failures, MemoryStore()
        )
        assert report.outcome == "exhausted"
        assert report.failed_attempts == 3
        assert runner.task.oracle.check_vul_calls == 3


def test_criterion_6_memory_consolidation(tmp_path):
    with criterion(6, "fail-then-fix yields one L2 and one L3; clean fix yields L2 only"):
        repo = fx.init_repo(tmp_path / "demo6a", dict(fx.DEMO_FILES))
        store = MemoryStore()
        report, _ = scripted_session(
            repo, tmp_path / "t6a.jsonl", fx.transcript_relocate_then_success, store
        )
        assert report.outcome == "success"
        assert len(store.l2) == 1 and len(store.l3) == 1
        assert store.l3[0].fail_patch == report.attempts[0]["patch"]
        assert store.l3[0].correction_delta.strip()

        repo2 = fx.init_repo(tmp_path / "demo6b", dict(fx.DEMO_FILES))
        store2 = MemoryStore()
        report2, _ = scripted_session(
            repo2, tmp_path / "t6b.jsonl", fx.transcript_success, store2
        )
        assert report2.outcome == "success"
        assert len(store2.l2) == 1 and len(store2.l3) == 0


# ---------------------------------------------------------------------------
# 7: end-to-end repair through the CLI
# ---------------------------------------------------------------------------


def test_criterion_7_end_to_end_repair(tmp_path, capsys):
    with criterion(7, "scripted end-to-end repair: exit 0, clean verdict, diff applies"):
        started = time.perf_counter()
        repo = fx.init_repo(tmp_path / "demo7", dict(fx.DEMO_FILES))
        transcript = fx.transcript_success(tmp_path / "t7.jsonl")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[gateway]\nbackend = scripted\ntranscript = {transcript}\n")
        task_file = tmp_path / "task.json"
        task_file.write_text(json.dumps(fx.demo_task_json(repo)))
        out_dir = tmp_path / "out"

        code = cli.main(
            [
                "--config", str(cfg), "--json",
                "repair", str(task_file),
                "--memory", str(tmp_path / "memory.jsonl"),
                "--out", str(out_dir),
            ]
        )
        capsys.readouterr()
        assert code == 0

        report = json.loads((out_dir / "task.report.json").read_text())
        assert report["outcome"] == "success"
        last_verdict = report["attempts"][-1]["verdict"]
        assert last_verdict["vuln_mitigated"] is True
        assert last_verdict["functionality_preserved"] is True

        # the submitted diff is real and applies cleanly to an untouched copy
        assert report["final_diff"].strip()
        pristine = fx.init_repo(tmp_path / "pristine7", dict(fx.DEMO_FILES))
        proc = subprocess.run(
            ["git", "apply", "--check", "-"],
            cwd=pristine,
            input=report["final_diff"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 8: workspace snapshot integrity under randomized edits
# ---------------------------------------------------------------------------


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if ".git" in path.parts or not path.is_file():
            continue
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_criterion_8_rollback_integrity(tmp_path):
    with criterion(8, "1000 randomized edit sequences all roll back byte-identically"):
        files = {f"src/f{i}.txt": f"file {i}\n" + "line\n" * 5 for i in range(5)}
        repo = fx.init_repo(tmp_path / "wsrepo", files)
        workspace = Workspace(repo)
        try:
            baseline = tree_digest(repo)
            snap = workspace.snapshot()
            rng = random.Random(99)
            existing = list(files)
            for round_no in range(1000):
                for _ in range(rng.randint(1, 4)):
                    if rng.random() < 0.5:
                        workspace.create(
                            f"new/n{round_no}_{rng.randint(0, 9)}.txt",
                            f"created in round {round_no}\n",
                        )
                    else:
                        target = rng.choice(existing)
                        workspace.str_replace(target, "line\n", f"edited {round_no}\nline\n")
                result = workspace.rollback(snap)
                assert result.ok
                assert tree_digest(repo) == baseline, f"divergence in round {round_no}"
        finally:
            workspace.close()


# ---------------------------------------------------------------------------
# 9: dedup threshold behavior
# ---------------------------------------------------------------------------

BASE_DESC = (
    "heap buffer overflow in the mp3 frame demuxer when the id3 tag size "
    "approaches the unsigned integer maximum causing the reallocation to "
    "wrap around and return a tiny buffer while the following copy still "
    "writes the original payload length past the end of the allocation"
)
NEAR_DESC = BASE_DESC + " observed during fuzzing"
FAR_DESC = "use after free in the websocket handshake parser when the client closes early"

BASE_PATCH = """--- a/reframe_mp3.c
+++ b/reframe_mp3.c
@@ -10,6 +10,9 @@
 static int mp3_dmx_process(ctx *c)
 {
+    if (tag_size > UINT_MAX - 10)
+        return GF_NON_COMPLIANT_BITSTREAM;
     buffer = gf_realloc(buffer, tag_size + 10);
"""
NEAR_PATCH = BASE_PATCH.replace("GF_NON_COMPLIANT_BITSTREAM", "GF_NOT_SUPPORTED")
FAR_PATCH = """--- a/ws.c
+++ b/ws.c
@@ -4,5 +4,6 @@
 void close_session(sess *s)
 {
+    s->parser = NULL;
     free(s->parser);
"""


def test_criterion_9_dedup_threshold():
    with criterion(9, "entries merge iff description AND patch similarity exceed 0.95"):
        # independently verify which side of the threshold each pair sits on
        assert ref_cosine(ref_embed(BASE_DESC), ref_embed(NEAR_DESC)) > 0.95
        assert ref_cosine(ref_embed(BASE_DESC), ref_embed(FAR_DESC)) < 0.95
        assert ref_cosine(ref_embed(BASE_PATCH), ref_embed(NEAR_PATCH)) > 0.95
        assert ref_cosine(ref_embed(BASE_PATCH), ref_embed(FAR_PATCH)) < 0.95

        cases = [
            (NEAR_DESC, NEAR_PATCH, InsertOutcome.MERGED),
            (NEAR_DESC, FAR_PATCH, InsertOutcome.INSERTED),
            (FAR_DESC, NEAR_PATCH, InsertOutcome.INSERTED),
            (FAR_DESC, FAR_PATCH, InsertOutcome.INSERTED),
        ]
        for desc, patch, expected in cases:
            store = MemoryStore()
            insert(
                store,
                L1Entry(
                    keys=RetrievalKeys("gpac", "CWE-190", "c", "gpac.cve-2023-1", BASE_DESC),
                    fix_patch=BASE_PATCH,
                ),
            )
            outcome = insert(
                store,
                L1Entry(
                    keys=RetrievalKeys("gpac", "CWE-190", "c", "gpac.cve-2023-2", desc),
                    fix_patch=patch,
                ),
            )
            assert outcome == expected


# ---------------------------------------------------------------------------
# 10: compression template fidelity
# ---------------------------------------------------------------------------


def test_criterion_10_compression_template():
    with criterion(10, "compressed context keeps its three fields within budget"):
        rng = random.Random(4242)
        headers = (
            "[visited files/line ranges]",
            "[applied diff hunks]",
            "[verification failure log]",
        )
        for trial in range(100):
            size = rng.randint(0, 1_000_000)
            raw = "".join(
                rng.choice(
                    [
                        "noise line\n",
                        "ERROR: AddressSanitizer: heap-buffer-overflow\n",
                        f"    #{rng.randint(0, 30)} 0xbeef in fn file.c:{rng.randint(1, 900)}\n",
                        "FAIL test_case (boom)\n",
                    ]
                )
                for _ in range(max(1, size // 30))
            )[:size]
            budget = rng.choice([500, 2_000, 4_000, 16_000])
            ctx = log_compress(
                raw,
                visited=[("f.c", (1, rng.randint(1, 400)))] * rng.randint(0, 30),
                applied_hunks=["@@ -1 +1 @@\n-x\n+y"] * rng.randint(0, 20),
                budget=budget,
            )
            rendered = ctx.render()
            assert len(rendered) <= budget, f"trial {trial} over budget"
            for header in headers:
                if budget >= 500:
                    assert header in rendered or len(rendered) == budget, header
        # at a sane budget all three section headers are always present
        ctx = log_compress("ERROR: x\n", visited=[("a.c", (1, 2))], applied_hunks=["+h"])
        rendered = ctx.render()
        for header in headers:
            assert header in rendered
