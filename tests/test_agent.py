from __future__ import annotations

import errno
import json
import os
import subprocess
import threading
from collections import Counter
from dataclasses import replace

import pytest

import conftest as fx
from patchloop import diffutil, memory, retrieval
from patchloop.agent import (
    Outcome,
    RepairTask,
    SessionRunner,
    Transition,
    decide_transition,
    extract_localization,
)
from patchloop.embedding import CachingEmbedder, DeterministicEmbedder
from patchloop.errors import (
    BuildToolMissing,
    EmbeddingUnavailable,
    GatewayExhausted,
    PristineCheckFailed,
    WorkspaceError,
)
from patchloop.config import EngineConfig
from patchloop.gateway import DEFAULT_PROMPT_BUDGET, ChatTurn, GatewayConfig, ScriptedGateway
from patchloop.memory import (
    L1Entry,
    L2Entry,
    L3Entry,
    MemoryStore,
    RetrievalKeys,
    insert,
)
from patchloop.oracle import OracleRunner, OracleSpec, VerificationVerdict
from patchloop.workspace import PersistentShell, Workspace


DEMO_SPEC = OracleSpec(
    poc_command="python3 poc.py",
    regression_command="python3 tests.py",
    pass_predicates={
        "poc_command": "sanitizer_clean",
        "regression_command": "exit_zero",
    },
)


def make_task(repo, spec: OracleSpec = DEMO_SPEC) -> RepairTask:
    workspace = Workspace(repo, bash_timeout=30)
    oracle = fx.CountingOracle(repo, spec, command_timeout=60, total_budget=600)
    return RepairTask(
        workspace=workspace,
        oracle=oracle,
        keys=fx.DEMO_KEYS,
        ground_truth_files=["app/buffer.py"],
    )


def run_scripted(demo_repo, tmp_path, transcript_builder, store=None, task=None):
    transcript = transcript_builder(tmp_path / "transcript.jsonl")
    task = task or make_task(demo_repo)
    store = store if store is not None else MemoryStore()
    runner = SessionRunner(task, store, ScriptedGateway.from_file(transcript))
    try:
        report = runner.run()
    finally:
        task.workspace.close()
    return report, runner, store


def seeded_l3_entry() -> L3Entry:
    return L3Entry(
        keys=RetrievalKeys(
            project="otherproj",
            cwe="CWE-787",
            language="python",
            instance_id="otherproj.cve-2021-111",
            description="copy helper wrote past capacity in another project",
        ),
        fail_patch=(
            "--- a/copyutil.py\n+++ b/copyutil.py\n@@ -1,2 +1,3 @@\n"
            " def copy(buf, n):\n+    n = min(n, 999999)\n     pass\n"
        ),
        correction_delta=(
            "--- a/copyutil.py\n+++ b/copyutil.py\n@@ -1,3 +1,3 @@\n"
            " def copy(buf, n):\n-    n = min(n, 999999)\n+    n = min(n, buf.capacity)\n     pass\n"
        ),
        transition_insight="clamp against the real capacity, not a constant",
    )


# ---------------------------------------------------------------------------
# decide_transition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mitigated,preserved,expected",
    [
        (True, True, Transition.SUCCESS),
        (False, True, Transition.RELOCATE),
        (True, False, Transition.REGENERATE),
        (False, False, Transition.RELOCATE),  # root-cause error dominates
    ],
)
def test_decide_transition_covers_all_verdicts(mitigated, preserved, expected):
    verdict = VerificationVerdict(mitigated, preserved, build_ok=True, logs="")
    assert decide_transition(verdict) == expected


# ---------------------------------------------------------------------------
# localization extraction
# ---------------------------------------------------------------------------


def test_extract_localization_variants():
    turn = 'prose before {"file": "a.c", "line_start": 3, "line_end": 9, "reason": "r"} after'
    loc = extract_localization(turn)
    assert (loc.file, loc.line_range) == ("a.c", (3, 9))
    loc = extract_localization('{"file": "b.c", "line_range": [1, 2]}')
    assert (loc.file, loc.line_range) == ("b.c", (1, 2))
    assert extract_localization("no json here") is None
    assert extract_localization('{"other": 1} {"file": "c.c", "line_start": 5, "line_end": 6}').file == "c.c"


def test_extract_localization_skips_objects_whose_lines_are_not_numbers():
    bad = [
        '{"file": "a.c", "line_start": "eleven", "line_end": 17}',
        '{"file": "a.c", "line_start": null, "line_end": 17}',
        '{"file": "a.c", "line_start": Infinity, "line_end": 17}',
        '{"file": "a.c", "line_range": 11}',
        '{"file": "a.c", "line_range": [11]}',
        '{"file": "a.c", "line_range": {"from": 1}}',
        '{"file": "a.c", "line_range": "12-40"}',
        '{"file": "a.c", "line_range": "57"}',
        '{"file": "a.c", "line_start": true, "line_end": 17}',
    ]
    for obj in bad:
        assert extract_localization(obj) is None, obj
    loc = extract_localization(" ".join(bad) + ' {"file": "b.c", "line_range": ["3", 4]}')
    assert (loc.file, loc.line_range) == ("b.c", (3, 4))


# ---------------------------------------------------------------------------
# scripted sessions
# ---------------------------------------------------------------------------


def test_success_on_first_attempt(demo_repo, tmp_path):
    report, runner, store = run_scripted(demo_repo, tmp_path, fx.transcript_success)
    assert report.outcome == "success"
    assert report.failed_attempts == 0
    assert len(store.l2) == 1
    assert store.l3 == []
    assert "raise ValueError" in report.final_diff
    assert report.localization_correct is True
    assert runner.task.oracle.check_vul_calls == 1
    # the chosen target sits in a crash-frame file
    loc = report.attempts[0]["localization"]
    assert loc["file"] in {"app/buffer.py", "poc.py"}


def test_failed_then_corrected_records_refinement(demo_repo, tmp_path):
    report, runner, store = run_scripted(
        demo_repo, tmp_path, fx.transcript_relocate_then_success
    )
    assert report.outcome == "success"
    assert report.failed_attempts == 1
    assert len(store.l2) == 1
    assert len(store.l3) == 1
    l3_entry = store.l3[0]
    assert l3_entry.fail_patch == report.attempts[0]["patch"]
    assert l3_entry.correction_delta.strip()
    # the delta rewrites the lax guard into the correct one
    assert "buf.capacity * 8" in l3_entry.correction_delta
    assert runner.task.oracle.check_vul_calls == 2


def test_exhausted_after_attempt_cap(demo_repo, tmp_path):
    report, runner, store = run_scripted(demo_repo, tmp_path, fx.transcript_four_failures)
    assert report.outcome == "exhausted"
    assert report.failed_attempts == 3
    assert runner.task.oracle.check_vul_calls == 3  # the 4th candidate is never reached
    assert report.final_diff == ""
    assert store.l2 == [] and store.l3 == []
    # workspace left pristine
    assert "buf.capacity * 8" not in (demo_repo / "app" / "buffer.py").read_text()


def test_relocate_reruns_locator_regenerate_does_not(demo_repo, tmp_path):
    _, runner, _ = run_scripted(demo_repo, tmp_path, fx.transcript_regenerate_then_success)
    # transcript only contains locator attempt 1; a second locator run would
    # exhaust the script, so finishing successfully proves regenerate skipped it
    assert runner.outcome == Outcome.SUCCESS
    assert runner.failed_attempts == 1


def test_attempt_one_prompt_never_contains_l3(demo_repo, tmp_path):
    store = MemoryStore()
    insert(store, seeded_l3_entry())
    _, runner, _ = run_scripted(demo_repo, tmp_path, fx.transcript_success, store=store)
    patcher_prompts = [
        t["content"]
        for t in runner.trajectory
        if t["type"] == "turn" and t["role"] == "user" and "Target location" in t.get("content", "")
    ]
    assert patcher_prompts
    assert "[L3" not in patcher_prompts[0]


def test_attempt_two_prompt_contains_l3_guidance(demo_repo, tmp_path):
    store = MemoryStore()
    insert(store, seeded_l3_entry())
    _, runner, _ = run_scripted(
        demo_repo, tmp_path, fx.transcript_regenerate_then_success, store=store
    )
    patcher_prompts = [
        t["content"]
        for t in runner.trajectory
        if t["type"] == "turn" and t["role"] == "user" and "Target location" in t.get("content", "")
    ]
    assert len(patcher_prompts) == 2
    assert "[L3" not in patcher_prompts[0]
    assert "[L3 refinement trajectory]" in patcher_prompts[1]
    assert "clamp against the real capacity" in patcher_prompts[1]


def test_compressed_context_feeds_next_attempt(demo_repo, tmp_path):
    _, runner, _ = run_scripted(demo_repo, tmp_path, fx.transcript_relocate_then_success)
    user_turns = [
        t["content"]
        for t in runner.trajectory
        if t["type"] == "turn" and t["role"] == "user"
    ]
    second_attempt_turns = [t for t in user_turns if "Previous attempt summary" in t]
    assert second_attempt_turns
    # both locator and patcher of attempt 2 carry the summary
    assert any("Runtime evidence" in t for t in second_attempt_turns)
    assert any("Target location" in t for t in second_attempt_turns)
    assert all("[verification failure log]" in t for t in second_attempt_turns)


def test_attempt_summary_takes_at_most_a_sixth_of_the_prompt_budget(demo_repo, tmp_path):
    # A failing PoC whose first diagnostic line is 3000 characters long.
    spec = replace(DEMO_SPEC, poc_command="python3 -c \"print('FAIL ' + 'x' * 3000)\"; python3 poc.py")
    transcript = fx.transcript_relocate_then_success(tmp_path / "transcript.jsonl")
    task = make_task(demo_repo, spec)
    cfg = EngineConfig(gateway=GatewayConfig(prompt_budget=6000))
    runner = SessionRunner(task, MemoryStore(), ScriptedGateway.from_file(transcript), cfg)
    try:
        assert runner.run().outcome == "success"
    finally:
        task.workspace.close()
    marker = "\n\n# Previous attempt summary\n\n"
    summaries = [t["content"].split(marker, 1)[1] for t in runner.trajectory
                 if t["type"] == "turn" and t["role"] == "user" and marker in t["content"]]
    assert len(summaries) == 2  # the locator's and the patcher's of attempt 2
    for summary in summaries:
        assert "[verification failure log]\n" in summary and "xxxx\n[truncated]" in summary
        assert len(summary) <= 6000 // 6


def locator_evidence(runner) -> list[str]:
    """The "# Runtime evidence" section of each locator prompt, in order."""
    marker = "# Runtime evidence\n"
    return [
        t["content"].split(marker, 1)[1].split("\n\n# ", 1)[0]
        for t in runner.trajectory
        if t["type"] == "turn" and t["role"] == "user" and marker in t["content"]
    ]


def test_relocate_runs_the_poc_only_to_validate_and_verify(demo_repo, tmp_path, monkeypatch):
    commands = []
    run = OracleRunner._run

    def recording(self, command):
        commands.append(command)
        return run(self, command)

    monkeypatch.setattr(OracleRunner, "_run", recording)
    report, _, _ = run_scripted(demo_repo, tmp_path, fx.transcript_relocate_then_success)
    assert report.outcome == "success"
    # once in validate_pristine and once in each check_vul; locate runs none
    assert commands.count("python3 poc.py") == 3


def test_a_relocated_attempt_runs_no_regression_suite(demo_repo, tmp_path):
    report, _, _ = run_scripted(demo_repo, tmp_path, fx.transcript_relocate_then_success)
    fixed = fx.init_repo(tmp_path / "fixed", dict(fx.DEMO_FILES))
    (fixed / "app" / "buffer.py").write_text(fx.BUFFER_PY.replace(fx.REPLACE_OLD, fx.GOOD_NEW, 1))
    assert (report.outcome, report.failed_attempts) == ("success", 1)
    assert report.final_diff == fx.git(fixed, "diff") == fx.git(demo_repo, "diff")
    relocated, accepted = (a["verdict"] for a in report.attempts)
    assert (relocated["vuln_mitigated"], relocated["functionality_preserved"]) == (False, None)
    assert '"functionality_preserved": null' in json.dumps(report.to_json())
    assert "$ python3 poc.py" in relocated["logs"] and "$ python3 tests.py" not in relocated["logs"]
    assert (accepted["vuln_mitigated"], accepted["functionality_preserved"]) == (True, True)
    assert "$ python3 tests.py" in accepted["logs"]


def test_a_session_that_calls_no_bash_starts_no_shell(demo_repo, tmp_path, monkeypatch):
    spawn, spawned = PersistentShell._spawn, []
    monkeypatch.setattr(PersistentShell, "_spawn", lambda self: (spawned.append(self), spawn(self))[1])
    report, _, _ = run_scripted(demo_repo, tmp_path, fx.transcript_relocate_then_success)
    assert report.outcome == "success" and spawned == []


def test_a_shell_that_cannot_start_is_an_oserror_result(demo_repo, tmp_path, monkeypatch):
    def out_of_processes(self):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(PersistentShell, "_spawn", out_of_processes)
    records = fx.locator_turns(1) + fx.patcher_turns(1, fx.GOOD_NEW)
    records[2]["turn"]["tool_calls"].insert(0, {"name": "bash", "args": {"command": "python3 poc.py"}})
    report, runner, _ = run_scripted(
        demo_repo, tmp_path, lambda path: fx.write_transcript(path, records)
    )
    assert report.outcome == "success"
    (bash,) = [t for t in runner.trajectory if t["type"] == "tool" and t["call"]["name"] == "bash"]
    assert bash["result"] == {
        "ok": False, "output": f"bash failed: {os.strerror(errno.EAGAIN)}", "error_kind": "OSError"
    }


def test_every_locator_prompt_carries_the_pristine_poc_output(demo_repo, tmp_path):
    _, runner, _ = run_scripted(demo_repo, tmp_path, fx.transcript_relocate_then_success)
    code, output = runner.task.oracle.pristine_poc
    assert code != 0 and "heap-buffer-overflow" in output
    assert locator_evidence(runner) == [output, output]


def test_relocate_evidence_comes_from_the_pristine_build(demo_repo, tmp_path):
    # The build copies the source into build/, which is ignored and so
    # survives rollback, and the PoC prints the built copy: a PoC rerun
    # after the failed candidate would show that candidate's build.
    (demo_repo / ".gitignore").write_text("__pycache__/\n*.pyc\nbuild/\n")
    fx.git(demo_repo, "commit", "-qam", "ignore build outputs")
    spec = OracleSpec(
        build_command="mkdir -p build && cp app/buffer.py build/buffer.py",
        poc_command="cat build/buffer.py; python3 poc.py",
        regression_command="python3 tests.py",
    )
    report, runner, _ = run_scripted(
        demo_repo, tmp_path, fx.transcript_relocate_then_success, task=make_task(demo_repo, spec)
    )
    assert report.outcome == "success" and report.failed_attempts == 1
    first, second = locator_evidence(runner)
    assert fx.REPLACE_OLD in first  # printed from the pristine build
    assert "buf.capacity * 8" not in second  # the failed candidate's guard
    assert second == first


@pytest.mark.parametrize(
    "poc, evidence",
    [("echo no frames here; exit 1", "no frames here\n"),
     ("exit 1", "(no output)"),
     ("python3 -c \"print('x' * 2500 + 'END')\"; exit 1", "x" * 1996 + "END\n")],
    ids=["output", "no output", "long output"],
)
def test_a_poc_without_crash_frames_gives_locate_the_tail_of_its_output(demo_repo, tmp_path, poc, evidence):
    spec = OracleSpec(poc_command=poc, regression_command="python3 tests.py")
    report, runner, _ = run_scripted(demo_repo, tmp_path, fx.transcript_success, task=make_task(demo_repo, spec))
    assert report.outcome == "exhausted"
    assert locator_evidence(runner)[0] == evidence


def test_long_poc_output_is_cut_to_its_frames_and_an_excerpt(demo_repo, tmp_path):
    # About 220k characters of output around the two crash frames.
    noise = "python3 -c \"print('noise ' * 18_300)\""
    spec = OracleSpec(
        poc_command=f"{noise}; python3 poc.py; status=$?; {noise}; exit $status",
        regression_command="python3 tests.py",
    )
    report, runner, _ = run_scripted(
        demo_repo, tmp_path, fx.transcript_success, task=make_task(demo_repo, spec)
    )
    assert report.outcome == "success"
    _, output = runner.task.oracle.pristine_poc
    assert len(output) > 200_000
    turns = [t for t in runner.trajectory if t["type"] == "turn"]
    system, user = turns[0], turns[1]
    assert "# Runtime evidence" in user["content"]
    assert len(system["content"]) + len(user["content"]) <= DEFAULT_PROMPT_BUDGET
    (evidence,) = locator_evidence(runner)
    assert evidence.startswith("#0 in safe_copy app/buffer.py:14\n#1 in main poc.py:10\n")
    assert "output truncated" in evidence


def tool_missing_once_fixed(demo_repo) -> RepairTask:
    """A task whose regression command exits 127 once the fix is applied,
    so check_vul raises BuildToolMissing with the candidate in the tree."""
    return make_task(demo_repo, OracleSpec(
        poc_command="python3 poc.py",
        regression_command=(
            "if grep -q 'exceeds capacity' app/buffer.py; "
            "then no_such_tool_xyz; else python3 tests.py; fi"
        ),
    ))


def test_unexpected_error_restores_the_checkout_and_propagates(demo_repo, tmp_path):
    task = tool_missing_once_fixed(demo_repo)
    with pytest.raises(BuildToolMissing):
        run_scripted(demo_repo, tmp_path, fx.transcript_success, task=task)
    assert fx.git(demo_repo, "status", "--porcelain") == ""


def test_failing_rollback_does_not_mask_the_original_error(demo_repo, tmp_path, monkeypatch):
    task = tool_missing_once_fixed(demo_repo)
    rollback, calls = task.workspace.rollback, []

    def broken_rollback(snapshot_id):
        calls.append(snapshot_id)
        if len(calls) > 1:  # the first, the restore that starts attempt 1, runs
            raise WorkspaceError("rollback failed")
        return rollback(snapshot_id)

    monkeypatch.setattr(task.workspace, "rollback", broken_rollback)
    with pytest.raises(BuildToolMissing):
        run_scripted(demo_repo, tmp_path, fx.transcript_success, task=task)
    assert len(calls) == 2


def test_a_rollback_that_fails_between_attempts_raises(demo_repo, tmp_path, monkeypatch):
    fx.fail_next_read_tree(monkeypatch, 1)  # the restore that starts attempt 1 runs
    with pytest.raises(WorkspaceError, match="git read-tree --reset -u"):
        run_scripted(demo_repo, tmp_path, fx.transcript_relocate_then_success)
    # run's own restore ran once git could again
    assert fx.git(demo_repo, "status", "--porcelain") == ""


@pytest.mark.parametrize(
    "tracked, spec",
    [
        ({}, DEMO_SPEC),
        ({"BUILD_INFO": "source\n"}, replace(DEMO_SPEC, build_command="echo built > BUILD_INFO")),
        ({}, replace(DEMO_SPEC, poc_command="echo run >> poc.log; python3 poc.py")),
    ],
    ids=["plain", "build rewrites a tracked file", "poc writes an untracked log"],
)
def test_a_success_leaves_the_accepted_patch_in_the_checkout(demo_repo, tmp_path, tracked, spec):
    for rel, text in tracked.items():
        (demo_repo / rel).write_text(text)
        fx.git(demo_repo, "add", rel)
        fx.git(demo_repo, "commit", "-qm", rel)
    report, _, _ = run_scripted(demo_repo, tmp_path, fx.transcript_success, task=make_task(demo_repo, spec))
    assert report.outcome == "success"
    # What the accepted candidate's verification wrote is gone with the rest.
    assert fx.git(demo_repo, "diff") == report.final_diff
    assert fx.git(demo_repo, "status", "--porcelain") == " M app/buffer.py\n"


NO_LOCATION = {"phase": "locator", "attempt": 2, "turn": {"role": "assistant", "content": "?"}}
SLOW_ONCE_FIXED = "if grep -q 'exceeds capacity' app/buffer.py; then sleep 5; fi; python3 poc.py"


@pytest.mark.parametrize(
    "records, poc_command, reason",
    [
        (
            fx.locator_turns(1) + fx.patcher_turns(1, fx.BAD_NEW_NOT_FIXED)
            + fx.locator_turns(2) + fx.patcher_turns(2, fx.BAD_NEW_NOT_FIXED)
            + fx.locator_turns(3) + fx.patcher_turns(3, fx.BAD_NEW_NOT_FIXED),
            "python3 poc.py",
            "attempt cap of 3",
        ),
        (  # the edit is made, then the script ends
            fx.locator_turns(1) + fx.patcher_turns(1, fx.GOOD_NEW)[:1],
            "python3 poc.py",
            "GatewayExhausted",
        ),
        (
            fx.locator_turns(1) + fx.patcher_turns(1, fx.BAD_NEW_NOT_FIXED) + [NO_LOCATION],
            "python3 poc.py",
            "LocalizationFailure",
        ),
        (fx.locator_turns(1) + fx.patcher_turns(1, fx.GOOD_NEW), SLOW_ONCE_FIXED, "OracleTimeout"),
    ],
    ids=["attempt cap", "gateway exhausted", "localization failure", "oracle timeout"],
)
def test_every_other_ending_leaves_the_checkout_as_found(
    demo_repo, tmp_path, records, poc_command, reason
):
    for rel, data in {"keep.pyc": b"\x00kept\xff", "app/__pycache__/old.pyc": b"old"}.items():
        (demo_repo / rel).parent.mkdir(exist_ok=True)
        (demo_repo / rel).write_bytes(data)
    listed = fx.git(demo_repo, "ls-files", "-o", "-i", "--exclude-standard").split()
    ignored = {rel: (demo_repo / rel).read_bytes() for rel in listed}
    assert sorted(ignored) == ["app/__pycache__/old.pyc", "keep.pyc"]
    spec = OracleSpec(poc_command=poc_command, regression_command="python3 tests.py",
                      pass_predicates=DEMO_SPEC.pass_predicates)
    task = make_task(demo_repo, spec)
    task.oracle.command_timeout = 2
    report, _, _ = run_scripted(
        demo_repo, tmp_path, lambda path: fx.write_transcript(path, records), task=task
    )
    assert report.outcome == "exhausted" and reason in report.reason
    assert fx.git(demo_repo, "status", "--porcelain") == ""
    assert {rel: (demo_repo / rel).read_bytes() for rel in ignored} == ignored


def test_attempt_diffs_are_against_pristine(demo_repo, tmp_path):
    report, _, _ = run_scripted(demo_repo, tmp_path, fx.transcript_relocate_then_success)
    pristine = fx.init_repo(tmp_path / "pristine", dict(fx.DEMO_FILES))
    assert len(report.attempts) == 2
    for attempt in report.attempts:
        proc = subprocess.run(
            ["git", "apply", "--check", "-"],
            cwd=pristine, input=attempt["patch"], capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


def test_empty_patch_counts_as_failure_with_regenerate(demo_repo, tmp_path):
    records = fx.locator_turns(1)
    # patcher attempt 1 ends without making any edit
    records.append(
        {
            "phase": "patcher",
            "attempt": 1,
            "turn": {"role": "assistant", "content": "PATCH READY"},
        }
    )
    records += fx.patcher_turns(2, fx.GOOD_NEW)
    transcript = fx.write_transcript(tmp_path / "empty_patch.jsonl", records)

    task = make_task(demo_repo)
    store = MemoryStore()
    runner = SessionRunner(task, store, ScriptedGateway.from_file(transcript))
    try:
        report = runner.run()
    finally:
        task.workspace.close()
    assert report.outcome == "success"
    assert report.failed_attempts == 1
    # the empty candidate never reached the oracle
    assert task.oracle.check_vul_calls == 1
    verdict = report.attempts[0]["verdict"]
    assert verdict["vuln_mitigated"] is False and verdict["build_ok"] is True
    # no refinement entry: there is no failed patch text to learn from
    assert store.l3 == []


def test_a_fix_memory_refuses_stands_and_the_report_names_the_refusal(demo_repo, tmp_path):
    # A mode change has no text hunk, so the L2 entry fails its diff check.
    (demo_repo / "run.sh").write_text("#!/bin/sh\n")
    (demo_repo / "run.sh").chmod(0o755)
    fx.git(demo_repo, "add", "run.sh")
    fx.git(demo_repo, "commit", "-qm", "run.sh")
    spec = replace(DEMO_SPEC, poc_command=(
        "if [ -x run.sh ]; then echo 'ERROR: AddressSanitizer: run.sh is executable'; exit 1; fi"
    ))

    def transcript(path):
        chmod = {"phase": "patcher", "attempt": 1, "turn": {
            "role": "assistant", "content": "dropping the exec bit",
            "tool_calls": [{"name": "bash", "args": {"command": "chmod -x run.sh"}}],
        }}
        done = {"phase": "patcher", "attempt": 1, "turn": {"role": "assistant", "content": "PATCH READY"}}
        return fx.write_transcript(path, fx.locator_turns(1) + [chmod, done])

    report, _, store = run_scripted(demo_repo, tmp_path, transcript, task=make_task(demo_repo, spec))
    assert (report.outcome, report.failed_attempts) == ("success", 0)
    assert report.reason == "memory consolidation skipped: fix_patch is not a unified diff"
    assert "new mode 100644" in report.final_diff
    assert not os.access(demo_repo / "run.sh", os.X_OK)
    assert store.l2 == []


class FailingOnEmbedder:
    """The deterministic embedder, down for any text that holds `marker`."""

    dim = 64

    def __init__(self, marker: str) -> None:
        self.inner, self.marker = DeterministicEmbedder(), marker

    def embed(self, text: str):
        if self.marker in text:
            raise EmbeddingUnavailable("embedding request failed: backend down")
        return self.inner.embed(text)


CHMOD_POC = [
    {"phase": "patcher", "attempt": 1, "turn": {
        "role": "assistant", "content": "making the PoC executable",
        "tool_calls": [{"name": "bash", "args": {"command": "chmod +x poc.py"}}],
    }},
    {"phase": "patcher", "attempt": 1, "turn": {"role": "assistant", "content": "PATCH READY"}},
]


@pytest.mark.parametrize(
    "first_patch, marker, refusal",
    [
        # A mode change has no text hunk, so the L3 entry fails its diff check.
        (CHMOD_POC, None, "L3 entry not stored: fail_patch is not a unified diff"),
        # Only the L3 entry's patch text holds the lax guard.
        (fx.patcher_turns(1, fx.BAD_NEW_NOT_FIXED), "capacity * 8",
         "L3 entry not stored: embedding request failed: backend down"),
    ],
    ids=["memory refuses the failed candidate", "the embedder fails on the L3 entry"],
)
def test_a_refused_l3_entry_names_only_itself(demo_repo, tmp_path, caplog, first_patch, marker, refusal):
    def transcript(path):
        return fx.write_transcript(
            path,
            fx.locator_turns(1) + first_patch + fx.locator_turns(2) + fx.patcher_turns(2, fx.GOOD_NEW),
        )

    store = MemoryStore(embedder=CachingEmbedder(FailingOnEmbedder(marker))) if marker else MemoryStore()
    report, _, store = run_scripted(demo_repo, tmp_path, transcript, store=store)
    assert (report.outcome, report.failed_attempts) == ("success", 1)
    assert report.reason == refusal
    assert refusal in caplog.text and "not consolidated into memory" not in caplog.text
    assert [e.fix_patch for e in store.l2] == [report.final_diff] and store.l3 == []


@pytest.mark.parametrize(
    "tracked, spec",
    [
        ({}, replace(DEMO_SPEC, poc_command="echo run >> poc.log; python3 poc.py")),
        ({"BUILD_INFO": "source\n"}, replace(DEMO_SPEC, build_command="echo built > BUILD_INFO")),
    ],
    ids=["untracked log", "tracked file"],
)
def test_what_the_pristine_validation_writes_reaches_no_candidate(demo_repo, tmp_path, tracked, spec):
    for rel, text in tracked.items():
        (demo_repo / rel).write_text(text)
        fx.git(demo_repo, "add", rel)
        fx.git(demo_repo, "commit", "-qm", rel)
    task = make_task(demo_repo, spec)
    report, _, store = run_scripted(demo_repo, tmp_path, fx.transcript_relocate_then_success, task=task)
    assert (report.outcome, report.failed_attempts) == ("success", 1)
    patches = [a["patch"] for a in report.attempts] + [store.l2[0].fix_patch, store.l3[0].fail_patch]
    assert [diffutil.changed_files(p) for p in patches] == [["app/buffer.py"]] * 4
    assert diffutil.changed_files(store.l3[0].correction_delta) == ["app/buffer.py"]


@pytest.mark.parametrize("transcript, outcome", [
    (fx.transcript_success, "success"),
    (fx.transcript_relocate_then_success, "success"),
    (fx.transcript_regenerate_then_success, "success"),
    (fx.transcript_four_failures, "exhausted"),
], ids=["success", "relocate", "regenerate", "four failures"])
def test_a_session_restores_once_per_attempt_and_once_at_its_end(
    demo_repo, tmp_path, monkeypatch, transcript, outcome
):
    task = make_task(demo_repo)
    rollback, restored = task.workspace.rollback, []

    def counting_rollback(snapshot_id):
        restored.append(snapshot_id)
        return rollback(snapshot_id)

    monkeypatch.setattr(task.workspace, "rollback", counting_rollback)
    report, runner, _ = run_scripted(demo_repo, tmp_path, transcript, task=task)
    assert report.outcome == outcome
    final = runner.attempts[-1].tree if outcome == "success" else runner.pristine_id
    assert restored == [runner.pristine_id] * len(runner.attempts) + [final]


def test_two_failures_record_the_last_failed_candidate(demo_repo, tmp_path):
    def transcript(path):
        return fx.write_transcript(
            path,
            fx.locator_turns(1) + fx.patcher_turns(1, fx.BAD_NEW_NOT_FIXED)
            + fx.locator_turns(2) + fx.patcher_turns(2, fx.BAD_NEW_REGRESSION)
            + fx.patcher_turns(3, fx.GOOD_NEW),
        )

    report, runner, store = run_scripted(demo_repo, tmp_path, transcript)
    assert report.outcome == "success"
    assert runner.failed_attempts == 2
    first, second, accepted = (a["patch"] for a in report.attempts)
    assert first != second
    assert [e.fail_patch for e in store.l3] == [second]
    assert store.l2[0].fix_patch == accepted


def test_empty_candidate_after_a_failure_keeps_the_earlier_diff(demo_repo, tmp_path):
    def transcript(path):
        empty = {"phase": "patcher", "attempt": 2,
                 "turn": {"role": "assistant", "content": "PATCH READY"}}
        return fx.write_transcript(
            path,
            fx.locator_turns(1) + fx.patcher_turns(1, fx.BAD_NEW_REGRESSION)
            + [empty] + fx.patcher_turns(3, fx.GOOD_NEW),
        )

    report, runner, store = run_scripted(demo_repo, tmp_path, transcript)
    assert report.outcome == "success"
    assert report.failed_attempts == 2
    assert report.attempts[1]["patch"] == ""
    assert [e.fail_patch for e in store.l3] == [report.attempts[0]["patch"]]
    # the third patcher turn was shown the real failure, not the empty one
    prompts = [t["content"] for t in runner.trajectory
               if t["type"] == "turn" and "# Previous failed candidate" in t.get("content", "")]
    assert len(prompts) == 2
    assert all(report.attempts[0]["patch"] in p for p in prompts)


def test_locator_without_parseable_object_exhausts_session(demo_repo, tmp_path):
    records = [
        {
            "phase": "locator",
            "attempt": 1,
            "turn": {"role": "assistant", "content": "I cannot decide"},
        }
    ]
    transcript = fx.write_transcript(tmp_path / "noloc.jsonl", records)
    task = make_task(demo_repo)
    runner = SessionRunner(task, MemoryStore(), ScriptedGateway.from_file(transcript))
    try:
        report = runner.run()
    finally:
        task.workspace.close()
    assert report.outcome == "exhausted"
    assert "LocalizationFailure" in report.reason


def test_gateway_exhaustion_terminates_as_exhausted(demo_repo, tmp_path):
    transcript = fx.write_transcript(tmp_path / "empty.jsonl", [])
    task = make_task(demo_repo)
    runner = SessionRunner(task, MemoryStore(), ScriptedGateway.from_file(transcript))
    try:
        report = runner.run()
    finally:
        task.workspace.close()
    assert report.outcome == "exhausted"
    assert "GatewayExhausted" in report.reason


def test_trajectory_logs_tools_and_turns(demo_repo, tmp_path):
    _, runner, _ = run_scripted(demo_repo, tmp_path, fx.transcript_success)
    kinds = {t["type"] for t in runner.trajectory}
    assert kinds == {"turn", "tool"}
    tool_records = [t for t in runner.trajectory if t["type"] == "tool"]
    assert any(t["call"]["name"] == "iter_grep" for t in tool_records)
    assert any(t["call"]["name"] == "str_replace" for t in tool_records)
    for record in tool_records:
        assert set(record["call"]) == {"name", "args"}
        assert "ok" in record["result"] and "output" in record["result"]
    # serializable end to end
    json.dumps(runner.trajectory)


def test_every_tool_path_reports_its_error_kind_in_the_trajectory(demo_repo, tmp_path):
    def turn(phase: str, content: str, *calls: tuple[str, dict]) -> dict:
        rec = {"role": "assistant", "content": content}
        if calls:
            rec["tool_calls"] = [{"name": name, "args": args} for name, args in calls]
        return {"phase": phase, "attempt": 1, "turn": rec}

    window = {"path": "app/buffer.py", "line_start": "11", "line_end": "12"}
    records = [
        turn(
            "locator", "looking around",
            ("view", window),
            ("search", {"pattern": "def safe_copy", "path": "app"}),
            ("iter_grep", {"symbol": "no_such_symbol"}),
            ("view", {**window, "line_start": "eleven"}),
            ("teleport", {}),
        ),
        {"phase": "locator", "attempt": 1, "turn": {"role": "assistant", "tool_calls": [{"args": {}}]}},
        fx.locator_turns(1)[1],
        turn("patcher", "", ("create", {"path": "NOTES.txt", "text": "a\n"}),
             ("create", {"path": "NOTES.txt", "text": "b\n"})),
        turn("patcher", "", ("bash", {"command": "echo restarted", "restart": "true"})),
        fx.patcher_turns(1, fx.GOOD_NEW)[0],
        turn("patcher", "never read: the patcher is out of turns"),
    ]
    transcript = fx.write_transcript(tmp_path / "tools.jsonl", records)
    task = make_task(demo_repo)
    cfg = EngineConfig(gateway=GatewayConfig(max_turns=3))
    runner = SessionRunner(task, MemoryStore(), ScriptedGateway.from_file(transcript), cfg)
    try:
        report = runner.run()
    finally:
        task.workspace.close()

    assert report.outcome == "success"
    tools = [t for t in runner.trajectory if t["type"] == "tool"]
    assert [(t["call"]["name"], t["result"].get("error_kind")) for t in tools] == [
        ("view", None), ("search", None), ("iter_grep", "NoMatch"), ("view", "BadArguments"),
        ("teleport", "UnknownTool"), ("create", None), ("create", "AlreadyExists"),
        ("bash", None), ("str_replace", None),
    ]
    assert [line.split("\t")[0].strip() for line in tools[0]["result"]["output"].splitlines()] == [
        "11", "12"
    ]
    assert "== app/buffer.py:" in tools[1]["result"]["output"]
    assert tools[7]["result"]["output"].strip() == "restarted"
    contents = [t["content"] for t in runner.trajectory if t["type"] == "turn"]
    assert any(c.startswith("malformed tool call, ignored:") for c in contents)
    assert not any(c.startswith("never read") for c in contents)
    assert "NOTES.txt" in report.final_diff


def test_each_phase_runs_only_the_tools_it_offers(demo_repo, tmp_path):
    locator = fx.locator_turns(1)
    locator[0]["turn"]["tool_calls"] += [
        {"name": "create", "args": {"path": "FROM_LOCATOR.txt", "text": "stray\n"}},
        {"name": "bash", "args": {"command": "echo stray > from_locator_bash.txt"}},
    ]

    def transcript(path):
        return fx.write_transcript(path, locator + fx.patcher_turns(1, fx.GOOD_NEW))

    report, runner, _ = run_scripted(demo_repo, tmp_path, transcript)
    assert report.outcome == "success"
    tools = [t for t in runner.trajectory if t["type"] == "tool"]
    assert [(t["call"]["name"], t["result"].get("error_kind")) for t in tools] == [
        ("iter_grep", None), ("create", "UnknownTool"), ("bash", "UnknownTool"),
        ("str_replace", None),
    ]
    assert tools[1]["result"]["output"] == "unknown tool: create"
    assert not (demo_repo / "FROM_LOCATOR.txt").exists()
    assert not (demo_repo / "from_locator_bash.txt").exists()
    assert diffutil.changed_files(report.final_diff) == ["app/buffer.py"]


def test_live_verifier_turns_are_logged_and_counted(demo_repo, tmp_path):
    answer = "v" * 4_000

    class LiveGateway(ScriptedGateway):
        deterministic = False

        def complete(self, history, available_tools):
            if self._context[0] == "verifier":
                return ChatTurn(role="assistant", content=answer)
            return super().complete(history, available_tools)

    transcript = fx.transcript_success(tmp_path / "t.jsonl")
    cfg = EngineConfig(gateway=GatewayConfig(prompt_price_per_1k=0.5, completion_price_per_1k=2.0))
    runs = []
    for gateway, repo in ((ScriptedGateway, demo_repo),
                          (LiveGateway, fx.init_repo(tmp_path / "live", dict(fx.DEMO_FILES)))):
        task = make_task(repo)
        runner = SessionRunner(task, MemoryStore(), gateway.from_file(transcript), cfg)
        try:
            runs.append((runner.run(), runner.trajectory))
        finally:
            task.workspace.close()
    (scripted, _), (live, trajectory) = runs

    assert live.outcome == "success"
    system, user, reply = [t for t in trajectory if t["type"] == "turn"][-3:]
    assert (system["role"], user["role"], reply) == (
        "system", "user", {"type": "turn", "role": "assistant", "content": answer}
    )
    assert user["content"].startswith("# Accepted patch\n")
    assert live.completion_tokens == scripted.completion_tokens + len(answer) // 4
    verifier_prompt = (len(system["content"]) + len(user["content"])) // 4
    assert live.prompt_tokens == scripted.prompt_tokens + verifier_prompt
    assert live.cost_usd == pytest.approx(
        live.prompt_tokens / 1000 * 0.5 + live.completion_tokens / 1000 * 2.0
    )
    assert live.cost_usd > scripted.cost_usd


def test_memory_recency_touched_by_session(demo_repo, tmp_path, monkeypatch):
    store = MemoryStore()
    pooled = replace(seeded_l3_entry(), last_retrieved=1)
    # Another language: in neither pool of any of the session's queries.
    outside = replace(pooled, keys=replace(pooled.keys, language="c"))
    store.add(pooled)
    store.add(outside)
    store.completed_tasks = 3
    retrieved = []
    real_retrieve = retrieval.retrieve

    def spy(*args, **kwargs):
        ranked = real_retrieve(*args, **kwargs)
        retrieved.extend(r.entry for r in ranked)
        return ranked

    monkeypatch.setattr(retrieval, "retrieve", spy)
    report, _, _ = run_scripted(demo_repo, tmp_path, fx.transcript_regenerate_then_success, store=store)
    assert report.outcome == "success" and store.completed_tasks == 4
    assert any(e is pooled for e in retrieved) and all(e is not outside for e in retrieved)
    assert [e.last_retrieved for e in retrieved] == [3] * len(retrieved)
    assert outside.last_retrieved == 1


def copy_patch(guard: str) -> str:
    return (
        f"--- a/copy.py\n+++ b/copy.py\n@@ -1,2 +1,3 @@\n def copy(dst, src, n):\n"
        f"+    {guard}\n     dst[:n] = src[:n]\n"
    )


def pooled_l2(project: str, instance_id: str, description: str, guard: str) -> L2Entry:
    """An L2 entry in the demo task's P2 pool (same CWE and language)."""
    return L2Entry(
        keys=replace(fx.DEMO_KEYS, project=project, instance_id=instance_id,
                     description=description),
        fix_patch=copy_patch(guard),
        rationale="bound the copy by the destination's capacity",
    )


@pytest.mark.parametrize("shape,refinements", [
    (fx.transcript_success, 0),
    (fx.transcript_relocate_then_success, 1),
    (fx.transcript_regenerate_then_success, 1),
    (fx.transcript_four_failures, 2),  # the attempt cap stops it after three patches
])
def test_a_session_retrieves_l1_and_l2_once_and_l3_per_refinement(
    demo_repo, tmp_path, monkeypatch, shape, refinements
):
    tiers = Counter()
    real_retrieve = retrieval.retrieve

    def spy(store, tier, *args, **kwargs):
        tiers[tier] += 1
        return real_retrieve(store, tier, *args, **kwargs)

    monkeypatch.setattr(retrieval, "retrieve", spy)
    run_scripted(demo_repo, tmp_path, shape)
    assert tiers == Counter({"L1": 1, "L2": 1, "L3": refinements})


def test_a_sibling_consolidation_mid_session_does_not_reach_the_session(demo_repo, tmp_path):
    """In a parallel batch a sibling may consolidate while this session runs;
    the patcher still sees the memory the locator saw."""
    store = MemoryStore()
    store.add(pooled_l2("ringlib", "ringlib.cve-2021-3300",
                        "ring buffer write overruns its capacity", "n = min(n, len(dst))"))
    located, consolidated = threading.Event(), threading.Event()

    class PausesAfterLocating(ScriptedGateway):
        def complete(self, history, available_tools):
            reply = super().complete(history, available_tools)
            if self._context[0] == "locator" and not reply.tool_calls:
                located.set()
                assert consolidated.wait(10), "the sibling did not consolidate"
            return reply

    def sibling():
        located.wait(10)
        insert(store, pooled_l2("packetkit", "packetkit.cve-2023-4100",
                                "out-of-bounds write when the copy length exceeds the buffer",
                                "if n > len(dst): raise ValueError(n)"))
        consolidated.set()

    thread = threading.Thread(target=sibling)
    thread.start()
    task = make_task(demo_repo)
    transcript = fx.transcript_success(tmp_path / "transcript.jsonl")
    runner = SessionRunner(task, store, PausesAfterLocating.from_file(transcript))
    try:
        report = runner.run()
    finally:
        task.workspace.close()
        thread.join(10)
    assert located.is_set() and not thread.is_alive()
    assert report.outcome == "success" and len(store.l2) == 3  # seeded, sibling's, own
    blocks = [
        turn["content"].split("# Retrieved repair experience", 1)[1]
        for turn in runner.trajectory
        if turn.get("role") == "user" and turn["content"].startswith("# Task")
    ]
    assert len(blocks) == 2 and "ringlib.cve-2021-3300" in blocks[0]
    assert blocks[1] == blocks[0] and "packetkit" not in blocks[1]


def test_a_session_whose_pristine_check_fails_touches_no_memory(demo_repo, tmp_path):
    store = MemoryStore()
    pooled = [
        L1Entry(keys=replace(fx.DEMO_KEYS, instance_id="bufferkit.cve-2019-7001"),
                fix_patch=copy_patch("n = min(n, len(dst))"), last_retrieved=1),
        replace(pooled_l2("ringlib", "ringlib.cve-2021-3300", "copy overrun", "pass"),
                last_retrieved=1),
    ]
    for entry in pooled:
        store.add(entry)
    store.completed_tasks = 3
    passing_poc = replace(DEMO_SPEC, poc_command="python3 -c pass")
    task = make_task(demo_repo, passing_poc)
    transcript = fx.transcript_success(tmp_path / "transcript.jsonl")
    runner = SessionRunner(task, store, ScriptedGateway.from_file(transcript))
    try:
        with pytest.raises(PristineCheckFailed):
            runner.run()
    finally:
        task.workspace.close()
    assert [e.last_retrieved for e in pooled] == [1, 1] and store.completed_tasks == 3


def test_cost_accounting_uses_price_table(demo_repo, tmp_path):
    transcript = fx.transcript_success(tmp_path / "t.jsonl")
    task = make_task(demo_repo)
    cfg = EngineConfig(gateway=GatewayConfig(prompt_price_per_1k=0.5, completion_price_per_1k=2.0))
    runner = SessionRunner(task, MemoryStore(), ScriptedGateway.from_file(transcript), cfg)
    try:
        report = runner.run()
    finally:
        task.workspace.close()
    assert report.prompt_tokens > 0
    expected = (
        report.prompt_tokens / 1000 * 0.5 + report.completion_tokens / 1000 * 2.0
    )
    assert report.cost_usd == pytest.approx(expected)


def test_localization_accuracy_unknown_without_ground_truth(demo_repo, tmp_path):
    transcript = fx.transcript_success(tmp_path / "t.jsonl")
    task = make_task(demo_repo)
    task.ground_truth_files = None
    runner = SessionRunner(task, MemoryStore(), ScriptedGateway.from_file(transcript))
    try:
        report = runner.run()
    finally:
        task.workspace.close()
    assert report.localization_correct == "unknown"


def test_live_gateway_supplies_rationale_and_insight(demo_repo, tmp_path):
    class CannedLiveGateway(ScriptedGateway):
        deterministic = False

        def complete(self, history, available_tools):
            if self._context[0] == "verifier":
                return ChatTurn(role="assistant", content="model-written explanation")
            return super().complete(history, available_tools)

    transcript = fx.transcript_relocate_then_success(tmp_path / "t.jsonl")
    task = make_task(demo_repo)
    store = MemoryStore()
    runner = SessionRunner(task, store, CannedLiveGateway.from_file(transcript))
    try:
        report = runner.run()
    finally:
        task.workspace.close()
    assert report.outcome == "success"
    assert store.l2[0].rationale == "model-written explanation"
    assert store.l3[0].transition_insight == "model-written explanation"


def test_a_verifier_that_gets_no_reply_falls_back_to_the_templated_text(demo_repo, tmp_path):
    class SilentLiveGateway(ScriptedGateway):
        deterministic = False

        def complete(self, history, available_tools):
            if self._context[0] == "verifier":
                raise GatewayExhausted("no reply")
            return super().complete(history, available_tools)

    transcript = fx.transcript_relocate_then_success(tmp_path / "t.jsonl")
    task = make_task(demo_repo)
    store = MemoryStore()
    runner = SessionRunner(task, store, SilentLiveGateway.from_file(transcript))
    try:
        report = runner.run()
    finally:
        task.workspace.close()
    assert report.outcome == "success"
    accepted, failed = runner.attempts[-1], runner.attempts[0]
    assert store.l2[0].rationale == memory.default_rationale(accepted)
    assert store.l3[0].transition_insight == memory.default_insight(failed.patch, accepted.patch)


def test_scripted_gateway_uses_templated_consolidation_text(demo_repo, tmp_path):
    _, _, store = run_scripted(demo_repo, tmp_path, fx.transcript_relocate_then_success)
    assert "regression suite" in store.l2[0].rationale
    assert store.l3[0].transition_insight.startswith("replaced ")

