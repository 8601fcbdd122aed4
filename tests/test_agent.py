from __future__ import annotations

import json
import subprocess

import pytest

import conftest as fx
from patchloop.agent import (
    EngineLimits,
    RepairTask,
    SessionRunner,
    Transition,
    decide_transition,
    extract_localization,
)
from patchloop.errors import BuildToolMissing, WorkspaceError
from patchloop.gateway import DEFAULT_PROMPT_BUDGET, ChatTurn, ScriptedGateway
from patchloop.memory import (
    L3Entry,
    MemoryStore,
    RetrievalKeys,
    insert,
)
from patchloop.oracle import OracleRunner, OracleSpec, VerificationVerdict
from patchloop.session import Outcome
from patchloop.workspace import Workspace


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
    oracle = OracleRunner(repo, spec, command_timeout=60, total_budget=600)
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
    assert runner.session.outcome == Outcome.SUCCESS
    assert runner.session.failed_attempts == 1


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

    def broken_rollback(snapshot_id):
        raise WorkspaceError("rollback failed")

    monkeypatch.setattr(task.workspace, "rollback", broken_rollback)
    with pytest.raises(BuildToolMissing):
        run_scripted(demo_repo, tmp_path, fx.transcript_success, task=task)


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


def test_memory_recency_touched_by_session(demo_repo, tmp_path):
    store = MemoryStore()
    insert(store, seeded_l3_entry())
    before = dict(store.retrieval_log)
    run_scripted(demo_repo, tmp_path, fx.transcript_regenerate_then_success, store=store)
    assert store.completed_tasks == 1
    assert store.retrieval_log != before or store.completed_tasks == 1


def test_cost_accounting_uses_price_table(demo_repo, tmp_path):
    transcript = fx.transcript_success(tmp_path / "t.jsonl")
    task = make_task(demo_repo)
    limits = EngineLimits(prompt_price_per_1k=0.5, completion_price_per_1k=2.0)
    runner = SessionRunner(task, MemoryStore(), ScriptedGateway.from_file(transcript), limits)
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


def test_scripted_gateway_uses_templated_consolidation_text(demo_repo, tmp_path):
    _, _, store = run_scripted(demo_repo, tmp_path, fx.transcript_relocate_then_success)
    assert "regression suite" in store.l2[0].rationale
    assert store.l3[0].transition_insight.startswith("replaced ")


def test_run_session_convenience_wrapper(demo_repo, tmp_path):
    from patchloop.agent import run_session

    transcript = fx.transcript_success(tmp_path / "t.jsonl")
    task = make_task(demo_repo)
    try:
        report, session, trajectory = run_session(
            task, MemoryStore(), ScriptedGateway.from_file(transcript)
        )
    finally:
        task.workspace.close()
    assert report.outcome == "success"
    assert session.outcome == Outcome.SUCCESS
    assert trajectory and trajectory[0]["type"] == "turn"
