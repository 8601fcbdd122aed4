from __future__ import annotations

import contextlib
import json
import subprocess
import time

import pytest

from conftest import BAD_NEW_NOT_FIXED, BAD_NEW_REGRESSION, GOOD_NEW, REPLACE_OLD
from patchloop.errors import BuildToolMissing, OracleTimeout, PristineCheckFailed
from patchloop.oracle import (
    OracleRunner,
    OracleSpec,
    VerificationVerdict,
    parse_test_results,
    predicate_passes,
)

DEMO_SPEC = OracleSpec(
    poc_command="python3 poc.py",
    regression_command="python3 tests.py",
    pass_predicates={
        "poc_command": "sanitizer_clean",
        "regression_command": "exit_zero",
    },
)


def runner_for(repo) -> OracleRunner:
    runner = OracleRunner(repo, DEMO_SPEC, command_timeout=60, total_budget=300)
    runner.validate_pristine()
    return runner


def apply_fix(repo, new_text: str) -> None:
    path = repo / "app" / "buffer.py"
    path.write_text(path.read_text().replace(REPLACE_OLD, new_text, 1))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_exit_zero_predicate():
    assert predicate_passes("exit_zero", 0, "anything")
    assert not predicate_passes("exit_zero", 1, "")


def test_sanitizer_clean_predicate_requires_clean_log_too():
    assert predicate_passes("sanitizer_clean", 0, "all good")
    assert not predicate_passes("sanitizer_clean", 1, "all good")
    assert not predicate_passes(
        "sanitizer_clean", 0, "==1==ERROR: AddressSanitizer: heap-buffer-overflow"
    )


def test_unknown_predicate_rejected():
    with pytest.raises(ValueError):
        predicate_passes("always", 0, "")
    with pytest.raises(ValueError):
        OracleSpec(poc_command="x", regression_command="y",
                   pass_predicates={"poc_command": "nope"}).validate()


def test_parse_test_results():
    out = "PASS alpha\nsome noise\nFAIL beta (boom)\nok gamma\nnot ok delta\n"
    passing, failing = parse_test_results(out)
    assert passing == {"alpha", "gamma"}
    assert failing == {"beta", "delta"}


# ---------------------------------------------------------------------------
# check_vul on the demo fixture
# ---------------------------------------------------------------------------


def test_pristine_fixture_vulnerable_but_regressions_green(demo_repo):
    runner = runner_for(demo_repo)
    # the suite is green on the pristine tree: its baseline holds every demo test
    assert runner.baseline_passing == {"copies_payload", "tracks_length", "zero_length_copy"}
    assert runner.baseline_predicate_ok is True
    verdict = runner.check_vul()
    assert verdict.vuln_mitigated is False
    assert verdict.functionality_preserved is None  # behind a failing PoC the suite does not run
    assert verdict.build_ok is True
    assert "heap-buffer-overflow" in verdict.logs


@pytest.mark.parametrize("build_command", [None, "echo built"])
def test_a_failing_poc_runs_no_regression_command(demo_repo, build_command):
    spec = OracleSpec(
        poc_command="python3 poc.py",
        regression_command="touch suite_ran; python3 tests.py",
        build_command=build_command,
    )
    runner = OracleRunner(demo_repo, spec)
    runner.validate_pristine()  # the baseline runs the suite once
    (demo_repo / "suite_ran").unlink()
    apply_fix(demo_repo, BAD_NEW_NOT_FIXED)
    verdict = runner.check_vul()
    assert not (demo_repo / "suite_ran").exists()
    assert (verdict.vuln_mitigated, verdict.functionality_preserved, verdict.build_ok) == (False, None, True)
    assert '"functionality_preserved": null' in json.dumps(verdict.to_json())
    assert verdict.logs.startswith("$ echo built\nbuilt\n" if build_command else "$ python3 poc.py\n")
    assert "$ python3 poc.py\n" in verdict.logs and "heap-buffer-overflow" in verdict.logs
    assert "suite_ran" not in verdict.logs and "PASS" not in verdict.logs


def test_correct_patch_passes_both_checks(demo_repo):
    runner = runner_for(demo_repo)
    apply_fix(demo_repo, GOOD_NEW)
    verdict = runner.check_vul()
    assert (verdict.vuln_mitigated, verdict.functionality_preserved) == (True, True)


def test_destructive_patch_mitigates_but_regresses(demo_repo):
    runner = runner_for(demo_repo)
    apply_fix(demo_repo, BAD_NEW_REGRESSION)
    verdict = runner.check_vul()
    assert (verdict.vuln_mitigated, verdict.functionality_preserved) == (True, False)
    assert "FAIL" in verdict.logs


def test_check_vul_is_deterministic_on_unchanged_tree(demo_repo):
    runner = runner_for(demo_repo)
    first = runner.check_vul()
    second = runner.check_vul()
    assert first.to_json() == second.to_json()


def test_baseline_failing_tests_never_block_verdicts(demo_repo):
    # Seed a test that fails on pristine; it must stay out of scope.
    tests = (demo_repo / "tests.py").read_text()
    tests = tests.replace(
        'check("zero_length_copy", zero_length_copy),',
        'check("zero_length_copy", zero_length_copy),\n'
        '        check("known_bad", lambda: (_ for _ in ()).throw(AssertionError())),',
    )
    (demo_repo / "tests.py").write_text(tests)
    runner = runner_for(demo_repo)
    assert "known_bad" not in runner.baseline_passing
    assert runner.baseline_predicate_ok is False
    pristine = (demo_repo / "app" / "buffer.py").read_text()
    apply_fix(demo_repo, GOOD_NEW)
    verdict = runner.check_vul()
    assert verdict.functionality_preserved is True
    # A test that passed on pristine still counts, though the suite failed there.
    (demo_repo / "app" / "buffer.py").write_text(pristine)
    apply_fix(demo_repo, BAD_NEW_REGRESSION)
    assert runner.check_vul().functionality_preserved is False


def test_without_pass_lines_the_regression_exit_code_decides(demo_repo):
    # The suite prints nothing and fails once `broken` exists.
    spec = OracleSpec(poc_command="python3 poc.py", regression_command="test ! -e broken")
    runner = OracleRunner(demo_repo, spec)
    runner.validate_pristine()
    assert runner.baseline_passing == set() and runner.baseline_predicate_ok is True
    apply_fix(demo_repo, GOOD_NEW)
    assert runner.check_vul().functionality_preserved is True
    (demo_repo / "broken").write_text("")
    assert runner.check_vul().functionality_preserved is False


def test_a_suite_failing_on_pristine_with_no_pass_lines_cannot_regress(demo_repo):
    spec = OracleSpec(poc_command="python3 poc.py", regression_command="echo no tests; exit 1")
    runner = OracleRunner(demo_repo, spec)
    runner.validate_pristine()
    assert runner.baseline_passing == set() and runner.baseline_predicate_ok is False
    apply_fix(demo_repo, GOOD_NEW)
    verdict = runner.check_vul()
    assert verdict.vuln_mitigated is True and verdict.functionality_preserved is True


def test_pristine_validation_rejects_nonfailing_poc(demo_repo):
    apply_fix(demo_repo, GOOD_NEW)  # repo already fixed: nothing to repair
    runner = OracleRunner(demo_repo, DEMO_SPEC)
    with pytest.raises(PristineCheckFailed):
        runner.validate_pristine()


def test_build_failure_fails_everything(demo_repo):
    spec = OracleSpec(
        poc_command="python3 poc.py",
        regression_command="python3 tests.py",
        build_command="python3 -c 'import sys; sys.exit(1)'",
    )
    runner = OracleRunner(demo_repo, spec)
    runner.baseline_passing = {"copies_payload"}
    verdict = runner.check_vul()
    assert verdict.build_ok is False
    assert verdict.vuln_mitigated is False
    assert verdict.functionality_preserved is False


def test_command_timeout_raises(demo_repo):
    spec = OracleSpec(poc_command="sleep 20", regression_command="true")
    runner = OracleRunner(demo_repo, spec, command_timeout=1)
    with pytest.raises(OracleTimeout):
        runner.run_poc()


@pytest.mark.parametrize(
    "command_timeout, total_budget, message",
    [(0.2, 60, "command exceeded 0.2s: sleep 3"),
     (600, 1, "command exceeded the oracle budget of 1s: sleep 3")],
    ids=["per-command timeout", "total budget"],
)
def test_a_timeout_names_the_limit_that_stopped_the_command(
    demo_repo, command_timeout, total_budget, message
):
    spec = OracleSpec(poc_command="sleep 3", regression_command="true")
    runner = OracleRunner(demo_repo, spec, command_timeout=command_timeout, total_budget=total_budget)
    with pytest.raises(OracleTimeout) as info:
        runner.run_poc()
    assert str(info.value) == message


def test_a_build_failing_on_the_pristine_repo_is_refused(demo_repo):
    spec = OracleSpec(
        poc_command="python3 poc.py",
        regression_command="python3 tests.py",
        build_command="echo broken build; exit 1",
    )
    runner = OracleRunner(demo_repo, spec)
    with pytest.raises(PristineCheckFailed, match="build fails on pristine repo:\nbroken build"):
        runner.validate_pristine()
    assert runner.pristine_poc is None and runner.baseline_passing is None


def test_non_utf8_output_is_decoded_with_replacement(demo_repo):
    spec = OracleSpec(poc_command="printf '\\377\\376 bad\\n'; exit 1", regression_command="true")
    assert OracleRunner(demo_repo, spec).run_poc() == (1, "\ufffd\ufffd bad\n")


@pytest.mark.parametrize("stop", ["timeout", "interrupt"])
def test_stopped_command_takes_its_grandchildren_down(demo_repo, monkeypatch, stop):
    # The inner sh is a grandchild of the oracle; killing only the outer
    # shell would leave it to write into the checkout after the call.
    spec = OracleSpec(
        poc_command="sh -c 'sleep 0.6; touch orphan_wrote_this'; exit 1",
        regression_command="true",
    )
    runner = OracleRunner(demo_repo, spec, command_timeout=0.2 if stop == "timeout" else 60)
    expected = OracleTimeout
    if stop == "interrupt":
        communicate = subprocess.Popen.communicate

        def interrupted(self, *args, **kwargs):
            with contextlib.suppress(subprocess.TimeoutExpired):
                communicate(self, timeout=0.2)
            raise KeyboardInterrupt

        monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
        expected = KeyboardInterrupt
    with pytest.raises(expected):
        runner.run_poc()
    time.sleep(1.0)
    assert not (demo_repo / "orphan_wrote_this").exists()


def test_total_budget_enforced(demo_repo):
    runner = OracleRunner(demo_repo, DEMO_SPEC, total_budget=0.000001)
    runner.elapsed = 1.0
    with pytest.raises(OracleTimeout):
        runner.check_vul()


def test_missing_tool_raises(demo_repo):
    spec = OracleSpec(poc_command="definitely_not_a_command_xyz", regression_command="true")
    runner = OracleRunner(demo_repo, spec)
    with pytest.raises(BuildToolMissing):
        runner.run_poc()


def test_verdict_json_shape():
    verdict = VerificationVerdict(True, False, True, "logs here")
    assert verdict.to_json() == {
        "vuln_mitigated": True,
        "functionality_preserved": False,
        "build_ok": True,
        "logs": "logs here",
    }
