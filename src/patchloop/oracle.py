"""Verification oracle: reproduction command plus regression suite.

A task ships a reproduction (PoC) command, a regression command, and an
optional build command, each with a pass predicate. Every command is run
and judged in one step: the command, its exit code and output, and whether
its predicate holds. ``check_vul`` takes those steps against the current
workspace, build, PoC and suite in that order, and reports whether the
vulnerability is mitigated and whether previously-passing regression tests
still pass. It stops at the first command whose answer settles the route: a
failing build, or a PoC that still fails, since a persisting vulnerability
sends the candidate back to localization whatever the suite says. The
baseline pass set is computed once on the pristine checkout; tests already
failing there are out of scope and never surface in verdicts.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import BuildToolMissing, OracleTimeout, PristineCheckFailed
from .workspace import cap_output

DEFAULT_COMMAND_TIMEOUT = 600.0
DEFAULT_TOTAL_BUDGET = 1800.0

SANITIZER_MARKERS = (
    "ERROR: AddressSanitizer",
    "ERROR: LeakSanitizer",
    "ERROR: MemorySanitizer",
    "ERROR: UndefinedBehaviorSanitizer",
    "SUMMARY: AddressSanitizer",
)

EXIT_ZERO = "exit_zero"
SANITIZER_CLEAN = "sanitizer_clean"


def predicate_passes(predicate: str, exit_code: int, output: str) -> bool:
    if predicate == EXIT_ZERO:
        return exit_code == 0
    if predicate == SANITIZER_CLEAN:
        # Sanitizers may exit 0 under some configs; require a clean log too.
        return exit_code == 0 and not any(m in output for m in SANITIZER_MARKERS)
    raise ValueError(f"unknown pass predicate: {predicate!r}")


_PASS_LINE_RE = re.compile(r"^(?:PASS|ok)[:\s]+(\S+)", re.MULTILINE)
_FAIL_LINE_RE = re.compile(r"^(?:FAIL|not ok)[:\s]+(\S+)", re.MULTILINE)


def parse_test_results(output: str) -> tuple[set[str], set[str]]:
    """Extract (passing, failing) test names from PASS/FAIL-style lines."""
    return set(_PASS_LINE_RE.findall(output)), set(_FAIL_LINE_RE.findall(output))


# The commands a task may give a pass predicate, each with its default.
_DEFAULT_PREDICATES = {
    "poc_command": SANITIZER_CLEAN,
    "regression_command": EXIT_ZERO,
    "build_command": EXIT_ZERO,
}


@dataclass
class OracleSpec:
    poc_command: str
    regression_command: str
    build_command: str | None = None
    pass_predicates: dict[str, str] = field(default_factory=dict)

    def predicate(self, which: str) -> str:
        return self.pass_predicates.get(which, _DEFAULT_PREDICATES[which])

    def validate(self) -> None:
        if not isinstance(self.pass_predicates, dict):
            raise ValueError("pass_predicates must be a JSON object")
        if not self.poc_command.strip():
            raise ValueError("poc_command must be non-empty")
        unknown = sorted(self.pass_predicates.keys() - _DEFAULT_PREDICATES.keys())
        if unknown:
            raise ValueError(
                f"unknown pass_predicates key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(_DEFAULT_PREDICATES)}"
            )
        for which in _DEFAULT_PREDICATES:
            predicate_passes(self.predicate(which), 0, "")


@dataclass
class VerificationVerdict:
    vuln_mitigated: bool
    functionality_preserved: bool | None  # None: the suite was not run
    build_ok: bool
    logs: str

    def to_json(self) -> dict:
        return asdict(self)


def _run_group(command: str, cwd: Path, timeout: float) -> tuple[int, str]:
    """Run a shell command in a process group of its own; returns its exit
    code and stdout followed by stderr, decoded as UTF-8 with undecodable
    bytes replaced.

    On a timeout (``subprocess.TimeoutExpired``) or any other exception while
    waiting, ``KeyboardInterrupt`` included, the whole group is killed and
    reaped before the exception propagates, so no grandchild can write to
    the checkout after the call returns.
    """
    with subprocess.Popen(
        command,
        shell=True,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        encoding="utf-8",
        errors="replace",
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            raise  # Popen.__exit__ closes the pipes and reaps the shell
    return proc.returncode, stdout + stderr


class OracleRunner:
    """Runs the oracle for one task; caches the pristine baseline."""

    def __init__(
        self,
        root: Path,
        spec: OracleSpec,
        command_timeout: float = DEFAULT_COMMAND_TIMEOUT,
        total_budget: float = DEFAULT_TOTAL_BUDGET,
    ) -> None:
        self.root = Path(root)
        self.spec = spec
        self.command_timeout = command_timeout
        self.total_budget = total_budget
        self.elapsed = 0.0
        self.baseline_passing: set[str] | None = None
        self.baseline_predicate_ok: bool | None = None
        # (exit code, output) of the PoC on the pristine tree, kept by
        # validate_pristine so the locator never has to run it again.
        self.pristine_poc: tuple[int, str] | None = None

    def _run(self, command: str) -> tuple[int, str]:
        if self.elapsed >= self.total_budget:
            raise OracleTimeout(f"oracle budget of {self.total_budget:g}s exhausted")
        left = self.total_budget - self.elapsed
        started = time.monotonic()
        try:
            code, output = _run_group(command, self.root, min(self.command_timeout, left))
        except subprocess.TimeoutExpired as exc:
            limit = (f"{self.command_timeout:g}s" if self.command_timeout <= left
                     else f"the oracle budget of {self.total_budget:g}s")
            raise OracleTimeout(f"command exceeded {limit}: {command}") from exc
        finally:
            self.elapsed += time.monotonic() - started
        if code == 127:
            raise BuildToolMissing(f"command not found: {command}")
        return code, output

    def _judge(self, which: str) -> tuple[bool, int, str]:
        """Run the spec's `which` command and judge it by its pass predicate;
        returns whether the predicate holds, the exit code and the output."""
        code, out = self._run(getattr(self.spec, which))
        return predicate_passes(self.spec.predicate(which), code, out), code, out

    def run_poc(self) -> tuple[int, str]:
        """Run the reproduction command alone on the current tree. Sessions
        take their crash evidence from ``pristine_poc`` instead."""
        return self._run(self.spec.poc_command)

    def validate_pristine(self) -> None:
        """Check the PoC fails on the untouched repo and record the baseline
        regression pass set. Must run before any candidate is applied."""
        if self.spec.build_command:
            ok, _, out = self._judge("build_command")
            if not ok:
                raise PristineCheckFailed(f"build fails on pristine repo:\n{cap_output(out, 2000)}")
        ok, code, out = self._judge("poc_command")
        self.pristine_poc = (code, out)
        if ok:
            raise PristineCheckFailed(
                "reproduction command passes on the pristine repo; nothing to fix"
            )
        self.baseline_predicate_ok, _, out = self._judge("regression_command")
        self.baseline_passing, _ = parse_test_results(out)

    def check_vul(self) -> VerificationVerdict:
        """Run build, PoC, and regression suite against the current tree.
        The suite runs only behind a passing PoC; a PoC that still fails
        returns at once, with ``functionality_preserved`` None and the build
        and PoC output as its logs."""
        logs: list[str] = []

        def step(which: str) -> tuple[bool, str]:
            ok, _, out = self._judge(which)
            logs.append(f"$ {getattr(self.spec, which)}\n{out}")
            return ok, out

        if self.spec.build_command and not step("build_command")[0]:
            verdict = (False, False, False)
        elif not step("poc_command")[0]:
            verdict = (False, None, True)
        else:
            ok, out = step("regression_command")
            if self.baseline_passing:
                preserved = self.baseline_passing <= parse_test_results(out)[0]
            else:  # the predicate decides; a suite failing on the pristine repo cannot regress
                preserved = ok or not self.baseline_predicate_ok
            verdict = (True, preserved, True)
        return VerificationVerdict(*verdict, cap_output("\n".join(logs)))
