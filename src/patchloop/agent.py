"""Session orchestration: locate, patch, verify, refine.

One session runs a closed loop over three phases. The locator reads the
runtime crash evidence and names a target location; the patcher edits the
workspace and yields a candidate diff against the pristine snapshot; the
verifier runs the oracle and routes the result:

  * both checks pass            -> Success (session ends, memory updated)
  * vulnerability persists      -> Relocate (back to the locator)
  * fixed but regression broken -> Regenerate (patch again at the same spot)

Every failed attempt is compressed into a three-field summary that feeds
the next iteration's prompts, and the workspace is rolled back to pristine
so each candidate diff stands alone. Because every locate therefore sees
the pristine tree, its crash evidence is the PoC run the oracle made while
validating the pristine checkout, parsed and bounded once per session. The
loop stops after a fixed number of failed attempts.
Whatever ends a session, the checkout is left as the session found it.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict, dataclass, field
from enum import Enum

from . import diffutil, memory, retrieval
from .errors import (
    GatewayExhausted,
    LocalizationFailure,
    MalformedToolCall,
    NoMatch,
    OracleTimeout,
)
from .gateway import DEFAULT_PROMPT_BUDGET, ChatTurn, render_prompt
from .localizer import (
    CrashReport,
    LocalizationObject,
    SymbolIndex,
    index_repository,
    iter_grep,
    parse_crash_report,
)
from .memory import MemoryStore, RetrievalKeys
from .oracle import OracleRunner, VerificationVerdict
from .session import Attempt, Outcome, RepairSession
from .workspace import (
    ToolCall,
    ToolResult,
    Workspace,
    cap_output,
    log_compress,
    tool_log_record,
)

logger = logging.getLogger(__name__)

DEFAULT_ATTEMPT_CAP = 3

LOCATOR_TOOLS = ("iter_grep", "view", "search")
PATCHER_TOOLS = ("view", "search", "create", "str_replace", "bash")

_TOOL_SCHEMAS = {
    "iter_grep": {"symbol": "symbol name to locate"},
    "view": {"path": "file or directory", "line_start": "optional", "line_end": "optional"},
    "search": {"pattern": "regex", "path": "optional search root"},
    "create": {"path": "new file path", "text": "file contents"},
    "str_replace": {"path": "file", "old": "exact unique text", "new": "replacement"},
    "bash": {"command": "shell command", "restart": "optional bool"},
}


def tool_schemas(names: tuple[str, ...]) -> list[dict]:
    return [
        {
            "type": "function",
            "function": {
                "name": name,
                "parameters": {
                    "type": "object",
                    "properties": {k: {"type": "string", "description": v}
                                   for k, v in _TOOL_SCHEMAS[name].items()},
                },
            },
        }
        for name in names
    ]


class Transition(str, Enum):
    SUCCESS = "success"
    RELOCATE = "relocate"
    REGENERATE = "regenerate"


def decide_transition(verdict: VerificationVerdict) -> Transition:
    """Route a verdict; a persisting vulnerability always outranks regressions."""
    if verdict.vuln_mitigated and verdict.functionality_preserved:
        return Transition.SUCCESS
    if not verdict.vuln_mitigated:
        return Transition.RELOCATE
    return Transition.REGENERATE


@dataclass
class RepairTask:
    workspace: Workspace
    oracle: OracleRunner
    keys: RetrievalKeys
    ground_truth_files: list[str] | None = None


@dataclass
class EngineLimits:
    attempt_cap: int = DEFAULT_ATTEMPT_CAP
    max_turns: int = 30
    prompt_budget: int = DEFAULT_PROMPT_BUDGET
    log_budget: int = 4_000
    k_min: int = retrieval.DEFAULT_K_MIN
    top_n: int = retrieval.DEFAULT_TOP_N
    prompt_price_per_1k: float = 0.0
    completion_price_per_1k: float = 0.0


@dataclass
class SessionReport:
    outcome: str
    failed_attempts: int
    final_diff: str
    attempts: list[dict] = field(default_factory=list)
    localization_correct: bool | str = "unknown"
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_usd: float = 0.0
    reason: str = ""

    def to_json(self) -> dict:
        return {**asdict(self), "cost_usd": round(self.cost_usd, 6)}


_JSON_OBJ_RE = re.compile(r"\{")


def extract_localization(text: str) -> LocalizationObject | None:
    """Pull the first JSON object carrying a file/line target out of a turn."""
    decoder = json.JSONDecoder()
    for m in _JSON_OBJ_RE.finditer(text):
        try:
            obj, _ = decoder.raw_decode(text[m.start():])
        except json.JSONDecodeError:
            continue
        if not isinstance(obj, dict) or "file" not in obj:
            continue
        try:
            if "line_start" in obj and "line_end" in obj:
                start, end = int(obj["line_start"]), int(obj["line_end"])
            elif "line_range" in obj:
                start, end = int(obj["line_range"][0]), int(obj["line_range"][1])
            else:
                continue
        except (TypeError, ValueError, LookupError, OverflowError):  # not line numbers
            continue
        return LocalizationObject(
            file=str(obj["file"]),
            line_range=(start, end),
            reason=str(obj.get("reason", "")),
            rank=1,
        )
    return None


class SessionRunner:
    """Drives one repair session to Success or Exhausted."""

    def __init__(
        self,
        task: RepairTask,
        store: MemoryStore,
        gateway,
        limits: EngineLimits | None = None,
    ) -> None:
        self.task = task
        self.store = store
        self.gateway = gateway
        self.limits = limits or EngineLimits()
        self.session = RepairSession(keys=task.keys)
        self.trajectory: list[dict] = []
        self.prompt_tokens = 0
        self.completion_tokens = 0
        self.pristine_id: str | None = None
        self._index: SymbolIndex | None = None
        self._crash: CrashReport | None = None
        self._evidence: str | None = None
        self._visited: list[tuple[str, tuple[int, int]]] = []

    # -- plumbing -----------------------------------------------------------

    @property
    def index(self) -> SymbolIndex:
        if self._index is None:
            self._index = index_repository(self.task.workspace.root)
        return self._index

    def _log_turn(self, turn: ChatTurn) -> None:
        self.trajectory.append({"type": "turn", **turn.to_json()})

    def _log_tool(self, call: ToolCall, result: ToolResult) -> None:
        self.trajectory.append({"type": "tool", **tool_log_record(call, result)})

    def _dispatch(self, call: ToolCall) -> ToolResult:
        ws = self.task.workspace
        args = call.args
        try:
            if call.name == "view":
                window = None
                if "line_start" in args and "line_end" in args:
                    window = (int(args["line_start"]), int(args["line_end"]))
                    self._visited.append((str(args.get("path", "")), window))
                return ws.view(str(args.get("path", "")), window)
            if call.name == "search":
                return ws.search(str(args.get("pattern", "")), str(args.get("path", ".")))
            if call.name == "create":
                return ws.create(str(args.get("path", "")), str(args.get("text", "")))
            if call.name == "str_replace":
                return ws.str_replace(
                    str(args.get("path", "")), str(args.get("old", "")), str(args.get("new", ""))
                )
            if call.name == "bash":
                restart = str(args.get("restart", "")).lower() in ("1", "true", "yes")
                return ws.bash(str(args.get("command", "")), restart=restart)
            if call.name == "iter_grep":
                try:
                    objs = iter_grep(self.index, str(args.get("symbol", "")), self._crash)
                except NoMatch as exc:
                    return ToolResult(False, str(exc), "NoMatch")
                for obj in objs:
                    self._visited.append((obj.file, obj.line_range))
                return ToolResult(True, json.dumps([o.to_json() for o in objs], indent=1))
            return ToolResult(False, f"unknown tool: {call.name}", "UnknownTool")
        except (ValueError, TypeError) as exc:
            return ToolResult(False, f"bad arguments for {call.name}: {exc}", "BadArguments")

    def _drive_phase(
        self, phase: str, attempt: int, system: ChatTurn, user: ChatTurn, tools: tuple[str, ...]
    ) -> ChatTurn | None:
        """Run the model/tool loop for one phase; returns the final plain turn."""
        self.gateway.set_context(phase, attempt)
        history = [system, user]
        self._log_turn(system)
        self._log_turn(user)
        schemas = tool_schemas(tools)
        for _ in range(self.limits.max_turns):
            self.prompt_tokens += sum(len(t.content) for t in history) // 4
            try:
                reply = self.gateway.complete(history, schemas)
            except MalformedToolCall as exc:
                note = ChatTurn(role="user", content=f"malformed tool call, ignored: {exc}")
                history.append(note)
                self._log_turn(note)
                continue
            self.completion_tokens += len(reply.content) // 4
            history.append(reply)
            self._log_turn(reply)
            if not reply.tool_calls:
                return reply
            for i, call in enumerate(reply.tool_calls):
                result = self._dispatch(call)
                self._log_tool(call, result)
                tool_turn = ChatTurn(role="tool", content=result.output, tool_call_id=f"call_{i}")
                history.append(tool_turn)
        return None

    def _retrieve(self, tier: str, override: str | None = None):
        query = retrieval.Query(
            keys=self.task.keys, k_min=self.limits.k_min, top_n=self.limits.top_n
        )
        ranked = retrieval.retrieve(self.store, tier, query, query_text_override=override)
        self.store.touch([r.entry for r in ranked])
        return ranked

    def _task_text(self, extra: str = "") -> str:
        keys = self.task.keys
        parts = [
            "# Task",
            f"project={keys.project} cwe={keys.cwe} language={keys.language} id={keys.instance_id}",
            f"description: {keys.description}",
        ]
        if extra:
            parts.append(extra)
        return "\n".join(parts)

    def _ask_verifier(self, question: str, fallback: str) -> str:
        system, user = render_prompt(
            "verifier", question, [], budget=self.limits.prompt_budget
        )
        self.gateway.set_context("verifier", self.session.failed_attempts + 1)
        try:
            reply = self.gateway.complete([system, user], [])
        except (GatewayExhausted, MalformedToolCall):
            return fallback
        return reply.content.strip() or fallback

    def _live_rationale(self, session) -> str:
        question = (
            f"# Accepted patch\n{session.final_patch}\n"
            f"# Verification log\n{session.attempts[-1].verdict.logs[-2000:]}"
        )
        return self._ask_verifier(question, memory.default_rationale(session))

    def _live_insight(self, fail_patch: str, accepted: str) -> str:
        question = (
            f"# Rejected candidate\n{fail_patch}\n# Accepted patch\n{accepted}\n"
            "State the rule that turned the rejected candidate into the accepted one."
        )
        return self._ask_verifier(question, memory.default_insight(fail_patch, accepted))

    # -- phases ---------------------------------------------------------------

    def _runtime_evidence(self) -> str:
        """The PoC run ``validate_pristine`` kept, rendered once per session:
        every locate runs on the pristine tree, so that run stands for all
        of them. A crash report longer than half the prompt budget becomes
        its parsed frames followed by a head/tail excerpt of the output, so
        the frames survive the cut."""
        if self._evidence is None:
            _, output = self.task.oracle.pristine_poc
            self._crash = crash = parse_crash_report(output)
            cap = self.limits.prompt_budget // 2
            if crash is None:
                body = output[-2000:] or "(no output)"
            elif len(output) <= cap:
                body = output
            else:
                frames = cap_output("\n".join(
                    f"#{i} in {f.function} {f.file}:{f.line}" for i, f in enumerate(crash.frames)
                ), cap // 2)
                body = f"{frames}\n{cap_output(output, cap - len(frames) - 1)}"
            self._evidence = "# Runtime evidence\n" + body
        return self._evidence

    def locate(self) -> LocalizationObject:
        attempt = self.session.failed_attempts + 1
        evidence = self._runtime_evidence()
        memories = self._retrieve("L1") + self._retrieve("L2")
        system, user = render_prompt(
            "locator",
            self._task_text(evidence),
            memories,
            self.session.compressed,
            budget=self.limits.prompt_budget,
        )
        final = self._drive_phase("locator", attempt, system, user, LOCATOR_TOOLS)
        loc = extract_localization(final.content) if final else None
        if loc is None:
            raise LocalizationFailure(f"no parseable location after locator attempt {attempt}")
        self._visited.append((loc.file, loc.line_range))
        return loc

    def patch(self, loc: LocalizationObject) -> tuple[str, str]:
        """Drive the patcher; returns the candidate's tree id and its diff
        against the pristine snapshot."""
        attempt = self.session.failed_attempts + 1
        failed = self.session.last_failed
        failed_patch = failed.patch if failed else None
        memories = self._retrieve("L1") + self._retrieve("L2")
        if failed_patch:
            memories += self._retrieve("L3", override=failed_patch)
        target = (
            f"# Target location\n{loc.file}:{loc.line_range[0]}-{loc.line_range[1]}"
            f" ({loc.reason})"
        )
        if failed_patch:
            target += f"\n# Previous failed candidate\n{failed_patch}"
        system, user = render_prompt(
            "patcher",
            self._task_text(target),
            memories,
            self.session.compressed,
            budget=self.limits.prompt_budget,
        )
        self._drive_phase("patcher", attempt, system, user, PATCHER_TOOLS)
        return self.task.workspace.submit(self.pristine_id)

    def verify(self, candidate: str) -> tuple[VerificationVerdict, Transition]:
        """Judge a candidate. Empty candidates never reach the oracle; they
        count as a failed attempt routed back to the patcher."""
        if not candidate.strip():
            verdict = VerificationVerdict(
                vuln_mitigated=False,
                functionality_preserved=False,
                build_ok=True,
                logs="empty patch: the patcher made no edits",
            )
            return verdict, Transition.REGENERATE
        verdict = self.task.oracle.check_vul()
        return verdict, decide_transition(verdict)

    # -- main loop ------------------------------------------------------------

    def run(self) -> SessionReport:
        ws = self.task.workspace
        self.pristine_id = ws.snapshot()
        try:
            self.task.oracle.validate_pristine()
            reason = self._loop()
        except BaseException:
            # Leave the checkout as found, then let the caller see the
            # original error: a failing rollback is logged, never raised.
            try:
                ws.rollback(self.pristine_id)
            except Exception:
                logger.exception("could not restore snapshot %s", self.pristine_id)
            raise
        return self._report(reason)

    def _loop(self) -> str:
        """Run attempts until Success or Exhausted; returns the stop reason.
        The expected ways a session ends roll back here; anything else
        propagates to ``run``."""
        session = self.session
        ws = self.task.workspace
        reason = ""
        relocate = True
        try:
            while True:
                if relocate:
                    session.current_loc = self.locate()
                tree, candidate = self.patch(session.current_loc)
                verdict, transition = self.verify(candidate)
                session.attempts.append(Attempt(
                    patch=candidate, verdict=verdict, tree=tree, localization=session.current_loc
                ))
                logger.info(
                    "attempt %d verdict mitigated=%s preserved=%s -> %s",
                    len(session.attempts), verdict.vuln_mitigated,
                    verdict.functionality_preserved, transition.value,
                )
                if transition == Transition.SUCCESS:
                    session.outcome = Outcome.SUCCESS
                    # Deterministic backends use templated consolidation
                    # text; a live model is asked to explain the fix instead.
                    live = not getattr(self.gateway, "deterministic", True)
                    memory.consolidate_success(
                        self.store, session, ws.diff,
                        self._live_rationale if live else None,
                        self._live_insight if live else None,
                    )
                    break

                session.failed_attempts += 1
                if session.failed_attempts >= self.limits.attempt_cap:
                    session.outcome = Outcome.EXHAUSTED
                    reason = f"attempt cap of {self.limits.attempt_cap} failed patches reached"
                    ws.rollback(self.pristine_id)
                    break

                session.compressed = log_compress(
                    verdict.logs,
                    visited=list(self._visited),
                    applied_hunks=diffutil.hunk_texts(candidate),
                    budget=self.limits.log_budget,
                )
                self._visited = []
                ws.rollback(self.pristine_id)
                relocate = transition == Transition.RELOCATE
        except (OracleTimeout, GatewayExhausted, LocalizationFailure) as exc:
            session.outcome = Outcome.EXHAUSTED
            reason = f"{type(exc).__name__}: {exc}"
            ws.rollback(self.pristine_id)
        finally:
            self.store.complete_task()
        return reason

    def _localization_correct(self) -> bool | str:
        truth = self.task.ground_truth_files
        if not truth or self.session.outcome != Outcome.SUCCESS:
            return "unknown"
        touched = set(diffutil.changed_files(self.session.final_patch))
        return set(truth) <= touched

    def _report(self, reason: str) -> SessionReport:
        session = self.session
        limits = self.limits
        cost = (
            self.prompt_tokens / 1000.0 * limits.prompt_price_per_1k
            + self.completion_tokens / 1000.0 * limits.completion_price_per_1k
        )
        return SessionReport(
            outcome=session.outcome.value if session.outcome else "unknown",
            failed_attempts=session.failed_attempts,
            final_diff=session.final_patch,
            attempts=[
                {
                    "patch": a.patch,
                    "verdict": a.verdict.to_json(),
                    "localization": a.localization.to_json() if a.localization else None,
                }
                for a in session.attempts
            ],
            localization_correct=self._localization_correct(),
            prompt_tokens=self.prompt_tokens,
            completion_tokens=self.completion_tokens,
            cost_usd=cost,
            reason=reason,
        )


def run_session(
    task: RepairTask,
    store: MemoryStore,
    gateway,
    limits: EngineLimits | None = None,
) -> tuple[SessionReport, RepairSession, list[dict]]:
    runner = SessionRunner(task, store, gateway, limits)
    report = runner.run()
    return report, runner.session, runner.trajectory
