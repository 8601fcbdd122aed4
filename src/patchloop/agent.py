"""Session orchestration: locate, patch, verify, refine.

One session runs a closed loop over three phases. The locator reads the
runtime crash evidence and names a target location; the patcher edits the
workspace and yields a candidate diff against the pristine snapshot; the
verifier runs the oracle and routes the result:

  * both checks pass            -> Success (session ends, memory updated)
  * vulnerability persists      -> Relocate (back to the locator; the
                                   regression suite does not run)
  * fixed but regression broken -> Regenerate (patch again at the same spot)

Every failed attempt is compressed into a three-field summary that feeds
the next iteration's prompts, and the workspace is rolled back to pristine
so each candidate diff stands alone. Because every locate therefore sees
the pristine tree, its crash evidence is the PoC run the oracle made while
validating the pristine checkout, parsed and bounded once per session.
Memory is read the same way: the History-Fix (L1) and Security-Pattern
(L2) tiers are retrieved once, when the session starts, and every locate
and patch shows that list, so a session sees the memory as it stood at its
start. Only the refinement tier (L3) is retrieved once per refinement, as
its query is the failed candidate. The loop stops after a fixed number of
failed attempts. A success leaves the accepted candidate in the checkout;
any other ending, an error included, restores the tree the session found.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict, dataclass, field
from enum import Enum

from . import diffutil, memory, retrieval
from .config import EngineConfig
from .errors import (
    EmbeddingUnavailable,
    GatewayExhausted,
    LocalizationFailure,
    MalformedToolCall,
    NoMatch,
    OracleTimeout,
)
from .gateway import ChatTurn, render_prompt
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
from .workspace import (
    CompressedContext,
    ToolCall,
    ToolResult,
    Workspace,
    cap_output,
    log_compress,
)

logger = logging.getLogger(__name__)

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


class Outcome(str, Enum):
    SUCCESS = "success"
    EXHAUSTED = "exhausted"


@dataclass
class Attempt:
    patch: str
    verdict: VerificationVerdict
    tree: str  # git tree id of the candidate's working tree
    localization: LocalizationObject | None = None


@dataclass
class RepairTask:
    workspace: Workspace
    oracle: OracleRunner
    keys: RetrievalKeys
    ground_truth_files: list[str] | None = None


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
        if "line_start" in obj and "line_end" in obj:
            bounds = [obj["line_start"], obj["line_end"]]
        else:
            bounds = obj.get("line_range")
        # A list of two: a string would be read per character. No bool:
        # Python counts it as an int.
        if not isinstance(bounds, list) or len(bounds) != 2:
            continue
        if any(isinstance(bound, bool) for bound in bounds):
            continue
        try:
            start, end = int(bounds[0]), int(bounds[1])
        except (TypeError, ValueError, OverflowError):  # not line numbers
            continue
        return LocalizationObject(
            file=str(obj["file"]),
            line_range=(start, end),
            reason=str(obj.get("reason", "")),
            rank=1,
        )
    return None


class SessionRunner:
    """Drives one repair session to Success or Exhausted, and holds its
    state: the attempts, the outcome and the summary of the last failure."""

    def __init__(
        self,
        task: RepairTask,
        store: MemoryStore,
        gateway,
        cfg: EngineConfig | None = None,
    ) -> None:
        self.task = task
        self.store = store
        self.gateway = gateway
        self.cfg = cfg or EngineConfig()
        self.attempts: list[Attempt] = []
        self.outcome: Outcome | None = None
        self.compressed: CompressedContext | None = None
        self.trajectory: list[dict] = []
        self.prompt_tokens = 0
        self.completion_tokens = 0
        self.pristine_id: str | None = None
        self._index: SymbolIndex | None = None
        self._crash: CrashReport | None = None
        self._evidence = ""
        self._memories: list[retrieval.RankedEntry] = []
        self._visited: list[tuple[str, tuple[int, int]]] = []

    # -- plumbing -----------------------------------------------------------

    @property
    def failed_attempts(self) -> int:
        """The loop stops at the first success, so every attempt before an
        accepted last one failed."""
        return len(self.attempts) - (self.outcome == Outcome.SUCCESS)

    def _last_failed(self) -> Attempt | None:
        """The newest failed candidate with a non-empty diff, if any."""
        failed = self.attempts[:self.failed_attempts]
        return next((a for a in reversed(failed) if a.patch.strip()), None)

    @property
    def index(self) -> SymbolIndex:
        if self._index is None:
            self._index = index_repository(self.task.workspace.root)
        return self._index

    def _log_turn(self, turn: ChatTurn) -> None:
        self.trajectory.append({"type": "turn", **turn.to_json()})

    def _log_tool(self, call: ToolCall, result: ToolResult) -> None:
        self.trajectory.append({"type": "tool", "call": call.to_json(), "result": result.to_json()})

    def _dispatch(self, call: ToolCall, tools: tuple[str, ...]) -> ToolResult:
        """Run `call` if its phase offers that tool; any other name is unknown.
        Bad arguments and operating-system errors come back as failed
        results, so the model sees them and the phase goes on."""
        if call.name not in tools:
            return ToolResult(False, f"unknown tool: {call.name}", "UnknownTool")
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
            try:  # iter_grep, the one tool left
                objs = iter_grep(self.index, str(args.get("symbol", "")), self._crash)
            except NoMatch as exc:
                return ToolResult(False, str(exc), "NoMatch")
            for obj in objs:
                self._visited.append((obj.file, obj.line_range))
            return ToolResult(True, json.dumps([o.to_json() for o in objs], indent=1))
        except (ValueError, TypeError) as exc:
            return ToolResult(False, f"bad arguments for {call.name}: {exc}", "BadArguments")
        except OSError as exc:
            # the path as given, not the absolute one the error names; bash has none
            where = f" on {args['path']}" if "path" in args else ""
            message = f"{call.name} failed{where}: {exc.strerror or exc}"
            return ToolResult(False, message, "OSError")

    def _drive_phase(
        self, phase: str, task_text: str, memories: list, compressed, tools: tuple[str, ...]
    ) -> ChatTurn | None:
        """Run the model/tool loop for one phase, every model call of the
        session included; returns the final plain turn, or None when the
        phase runs out of turns."""
        system, user = render_prompt(
            phase, task_text, memories, compressed, budget=self.cfg.gateway.prompt_budget
        )
        self.gateway.set_context(phase, self.failed_attempts + 1)
        history = [system, user]
        self._log_turn(system)
        self._log_turn(user)
        schemas = tool_schemas(tools)
        for _ in range(self.cfg.gateway.max_turns):
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
                result = self._dispatch(call, tools)
                self._log_tool(call, result)
                tool_turn = ChatTurn(role="tool", content=result.output, tool_call_id=f"call_{i}")
                history.append(tool_turn)
        return None

    def _retrieve(self, tier: str, override: str | None = None):
        query = retrieval.Query(
            keys=self.task.keys, k_min=self.cfg.retrieval.k_min, top_n=self.cfg.retrieval.top_n
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
        """The verifier's answer, or `fallback` when it gives none."""
        try:
            reply = self._drive_phase("verifier", question, [], None, ())
        except GatewayExhausted:
            return fallback
        return (reply.content.strip() if reply else "") or fallback

    def _live_rationale(self, accepted: Attempt) -> str:
        question = (
            f"# Accepted patch\n{accepted.patch}\n"
            f"# Verification log\n{accepted.verdict.logs[-2000:]}"
        )
        return self._ask_verifier(question, memory.default_rationale(accepted))

    def _live_insight(self, fail_patch: str, accepted: str) -> str:
        question = (
            f"# Rejected candidate\n{fail_patch}\n# Accepted patch\n{accepted}\n"
            "State the rule that turned the rejected candidate into the accepted one."
        )
        return self._ask_verifier(question, memory.default_insight(fail_patch, accepted))

    # -- phases ---------------------------------------------------------------

    def _runtime_evidence(self, output: str) -> str:
        """The pristine PoC `output` as every locate shows it: every locate
        runs on the pristine tree, so that run stands for all of them. A
        crash report longer than half the prompt budget becomes its parsed
        frames followed by a head/tail excerpt of the output, so the frames
        survive the cut."""
        cap = self.cfg.gateway.prompt_budget // 2
        if self._crash is None:
            body = output[-2000:] or "(no output)"
        elif len(output) <= cap:
            body = output
        else:
            frames = cap_output("\n".join(
                f"#{i} in {f.function} {f.file}:{f.line}" for i, f in enumerate(self._crash.frames)
            ), cap // 2)
            body = f"{frames}\n{cap_output(output, cap - len(frames) - 1)}"
        return "# Runtime evidence\n" + body

    def locate(self) -> LocalizationObject:
        final = self._drive_phase(
            "locator", self._task_text(self._evidence), list(self._memories), self.compressed,
            LOCATOR_TOOLS,
        )
        loc = extract_localization(final.content) if final else None
        if loc is None:
            raise LocalizationFailure(
                f"no parseable location after locator attempt {self.failed_attempts + 1}"
            )
        self._visited.append((loc.file, loc.line_range))
        return loc

    def patch(self, loc: LocalizationObject) -> tuple[str, str]:
        """Drive the patcher; returns the candidate's tree id and its diff
        against the pristine snapshot."""
        failed = self._last_failed()
        failed_patch = failed.patch if failed else None
        memories = list(self._memories)
        if failed_patch:
            memories += self._retrieve("L3", override=failed_patch)
        target = (
            f"# Target location\n{loc.file}:{loc.line_range[0]}-{loc.line_range[1]}"
            f" ({loc.reason})"
        )
        if failed_patch:
            target += f"\n# Previous failed candidate\n{failed_patch}"
        self._drive_phase(
            "patcher", self._task_text(target), memories, self.compressed, PATCHER_TOOLS
        )
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
        """A success leaves the accepted candidate in the tree; any other
        ending restores the pristine tree, and a restore that fails raises."""
        ws = self.task.workspace
        self.pristine_id = ws.snapshot()
        try:
            self.task.oracle.validate_pristine()
            _, output = self.task.oracle.pristine_poc
            self._crash = parse_crash_report(output)
            self._evidence = self._runtime_evidence(output)
            # The L1/L2 query is the task's keys, fixed for the session.
            self._memories = self._retrieve("L1") + self._retrieve("L2")
            reason = self._loop()
        except BaseException:
            # Leave the checkout as found, then let the caller see the
            # original error: a failing rollback here is logged, not raised.
            try:
                ws.rollback(self.pristine_id)
            except Exception:
                logger.exception("could not restore snapshot %s", self.pristine_id)
            raise
        if self.outcome != Outcome.SUCCESS:
            ws.rollback(self.pristine_id)
        return self._report(reason)

    def _loop(self) -> str:
        """Run attempts until Success or Exhausted; returns the stop reason.
        The tree is rolled back between attempts; the expected ways a
        session ends return, and anything else propagates to ``run``."""
        ws = self.task.workspace
        relocate = True
        try:
            while True:
                if relocate:
                    loc = self.locate()
                tree, candidate = self.patch(loc)
                verdict, transition = self.verify(candidate)
                self.attempts.append(
                    Attempt(patch=candidate, verdict=verdict, tree=tree, localization=loc)
                )
                logger.info(
                    "attempt %d verdict mitigated=%s preserved=%s -> %s",
                    len(self.attempts), verdict.vuln_mitigated,
                    verdict.functionality_preserved, transition.value,
                )
                if transition == Transition.SUCCESS:
                    self.outcome = Outcome.SUCCESS
                    # Deterministic backends use templated consolidation
                    # text; a live model is asked to explain the fix instead.
                    live = not getattr(self.gateway, "deterministic", True)
                    try:
                        memory.consolidate_success(
                            self.store, self.task.keys, self.attempts[-1], self._last_failed(),
                            ws.diff,
                            self._live_rationale if live else None,
                            self._live_insight if live else None,
                        )
                    except EmbeddingUnavailable as exc:  # the fix stands without it
                        logger.warning("accepted patch not consolidated into memory: %s", exc)
                        return f"memory consolidation skipped: {exc}"
                    return ""

                if self.failed_attempts >= self.cfg.limits.attempt_cap:
                    self.outcome = Outcome.EXHAUSTED
                    return f"attempt cap of {self.cfg.limits.attempt_cap} failed patches reached"

                self.compressed = log_compress(
                    verdict.logs,
                    visited=list(self._visited),
                    applied_hunks=diffutil.hunk_texts(candidate),
                    budget=self.cfg.limits.log_budget,
                )
                self._visited = []
                ws.rollback(self.pristine_id)
                relocate = transition == Transition.RELOCATE
        except (OracleTimeout, GatewayExhausted, LocalizationFailure) as exc:
            self.outcome = Outcome.EXHAUSTED
            return f"{type(exc).__name__}: {exc}"
        finally:
            self.store.complete_task()

    def _report(self, reason: str) -> SessionReport:
        success = self.outcome == Outcome.SUCCESS
        final_patch = self.attempts[-1].patch if success else ""
        truth = self.task.ground_truth_files
        localization_correct: bool | str = "unknown"
        if truth and success:
            localization_correct = set(truth) <= set(diffutil.changed_files(final_patch))
        prices = self.cfg.gateway
        cost = (
            self.prompt_tokens / 1000.0 * prices.prompt_price_per_1k
            + self.completion_tokens / 1000.0 * prices.completion_price_per_1k
        )
        return SessionReport(
            outcome=self.outcome.value,
            failed_attempts=self.failed_attempts,
            final_diff=final_patch,
            attempts=[
                {
                    "patch": a.patch,
                    "verdict": a.verdict.to_json(),
                    "localization": a.localization.to_json() if a.localization else None,
                }
                for a in self.attempts
            ],
            localization_correct=localization_correct,
            prompt_tokens=self.prompt_tokens,
            completion_tokens=self.completion_tokens,
            cost_usd=cost,
            reason=reason,
        )
