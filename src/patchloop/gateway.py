"""Chat-model gateway: one live HTTP backend, one scripted replay backend.

The scripted backend replays a JSON-lines transcript of turns keyed by
(phase, attempt), which makes the whole control plane testable offline:
an end-to-end repair run is byte-for-byte reproducible without a network.
Prompt assembly is a pure function so rendered prompts are stable too.
"""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import GatewayExhausted, MalformedToolCall
from .workspace import CompressedContext, ToolCall

DEFAULT_PROMPT_BUDGET = 24_000

PHASES = ("locator", "patcher", "verifier")


@dataclass
class ChatTurn:
    role: str  # system | user | assistant | tool
    content: str = ""
    tool_calls: list[ToolCall] | None = None
    tool_call_id: str | None = None

    def to_json(self) -> dict:
        rec: dict = {"role": self.role, "content": self.content}
        if self.tool_calls:
            rec["tool_calls"] = [c.to_json() for c in self.tool_calls]
        if self.tool_call_id:
            rec["tool_call_id"] = self.tool_call_id
        return rec


@dataclass
class GatewayConfig:
    endpoint: str = ""
    model_name: str = ""
    temperature: float = 0.0
    api_key_env: str = ""
    backend: str = "scripted"
    transcript: str = ""
    timeout: float = 60.0


def _decode_tool_calls(raw) -> list[ToolCall]:
    calls = []
    if not isinstance(raw, list):
        raise MalformedToolCall(f"tool_calls must be a list, got {type(raw).__name__}")
    for item in raw:
        if not isinstance(item, dict) or "name" not in item:
            raise MalformedToolCall(f"tool call missing name: {item!r}")
        args = item.get("args", {})
        if isinstance(args, str):
            try:
                args = json.loads(args)
            except json.JSONDecodeError as exc:
                raise MalformedToolCall(f"tool call args are not valid JSON: {exc}") from exc
        if not isinstance(args, dict):
            raise MalformedToolCall(f"tool call args must be an object: {args!r}")
        calls.append(ToolCall(name=str(item["name"]), args={k: v for k, v in args.items()}))
    return calls


class ScriptedGateway:
    """Replays a recorded transcript; per-session, no shared state."""

    deterministic = True

    def __init__(self, turns_by_key: dict[tuple[str, int], list[dict]]) -> None:
        self._queues = {key: list(turns) for key, turns in turns_by_key.items()}
        self._context: tuple[str, int] = ("locator", 1)

    @classmethod
    def from_file(cls, path: Path) -> "ScriptedGateway":
        queues: dict[tuple[str, int], list[dict]] = {}
        with Path(path).open("r", encoding="utf-8") as fh:
            for raw in fh:
                if not raw.strip():
                    continue
                rec = json.loads(raw)
                key = (rec["phase"], int(rec["attempt"]))
                queues.setdefault(key, []).append(rec["turn"])
        return cls(queues)

    def set_context(self, phase: str, attempt: int) -> None:
        self._context = (phase, attempt)

    def complete(self, history: list[ChatTurn], available_tools: list[dict]) -> ChatTurn:
        queue = self._queues.get(self._context)
        if not queue:
            raise GatewayExhausted(
                f"transcript exhausted for phase={self._context[0]} attempt={self._context[1]}"
            )
        raw = queue.pop(0)
        tool_calls = _decode_tool_calls(raw["tool_calls"]) if raw.get("tool_calls") else None
        return ChatTurn(
            role=raw.get("role", "assistant"),
            content=raw.get("content", ""),
            tool_calls=tool_calls,
        )


class HttpGateway:
    """OpenAI-compatible chat-completions client with bounded retries."""

    deterministic = False
    RETRIES = 3
    RETRYABLE_4XX = frozenset({408, 429})  # timeout, rate limit; other 4xx fail at once
    RETRY_AFTER = frozenset({429, 503})  # statuses whose Retry-After sets the next wait

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config

    def set_context(self, phase: str, attempt: int) -> None:
        pass  # live backend does not key on phase

    def _payload(self, history: list[ChatTurn], tools: list[dict]) -> dict:
        messages = []
        for turn in history:
            msg: dict = {"role": turn.role, "content": turn.content}
            if turn.tool_calls:
                msg["tool_calls"] = [
                    {
                        "id": f"call_{i}",
                        "type": "function",
                        "function": {
                            "name": c.name,
                            "arguments": json.dumps(c.args),
                        },
                    }
                    for i, c in enumerate(turn.tool_calls)
                ]
            if turn.tool_call_id:
                msg["tool_call_id"] = turn.tool_call_id
            messages.append(msg)
        payload = {
            "model": self.config.model_name,
            "temperature": self.config.temperature,
            "messages": messages,
        }
        if tools:
            payload["tools"] = tools
        return payload

    def complete(self, history: list[ChatTurn], available_tools: list[dict]) -> ChatTurn:
        import os

        body = json.dumps(self._payload(history, available_tools)).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "") if self.config.api_key_env else ""
        if key:
            headers["Authorization"] = f"Bearer {key}"
        url = self.config.endpoint.rstrip("/") + "/chat/completions"
        last_error: Exception | None = None
        sleep_left = 2 ** (self.RETRIES - 1) - 1  # the 1 + 2 + ... s of the backoff
        for attempt in range(self.RETRIES):
            delay = 2**attempt
            try:
                req = urllib.request.Request(url, data=body, headers=headers)
                with urllib.request.urlopen(req, timeout=self.config.timeout) as resp:
                    reply = json.loads(resp.read().decode("utf-8"))
                break
            except urllib.error.HTTPError as exc:
                if 400 <= exc.code < 500 and exc.code not in self.RETRYABLE_4XX:
                    raise GatewayExhausted(
                        f"gateway refused the request: HTTP {exc.code} {exc.reason}"
                    ) from exc
                if exc.code in self.RETRY_AFTER and exc.headers is not None:
                    # delta-seconds only; an HTTP date keeps the backoff
                    if m := re.fullmatch(r"\s*(\d+)\s*", exc.headers.get("Retry-After") or ""):
                        delay = int(m[1])
                last_error = exc
            except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
                last_error = exc
            if attempt + 1 < self.RETRIES:
                delay = min(delay, sleep_left)
                sleep_left -= delay
                time.sleep(delay)
        else:
            raise GatewayExhausted(f"gateway unreachable after {self.RETRIES} attempts: {last_error}")

        try:
            message = reply["choices"][0]["message"]
            content, raw_calls = message.get("content") or "", message.get("tool_calls")
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise GatewayExhausted(f"malformed completion response: {exc}") from exc
        tool_calls = None
        if raw_calls:
            if isinstance(raw_calls, list):
                raw_calls = [_function_call(tc) for tc in raw_calls]
            tool_calls = _decode_tool_calls(raw_calls)
        return ChatTurn(role="assistant", content=content, tool_calls=tool_calls)


def _function_call(raw) -> dict:
    """An OpenAI-style tool call in the shape `_decode_tool_calls` reads."""
    try:
        return {"name": raw["function"]["name"], "args": raw["function"]["arguments"]}
    except (KeyError, TypeError) as exc:
        raise MalformedToolCall(f"tool call without function name and arguments: {raw!r}") from exc


def build_gateway(config: GatewayConfig):
    if config.backend == "scripted":
        if not config.transcript:
            raise ValueError("scripted backend requires a transcript path")
        return ScriptedGateway.from_file(Path(config.transcript))
    if config.backend == "http":
        return HttpGateway(config)
    raise ValueError(f"unknown gateway backend: {config.backend!r}")


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------


def _base_prompt(phase: str) -> str:
    if phase not in PHASES:
        raise ValueError(f"unknown phase: {phase!r}")
    return resources.files(__package__).joinpath(f"prompts/{phase}.txt").read_text("utf-8")


_TIER_LABELS = {
    "L1": "historical fix",
    "L2": "security pattern",
    "L3": "refinement trajectory",
}


def _render_memory(rank: int, ranked) -> str:
    entry = ranked.entry
    keys = entry.keys
    head = (
        f"## Experience {rank} [{entry.tier} {_TIER_LABELS[entry.tier]}] "
        f"(P{int(ranked.priority_tier)}, similarity {ranked.similarity:.3f})\n"
        f"project={keys.project} cwe={keys.cwe} language={keys.language} id={keys.instance_id}\n"
        f"{keys.description}\n"
    )
    if entry.tier == "L1":
        body = f"fix:\n{entry.fix_patch}"
    elif entry.tier == "L2":
        body = f"fix:\n{entry.fix_patch}\nwhy it worked: {entry.rationale}"
    else:
        body = (
            f"failed patch:\n{entry.fail_patch}\n"
            f"correction:\n{entry.correction_delta}\n"
            f"transition rule: {entry.transition_insight}"
        )
    return head + body


def render_prompt(
    phase: str,
    task_text: str,
    memories: list,
    compressed: CompressedContext | None = None,
    budget: int = DEFAULT_PROMPT_BUDGET,
) -> tuple[ChatTurn, ChatTurn]:
    """Assemble the system and user turns for a phase.

    Deterministic: identical inputs yield identical turns. Memories render
    in rank order; when the result exceeds the budget, the lowest-ranked
    memories are dropped from the tail until it fits.
    """
    system = ChatTurn(role="system", content=_base_prompt(phase))
    kept = list(memories)
    while True:
        parts = [task_text]
        if kept:
            parts.append("# Retrieved repair experience")
            parts.extend(_render_memory(i + 1, r) for i, r in enumerate(kept))
        if compressed is not None:
            parts.append("# Previous attempt summary")
            parts.append(compressed.render())
        user = ChatTurn(role="user", content="\n\n".join(parts))
        if len(system.content) + len(user.content) <= budget or not kept:
            return system, user
        kept.pop()
