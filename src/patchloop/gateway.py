"""Chat-model gateway: one live HTTP backend, one scripted replay backend.

The scripted backend replays a JSON-lines transcript of turns keyed by
(phase, attempt), which makes the whole control plane testable offline:
an end-to-end repair run is byte-for-byte reproducible without a network.
Prompt assembly is a pure function so rendered prompts are stable too.

Both live HTTP clients, the chat backend and :class:`RemoteEmbedder`, post
through :func:`post_json` under its one retry policy, and both refuse a
malformed endpoint through :func:`http_url` when they are built.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import EmbeddingUnavailable, GatewayExhausted, MalformedToolCall
from .workspace import CompressedContext, ToolCall

DEFAULT_PROMPT_BUDGET = 24_000

PHASES = ("locator", "patcher", "verifier")

RETRIES = 3  # attempts per request
RETRYABLE_4XX = frozenset({408, 429})  # timeout, rate limit; other 4xx fail at once
RETRY_AFTER = frozenset({429, 503})  # statuses whose Retry-After sets the next wait

DEFAULT_REMOTE_TIMEOUT = 30.0  # seconds a RemoteEmbedder waits for a reply


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
    max_turns: int = 30
    prompt_budget: int = DEFAULT_PROMPT_BUDGET
    prompt_price_per_1k: float = 0.0
    completion_price_per_1k: float = 0.0


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


def _record_problem(rec) -> str:
    """What is wrong with one transcript record, or "" when nothing is."""
    if not isinstance(rec, dict):
        return f"record is a JSON {type(rec).__name__}, not an object"
    if rec.get("phase") not in PHASES:
        return f"phase is not one of {', '.join(PHASES)}: {rec.get('phase')!r}"
    attempt = rec.get("attempt")
    if type(attempt) is not int or attempt < 1:
        return f"attempt is not an integer of at least 1: {attempt!r}"
    turn = rec.get("turn")
    if not isinstance(turn, dict):
        return f"turn is a {type(turn).__name__}, not an object"
    for name in ("role", "content"):
        if name in turn and not isinstance(turn[name], str):
            return f"turn {name} is a {type(turn[name]).__name__}, not a string"
    return ""


class ScriptedGateway:
    """Replays a recorded transcript; per-session, no shared state."""

    deterministic = True

    def __init__(self, turns_by_key: dict[tuple[str, int], list[dict]]) -> None:
        self._queues = {key: list(turns) for key, turns in turns_by_key.items()}
        self._context: tuple[str, int] = ("locator", 1)

    @classmethod
    def from_file(cls, path: Path) -> "ScriptedGateway":
        """Load a transcript; a record of the wrong shape is a ValueError
        naming its line."""
        queues: dict[tuple[str, int], list[dict]] = {}
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                if not raw.strip():
                    continue
                try:
                    rec = json.loads(raw)
                    problem = _record_problem(rec)
                except json.JSONDecodeError as exc:
                    problem = f"not JSON: {exc}"
                if problem:
                    raise ValueError(f"{path}:{lineno}: {problem}")
                queues.setdefault((rec["phase"], rec["attempt"]), []).append(rec["turn"])
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


def http_url(url: str) -> str:
    """`url` itself if it is an http(s) URL with a host and, when it names
    one, a numeric port; ValueError otherwise."""
    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"not an http(s) URL: {url}")
    try:
        parts.port
    except ValueError as exc:
        raise ValueError(f"{exc}: {url}") from None
    return url


def post_json(url: str, payload: dict, api_key_env: str, timeout: float,
              error: Callable[[str], Exception]):
    """POST `payload` as JSON, with the key in env var `api_key_env` as bearer
    token, and return the decoded reply. A transport error, a reply that is
    not JSON, a 5xx, 408 or 429 is retried: :data:`RETRIES` attempts, 1 + 2 s
    of backoff in all, a delta-seconds Retry-After on 429/503 within that.
    Other 4xx fail at once. Failures raise ``error(message)``; a malformed
    `url` raises ValueError and is never retried."""
    headers = {"Content-Type": "application/json"}
    if key := os.environ.get(api_key_env, ""):
        headers["Authorization"] = f"Bearer {key}"
    req = urllib.request.Request(http_url(url), data=json.dumps(payload).encode("utf-8"), headers=headers)
    last_error: Exception | None = None
    sleep_left = 2 ** (RETRIES - 1) - 1  # the 1 + 2 + ... s of the backoff
    for attempt in range(RETRIES):
        delay = 2**attempt
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            exc.close()  # the error response holds the connection open
            if 400 <= exc.code < 500 and exc.code not in RETRYABLE_4XX:
                raise error(f"refused the request: HTTP {exc.code} {exc.reason}") from exc
            if exc.code in RETRY_AFTER and exc.headers is not None:
                # delta-seconds only; an HTTP date keeps the backoff
                if m := re.fullmatch(r"\s*(\d+)\s*", exc.headers.get("Retry-After") or ""):
                    delay = int(m[1])
            last_error = exc
        except http.client.InvalidURL as exc:  # a space in the path, say
            raise ValueError(f"{exc}: {url}") from exc
        except (OSError, json.JSONDecodeError) as exc:  # URLError and timeouts are OSErrors
            last_error = exc
        if attempt + 1 < RETRIES:
            delay = min(delay, sleep_left)
            sleep_left -= delay
            time.sleep(delay)
    raise error(f"unreachable after {RETRIES} attempts: {last_error}")


class HttpGateway:
    """OpenAI-compatible chat-completions client."""

    deterministic = False

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.url = http_url(config.endpoint.rstrip("/") + "/chat/completions")

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
        cfg = self.config
        reply = post_json(self.url, self._payload(history, available_tools), cfg.api_key_env, cfg.timeout,
                          lambda msg: GatewayExhausted(f"gateway {msg}"))
        try:
            message = reply["choices"][0]["message"]
            content, raw_calls = message.get("content"), message.get("tool_calls")
            if not isinstance(content, (str, type(None))):
                raise TypeError(f"content is {type(content).__name__}, not a string")
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise GatewayExhausted(f"malformed completion response: {exc}") from exc
        tool_calls = None
        if raw_calls:
            if isinstance(raw_calls, list):
                raw_calls = [_function_call(tc) for tc in raw_calls]
            tool_calls = _decode_tool_calls(raw_calls)
        return ChatTurn(role="assistant", content=content or "", tool_calls=tool_calls)


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


@dataclass
class RemoteEmbedder:
    """OpenAI-compatible embedding endpoint client."""

    endpoint: str
    model_name: str
    api_key_env: str = ""
    timeout: float = DEFAULT_REMOTE_TIMEOUT
    url: str = field(init=False)

    def __post_init__(self) -> None:
        self.url = http_url(self.endpoint.rstrip("/") + "/embeddings")

    def embed(self, text: str) -> np.ndarray:
        payload = {"model": self.model_name, "input": [text]}
        body = post_json(self.url, payload, self.api_key_env, self.timeout,
                         lambda msg: EmbeddingUnavailable(f"embedding request failed: {msg}"))
        try:
            raw = body["data"][0]["embedding"]
            if not (isinstance(raw, list) and raw and all(type(x) in (int, float) for x in raw)):
                raise TypeError(f"embedding is not a list of numbers: {raw!r:.80}")
        except (KeyError, IndexError, TypeError) as exc:
            raise EmbeddingUnavailable(f"malformed embedding response: {exc}") from exc
        return np.asarray(raw, dtype=np.float64)


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
    in rank order; the turns keep the longest prefix of them that fits the
    budget, or none when not even the first fits. Each part renders once.
    """
    system = ChatTurn(role="system", content=_base_prompt(phase))
    tail = [] if compressed is None else ["# Previous attempt summary", compressed.render()]
    room = budget - len(system.content) - len("\n\n".join([task_text, *tail]))
    heading = "# Retrieved repair experience"
    used = len(heading) + 2  # the heading and its separator come with the first memory
    kept: list[str] = []
    for i, r in enumerate(memories):
        text = _render_memory(i + 1, r)
        used += len(text) + 2
        if used > room:
            break
        kept.append(text)
    parts = [task_text, heading, *kept] if kept else [task_text]
    return system, ChatTurn(role="user", content="\n\n".join(parts + tail))
