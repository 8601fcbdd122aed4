from __future__ import annotations

import http.client
import http.server
import json
import threading

import pytest

from conftest import write_transcript
from patchloop.embedding import RemoteEmbedder
from patchloop.errors import GatewayExhausted, MalformedToolCall
from patchloop.gateway import (
    ChatTurn,
    GatewayConfig,
    HttpGateway,
    ScriptedGateway,
    build_gateway,
    render_prompt,
)
from patchloop.memory import L1Entry, L2Entry, L3Entry, RetrievalKeys
from patchloop.retrieval import Priority, RankedEntry
from patchloop.workspace import CompressedContext

# ---------------------------------------------------------------------------
# scripted backend
# ---------------------------------------------------------------------------


def one_turn_transcript(tmp_path):
    return write_transcript(
        tmp_path / "t.jsonl",
        [
            {
                "phase": "locator",
                "attempt": 1,
                "turn": {"role": "assistant", "content": "the answer"},
            }
        ],
    )


def test_scripted_replays_turn_verbatim(tmp_path):
    gw = ScriptedGateway.from_file(one_turn_transcript(tmp_path))
    gw.set_context("locator", 1)
    turn = gw.complete([ChatTurn("system", "s")], [])
    assert turn.role == "assistant"
    assert turn.content == "the answer"
    assert turn.tool_calls is None


def test_scripted_exhaustion(tmp_path):
    gw = ScriptedGateway.from_file(one_turn_transcript(tmp_path))
    gw.set_context("locator", 1)
    gw.complete([], [])
    with pytest.raises(GatewayExhausted):
        gw.complete([], [])
    gw.set_context("patcher", 1)  # key never present in the transcript
    with pytest.raises(GatewayExhausted):
        gw.complete([], [])


def test_scripted_decodes_tool_calls(tmp_path):
    path = write_transcript(
        tmp_path / "t.jsonl",
        [
            {
                "phase": "patcher",
                "attempt": 2,
                "turn": {
                    "role": "assistant",
                    "content": "",
                    "tool_calls": [
                        {"name": "view", "args": {"path": "x.c"}},
                        {"name": "bash", "args": json.dumps({"command": "ls"})},
                    ],
                },
            }
        ],
    )
    gw = ScriptedGateway.from_file(path)
    gw.set_context("patcher", 2)
    turn = gw.complete([], [])
    assert [c.name for c in turn.tool_calls] == ["view", "bash"]
    assert turn.tool_calls[1].args == {"command": "ls"}


def test_malformed_tool_call_raises(tmp_path):
    cases = [
        [{"name": "view", "args": "{not json"}],
        [{"name": "view", "args": [1, 2]}],
        [{"args": {}}],
        {"name": "view"},
    ]
    for i, tool_calls in enumerate(cases):
        path = write_transcript(
            tmp_path / f"bad{i}.jsonl",
            [
                {
                    "phase": "locator",
                    "attempt": 1,
                    "turn": {"role": "assistant", "content": "", "tool_calls": tool_calls},
                }
            ],
        )
        gw = ScriptedGateway.from_file(path)
        gw.set_context("locator", 1)
        with pytest.raises(MalformedToolCall):
            gw.complete([], [])


def test_build_gateway_dispatch(tmp_path):
    path = one_turn_transcript(tmp_path)
    gw = build_gateway(GatewayConfig(backend="scripted", transcript=str(path)))
    assert isinstance(gw, ScriptedGateway)
    assert isinstance(build_gateway(GatewayConfig(backend="http")), HttpGateway)
    with pytest.raises(ValueError):
        build_gateway(GatewayConfig(backend="scripted"))
    with pytest.raises(ValueError):
        build_gateway(GatewayConfig(backend="carrier-pigeon"))


def test_http_payload_shape():
    gw = HttpGateway(GatewayConfig(model_name="m", temperature=0.0))
    from patchloop.workspace import ToolCall

    history = [
        ChatTurn("system", "sys"),
        ChatTurn("assistant", "", tool_calls=[ToolCall("view", {"path": "a"})]),
        ChatTurn("tool", "output", tool_call_id="view"),
    ]
    payload = gw._payload(history, [{"type": "function"}])
    assert payload["model"] == "m"
    assert payload["temperature"] == 0.0
    assert payload["messages"][1]["tool_calls"][0]["function"]["name"] == "view"
    assert json.loads(payload["messages"][1]["tool_calls"][0]["function"]["arguments"]) == {
        "path": "a"
    }
    assert payload["messages"][2]["tool_call_id"] == "view"


# ---------------------------------------------------------------------------
# prompt rendering
# ---------------------------------------------------------------------------


def ranked(tier: str, n: int, text_size: int = 0) -> RankedEntry:
    keys = RetrievalKeys("proj", "CWE-787", "c", f"proj.cve-2020-{n}", f"desc {n}" + "x" * text_size)
    patch = f"--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-a{n}\n+b{n}\n"
    if tier == "L1":
        entry = L1Entry(keys=keys, fix_patch=patch)
    elif tier == "L2":
        entry = L2Entry(keys=keys, fix_patch=patch, rationale=f"why {n}")
    else:
        entry = L3Entry(
            keys=keys,
            fail_patch=patch,
            correction_delta=patch.replace("+b", "+c"),
            transition_insight=f"rule {n}",
        )
    return RankedEntry(entry, similarity=1.0 - n / 100.0, priority_tier=Priority.P1)


def test_render_prompt_is_pure():
    memories = [ranked("L1", 1), ranked("L2", 2)]
    ctx = CompressedContext(visited=[("f.c", (1, 5))], failure_log="ERROR: boom")
    a = render_prompt("patcher", "task text", memories, ctx)
    b = render_prompt("patcher", "task text", memories, ctx)
    assert a[0].content == b[0].content
    assert a[1].content == b[1].content


def test_render_prompt_includes_memories_in_rank_order():
    memories = [ranked("L1", 1), ranked("L1", 2), ranked("L2", 3)]
    _, user = render_prompt("locator", "task", memories)
    first = user.content.index("Experience 1")
    second = user.content.index("Experience 2")
    third = user.content.index("Experience 3")
    assert first < second < third
    assert "why 3" in user.content


def test_render_prompt_zero_memories_is_base_only():
    system, user = render_prompt("locator", "the task", [])
    assert "Retrieved repair experience" not in user.content
    assert user.content == "the task"
    assert "fault-localization" in system.content


def test_render_prompt_appends_compressed_context():
    ctx = CompressedContext(failure_log="ERROR: kaboom")
    _, user = render_prompt("patcher", "task", [], ctx)
    assert "Previous attempt summary" in user.content
    assert "ERROR: kaboom" in user.content


def test_render_prompt_drops_lowest_ranked_first_under_budget():
    memories = [ranked("L1", n, text_size=400) for n in range(1, 5)]
    full, _ = render_prompt("patcher", "task", memories)
    budget = 2_000
    system, user = render_prompt("patcher", "task", memories, budget=budget)
    assert len(system.content) + len(user.content) <= budget
    assert "Experience 1" in user.content
    assert "proj.cve-2020-4" not in user.content  # tail dropped first
    # order of survivors is unchanged
    kept = [n for n in range(1, 5) if f"proj.cve-2020-{n}" in user.content]
    assert kept == sorted(kept)


def test_render_prompt_budget_drop_is_strictly_from_tail():
    memories = [ranked("L1", n, text_size=600) for n in range(1, 5)]
    for budget in (5_000, 4_000, 3_000, 2_200):
        _, user = render_prompt("patcher", "task", memories, budget=budget)
        present = [n for n in range(1, 5) if f"proj.cve-2020-{n}" in user.content]
        assert present == list(range(1, len(present) + 1))


def test_render_prompt_rejects_unknown_phase():
    with pytest.raises(ValueError):
        render_prompt("astrologer", "task", [])


def test_tier_labels_visible_in_prompt():
    memories = [ranked("L1", 1), ranked("L2", 2), ranked("L3", 3)]
    _, user = render_prompt("patcher", "task", memories)
    assert "[L1 historical fix]" in user.content
    assert "[L2 security pattern]" in user.content
    assert "[L3 refinement trajectory]" in user.content
    assert "rule 3" in user.content


def test_http_gateway_retries_then_exhausts(monkeypatch):
    sleeps = []
    monkeypatch.setattr("patchloop.gateway.time.sleep", sleeps.append)
    gw = HttpGateway(GatewayConfig(backend="http", endpoint="http://127.0.0.1:9", timeout=0.2))
    with pytest.raises(GatewayExhausted):
        gw.complete([ChatTurn("system", "s")], [])
    assert sleeps == [1, 2]  # exponential backoff between the 3 attempts


@pytest.mark.parametrize(
    "status, calls, sleeps",
    [(401, 1, []), (404, 1, []), (408, 3, [1, 2]), (429, 3, [1, 2]), (503, 3, [1, 2])],
)
def test_http_gateway_fails_fast_only_on_non_retryable_4xx(monkeypatch, status, calls, sleeps):
    import urllib.error

    seen_sleeps, seen_urls = [], []

    def refuse(req, timeout=None):
        seen_urls.append(req.full_url)
        raise urllib.error.HTTPError(req.full_url, status, "refused", {}, None)

    monkeypatch.setattr("patchloop.gateway.time.sleep", seen_sleeps.append)
    monkeypatch.setattr("urllib.request.urlopen", refuse)
    gw = HttpGateway(GatewayConfig(backend="http", endpoint="http://127.0.0.1:9", timeout=0.2))
    with pytest.raises(GatewayExhausted, match=str(status)):
        gw.complete([ChatTurn("system", "s")], [])
    assert len(seen_urls) == calls
    assert seen_sleeps == sleeps


def _retry_after(value: str | None) -> http.client.HTTPMessage:
    headers = http.client.HTTPMessage()
    if value is not None:
        headers["Retry-After"] = value
    return headers


@pytest.mark.parametrize(
    "status, retry_after, sleeps",
    [
        (429, "0", [0, 0]),
        (503, "1", [1, 1]),
        (429, " 2 ", [2, 1]),  # the two waits stay within the 1 + 2 s of the backoff
        (503, "120", [3, 0]),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", [1, 2]),
        (503, "soon", [1, 2]),
        (429, None, [1, 2]),
        (408, "0", [1, 2]),  # only 429 and 503 set the wait
    ],
)
def test_http_gateway_honours_retry_after(monkeypatch, status, retry_after, sleeps):
    import urllib.error

    seen_sleeps, seen_urls = [], []

    def refuse(req, timeout=None):
        seen_urls.append(req.full_url)
        raise urllib.error.HTTPError(req.full_url, status, "busy", _retry_after(retry_after), None)

    monkeypatch.setattr("patchloop.gateway.time.sleep", seen_sleeps.append)
    monkeypatch.setattr("urllib.request.urlopen", refuse)
    gw = HttpGateway(GatewayConfig(backend="http", endpoint="http://127.0.0.1:9", timeout=0.2))
    with pytest.raises(GatewayExhausted, match=str(status)):
        gw.complete([ChatTurn("system", "s")], [])
    assert len(seen_urls) == 3
    assert seen_sleeps == sleeps


# ---------------------------------------------------------------------------
# live backends against a loopback server
# ---------------------------------------------------------------------------


@pytest.fixture
def loopback(monkeypatch):
    """An HTTP server on 127.0.0.1: answers a POST with ``replies[path]`` and
    records (path, Authorization header, JSON body) in ``seen``."""
    for var in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(var, "127.0.0.1")
    replies: dict[str, dict] = {}
    seen: list[tuple] = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            seen.append((self.path, self.headers.get("Authorization"), body))
            data = json.dumps(replies[self.path]).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1", replies, seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def test_http_gateway_sends_the_key_and_decodes_tool_calls(loopback, monkeypatch):
    url, replies, seen = loopback
    call = {"id": "c0", "type": "function",
            "function": {"name": "view", "arguments": json.dumps({"path": "a.c"})}}
    replies["/v1/chat/completions"] = {"choices": [{"message": {"content": None, "tool_calls": [call]}}]}
    monkeypatch.setenv("PATCHLOOP_TEST_KEY", "sekrit")
    gw = HttpGateway(GatewayConfig(backend="http", endpoint=url + "/", model_name="m",
                                   api_key_env="PATCHLOOP_TEST_KEY", timeout=5))
    reply = gw.complete([ChatTurn("user", "hi")], [])
    assert (reply.role, reply.content) == ("assistant", "")
    assert [(c.name, c.args) for c in reply.tool_calls] == [("view", {"path": "a.c"})]
    [(path, auth, body)] = seen
    assert (path, auth) == ("/v1/chat/completions", "Bearer sekrit")
    assert body == {"model": "m", "temperature": 0.0, "messages": [{"role": "user", "content": "hi"}]}


def test_remote_embedder_reads_the_first_embedding(loopback, monkeypatch):
    url, replies, seen = loopback
    replies["/v1/embeddings"] = {"data": [{"embedding": [0.5, -1, 2]}]}
    monkeypatch.setenv("PATCHLOOP_TEST_KEY", "sekrit")
    vec = RemoteEmbedder(url, "emb", api_key_env="PATCHLOOP_TEST_KEY", timeout=5).embed("some text")
    assert vec.dtype == "float64" and vec.tolist() == [0.5, -1.0, 2.0]
    assert seen == [("/v1/embeddings", "Bearer sekrit", {"model": "emb", "input": ["some text"]})]


@pytest.mark.parametrize(
    "reply",
    [{"choices": None}, {"choices": [{"message": None}]}, {"choices": []}, ["not", "an", "object"]],
    ids=["choices null", "message null", "no choices", "a list"],
)
def test_http_gateway_reply_of_the_wrong_shape_exhausts(loopback, reply):
    url, replies, _ = loopback
    replies["/v1/chat/completions"] = reply
    gw = HttpGateway(GatewayConfig(backend="http", endpoint=url, timeout=5))
    with pytest.raises(GatewayExhausted, match="malformed completion response"):
        gw.complete([ChatTurn("user", "hi")], [])


@pytest.mark.parametrize(
    "call",
    [{"id": "c0", "type": "function"}, {"function": {"name": "view"}}, {"function": None}, "view"],
    ids=["no function", "no arguments", "function null", "a string"],
)
def test_http_gateway_tool_call_without_a_function_is_malformed(loopback, call):
    url, replies, _ = loopback
    replies["/v1/chat/completions"] = {"choices": [{"message": {"tool_calls": [call]}}]}
    gw = HttpGateway(GatewayConfig(backend="http", endpoint=url, timeout=5))
    with pytest.raises(MalformedToolCall):
        gw.complete([ChatTurn("user", "hi")], [])
