from __future__ import annotations

import gc
import http.client
import io
import json
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_transcript
from patchloop.errors import EmbeddingUnavailable, GatewayExhausted, MalformedToolCall
from patchloop.gateway import (
    DEFAULT_PROMPT_BUDGET,
    PHASES,
    ChatTurn,
    GatewayConfig,
    HttpGateway,
    RemoteEmbedder,
    ScriptedGateway,
    _base_prompt,
    _render_memory,
    build_gateway,
    post_json,
    render_prompt,
)
from patchloop import memory
from patchloop.memory import L1Entry, L2Entry, L3Entry, RetrievalKeys
from patchloop.retrieval import Priority, RankedEntry

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
    assert isinstance(build_gateway(GatewayConfig(backend="http", endpoint="http://127.0.0.1:9")), HttpGateway)
    with pytest.raises(ValueError):
        build_gateway(GatewayConfig(backend="scripted"))
    with pytest.raises(ValueError):
        build_gateway(GatewayConfig(backend="carrier-pigeon"))


def test_http_payload_shape():
    gw = HttpGateway(GatewayConfig(endpoint="http://127.0.0.1:9", model_name="m", temperature=0.0))
    from patchloop.workspace import ToolCall

    history = [
        ChatTurn("system", "sys"),
        ChatTurn("assistant", "", tool_calls=[ToolCall("view", {"path": "a"}), ToolCall("search", {})]),
        ChatTurn("tool", "output"),
        ChatTurn("tool", "matches"),
        ChatTurn("assistant", "", tool_calls=[ToolCall("view", {"path": "b"})]),
        ChatTurn("tool", "more output"),
    ]
    payload = gw._payload(history, {"view": {"path": "file"}, "search": {}})
    assert payload["model"] == "m"
    assert payload["temperature"] == 0.0
    assert payload["messages"][1]["tool_calls"][0]["function"]["name"] == "view"
    assert json.loads(payload["messages"][1]["tool_calls"][0]["function"]["arguments"]) == {
        "path": "a"
    }
    # Each tool turn answers the call at its position after the assistant turn.
    assert [c["id"] for c in payload["messages"][1]["tool_calls"]] == ["call_0", "call_1"]
    assert [m.get("tool_call_id") for m in payload["messages"][2:]] == ["call_0", "call_1", None, "call_0"]
    assert payload["tools"] == [
        {"type": "function", "function": {"name": "view", "parameters": {
            "type": "object", "properties": {"path": {"type": "string", "description": "file"}}}}},
        {"type": "function", "function": {"name": "search", "parameters": {
            "type": "object", "properties": {}}}},
    ]
    assert "tools" not in gw._payload(history, {})


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


SUMMARY = "[visited files/line ranges]\nf.c:1-5\n[verification failure log]\nERROR: boom"


def test_render_prompt_is_pure():
    memories = [ranked("L1", 1), ranked("L2", 2)]
    a = render_prompt("patcher", "task text", memories, SUMMARY)
    b = render_prompt("patcher", "task text", memories, SUMMARY)
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


def test_each_phase_prompt_file_is_read_once(monkeypatch):
    files = resources.files
    reads = []
    monkeypatch.setattr("patchloop.gateway.resources.files", lambda pkg: reads.append(pkg) or files(pkg))
    _base_prompt.cache_clear()
    for _ in range(2):
        for phase in PHASES:
            assert render_prompt(phase, "task", [])[0].content.strip()
        with pytest.raises(ValueError, match="unknown phase: 'planner'"):
            _base_prompt("planner")
    assert len(reads) == 3


def test_render_prompt_appends_compressed_context():
    _, user = render_prompt("patcher", "task", [], SUMMARY)
    assert user.content == f"task\n\n# Previous attempt summary\n\n{SUMMARY}"


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


def reference_render_prompt(
    phase, task_text, memories, summary="", budget=DEFAULT_PROMPT_BUDGET
):
    """The drop loop ``render_prompt`` replaced: render everything, drop the
    lowest-ranked memory, render everything again, until the turns fit."""
    system = ChatTurn(role="system", content=_base_prompt(phase))
    kept = list(memories)
    while True:
        parts = [task_text]
        if kept:
            parts.append("# Retrieved repair experience")
            parts.extend(_render_memory(i + 1, r) for i, r in enumerate(kept))
        if summary:
            parts.append("# Previous attempt summary")
            parts.append(summary)
        user = ChatTurn(role="user", content="\n\n".join(parts))
        if len(system.content) + len(user.content) <= budget or not kept:
            return system, user
        kept.pop()


@settings(max_examples=200, deadline=None)
@given(
    phase=st.sampled_from(PHASES),
    task_text=st.text(max_size=300),
    specs=st.lists(
        st.tuples(st.sampled_from(["L1", "L2", "L3"]), st.integers(0, 99), st.integers(0, 400)),
        max_size=8,
    ),
    summary=st.text(max_size=300),
    data=st.data(),
)
def test_render_prompt_matches_the_drop_loop(phase, task_text, specs, summary, data):
    memories = [ranked(tier, n, size) for tier, n, size in specs]
    # the length with each count of memories kept, one either side, or any
    # budget up to the full length
    edges = []
    for k in range(len(memories) + 1):
        turns = reference_render_prompt(phase, task_text, memories[:k], summary, 10**9)
        edges.append(sum(len(t.content) for t in turns))
    near = sorted({max(0, e + d) for e in edges for d in (-1, 0, 1)})
    budget = data.draw(st.integers(0, edges[-1]) | st.sampled_from(near), label="budget")
    got = render_prompt(phase, task_text, memories, summary, budget=budget)
    want = reference_render_prompt(phase, task_text, memories, summary, budget=budget)
    assert (got[0].content, got[1].content) == (want[0].content, want[1].content)


def test_render_prompt_rejects_unknown_phase():
    with pytest.raises(ValueError):
        render_prompt("astrologer", "task", [])


GOLDEN_MEMORIES = {
    "L1": (
        "## Experience 1 [L1 historical fix] (P1, similarity 0.990)\n"
        "project=proj cwe=CWE-787 language=c id=proj.cve-2020-1\n"
        "desc 1\n"
        "fix:\n--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-a1\n+b1\n"
    ),
    "L2": (
        "## Experience 1 [L2 security pattern] (P1, similarity 0.980)\n"
        "project=proj cwe=CWE-787 language=c id=proj.cve-2020-2\n"
        "desc 2\n"
        "fix:\n--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-a2\n+b2\n\n"
        "why it worked: why 2"
    ),
    "L3": (
        "## Experience 1 [L3 refinement trajectory] (P1, similarity 0.970)\n"
        "project=proj cwe=CWE-787 language=c id=proj.cve-2020-3\n"
        "desc 3\n"
        "failed patch:\n--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-a3\n+b3\n\n"
        "correction:\n--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-a3\n+c3\n\n"
        "transition rule: rule 3"
    ),
}


@pytest.mark.parametrize("tier, n", [("L1", 1), ("L2", 2), ("L3", 3)])
def test_each_tier_renders_as_its_golden_text(tier, n):
    assert _render_memory(1, ranked(tier, n)) == GOLDEN_MEMORIES[tier]


@pytest.mark.parametrize("tier", memory.TIERS)
def test_each_tier_captions_exactly_its_own_fields_in_order(tier):
    assert list(memory.ENTRY_TYPES[tier].CAPTIONS) == memory._TIER_FIELDS[tier]


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


def test_post_json_turns_an_invalid_url_into_a_value_error_without_retrying(monkeypatch):
    calls, sleeps = [], []

    def urlopen(req, timeout):
        calls.append(req.full_url)
        raise http.client.InvalidURL("URL can't contain control characters")

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    monkeypatch.setattr("patchloop.gateway.time.sleep", sleeps.append)
    url = "http://127.0.0.1:9/v1/a b"
    with pytest.raises(ValueError, match=re.escape(f"control characters: {url}")):
        post_json(url, {}, "PATCHLOOP_TEST_NO_KEY", 0.2, GatewayExhausted)
    assert (calls, sleeps) == ([url], [])


# Each live client: one request through it to `url`, returning the reply's
# content or vector as plain data; the error its failures raise; and the
# prefix of that error's message.
LIVE_CLIENTS = {
    "gateway": (
        lambda url: HttpGateway(GatewayConfig(backend="http", endpoint=url, timeout=5)).complete(
            [ChatTurn("system", "s")], []
        ).content,
        GatewayExhausted,
        "gateway ",
    ),
    "embedder": (
        lambda url: RemoteEmbedder(url, "emb", timeout=5).embed("some text").tolist(),
        EmbeddingUnavailable,
        "embedding request failed: ",
    ),
}


def over_live_clients(argnames: str, cases: list[tuple], ids: list[str]):
    """Parametrize over ("client", *argnames): each case once per live client.
    The gateway's cases keep the ids pytest gives `cases` on their own."""
    return pytest.mark.parametrize(
        ("client", *argnames.split(", ")),
        [
            pytest.param(client, *case, id=id if client == "gateway" else f"{client}-{id}")
            for client in LIVE_CLIENTS
            for case, id in zip(cases, ids)
        ],
    )


def refuse_with(monkeypatch, status: int, headers: http.client.HTTPMessage) -> list[str]:
    """Answer every request with HTTP `status` and `headers`, without a
    network; returns the list of URLs asked for."""
    import urllib.error

    seen_urls: list[str] = []

    def refuse(req, timeout=None):
        seen_urls.append(req.full_url)
        raise urllib.error.HTTPError(req.full_url, status, "refused", headers, io.BytesIO())

    monkeypatch.setattr("urllib.request.urlopen", refuse)
    return seen_urls


FAIL_FAST = [(401, 1, []), (404, 1, []), (408, 3, [1, 2]), (429, 3, [1, 2]), (503, 3, [1, 2])]


@over_live_clients(
    "status, calls, sleeps", FAIL_FAST,
    [f"{status}-{calls}-sleeps{i}" for i, (status, calls, _) in enumerate(FAIL_FAST)],
)
def test_http_gateway_fails_fast_only_on_non_retryable_4xx(monkeypatch, client, status, calls, sleeps):
    post, error, prefix = LIVE_CLIENTS[client]
    seen_sleeps = []
    monkeypatch.setattr("patchloop.gateway.time.sleep", seen_sleeps.append)
    seen_urls = refuse_with(monkeypatch, status, _retry_after(None))
    with pytest.raises(error, match=f"^{prefix}.*{status}"):
        post("http://127.0.0.1:9")
    assert len(seen_urls) == calls
    assert seen_sleeps == sleeps


def _retry_after(value: str | None) -> http.client.HTTPMessage:
    headers = http.client.HTTPMessage()
    if value is not None:
        headers["Retry-After"] = value
    return headers


RETRY_AFTER_CASES = [
    (429, "0", [0, 0]),
    (503, "1", [1, 1]),
    (429, " 2 ", [2, 1]),  # the two waits stay within the 1 + 2 s of the backoff
    (503, "120", [3, 0]),
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", [1, 2]),
    (503, "soon", [1, 2]),
    (429, None, [1, 2]),
    (408, "0", [1, 2]),  # only 429 and 503 set the wait
]


@over_live_clients(
    "status, retry_after, sleeps", RETRY_AFTER_CASES,
    [f"{status}-{after}-sleeps{i}" for i, (status, after, _) in enumerate(RETRY_AFTER_CASES)],
)
def test_http_gateway_honours_retry_after(monkeypatch, client, status, retry_after, sleeps):
    post, error, prefix = LIVE_CLIENTS[client]
    seen_sleeps = []
    monkeypatch.setattr("patchloop.gateway.time.sleep", seen_sleeps.append)
    seen_urls = refuse_with(monkeypatch, status, _retry_after(retry_after))
    with pytest.raises(error, match=f"^{prefix}.*{status}"):
        post("http://127.0.0.1:9")
    assert len(seen_urls) == 3
    assert seen_sleeps == sleeps


@pytest.mark.parametrize("client", LIVE_CLIENTS)
@pytest.mark.parametrize(
    "endpoint", ["127.0.0.1/v1", "foo://127.0.0.1/v1", "http:///v1", "http://127.0.0.1:x/v1"],
    ids=["no scheme", "not http", "no host", "port not a number"],
)
def test_a_malformed_endpoint_is_a_value_error_at_once(monkeypatch, client, endpoint):
    post, _, _ = LIVE_CLIENTS[client]
    sleeps = []
    monkeypatch.setattr("patchloop.gateway.time.sleep", sleeps.append)
    with pytest.raises(ValueError):
        post(endpoint)
    assert sleeps == []


@pytest.mark.parametrize(
    "build",
    [lambda url: HttpGateway(GatewayConfig(backend="http", endpoint=url)), lambda url: RemoteEmbedder(url, "emb")],
    ids=["gateway", "embedder"],
)
@pytest.mark.parametrize(
    "endpoint", ["", "127.0.0.1/v1", "foo://127.0.0.1/v1", "http:///v1", "http://127.0.0.1:x/v1"],
    ids=["empty", "no scheme", "not http", "no host", "port not a number"],
)
def test_a_malformed_endpoint_is_refused_when_the_client_is_built(build, endpoint):
    with pytest.raises(ValueError, match=f": {re.escape(endpoint)}/(chat/completions|embeddings)$"):
        build(endpoint)


# ---------------------------------------------------------------------------
# live backends against a loopback server
# ---------------------------------------------------------------------------


@pytest.fixture
def loopback(http_server):
    """The loopback server answering a POST with ``replies[path]``: yields its
    URL, the replies and the (path, Authorization header, JSON body) of each
    request."""
    replies: dict[str, dict] = {}
    http_server.answer = lambda path, body: (200, {}, replies[path])
    yield http_server.url, replies, http_server.seen


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
    [
        [],
        {"data": None},
        {"data": [{"embedding": None}]},
        {"data": [{"embedding": []}]},
        {"data": [{"embedding": [[0.5, 1]]}]},
        {"data": [{"embedding": [0.5, None]}]},
        {"data": [{"embedding": [0.5, "1"]}]},
    ],
    ids=["a list", "data null", "embedding null", "empty", "nested", "a null", "a string"],
)
def test_remote_embedder_reply_of_the_wrong_shape_is_unavailable(loopback, reply):
    url, replies, _ = loopback
    replies["/v1/embeddings"] = reply
    with pytest.raises(EmbeddingUnavailable):
        RemoteEmbedder(url, "emb", timeout=5).embed("some text")


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
    "content",
    [[{"type": "text", "text": "hi"}], {"text": "hi"}, 7, False],
    ids=["a list of parts", "an object", "a number", "false"],
)
def test_http_gateway_content_that_is_not_a_string_exhausts(loopback, content):
    url, replies, _ = loopback
    replies["/v1/chat/completions"] = {"choices": [{"message": {"content": content}}]}
    gw = HttpGateway(GatewayConfig(backend="http", endpoint=url, timeout=5))
    with pytest.raises(GatewayExhausted, match=r"malformed completion response: content is \w+"):
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


@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize(
    "client, path, want",
    [("gateway", "/v1/chat/completions", "done"), ("embedder", "/v1/embeddings", [0.5, -1.0, 2.0])],
)
def test_a_503_then_a_200_returns_the_reply_and_closes_the_503(http_server, monkeypatch, client, path, want):
    post, _, _ = LIVE_CLIENTS[client]
    reply = {"choices": [{"message": {"content": "done"}}], "data": [{"embedding": [0.5, -1, 2]}]}
    answers = iter([(503, {}, {}), (200, {}, reply)])
    http_server.answer = lambda *_: next(answers)
    sleeps = []
    monkeypatch.setattr("patchloop.gateway.time.sleep", sleeps.append)
    assert post(http_server.url) == want
    gc.collect()  # an unclosed response warns only when it is collected
    assert [seen_path for seen_path, _, _ in http_server.seen] == [path] * 2
    assert sleeps == [1]


def test_remote_embedder_gives_up_at_once_on_a_400(http_server, monkeypatch):
    http_server.answer = lambda path, body: (400, {}, {"error": "bad input"})
    sleeps = []
    monkeypatch.setattr("patchloop.gateway.time.sleep", sleeps.append)
    with pytest.raises(EmbeddingUnavailable, match="^embedding request failed: refused the request: HTTP 400"):
        RemoteEmbedder(http_server.url, "emb", timeout=5).embed("some text")
    assert len(http_server.seen) == 1 and sleeps == []
