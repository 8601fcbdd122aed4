"""Scripted replays are byte-for-byte reproducible.

The four transcript shapes run in order through ``cli.repair_one`` against
one memory file on the demo repository. The memory file starts with one
L1 entry in the task's P1 pool and one in its P2 pool, so every user turn
renders memories, and each later session retrieves the L2 and L3 entries
the earlier ones consolidated. The SHA-256 of every report, every
trajectory and the final memory file must equal the digests checked in
beside this test (``replay_digests.json``).

A change that alters these bytes on purpose updates that file with the
digests the failing assertion prints, and says which files changed and why.

One session also runs through the live chat-completions client against a
loopback server that replies with the transcript's turns: its outcome, diff
and tool results must equal the scripted replay's, and the digest of the
request bodies it posts is pinned here as well.
"""

from __future__ import annotations

import gc
import hashlib
import json
from pathlib import Path

import pytest

import conftest as fx
from patchloop import cli
from patchloop.config import EngineConfig
from patchloop.gateway import GatewayConfig
from patchloop.memory import load_store

DIGESTS = Path(__file__).with_name("replay_digests.json")

# Run in this order; each session's instance id is newer than the last, so
# what an earlier session consolidated is in a later one's P1 pool.
SHAPES = [
    ("success", fx.transcript_success,
     "out-of-bounds write: the copy loop writes past the destination buffer "
     "capacity when the payload length exceeds it"),
    ("relocate_then_success", fx.transcript_relocate_then_success,
     "heap overflow in safe_copy, which trusts a caller supplied length"),
    ("regenerate_then_success", fx.transcript_regenerate_then_success,
     "unchecked length lets a large payload overrun the byte buffer"),
    ("four_failures", fx.transcript_four_failures,
     "buffer copy helper corrupts memory past its capacity on long input"),
]


def _l1(project: str, instance_id: str, description: str, old: str, new: str) -> dict:
    return {
        "tier": "L1", "project": project, "cwe": fx.DEMO_KEYS.cwe,
        "language": fx.DEMO_KEYS.language, "instance_id": instance_id,
        "description": description,
        "fix_patch": f"--- a/copy.py\n+++ b/copy.py\n@@ -1,2 +1,3 @@\n def copy(dst, src, n):\n"
                     f"-    {old}\n+    {new}\n+    return dst\n",
    }


SEED_MEMORY = [
    # P1: the task's project, an older CVE.
    _l1(fx.DEMO_KEYS.project, "bufferkit.cve-2019-7001",
        "copy loop wrote past the end of the destination buffer",
        "dst[:n] = src[:n]", "dst[:min(n, len(dst))] = src[:min(n, len(dst))]"),
    # P2: another project, same CWE and language.
    _l1("ringlib", "ringlib.cve-2021-3300",
        "ring buffer write overruns its capacity when the length is not checked",
        "dst.extend(src[:n])", "dst.extend(src[:min(n, dst.free)])"),
]


def replay(tmp_path: Path) -> dict[str, str]:
    """Run the four shapes in order; returns each written file's SHA-256."""
    repo = fx.init_repo(tmp_path / "demo", dict(fx.DEMO_FILES))
    memory_file = tmp_path / "memory.jsonl"
    memory_file.write_text("".join(json.dumps(rec) + "\n" for rec in SEED_MEMORY), encoding="utf-8")
    out_dir = tmp_path / "out"
    cfg = EngineConfig()
    written = []
    for n, (shape, transcript, description) in enumerate(SHAPES, 1):
        task = fx.demo_task_json(repo, {
            "instance_id": f"bufferkit.cve-2024-2000{n}",
            "description": description,
            "transcript": str(transcript(tmp_path / f"{shape}.transcript.jsonl")),
        })
        task_file = tmp_path / f"{n}-{shape}.json"
        task_file.write_text(json.dumps(task), encoding="utf-8")
        _, report = cli.repair_one(task_file, memory_file, cfg, out_dir)
        written += [report, report.with_name(f"{task_file.stem}.trajectory.jsonl")]
        fx.git(repo, "checkout", "--", ".")  # a success keeps its patch
    written.append(memory_file)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}


def test_scripted_replays_match_their_checked_in_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = replay(tmp_path)
    assert got == expected, "replay bytes changed; new digests:\n" + json.dumps(got, indent=2)


# ---------------------------------------------------------------------------
# One whole session through the live chat-completions client
# ---------------------------------------------------------------------------

RATIONALE = "the guard refuses a copy longer than the buffer before the loop runs"
INSIGHT = "compare the length with the real capacity, not a multiple of it"

# SHA-256 of every request body the live session posts, one JSON document a
# line; a change that alters what the model is sent changes this digest.
LIVE_REQUESTS_DIGEST = "082683cb3ae97e201082dbcca59285618a3e91319942c0f4aa60e1f40c43a4fa"


def _completion(turn: dict) -> dict:
    """A transcript turn as a chat-completions reply."""
    message = {"role": "assistant", "content": turn["content"]}
    if turn.get("tool_calls"):
        message["tool_calls"] = [
            {"id": f"call_{i}", "type": "function",
             "function": {"name": call["name"], "arguments": json.dumps(call["args"])}}
            for i, call in enumerate(turn["tool_calls"])
        ]
    return {"choices": [{"message": message}]}


def _session(tmp_path: Path, cfg: EngineConfig, task_extra: dict) -> tuple[dict, list[dict], Path]:
    """One relocate-then-success session on a fresh demo repository and a
    seeded memory file; returns its report, its trajectory and that file."""
    repo = fx.init_repo(tmp_path / "demo", dict(fx.DEMO_FILES))
    memory_file = tmp_path / "memory.jsonl"
    memory_file.write_text("".join(json.dumps(rec) + "\n" for rec in SEED_MEMORY), encoding="utf-8")
    task_file = tmp_path / "task.json"
    task_file.write_text(json.dumps(fx.demo_task_json(repo, task_extra)), encoding="utf-8")
    _, report = cli.repair_one(task_file, memory_file, cfg, tmp_path / "out")
    trajectory = report.with_name("task.trajectory.jsonl").read_text(encoding="utf-8")
    return (json.loads(report.read_text(encoding="utf-8")),
            [json.loads(line) for line in trajectory.splitlines()], memory_file)


@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
def test_a_live_session_matches_its_scripted_replay(tmp_path, http_server):
    transcript = fx.transcript_relocate_then_success(tmp_path / "t.jsonl")
    scripted, scripted_trajectory, _ = _session(tmp_path / "scripted", EngineConfig(),
                                                {"transcript": str(transcript)})

    turns = [json.loads(line)["turn"] for line in transcript.read_text(encoding="utf-8").splitlines()]
    replies = iter([_completion(turn) for turn in turns]
                   + [_completion({"content": RATIONALE}), _completion({"content": INSIGHT})])
    http_server.answer = lambda path, body: (200, {}, next(replies))
    cfg = EngineConfig(gateway=GatewayConfig(backend="http", endpoint=http_server.url, model_name="m"))
    live, live_trajectory, memory_file = _session(tmp_path / "live", cfg, {})
    gc.collect()  # an unclosed socket warns only when it is collected

    assert (live["outcome"], live["final_diff"]) == (scripted["outcome"], scripted["final_diff"])
    assert live["outcome"] == "success"
    tool_results = [[r for r in t if r["type"] == "tool"] for t in (scripted_trajectory, live_trajectory)]
    assert tool_results[0] == tool_results[1] and tool_results[0]
    assert next(replies, None) is None

    bodies = [body for _, _, body in http_server.seen]
    # The transcript's turns, then the verifier's rationale and insight.
    assert [path for path, _, _ in http_server.seen] == ["/v1/chat/completions"] * (len(turns) + 2)
    tool_messages = 0
    for body in bodies:
        open_ids: set[str] = set()
        for message in body["messages"]:
            if message["role"] == "assistant":
                open_ids = {call["id"] for call in message.get("tool_calls", [])}
            elif message["role"] == "tool":
                assert message["tool_call_id"] in open_ids, message
                tool_messages += 1
    assert tool_messages
    digest = hashlib.sha256("".join(json.dumps(b) + "\n" for b in bodies).encode("utf-8")).hexdigest()
    assert digest == LIVE_REQUESTS_DIGEST

    store = load_store(memory_file)
    assert [e.rationale for e in store.l2] == [RATIONALE]
    assert [e.transition_insight for e in store.l3] == [INSIGHT]
