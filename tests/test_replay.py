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
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import conftest as fx
from patchloop import cli
from patchloop.config import EngineConfig

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
