"""Shared fixtures: a vulnerable demo repository, a crash-report fixture
repo matching the documented ranking example, and scripted transcripts."""

from __future__ import annotations

import http.server
import json
import subprocess
import threading
from pathlib import Path

import pytest

from patchloop.memory import RetrievalKeys
from patchloop.oracle import OracleRunner
from patchloop.workspace import Workspace

# ---------------------------------------------------------------------------
# git helpers
# ---------------------------------------------------------------------------


def git(repo: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-c", "user.email=fixture@example.com", "-c", "user.name=fixture", *args],
        cwd=repo,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"git {args} failed: {proc.stderr}"
    return proc.stdout


def init_repo(root: Path, files: dict[str, str]) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-qm", "baseline")
    return root


# ---------------------------------------------------------------------------
# Demo repository: a seeded out-of-bounds write behind a copy helper.
# ---------------------------------------------------------------------------

BUFFER_PY = '''"""Byte buffer with explicit capacity bookkeeping."""


class Buffer:
    def __init__(self, capacity):
        self.capacity = capacity
        self.data = bytearray(capacity)
        self.length = 0


def safe_copy(buf, src, length):
    i = 0
    while i < length:
        buf.data[i] = src[i]
        i += 1
    buf.length = length
    return buf
'''

POC_PY = '''import sys

from app.buffer import Buffer, safe_copy


def main():
    payload = b"A" * 64
    buf = Buffer(16)
    try:
        safe_copy(buf, payload, len(payload))
    except IndexError:
        print("==1000==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x602000000010")
        print("WRITE of size 1 at 0x602000000010 thread T0")
        print("    #0 0x0000004009ae in safe_copy app/buffer.py:14")
        print("    #1 0x000000400b17 in main poc.py:10")
        print("SUMMARY: AddressSanitizer: heap-buffer-overflow app/buffer.py:14 in safe_copy")
        return 1
    except ValueError as exc:
        print("oversized input rejected: %s" % exc)
        return 0
    if buf.length > buf.capacity:
        print("==1000==ERROR: AddressSanitizer: heap-buffer-overflow (silent)")
        return 1
    print("copy completed within capacity")
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''

TESTS_PY = '''import sys

from app.buffer import Buffer, safe_copy


def check(name, fn):
    try:
        fn()
    except Exception as exc:
        print("FAIL %s (%r)" % (name, exc))
        return False
    print("PASS %s" % name)
    return True


def copies_payload():
    buf = safe_copy(Buffer(8), b"abcd", 4)
    assert bytes(buf.data[:4]) == b"abcd"


def tracks_length():
    buf = safe_copy(Buffer(8), b"xy", 2)
    assert buf.length == 2


def zero_length_copy():
    buf = safe_copy(Buffer(4), b"", 0)
    assert buf.length == 0


def main():
    results = [
        check("copies_payload", copies_payload),
        check("tracks_length", tracks_length),
        check("zero_length_copy", zero_length_copy),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
'''

DEMO_FILES = {
    ".gitignore": "__pycache__/\n*.pyc\n",
    "app/__init__.py": "",
    "app/buffer.py": BUFFER_PY,
    "poc.py": POC_PY,
    "tests.py": TESTS_PY,
}

REPLACE_OLD = "def safe_copy(buf, src, length):\n    i = 0\n"

GOOD_NEW = (
    "def safe_copy(buf, src, length):\n"
    "    if length > buf.capacity:\n"
    '        raise ValueError("copy of %d exceeds capacity %d" % (length, buf.capacity))\n'
    "    i = 0\n"
)

# Guard threshold far too lax: the overflow still triggers (wrong root cause).
BAD_NEW_NOT_FIXED = (
    "def safe_copy(buf, src, length):\n"
    "    if length > buf.capacity * 8:\n"
    '        raise ValueError("copy of %d exceeds capacity %d" % (length, buf.capacity))\n'
    "    i = 0\n"
)

# Rejects every copy: mitigates the PoC but breaks the regression suite.
BAD_NEW_REGRESSION = (
    "def safe_copy(buf, src, length):\n"
    '    raise ValueError("copy rejected")\n'
    "    i = 0\n"
)

DEMO_KEYS = RetrievalKeys(
    project="bufferkit",
    cwe="CWE-787",
    language="python",
    instance_id="bufferkit.cve-2024-20001",
    description=(
        "out-of-bounds write: the copy loop writes past the destination "
        "buffer capacity when the payload length exceeds it"
    ),
)


def demo_task_json(repo: Path, extra: dict | None = None) -> dict:
    task = {
        "repo": str(repo),
        "build_command": None,
        "poc_command": "python3 poc.py",
        "regression_command": "python3 tests.py",
        "pass_predicates": {
            "poc_command": "sanitizer_clean",
            "regression_command": "exit_zero",
        },
        "project": DEMO_KEYS.project,
        "cwe": DEMO_KEYS.cwe,
        "language": DEMO_KEYS.language,
        "instance_id": DEMO_KEYS.instance_id,
        "description": DEMO_KEYS.description,
        "ground_truth_files": ["app/buffer.py"],
    }
    task.update(extra or {})
    return task


def fail_next_read_tree(monkeypatch, skip: int) -> None:
    """Let the next `skip` ``read-tree`` calls of any workspace run, then
    make the one after them fail in git itself, as a full disk would, by
    naming a tree git does not have; later ones run as usual."""
    run, left = Workspace._git, [skip]

    def failing_once(self, *args):
        if args[0] == "read-tree":
            left[0] -= 1
            if left[0] < 0:
                monkeypatch.setattr(Workspace, "_git", run)
                args = (*args[:-1], "0" * 40)
        return run(self, *args)

    monkeypatch.setattr(Workspace, "_git", failing_once)


class CountingOracle(OracleRunner):
    """An oracle that counts how many candidates it judged."""

    check_vul_calls = 0

    def check_vul(self):
        self.check_vul_calls += 1
        return super().check_vul()


@pytest.fixture
def demo_repo(tmp_path: Path) -> Path:
    return init_repo(tmp_path / "demo", dict(DEMO_FILES))


# ---------------------------------------------------------------------------
# Scripted transcripts
# ---------------------------------------------------------------------------


def locator_turns(attempt: int) -> list[dict]:
    loc = {
        "file": "app/buffer.py",
        "line_start": 11,
        "line_end": 17,
        "reason": "crash frame #0 is the unguarded copy loop in safe_copy",
    }
    return [
        {
            "phase": "locator",
            "attempt": attempt,
            "turn": {
                "role": "assistant",
                "content": "following the crash frames",
                "tool_calls": [{"name": "iter_grep", "args": {"symbol": "safe_copy"}}],
            },
        },
        {
            "phase": "locator",
            "attempt": attempt,
            "turn": {"role": "assistant", "content": json.dumps(loc)},
        },
    ]


def patcher_turns(attempt: int, new_text: str) -> list[dict]:
    return [
        {
            "phase": "patcher",
            "attempt": attempt,
            "turn": {
                "role": "assistant",
                "content": "guarding the copy against oversized payloads",
                "tool_calls": [
                    {
                        "name": "str_replace",
                        "args": {"path": "app/buffer.py", "old": REPLACE_OLD, "new": new_text},
                    }
                ],
            },
        },
        {
            "phase": "patcher",
            "attempt": attempt,
            "turn": {"role": "assistant", "content": "PATCH READY"},
        },
    ]


def write_transcript(path: Path, records: list[dict]) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def transcript_success(path: Path) -> Path:
    return write_transcript(path, locator_turns(1) + patcher_turns(1, GOOD_NEW))


def transcript_relocate_then_success(path: Path) -> Path:
    return write_transcript(
        path,
        locator_turns(1)
        + patcher_turns(1, BAD_NEW_NOT_FIXED)
        + locator_turns(2)
        + patcher_turns(2, GOOD_NEW),
    )


def transcript_regenerate_then_success(path: Path) -> Path:
    return write_transcript(
        path,
        locator_turns(1)
        + patcher_turns(1, BAD_NEW_REGRESSION)
        + patcher_turns(2, GOOD_NEW),
    )


def transcript_four_failures(path: Path) -> Path:
    records: list[dict] = []
    for attempt in range(1, 5):
        records += locator_turns(attempt) + patcher_turns(attempt, BAD_NEW_NOT_FIXED)
    return write_transcript(path, records)


# ---------------------------------------------------------------------------
# Crash-ranking fixture: safe_copy defined at utils.c:40, crash at 45,
# caller at main.c:102. Filler lines are computed so the landmarks cannot
# drift; the builder asserts the layout.
# ---------------------------------------------------------------------------


def _pad_to(lines: list[str], target_len: int) -> None:
    while len(lines) < target_len:
        lines.append("/* filler */")


def crash_repo_files() -> dict[str, str]:
    utils = [
        "/* utils.c - packet buffer helpers. */",
        "",
        "#include <stdio.h>",
        "#include <string.h>",
        "",
        "#define MAX_PACKET 512",
        "",
        "unsigned int checksum(const char *data, size_t count) {",
        "    unsigned int acc = 0x1234;",
        "    size_t i;",
        "    for (i = 0; i < count; i++) {",
        "        acc = (acc << 3) ^ (unsigned char)data[i];",
        "    }",
        "    return acc;",
        "}",
        "",
        "void dump_hex(const char *data, size_t count) {",
        "    size_t i;",
        "    for (i = 0; i < count; i++) {",
        '        printf("%02x", (unsigned char)data[i]);',
        "    }",
        '    printf("\\n");',
        "}",
    ]
    _pad_to(utils, 39)
    utils += [
        "void safe_copy(char *dst, const char *src, size_t len) {",  # line 40
        "    if (dst == NULL || src == NULL) {",
        "        return;",
        "    }",
        "    /* copy payload into the caller buffer */",
        "    memcpy(dst, src, len);",  # line 45
        "}",
    ]
    assert utils[39].startswith("void safe_copy"), "safe_copy must sit at line 40"
    assert "memcpy" in utils[44], "memcpy must sit at line 45"

    main = [
        "/* main.c - packet tool front end. */",
        "",
        "#include <stdio.h>",
        "#include <stdlib.h>",
        "#include <string.h>",
        "",
        "void safe_copy(char *dst, const char *src, size_t n);",
        "unsigned int checksum(const char *data, size_t n);",
        "",
        "static void usage(const char *prog) {",
        '    fprintf(stderr, "usage: %s <packet-file>\\n", prog);',
        "}",
        "",
        "static long packet_size(FILE *fh) {",
        "    long size;",
        "    fseek(fh, 0, SEEK_END);",
        "    size = ftell(fh);",
        "    fseek(fh, 0, SEEK_SET);",
        "    return size;",
        "}",
    ]
    _pad_to(main, 90)
    main += [
        "int main(int argc, char **argv) {",  # line 91
        "    char out[512];",
        "    char packet[4096];",
        "    FILE *fh;",
        "    long n;",
        "    if (argc < 2) {",
        "        usage(argv[0]);",
        "        return 2;",
        "    }",
        '    fh = fopen(argv[1], "rb");',
        "    n = fread(packet, 1, sizeof(packet), fh);",
        "    size_t len = (size_t)n; safe_copy(out, packet, len);",  # line 102
        "    fclose(fh);",
        '    printf("checksum %08x\\n", checksum(out, (size_t)n));',
        "    return 0;",
        "}",
    ]
    assert "safe_copy(out, packet, len);" in main[101], "caller must sit at line 102"

    return {
        "utils.c": "\n".join(utils) + "\n",
        "main.c": "\n".join(main) + "\n",
    }


CRASH_REPORT = """=================================================================
==4242==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x602000000018 at pc 0x0000004009ae bp 0x7ffc7d3f5a40 sp 0x7ffc7d3f5a38
WRITE of size 1 at 0x602000000018 thread T0
    #0 0x4009ae in safe_copy utils.c:45
    #1 0x400b17 in main main.c:102
    #2 0x7f1a2b in __libc_start_main (/lib/x86_64-linux-gnu/libc.so.6+0x29d90)
SUMMARY: AddressSanitizer: heap-buffer-overflow utils.c:45 in safe_copy
"""


@pytest.fixture
def crash_repo(tmp_path: Path) -> Path:
    root = tmp_path / "crashrepo"
    root.mkdir()
    for rel, content in crash_repo_files().items():
        (root / rel).write_text(content, encoding="utf-8")
    return root


# ---------------------------------------------------------------------------
# Loopback HTTP server for the live clients
# ---------------------------------------------------------------------------


@pytest.fixture
def http_server(monkeypatch):
    """An HTTP server on 127.0.0.1, with the base URL ``server.url``. Each
    POST is recorded in ``server.seen`` as (path, Authorization header, JSON
    body) and answered with the (status, headers, JSON reply) that
    ``server.answer(path, body)`` returns."""
    for var in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(var, "127.0.0.1")

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            server.seen.append((self.path, self.headers.get("Authorization"), body))
            status, headers, reply = server.answer(self.path, body)
            data = json.dumps(reply).encode("utf-8")
            self.send_response(status)
            for name, value in {"Content-Type": "application/json", **headers}.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    server.url = f"http://127.0.0.1:{server.server_port}/v1"
    server.seen = []
    server.answer = lambda path, body: (200, {}, {})
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
