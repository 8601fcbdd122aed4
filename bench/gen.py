"""Seeded input generators: repositories, transcripts and memory corpora.

Everything here is a pure function of its seed and size arguments and
returns plain data (file maps, JSON records), so the same seed always
yields byte-identical inputs. Nothing here imports the engine: the engine
only ever sees what these functions produce.
"""

from __future__ import annotations

import json
import random

# ---------------------------------------------------------------------------
# Shared vocabulary
# ---------------------------------------------------------------------------

WORDS = (
    "buffer packet header length offset index bound capacity payload frame "
    "parser decoder encoder stream socket record field table entry chunk "
    "allocation pointer integer signed unsigned overflow underflow wrap size "
    "copy write read loop check guard array string slice cursor token queue "
    "session handshake certificate image pixel codec archive inflate deflate "
    "utf8 escape quote path directory request response cookie json xml"
).split()

CWES = ("CWE-787", "CWE-125", "CWE-190", "CWE-476", "CWE-416", "CWE-20", "CWE-22", "CWE-79")
LANGUAGES = ("c", "python", "cpp", "go", "java")
PROJECTS = (
    "bufferkit", "pktkit", "imgdec", "zipper", "netparse", "tinyhttp", "jsonlite",
    "certcheck", "fontview", "audiocodec",
)

# Workload sizes: the defaults of the generators below, which the workloads use.
C_FILES = 2000  # tracked files of the synthetic C repo
C_BUILD_FILES = 400  # gitignored binary outputs under its build/
SESSION_CORPUS_L1 = 300  # L1 entries pre-seeded for the session workloads
MEMORY_L1, MEMORY_L2, MEMORY_L3 = 2000, 300, 300  # memory_mix store per tier
DUP_SHARE = 0.1  # share of memory_mix L1 writes that are near-duplicates


def _sentence(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


def _diff(path: str, start: int, old: list[str], new: list[str], context: list[str]) -> str:
    """A syntactically valid one-hunk unified diff."""
    lines = [f"--- a/{path}", f"+++ b/{path}",
             f"@@ -{start},{len(context) + len(old)} +{start},{len(context) + len(new)} @@"]
    lines += [" " + c for c in context]
    lines += ["-" + o for o in old]
    lines += ["+" + n for n in new]
    return "\n".join(lines) + "\n"


def _random_patch(rng: random.Random, n_lines: int) -> str:
    path = f"src/{rng.choice(WORDS)}/{rng.choice(WORDS)}_{rng.randrange(1000)}.c"
    context = [f"    {rng.choice(WORDS)}_{i} = {rng.choice(WORDS)}({rng.choice(WORDS)});"
               for i in range(2)]
    old = [f"    {_sentence(rng, 4).replace(' ', '_')}(dst, src, len);" for _ in range(n_lines)]
    new = [f"    if (len > {rng.choice(WORDS)}_cap) return -1;"] + old
    return _diff(path, rng.randrange(1, 400), old, new, context)


def cve_id(project: str, year: int, seq: int) -> str:
    return f"{project}.cve-{year}-{seq}"


# ---------------------------------------------------------------------------
# Demo repository (the vulnerable Python copy helper) and its transcripts
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

DEMO_FILE = "app/buffer.py"
DEMO_OLD = "def safe_copy(buf, src, length):\n    i = 0\n"
DEMO_GOOD = (
    "def safe_copy(buf, src, length):\n"
    "    if length > buf.capacity:\n"
    '        raise ValueError("copy of %d exceeds capacity %d" % (length, buf.capacity))\n'
    "    i = 0\n"
)
# Guard far too lax: the overflow still triggers, so the verifier relocates.
DEMO_NOT_FIXED = DEMO_GOOD.replace("buf.capacity:\n", "buf.capacity * 8:\n")
# Rejects every copy: the PoC passes but the regression suite breaks.
DEMO_REGRESSION = (
    "def safe_copy(buf, src, length):\n"
    '    raise ValueError("copy rejected")\n'
    "    i = 0\n"
)

# Transcript shapes: the verdict sequence each one replays and what the
# session must end with under the default attempt cap of 3.
SHAPES = ("success", "relocate_success", "regenerate_success", "four_failures")
EXPECTED = {
    "success": ("success", 0),
    "relocate_success": ("success", 1),
    "regenerate_success": ("success", 1),
    "four_failures": ("exhausted", 3),
}


def shape_at(seed: int, index: int) -> str:
    """Shape of session `index`: consecutive seeded permutations of SHAPES,
    so every whole cycle of four sessions holds each shape once."""
    cycle = list(SHAPES)
    random.Random(f"shapes-{seed}-{index // len(SHAPES)}").shuffle(cycle)
    return cycle[index % len(SHAPES)]


def demo_repo() -> dict[str, str]:
    return {
        ".gitignore": "__pycache__/\n*.pyc\n",
        "app/__init__.py": "",
        "app/buffer.py": BUFFER_PY,
        "poc.py": POC_PY,
        "tests.py": TESTS_PY,
    }


def _turn(phase: str, attempt: int, content: str, calls: list[dict] | None = None) -> dict:
    turn: dict = {"role": "assistant", "content": content}
    if calls:
        turn["tool_calls"] = calls
    return {"phase": phase, "attempt": attempt, "turn": turn}


def _replay(shape: str, locator, patcher, good: str, not_fixed: str, regression: str) -> list[dict]:
    if shape == "success":
        return locator(1) + patcher(1, good)
    if shape == "relocate_success":
        return locator(1) + patcher(1, not_fixed) + locator(2) + patcher(2, good)
    if shape == "regenerate_success":
        return locator(1) + patcher(1, regression) + patcher(2, good)
    if shape == "four_failures":
        records: list[dict] = []
        for attempt in range(1, 5):
            records += locator(attempt) + patcher(attempt, not_fixed)
        return records
    raise ValueError(f"unknown shape {shape!r}")


def demo_transcript(shape: str) -> list[dict]:
    loc = {"file": DEMO_FILE, "line_start": 11, "line_end": 17,
           "reason": "crash frame #0 is the unguarded copy loop in safe_copy"}

    def locator(a: int) -> list[dict]:
        return [
            _turn("locator", a, "following the crash frames",
                  [{"name": "iter_grep", "args": {"symbol": "safe_copy"}}]),
            _turn("locator", a, json.dumps(loc)),
        ]

    def patcher(a: int, new: str) -> list[dict]:
        return [
            _turn("patcher", a, "guarding the copy against oversized payloads",
                  [{"name": "str_replace",
                    "args": {"path": DEMO_FILE, "old": DEMO_OLD, "new": new}}]),
            _turn("patcher", a, "PATCH READY"),
        ]

    return _replay(shape, locator, patcher, DEMO_GOOD, DEMO_NOT_FIXED, DEMO_REGRESSION)


# ---------------------------------------------------------------------------
# Synthetic C repository with an ignored build tree
# ---------------------------------------------------------------------------

C_GUARD = "    if (len > cap) return -1;\n"
C_NOT_FIXED = "    if (len > cap * 8) return -1;\n"
C_REGRESSION = "    if (len > cap) return -1;\n    return -1; /* reject all */\n"
C_OLD = "    /* copy payload into the caller buffer */\n"


def _c_function(rng: random.Random, name: str, callees: list[str]) -> list[str]:
    args = [f"{rng.choice(WORDS)}_{i}" for i in range(rng.randint(1, 3))]
    lines = [f"int {name}(" + ", ".join(f"size_t {a}" for a in args) + ") {",
             f"    size_t acc = {rng.randrange(1 << 16)};"]
    for _ in range(rng.randint(2, 6)):
        a = rng.choice(args)
        if callees and rng.random() < 0.4:
            lines.append(f"    acc += {rng.choice(callees)}({a});")
        else:
            lines.append(f"    acc = (acc << {rng.randint(1, 7)}) ^ {a}; /* {_sentence(rng, 3)} */")
    lines += ["    return (int)acc;", "}", ""]
    return lines


def c_repo(seed: int, n_files: int = C_FILES, n_build: int = C_BUILD_FILES) -> dict:
    """A seeded C project: `n_files` tracked sources in nested directories,
    a vulnerable `copy_packet`, a crash-printing PoC script, a PASS/FAIL
    regression script, and `n_build` gitignored binary build outputs.

    Returns {"files", "ignored", "target", "caller", "crash_line", "call_line"}.
    """
    rng = random.Random(f"c-repo-{seed}")
    files: dict[str, str] = {}
    dirs = [f"src/{a}/{b}" for a in rng.sample(WORDS, 8) for b in rng.sample(WORDS, 5)]
    names: list[str] = []
    for i in range(n_files - 3):
        d = dirs[i % len(dirs)]
        stem = f"{rng.choice(WORDS)}_{i}"
        ext = ".h" if i % 7 == 0 else ".c"
        lines = [f"/* {stem}{ext}: {_sentence(rng, 6)} */", "#include <stddef.h>", ""]
        for j in range(rng.randint(1, 3)):
            fname = f"{stem}_{rng.choice(WORDS)}_{j}"
            lines += _c_function(rng, fname, names[-40:])
            names.append(fname)
        if i % 11 == 0:
            lines += [f"int use_copy_{i}(char *d, const char *s, size_t n) {{",
                      "    return copy_packet(d, s, n, n);", "}", ""]
        files[f"{d}/{stem}{ext}"] = "\n".join(lines)

    target_dir = rng.choice(dirs)
    target = f"{target_dir}/packet_copy.c"
    body = ["/* packet_copy.c: bounded packet copies. */", "#include <string.h>", ""]
    for j in range(rng.randint(2, 4)):
        body += _c_function(rng, f"packet_helper_{j}", [])
    crash_line = len(body) + 4
    body += [
        "int copy_packet(char *dst, const char *src, size_t len, size_t cap) {",
        "    if (dst == NULL || src == NULL) return -1;",
        C_OLD.rstrip("\n"),
        "    memcpy(dst, src, len);",
        "    return (int)len;",
        "}",
        "",
    ]
    assert body[crash_line - 1].startswith("    memcpy"), "crash line must be the memcpy"
    files[target] = "\n".join(body)

    caller = f"{rng.choice(dirs)}/handler.c"
    head = ["/* handler.c: packet front end. */", "#include <stddef.h>", "",
            "int copy_packet(char *dst, const char *src, size_t len, size_t cap);", ""]
    call_line = len(head) + 3
    head += [
        "int handle_packet(const char *packet, size_t n) {",
        "    char out[512];",
        "    return copy_packet(out, packet, n, sizeof(out));",
        "}",
        "",
    ]
    files[caller] = "\n".join(head)
    files["src/main.c"] = (
        "int handle_packet(const char *packet, size_t n);\n\n"
        "int main(void) {\n    static char big[4096];\n"
        "    return handle_packet(big, sizeof(big));\n}\n"
    )
    files[".gitignore"] = "build/\n*.o\n"
    report = "\n".join([
        "==4242==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x602000000018",
        "WRITE of size 4096 at 0x602000000018 thread T0",
        f"    #0 0x4009ae in copy_packet {target}:{crash_line}",
        f"    #1 0x400b17 in handle_packet {caller}:{call_line}",
        "    #2 0x400c20 in main src/main.c:5",
        f"SUMMARY: AddressSanitizer: heap-buffer-overflow {target}:{crash_line} in copy_packet",
    ])
    files["poc.sh"] = (
        "#!/bin/sh\n# Crashes unless copy_packet bounds len by cap.\n"
        f"if grep -q 'if (len > cap) return' {target}; then\n"
        "  echo 'packet copied within capacity'\n  exit 0\nfi\n"
        f"cat <<'EOF'\n{report}\nEOF\nexit 1\n"
    )
    tests = [f"{rng.choice(WORDS)}_{k}" for k in range(6)]
    files["regress.sh"] = (
        "#!/bin/sh\nstatus=0\n"
        + "".join(f"echo 'PASS {t}'\n" for t in tests)
        + f"if grep -q 'reject all' {target}; then\n"
        "  echo 'FAIL copy_small_packet'\n  status=1\n"
        "else\n  echo 'PASS copy_small_packet'\nfi\nexit $status\n"
    )

    ignored: dict[str, bytes] = {}
    for k in range(n_build):
        d = rng.choice(dirs).replace("src/", "build/", 1)
        blob = b"\x7fELF\x02\x01\x01\x00" + rng.randbytes(rng.randint(256, 2048))
        ignored[f"{d}/obj_{k}.o"] = blob
    return {"files": files, "ignored": ignored, "target": target, "caller": caller,
            "crash_line": crash_line, "call_line": call_line}


def c_transcript(shape: str, repo: dict) -> list[dict]:
    target, line = repo["target"], repo["crash_line"]
    loc = {"file": target, "line_start": max(1, line - 3), "line_end": line + 2,
           "reason": "frame #0 memcpy copies len bytes without checking cap"}

    def locator(a: int) -> list[dict]:
        return [
            _turn("locator", a, "following the crash frames",
                  [{"name": "iter_grep", "args": {"symbol": "copy_packet"}}]),
            _turn("locator", a, "checking every raw copy into dst",
                  [{"name": "search", "args": {"pattern": r"memcpy\(dst", "path": "src"}}]),
            _turn("locator", a, "reading the crash site",
                  [{"name": "view", "args": {"path": target, "line_start": str(line - 5),
                                             "line_end": str(line + 5)}}]),
            _turn("locator", a, json.dumps(loc)),
        ]

    def patcher(a: int, new: str) -> list[dict]:
        return [
            _turn("patcher", a, "bounding the copy by the destination capacity",
                  [{"name": "view", "args": {"path": target}},
                   {"name": "str_replace",
                    "args": {"path": target, "old": C_OLD, "new": C_OLD + new}}]),
            _turn("patcher", a, "PATCH READY"),
        ]

    return _replay(shape, locator, patcher, C_GUARD, C_NOT_FIXED, C_REGRESSION)


# ---------------------------------------------------------------------------
# Memory corpora
# ---------------------------------------------------------------------------


def _l1_record(rng: random.Random, project: str, cwe: str, language: str,
               year: int, seq: int, patch_lines: int) -> dict:
    return {
        "tier": "L1", "project": project, "cwe": cwe, "language": language,
        "instance_id": cve_id(project, year, seq),
        "description": _sentence(rng, rng.randint(10, 18)),
        "fix_patch": _random_patch(rng, patch_lines),
    }


def session_corpus(seed: int, project: str, cwe: str, language: str,
                   n: int = SESSION_CORPUS_L1) -> list[dict]:
    """L1 records for the session workloads. Exactly one same-project entry
    matches the task's CWE and language, so P1 stays below k_min and P2
    (other projects, same CWE and language) is always consulted. About a
    fifth of all entries match the task's CWE and language; their patches
    are long enough that the prompt budget drops some of them."""
    rng = random.Random(f"session-corpus-{seed}")
    records = [_l1_record(rng, project, cwe, language, 2019, 7001, 40)]
    for i in range(1, n):
        matching = i % 5 == 0
        proj = rng.choice([p for p in PROJECTS if p != project]) if matching else rng.choice(PROJECTS)
        rec_cwe = cwe if matching else rng.choice([c for c in CWES if c != cwe])
        rec_lang = language if matching else rng.choice(LANGUAGES)
        records.append(_l1_record(rng, proj, rec_cwe, rec_lang, rng.randint(2012, 2023),
                                  1000 + i, rng.randint(30, 90) if matching else 4))
    return records


def session_keys(seed: int, index: int, project: str, cwe: str, language: str) -> dict:
    """Retrieval keys of session `index`: a fresh, strictly newer CVE id and a
    distinct description, so consolidation inserts instead of merging."""
    rng = random.Random(f"session-keys-{seed}-{index}")
    return {"project": project, "cwe": cwe, "language": language,
            "instance_id": cve_id(project, 2025, 10000 + index),
            "description": "out-of-bounds write in the copy path: " + _sentence(rng, 14)}


def memory_corpus(seed: int, n_l1: int = MEMORY_L1, n_l2: int = MEMORY_L2,
                  n_l3: int = MEMORY_L3) -> list[dict]:
    """A mixed store in the JSONL layout `load_store` reads."""
    rng = random.Random(f"memory-corpus-{seed}")
    records = []
    for i in range(n_l1):
        records.append(_l1_record(rng, rng.choice(PROJECTS), rng.choice(CWES[:4]),
                                  rng.choice(LANGUAGES[:2]), rng.randint(2010, 2024), i, 3))
    for tier, n in (("L2", n_l2), ("L3", n_l3)):
        for i in range(n):
            rec = _l1_record(rng, rng.choice(PROJECTS), rng.choice(CWES[:4]),
                             rng.choice(LANGUAGES[:2]), rng.randint(2015, 2024), 50000 + i, 3)
            rec["tier"] = tier
            if tier == "L2":
                rec["rationale"] = "verified fix: " + _sentence(rng, 8)
            else:
                rec["fail_patch"] = rec.pop("fix_patch")
                rec["correction_delta"] = _random_patch(rng, 2)
                rec["transition_insight"] = "replaced " + _sentence(rng, 6)
            records.append(rec)
    return records


def _near_duplicate(rec: dict) -> dict:
    """Same tokens, different surface text: both cosines stay above 0.95."""
    dup = dict(rec)
    dup["instance_id"] = rec["instance_id"] + "-dup"
    dup["description"] = rec["description"].upper() + "."
    for field in ("fix_patch", "fail_patch"):
        if field in dup:
            dup[field] = dup[field].replace(";", " ;")
    return dup


def memory_op(seed: int, index: int, base: list[dict], dup_share: float = DUP_SHARE) -> dict:
    """Operation `index` of the interleaved stream: in each block of five,
    one write at a seeded position and four reads. Writes are 80 % L1 ingest
    rows (`dup_share` of them near-duplicates of a base entry), 10 % L2 and
    10 % L3 consolidation entries. Reads query L1 and L2 by description and
    L3 with a failed-patch override."""
    block_rng = random.Random(f"mix-block-{seed}-{index // 5}")
    write_slot = block_rng.randrange(5)
    rng = random.Random(f"mix-op-{seed}-{index}")
    keys = {"project": rng.choice(PROJECTS), "cwe": rng.choice(CWES[:4]),
            "language": rng.choice(LANGUAGES[:2])}
    if index % 5 == write_slot:
        roll = rng.random()
        tier = "L1" if roll < 0.8 else ("L2" if roll < 0.9 else "L3")
        if tier == "L1" and rng.random() < dup_share:
            pool = [r for r in base if r["tier"] == "L1"]
            return {"kind": "insert", "record": _near_duplicate(rng.choice(pool))}
        rec = _l1_record(rng, keys["project"], keys["cwe"], keys["language"],
                         rng.randint(2010, 2025), 200000 + index, 3)
        rec["tier"] = tier
        if tier == "L2":
            rec["rationale"] = "verified fix: " + _sentence(rng, 8)
        elif tier == "L3":
            rec["fail_patch"] = rec.pop("fix_patch")
            rec["correction_delta"] = _random_patch(rng, 2)
            rec["transition_insight"] = "replaced " + _sentence(rng, 6)
        return {"kind": "insert", "record": rec}
    tier = rng.choice(("L1", "L1", "L2", "L3"))
    query = {**keys, "instance_id": cve_id(keys["project"], rng.randint(2016, 2026), 900000 + index),
             "description": _sentence(rng, rng.randint(10, 18))}
    override = _random_patch(rng, 3) if tier == "L3" else None
    return {"kind": "retrieve", "tier": tier, "keys": query, "override": override}
