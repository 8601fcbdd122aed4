from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from patchloop import diffutil

SIMPLE = """--- a/app/buffer.py
+++ b/app/buffer.py
@@ -1,4 +1,5 @@
 def safe_copy(buf, src, length):
+    if length > buf.capacity:
+        raise ValueError("too big")
     i = 0
     while i < length:
         buf.data[i] = src[i]
"""


def test_looks_like_unified_diff():
    assert diffutil.looks_like_unified_diff(SIMPLE)
    assert not diffutil.looks_like_unified_diff("")
    assert not diffutil.looks_like_unified_diff("just some prose\nwith lines\n")
    assert not diffutil.looks_like_unified_diff("--- a/x\n+++ b/x\nno hunk header\n")
    assert not diffutil.looks_like_unified_diff("+++ b/x\n--- a/x\n@@ -1 +1 @@\n-a\n+b\n")
    assert not diffutil.looks_like_unified_diff("---- a/x\n+++ b/x\n@@ -1 +1 @@\n-a\n+b\n")
    assert not diffutil.looks_like_unified_diff("@@ -1 +1 @@\n--- a/x\n+++ b/x\n")
    assert diffutil.looks_like_unified_diff("--- a/x\n+++ b/x\n@@ -1 +1 @@\n")
    assert diffutil.looks_like_unified_diff("--- a/x\njunk\n+++ b/x\n@@ -1 +1 @@\n-a\n+b\n")
    assert diffutil.looks_like_unified_diff("diff --git a/x b/x\nindex 1..2 100644\n" + SIMPLE)


def test_parse_patch_structure():
    patches = diffutil.parse_patch(SIMPLE)
    assert len(patches) == 1
    fp = patches[0]
    assert fp.path == "app/buffer.py"
    assert len(fp.hunks) == 1
    hunk = fp.hunks[0]
    assert (hunk.old_start, hunk.old_count, hunk.new_start, hunk.new_count) == (1, 4, 1, 5)


def test_changed_files_git_style():
    text = (
        "diff --git a/x.c b/x.c\nindex 111..222 100644\n"
        "--- a/x.c\n+++ b/x.c\n@@ -1 +1 @@\n-old\n+new\n"
        "diff --git a/y.c b/y.c\n--- a/y.c\n+++ b/y.c\n@@ -1 +1 @@\n-a\n+b\n"
    )
    assert diffutil.changed_files(text) == ["x.c", "y.c"]


def test_hunk_summary_and_texts():
    summary = diffutil.hunk_summary(SIMPLE)
    assert summary.startswith("app/buffer.py:1 ")
    assert "if length > buf.capacity" in summary
    hunks = diffutil.hunk_texts(SIMPLE)
    assert len(hunks) == 1
    assert hunks[0].startswith("--- app/buffer.py")
    assert diffutil.hunk_summary("") == "(no hunks)"


# Header, hunk and body lines, near misses of each included.
_DIFF_LINES = st.sampled_from([
    "diff --git a/x b/x", "index 1..2 100644", "index", "--- a/x", "--- x", "--- /dev/null",
    "---", "--- ", "---- a/x", "+++ b/x", "+++ y", "+++ /dev/null", "+++", "++++ b/x",
    "@@ -1 +1 @@", "@@ -1,2 +1,3 @@ def f():", "@@ -1 @@", "@@", " context", "-old", "+new",
    "\\ No newline at end of file", "", "prose", "--- a/x\r+++ b/x", "@@ -1 +1 @@\x0b",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_DIFF_LINES, max_size=12), st.sampled_from(["\n", "\r\n", "\r"]),
       st.booleans())
def test_looks_like_unified_diff_agrees_with_the_parser(lines, newline, trailing):
    text = newline.join(lines) + (newline if trailing else "")
    want = any(fp.hunks for fp in diffutil.parse_patch(text))
    assert diffutil.looks_like_unified_diff(text) == want
