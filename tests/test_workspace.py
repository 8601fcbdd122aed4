from __future__ import annotations

import errno
import gc
import hashlib
import os
import re
import subprocess
import tempfile
import time
import warnings
from pathlib import Path

import pytest

from conftest import git, init_repo
from patchloop.errors import WorkspaceError
from patchloop.agent import CompressedContext, log_compress
from patchloop.workspace import PersistentShell, ToolCall, ToolResult, Workspace, cap_output


@pytest.fixture
def ws(tmp_path) -> Workspace:
    repo = init_repo(
        tmp_path / "repo",
        {
            "src/a.c": "int main(void) {\n    return 0;\n}\n",
            "src/b.c": "int helper(void) {\n    return 1;\n}\n",
            "docs/nested/deep/leaf.txt": "leaf\n",
            "top.txt": "alpha\nbeta\ngamma\n",
        },
    )
    workspace = Workspace(repo, bash_timeout=10)
    yield workspace
    workspace.close()


def tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if ".git" in path.parts or not path.is_file():
            continue
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_workspace_requires_git_checkout(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(WorkspaceError, match="not a git checkout"):
        Workspace(plain)
    with pytest.raises(WorkspaceError, match="does not exist"):
        Workspace(tmp_path / "missing")


# ---------------------------------------------------------------------------
# view
# ---------------------------------------------------------------------------


def test_view_numbers_lines(ws):
    result = ws.view("top.txt")
    assert result.ok
    assert result.output.splitlines() == ["     1\talpha", "     2\tbeta", "     3\tgamma"]


def test_view_window_clamps_to_file_length(ws):
    result = ws.view("top.txt", window=(2, 50))
    assert result.ok
    assert result.output.splitlines() == ["     2\tbeta", "     3\tgamma"]


def test_view_directory_depth_two_only(ws):
    result = ws.view(".")
    assert result.ok
    assert "docs/" in result.output
    assert "  nested/" in result.output
    assert "deep" not in result.output  # depth 3 omitted
    assert "leaf.txt" not in result.output


def test_view_missing_and_escaping_paths(ws):
    assert ws.view("nope.txt").error_kind == "NotFound"
    assert ws.search("x", "nope").error_kind == "NotFound"
    assert ws.str_replace("nope.txt", "a", "b").error_kind == "NotFound"
    assert ws.view("../outside").error_kind == "OutsideWorkspace"
    assert ws.view("src/../../etc/passwd").error_kind == "OutsideWorkspace"


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_finds_anchored_pattern(ws):
    result = ws.search(r"^int main")
    assert result.ok
    assert "src/a.c:1" in result.output
    assert ">    1: int main(void) {" in result.output


def test_search_no_match_is_ok(ws):
    result = ws.search(r"zzz_nothing")
    assert result.ok
    assert "(no matches)" in result.output


def test_search_bad_pattern(ws):
    assert ws.search("(unclosed").error_kind == "BadPattern"


def test_search_truncates_at_limit_with_note(ws):
    ws.create("many.txt", "needle\n" * 9)
    result = ws.search("needle", limit=5)
    assert result.ok
    assert result.output.count("== many.txt:") == 5
    assert "4 more matches not shown" in result.output


def _reference_search(root: Path, pattern: str, limit: int, target: str = ".") -> str:
    """Search as a plain `sorted(rglob)` walk does it (context 2, no cap)."""
    compiled = re.compile(pattern)
    blocks, total, truncated = [], 0, False
    for path in sorted((root / target).rglob("*")):
        rel = path.relative_to(root)
        if not path.is_file() or ".git" in rel.parts:
            continue
        data = path.read_bytes()
        if b"\x00" in data:
            continue
        lines = data.decode("utf-8", errors="replace").splitlines()
        for lineno, line in enumerate(lines, 1):
            if not compiled.search(line):
                continue
            total += 1
            if len(blocks) >= limit:
                truncated = True
                continue
            lo, hi = max(1, lineno - 2), min(len(lines), lineno + 2)
            body = "\n".join(
                f"{'>' if i == lineno else ' '}{i:5}: {lines[i - 1]}" for i in range(lo, hi + 1)
            )
            blocks.append(f"== {rel.as_posix()}:{lineno} ==\n{body}")
    out = "\n".join(blocks) if blocks else "(no matches)"
    if truncated:
        out += f"\n({total - len(blocks)} more matches not shown)"
    return out


def test_search_and_index_walk_matches_sorted_rglob(tmp_path):
    from patchloop.localizer import index_repository

    repo = init_repo(
        tmp_path / "repo",
        {
            "a/x.c": "int needle_a;\nneedle();\n",
            "a-b/x.c": "int needle_ab;\n",
            "a.b/x.c": "needle\nneedle\nneedle\n",
            "a.c": "needle = 1;\n",
            "B.txt": "upper needle\n",
            "sub/.git": "gitdir: ../.git/modules/sub needle\n",
            "sub/y.py": "needle = 2\n",
            ".gitignore": "build/\n",
        },
    )
    vendored = repo / "vendor" / "lib" / ".git"
    vendored.mkdir(parents=True)
    (vendored / "HEAD").write_text("needle in a nested git dir\n")
    (repo / "vendor" / "lib" / "z.c").write_text("int needle_vendor;\n")
    (repo / "build").mkdir()
    (repo / "build" / "out.txt").write_text("ignored needle\n")
    (repo / "build" / "tool").write_bytes(b"\x7fELF\x00needle")
    (repo / "link.c").symlink_to("a/x.c")
    (repo / "linkdir").symlink_to("a", target_is_directory=True)
    (repo / "dangling.c").symlink_to("missing.c")

    ws = Workspace(repo, bash_timeout=10)
    try:
        for limit in (4, 100):
            got = ws.search("needle", limit=limit)
            assert got.ok
            assert got.output == _reference_search(repo, "needle", limit), limit
        assert "more matches not shown" in ws.search("needle", limit=4).output
        for target in ("a", "vendor"):
            got = ws.search("needle", target, limit=100).output
            assert got == _reference_search(repo, "needle", 100, target), target
        assert ws.search("needle", "a", limit=100).output.splitlines()[0] == "== a/x.c:1 =="
    finally:
        ws.close()

    want = {}
    for path in sorted(repo.rglob("*")):
        rel = path.relative_to(repo)
        if path.is_file() and ".git" not in rel.parts and b"\x00" not in path.read_bytes():
            want[rel.as_posix()] = len(path.read_text().splitlines())
    index = index_repository(repo)
    files = index.files
    assert list(files) == list(want)
    assert {rel: index.line_count(rel) for rel in files} == want
    assert [f for f in files if f.endswith("x.c")] == ["a/x.c", "a-b/x.c", "a.b/x.c"]
    assert "build/out.txt" in files and "link.c" in files


def test_search_and_index_skip_links_that_leave_the_root(tmp_path):
    from patchloop.localizer import index_repository, walk_files

    (tmp_path / "secret.txt").write_text("TOPSECRET\n")
    repo = init_repo(tmp_path / "repo", {"a/x.c": "int x;\n"})
    (repo / "leak.txt").symlink_to("../secret.txt")
    (repo / "a" / "abs.txt").symlink_to(tmp_path / "secret.txt")
    (repo / "a" / "up.c").symlink_to("../a/x.c")  # leaves a/, stays in the root
    (repo / "inside.c").symlink_to("a/x.c")
    (tmp_path / "alias").symlink_to("repo", target_is_directory=True)

    ws = Workspace(repo, bash_timeout=10)
    try:
        assert ws.view("leak.txt").error_kind == "OutsideWorkspace"
        assert ws.search("TOPSECRET", limit=100).output == "(no matches)"
        assert ws.search("TOPSECRET", "a", limit=100).output == "(no matches)"
        assert "== inside.c:1 ==" in ws.search("int x", limit=100).output
    finally:
        ws.close()

    inside = ["a/up.c", "a/x.c", "inside.c"]
    assert [rel for _, rel in walk_files(str(repo))] == inside
    assert [rel for _, rel in walk_files(str(tmp_path / "alias"))] == inside
    assert list(index_repository(repo).files) == inside


def test_view_lists_a_directory_link_by_name_and_never_follows_it(tmp_path):
    outside = tmp_path / "outside"
    (outside / "secretdir").mkdir(parents=True)
    (outside / "secret.txt").write_text("TOPSECRET\n")
    repo = init_repo(tmp_path / "repo", {"a/x.c": "int x;\n"})
    (repo / "link").symlink_to(outside, target_is_directory=True)
    (repo / "a" / "up").symlink_to("..", target_is_directory=True)

    ws = Workspace(repo, bash_timeout=10)
    try:
        assert ws.view(".").output.splitlines() == ["a/", "  up", "  x.c", "link"]
        assert ws.view("a").output.splitlines() == ["up", "x.c"]
        assert ws.view("link").error_kind == "OutsideWorkspace"
    finally:
        ws.close()


def test_the_file_tools_refuse_every_git_directory(tmp_path):
    repo = init_repo(
        tmp_path / "repo",
        {".gitignore": "*.log\n", ".gitattributes": "* text=auto\n",
         ".github/ci.yml": "on: push\n", "a.c": "int a;\n"},
    )
    vendored = repo / "vendor" / "lib" / ".git"
    vendored.mkdir(parents=True)
    (vendored / "config").write_text("[core]\n")
    (repo / "vendor" / "lib" / "z.c").write_text("int z;\n")
    (repo / "gitdir").symlink_to(".git", target_is_directory=True)
    git_files = {path: path.read_bytes() for path in (repo / ".git").rglob("*") if path.is_file()}

    ws = Workspace(repo, bash_timeout=10)
    try:
        for path in (".git/hooks/post-checkout", ".git/config", "a/../.git/config", ".git",
                     "gitdir/config", "vendor/lib/.git/config", "vendor/lib/.git"):
            for result in (
                ws.create(path, "#!/bin/sh\n"),
                ws.str_replace(path, "[core]", "[core]\n\thooksPath = /tmp/hooks"),
                ws.view(path),
                ws.search("core", path),
            ):
                assert (result.ok, result.error_kind) == (False, "OutsideWorkspace"), path
                assert result.output == f"{path} is inside a .git directory"
        # Git's other dotfiles and the vendored checkout's own files stay reachable.
        assert ws.str_replace(".gitignore", "*.log", "*.tmp").ok
        assert ws.view(".gitattributes").ok
        assert ws.search("push", ".github").output.startswith("== .github/ci.yml:1 ==")
        assert ws.create(".github/new.yml", "on: pull_request\n").ok
        assert ws.str_replace("vendor/lib/z.c", "int z;", "long z;").ok
        assert ws.view("vendor").output.splitlines() == ["lib/", "  z.c"]
    finally:
        ws.close()
    assert {path: path.read_bytes() for path in (repo / ".git").rglob("*") if path.is_file()} == git_files
    assert (vendored / "config").read_text() == "[core]\n"


# ---------------------------------------------------------------------------
# create / str_replace
# ---------------------------------------------------------------------------


def test_create_then_view(ws):
    assert ws.create("new/file.txt", "hello\n").ok
    assert "hello" in ws.view("new/file.txt").output


def test_create_refuses_existing(ws):
    assert ws.create("top.txt", "clobber").error_kind == "AlreadyExists"
    assert (ws.root / "top.txt").read_text().startswith("alpha")


def test_create_twice_second_fails_first_intact(ws):
    assert ws.create("once.txt", "first\n").ok
    second = ws.create("once.txt", "second\n")
    assert second.error_kind == "AlreadyExists"
    assert (ws.root / "once.txt").read_text() == "first\n"


def test_str_replace_unique(ws):
    result = ws.str_replace("top.txt", "beta", "BETA")
    assert result.ok
    assert (ws.root / "top.txt").read_text() == "alpha\nBETA\ngamma\n"


def test_str_replace_ambiguous_leaves_file_untouched(ws):
    before = (ws.root / "top.txt").read_bytes()
    result = ws.str_replace("top.txt", "a", "X")  # alpha, gamma both match
    assert result.error_kind == "AmbiguousMatch"
    assert (ws.root / "top.txt").read_bytes() == before


def test_str_replace_no_match_leaves_file_untouched(ws):
    before = (ws.root / "top.txt").read_bytes()
    result = ws.str_replace("top.txt", "delta", "X")
    assert result.error_kind == "NoMatch"
    assert (ws.root / "top.txt").read_bytes() == before


LEGACY = b"name = 'caf\xe9'\r\nx = 1\r\ny = 2\r\n"  # CRLF, Latin-1


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ("x = 1", "x = 10", b"name = 'caf\xe9'\r\nx = 10\r\ny = 2\r\n"),
        ("x = 1\ny = 2", "x = 10\ny = 20", b"name = 'caf\xe9'\r\nx = 10\r\ny = 20\r\n"),
        # the first line as view shows it
        ("name = 'caf\ufffd'", "name = 'cafe'", b"name = 'cafe'\r\nx = 1\r\ny = 2\r\n"),
    ],
    ids=["one line", "two lines", "line copied from view"],
)
def test_str_replace_keeps_line_endings_and_undecodable_bytes(ws, old, new, expected):
    path = ws.root / "legacy.py"
    path.write_bytes(LEGACY)
    git(ws.root, "add", "legacy.py")
    git(ws.root, "commit", "-qm", "legacy")
    assert ws.str_replace("legacy.py", old, new).ok
    assert path.read_bytes() == expected
    changed = str(old.count("\n") + 1)
    assert git(ws.root, "diff", "--numstat").split() == [changed, changed, "legacy.py"]


MIXED = b"a\xe9\n\xe2\x82b\xe9\xe9\nend\xff\n"  # view: "a\ufffd", "\ufffdb\ufffd\ufffd", "end\ufffd"


@pytest.mark.parametrize(
    "old, new, expected",
    [
        ("a\ufffd", "A", b"A\n\xe2\x82b\xe9\xe9\nend\xff\n"),
        ("b\ufffd", "B", b"a\xe9\n\xe2\x82B\xe9\nend\xff\n"),
        # one U+FFFD stands for a truncated two-byte sequence
        ("\ufffdb", "X", b"a\xe9\nX\xe9\xe9\nend\xff\n"),
        ("\ufffd\ufffd\nend", "\nEND", b"a\xe9\n\xe2\x82b\nEND\xff\n"),
    ],
    ids=["one byte", "first byte of a run", "two-byte sequence", "across a line end"],
)
def test_str_replace_matches_undecodable_bytes_as_view_shows_them(ws, old, new, expected):
    path = ws.root / "mixed.txt"
    path.write_bytes(MIXED)
    shown = [line.split("\t", 1)[1] for line in ws.view("mixed.txt").output.splitlines()]
    assert shown == ["a\ufffd", "\ufffdb\ufffd\ufffd", "end\ufffd"]
    assert ws.str_replace("mixed.txt", old, new).ok
    assert path.read_bytes() == expected


@pytest.mark.parametrize(
    "old, error_kind, message",
    [
        ("\ufffd", "AmbiguousMatch", "old text occurs 5 times in mixed.txt"),
        ("b\ufffd\ufffd\ufffd", "NoMatch", "old text not found in mixed.txt"),
        ("a\ufffd\ufffd", "NoMatch", "old text not found in mixed.txt"),
    ],
    ids=["ambiguous", "more than the run after b", "more than the run after a"],
)
def test_str_replace_errors_on_undecodable_bytes_leave_the_file(ws, old, error_kind, message):
    path = ws.root / "mixed.txt"
    path.write_bytes(MIXED)
    result = ws.str_replace("mixed.txt", old, "X")
    assert (result.error_kind, result.output) == (error_kind, message)
    assert path.read_bytes() == MIXED


# ---------------------------------------------------------------------------
# bash
# ---------------------------------------------------------------------------


def test_bash_state_persists_across_calls(ws):
    assert ws.bash("cd /tmp").ok
    result = ws.bash("pwd")
    assert result.output.strip() == "/tmp"
    ws.bash("MARKER=hello")
    assert ws.bash("echo $MARKER").output.strip() == "hello"


def test_bash_restart_resets_to_workspace_root(ws):
    ws.bash("cd /tmp")
    result = ws.bash("pwd", restart=True)
    assert result.output.strip() == str(ws.root)


def test_bash_timeout_restarts_session(tmp_path):
    ws = Workspace(init_repo(tmp_path / "repo", {"a.txt": "a\n"}), bash_timeout=1)
    try:
        result = ws.bash("sleep 30")
        assert result.error_kind == "Timeout"
        # session is usable again and back at the root
        assert ws.bash("pwd").output.strip() == str(ws.root)
    finally:
        ws.close()


def test_bash_timeout_kills_the_commands_children(tmp_path):
    repo = init_repo(tmp_path / "repo", {"a.txt": "a\n"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ws = Workspace(repo, bash_timeout=0.3)
        result = ws.bash("sh -c 'sleep 1; touch orphan_from_bash'")
        ws.close()
        del ws
        gc.collect()
    assert result.error_kind == "Timeout"
    assert result.output == "command timed out after 0.3s"
    time.sleep(1.5)
    assert not (repo / "orphan_from_bash").exists()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_bash_exit_ends_the_session_at_once(ws):
    started = time.monotonic()
    result = ws.bash("exit 3")
    assert result.error_kind == "SessionDead"
    assert time.monotonic() - started < 5  # not the 10 s timeout
    assert ws.bash("pwd").error_kind == "SessionDead"
    assert ws.bash("pwd", restart=True).output.strip() == str(ws.root)


def test_bash_keeps_what_a_dying_command_printed(ws):
    result = ws.bash("echo partial-output; exit 3")
    assert result.error_kind == "SessionDead"
    assert result.output == "partial-output\nshell session died"


def test_bash_timeout_keeps_what_the_command_printed(tmp_path):
    ws = Workspace(init_repo(tmp_path / "repo", {"a.txt": "a\n"}), bash_timeout=0.5)
    try:
        result = ws.bash("printf before-hang; sleep 30")
        assert result.error_kind == "Timeout"
        assert result.output == "before-hang\ncommand timed out after 0.5s"
        assert ws.bash("echo again").output.strip() == "again"
    finally:
        ws.close()


def test_bash_commands_read_dev_null_not_the_shell_input(ws):
    started = time.monotonic()
    result = ws.bash("cat")
    assert (result.ok, result.output) == (True, "")
    assert time.monotonic() - started < 5  # not the 10 s timeout
    assert ws.bash("head -n1").ok
    after = ws.bash("echo after")
    assert (after.ok, after.output.strip()) == (True, "after")
    eof = ws.bash("python3 -c 'input()'")
    assert eof.error_kind == "NonZeroExit" and "EOFError" in eof.output
    heredoc = ws.bash("cat <<'EOF'\nfrom a heredoc\nEOF")
    assert (heredoc.ok, heredoc.output.strip()) == (True, "from a heredoc")


def test_a_shell_that_cannot_start_fails_the_bash_call_not_the_open(tmp_path, monkeypatch):
    spawn, spawned = PersistentShell._spawn, []

    def out_of_processes(self):
        spawned.append(self)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(PersistentShell, "_spawn", out_of_processes)
    ws = Workspace(init_repo(tmp_path / "repo", {"top.txt": "alpha\n"}), bash_timeout=10)
    try:
        assert spawned == [] and ws.view("top.txt").ok  # the shell starts at the first bash call
        with pytest.raises(OSError) as exc:
            ws.bash("echo hi", restart=True)
        assert exc.value.errno == errno.EAGAIN and len(spawned) == 1
        monkeypatch.setattr(PersistentShell, "_spawn", spawn)
        assert ws.bash("echo hi").output.strip() == "hi"  # the next call tries again
    finally:
        ws.close()


def test_bash_syntax_error_keeps_the_shell(ws):
    result = ws.bash("echo )")
    assert result.error_kind == "NonZeroExit"
    assert "syntax error near unexpected token" in result.output
    assert ws.bash("pwd").output.strip() == str(ws.root)
    assert ws.bash("cd docs && export WHERE='it'\\''s here'").ok
    assert ws.bash('pwd; echo "$WHERE"').output.splitlines() == [str(ws.root / "docs"), "it's here"]
    heredoc = ws.bash("cat <<'EOF'\n'quoted' \"and\" $WHERE\nEOF")
    assert (heredoc.ok, heredoc.output.strip()) == (True, "'quoted' \"and\" $WHERE")


def test_bash_nonzero_exit_reported(ws):
    result = ws.bash("false")
    assert not result.ok
    assert result.error_kind == "NonZeroExit"


# ---------------------------------------------------------------------------
# snapshot / rollback / submit
# ---------------------------------------------------------------------------


def test_rollback_restores_edit(ws):
    snap = ws.snapshot()
    ws.str_replace("top.txt", "alpha", "ALPHA")
    assert ws.rollback(snap).ok
    assert (ws.root / "top.txt").read_text() == "alpha\nbeta\ngamma\n"


def test_rollback_deletes_created_files(ws):
    snap = ws.snapshot()
    ws.create("fresh/made.txt", "new\n")
    ws.rollback(snap)
    assert not (ws.root / "fresh").exists()


def test_rollback_restores_deleted_files(ws):
    snap = ws.snapshot()
    (ws.root / "top.txt").unlink()
    ws.rollback(snap)
    assert (ws.root / "top.txt").read_text() == "alpha\nbeta\ngamma\n"


def test_rollback_to_first_of_two_snapshots_undoes_both_edits(ws):
    pristine = tree_hash(ws.root)
    first = ws.snapshot()
    ws.str_replace("top.txt", "alpha", "one")
    ws.snapshot()
    ws.str_replace("src/a.c", "return 0;", "return 9;")
    ws.rollback(first)
    assert tree_hash(ws.root) == pristine


def test_rollback_unknown_snapshot(ws):
    with pytest.raises(WorkspaceError, match="read-tree"):
        ws.rollback("0" * 40)


def test_rollback_keeps_ignored_files_and_user_index(tmp_path):
    repo = init_repo(
        tmp_path / "ign",
        {".gitignore": "build/\n*.o\n", "src/a.c": "int a;\n", "top.txt": "top\n"},
    )
    ignored = {"build/tool": b"\x7fELF\x00tool", "x.o": b"\x00obj\x01"}
    for rel, data in ignored.items():
        (repo / rel).parent.mkdir(parents=True, exist_ok=True)
        (repo / rel).write_bytes(data)
    status = git(repo, "status", "--porcelain", "--ignored")
    user_index = (repo / ".git" / "index").read_bytes()
    workspace = Workspace(repo)
    try:
        snap = workspace.snapshot()
        workspace.str_replace("src/a.c", "int a;", "int b;")
        workspace.create("made/new.c", "int c;\n")
        workspace.submit(snap)
        (repo / ".gitignore").write_text("")  # rollback restores it before cleaning
        assert workspace.rollback(snap).ok
    finally:
        workspace.close()
    for rel, data in ignored.items():
        assert (repo / rel).read_bytes() == data
    assert not (repo / "made").exists()
    assert (repo / "src/a.c").read_text() == "int a;\n"
    # Compare before any status: a plain `git status` would refresh the
    # stat data of the rewritten .gitignore in the user's index.
    assert (repo / ".git" / "index").read_bytes() == user_index
    assert git(repo, "--no-optional-locks", "status", "--porcelain", "--ignored") == status
    assert (repo / ".git" / "index").read_bytes() == user_index


def _git_dir_listing(repo: Path) -> list[str]:
    """Every file under ``.git`` except the object store, which snapshots write to."""
    git_dir = repo / ".git"
    return sorted(
        p.relative_to(git_dir).as_posix()
        for p in git_dir.rglob("*")
        if p.is_file() and p.relative_to(git_dir).parts[0] != "objects"
    )


def _round_trip_leaves_the_git_dir(repo: Path, seeded: bool) -> None:
    """Snapshot, edit, submit and roll back `repo`: the trees hold what the
    checkout held, and nothing under ``.git`` but the object store changes.
    `seeded` says whether the private index starts as a copy of the user's."""
    listing = _git_dir_listing(repo)
    user_index = (repo / ".git" / "index").read_bytes()
    workspace = Workspace(repo)
    try:
        assert (Path(workspace._index_dir) / "index").exists() is seeded
        snap = workspace.snapshot()
        assert snap == git(repo, "rev-parse", "HEAD^{tree}").strip()
        workspace.str_replace("a.txt", "a", "A")
        (repo / "src/b.c").unlink()
        workspace.create("new.txt", "new\n")
        tree, diff = workspace.submit(snap)
        assert re.findall(r"^diff --git a/(\S+)", diff, re.M) == ["a.txt", "new.txt", "src/b.c"]
        assert [workspace.file_at_snapshot(tree, rel) for rel in ("a.txt", "new.txt", "src/b.c")] == [
            "A\n", "new\n", None,
        ]
        assert workspace.rollback(snap).ok
        assert workspace.snapshot() == snap
    finally:
        workspace.close()
    assert _git_dir_listing(repo) == listing
    assert (repo / ".git" / "index").read_bytes() == user_index


def test_user_git_dir_is_unchanged_by_snapshot_submit_and_rollback(tmp_path):
    repo = init_repo(tmp_path / "repo", {"a.txt": "a\n", "src/b.c": "int b;\n"})
    _round_trip_leaves_the_git_dir(repo, seeded=True)


def test_a_locked_user_index_starts_the_private_index_empty(tmp_path):
    repo = init_repo(tmp_path / "repo", {"a.txt": "a\n", "src/b.c": "int b;\n"})
    (repo / ".git" / "index.lock").touch()  # a git command of the user's is running
    _round_trip_leaves_the_git_dir(repo, seeded=False)


def test_snapshot_sees_a_same_size_edit_in_the_user_index_mtime_tick(tmp_path):
    # The user's index was written in the tick a.txt was last changed, so git
    # must re-hash a.txt; a copy of the index with a fresh mtime would not.
    repo = init_repo(tmp_path / "racy", {"a.txt": "one\n", "b.txt": "two\n"})
    git(repo, "config", "core.trustctime", "false")
    tick = (1_600_000_000 * 10**9,) * 2
    os.utime(repo / "a.txt", ns=tick)
    git(repo, "update-index", "--refresh")
    assert git(repo, "ls-files", "--debug", "a.txt").count("mtime: 1600000000:0") == 1
    os.utime(repo / ".git" / "index", ns=tick)
    (repo / "a.txt").write_text("ONE\n")
    os.utime(repo / "a.txt", ns=tick)
    workspace = Workspace(repo)
    try:
        snap = workspace.snapshot()
        assert workspace.file_at_snapshot(snap, "a.txt") == "ONE\n"
        assert workspace.file_at_snapshot(snap, "b.txt") == "two\n"
    finally:
        workspace.close()


@pytest.mark.parametrize("flag", ["--assume-unchanged", "--skip-worktree"])
def test_snapshot_sees_edits_to_flagged_entries_of_the_user_index(tmp_path, flag):
    repo = init_repo(tmp_path / "flags", {"a.txt": "one\n", "b.txt": "two\n"})
    git(repo, "update-index", flag, "a.txt")
    (repo / "a.txt").write_text("edited\n")
    workspace = Workspace(repo)
    try:
        base = workspace.snapshot()
        assert workspace.file_at_snapshot(base, "a.txt") == "edited\n"
        (repo / "a.txt").write_text("edited again\n")
        assert "+edited again" in workspace.submit(base)[1]
        assert workspace.rollback(base).ok
    finally:
        workspace.close()
    assert (repo / "a.txt").read_text() == "edited\n"


def test_tracked_file_matching_an_ignore_rule_is_snapshotted(tmp_path):
    repo = init_repo(tmp_path / "tracked", {".gitignore": "*.o\n", "a.c": "int a;\n"})
    (repo / "keep.o").write_text("original\n")
    git(repo, "add", "-f", "keep.o")
    git(repo, "commit", "-qm", "keep.o")
    (repo / "other.o").write_text("ignored\n")
    workspace = Workspace(repo)
    try:
        base = workspace.snapshot()
        (repo / "keep.o").write_text("EDITED\n")
        _, diff = workspace.submit(base)
        assert "+++ b/keep.o" in diff and "+EDITED" in diff
        assert "other.o" not in diff
        assert workspace.rollback(base).ok
    finally:
        workspace.close()
    assert (repo / "keep.o").read_text() == "original\n"
    assert (repo / "other.o").read_text() == "ignored\n"
    assert git(repo, "status", "--porcelain") == ""


IGNORED_AT_OPEN = {
    "build.log": b"precious\n",
    "sub/secret.env": b"KEY=1\n",
    os.fsdecode(b"caf\xe9.log"): b"not a UTF-8 name\n",
}


def _repo_with_ignored_files(tmp_path) -> Path:
    repo = init_repo(
        tmp_path / "ignored",
        {".gitignore": "*.log\n", "sub/.gitignore": "secret.env\n", "a.txt": "a\n"},
    )
    for rel, data in IGNORED_AT_OPEN.items():
        (repo / rel).write_bytes(data)
    return repo


@pytest.mark.parametrize(
    "path, text",
    [(".gitignore", ""), (".gitignore", "*.log\n!build.log\n"), ("sub/.gitignore", "")],
    ids=["emptied", "negated", "nested emptied"],
)
def test_files_ignored_at_open_stay_out_of_snapshots_whatever_a_candidate_ignores(
    tmp_path, path, text
):
    repo = _repo_with_ignored_files(tmp_path)
    workspace = Workspace(repo)
    try:
        base = workspace.snapshot()
        (repo / path).write_text(text)
        _, diff = workspace.submit(base)
        # the edited rules file is the only file in the diff
        assert re.findall(r"^\+\+\+ (.*)$", diff, re.M) == [f"b/{path}"]
        assert workspace.rollback(base).ok
    finally:
        workspace.close()
    for rel, data in IGNORED_AT_OPEN.items():
        assert (repo / rel).read_bytes() == data
    assert git(repo, "status", "--porcelain") == ""


def test_a_lock_in_the_private_index_directory_still_fails_the_snapshot(tmp_path):
    # build.log is ignored, so the add exits 1 whenever it succeeds
    workspace = Workspace(_repo_with_ignored_files(tmp_path))
    try:
        workspace.snapshot()
        (Path(workspace._index_dir) / "index.lock").touch()
        with pytest.raises(WorkspaceError, match=r"^git add -A .*index\.lock"):
            workspace.snapshot()
    finally:
        workspace.close()


def test_rollback_to_snapshot_of_another_workspace(ws):
    snap = ws.snapshot()
    ws.str_replace("top.txt", "alpha", "ALPHA")
    ws.create("fresh.txt", "new\n")
    other = Workspace(ws.root)  # no private index yet
    try:
        assert other.rollback(snap).ok
    finally:
        other.close()
    assert (ws.root / "top.txt").read_text() == "alpha\nbeta\ngamma\n"
    assert not (ws.root / "fresh.txt").exists()
    assert git(ws.root, "status", "--porcelain") == ""


def test_close_removes_private_index(tmp_path):
    repo = init_repo(tmp_path / "repo", {"a.txt": "a\n"})
    workspace = Workspace(repo)
    workspace.snapshot()
    index_dir = Path(workspace._index_dir)
    assert index_dir.is_dir()
    workspace.close()
    assert not index_dir.exists()


def test_a_failed_open_removes_private_index(tmp_path, monkeypatch):
    repo = init_repo(tmp_path / "repo", {"a.txt": "a\n"})
    made, mkdtemp = [], tempfile.mkdtemp

    def recording_mkdtemp(**kwargs):
        made.append(mkdtemp(**kwargs))
        return made[-1]

    def failing_exclude(self):
        raise WorkspaceError("git ls-files failed")

    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    monkeypatch.setattr(Workspace, "_exclude_ignored", failing_exclude)
    with pytest.raises(WorkspaceError, match="ls-files"):
        Workspace(repo)
    assert len(made) == 1 and Path(made[0]).name.startswith("pl-index-")
    assert not Path(made[0]).exists()


def test_submit_empty_diff_on_untouched_workspace(ws):
    base = ws.snapshot()
    assert ws.submit(base) == (base, "")


def test_submit_single_edit_has_one_hunk(ws):
    import re

    base = ws.snapshot()
    ws.str_replace("top.txt", "beta", "BETA")
    _, diff = ws.submit(base)
    assert "top.txt" in diff
    assert len(re.findall(r"^@@ ", diff, re.MULTILINE)) == 1
    assert "+BETA" in diff and "-beta" in diff


def test_submit_matches_external_git_diff(ws):
    base = ws.snapshot()
    ws.str_replace("src/a.c", "return 0;", "return 2;")
    ws.create("src/new.c", "int added(void);\n")
    tree, diff = ws.submit(base)
    # oracle: ask git itself to diff the two trees
    current = ws.snapshot()
    assert tree == current
    expected = subprocess.run(
        ["git", "diff", base, current],
        cwd=ws.root,
        capture_output=True,
        text=True,
    ).stdout
    assert diff == expected
    assert "src/new.c" in diff


def test_submit_diff_applies_cleanly_after_rollback(ws):
    base = ws.snapshot()
    ws.str_replace("top.txt", "gamma", "GAMMA")
    _, diff = ws.submit(base)
    ws.rollback(base)
    proc = subprocess.run(
        ["git", "apply", "--check", "-"], cwd=ws.root, input=diff, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_submit_diff_of_non_utf8_content_is_decoded_with_replacement(ws):
    base = ws.snapshot()
    (ws.root / "top.txt").write_bytes(b"caf\xe9\n")  # Latin-1, not UTF-8
    tree, diff = ws.submit(base)
    assert tree != base
    assert "+caf\ufffd" in diff


def test_file_at_snapshot(ws):
    snap = ws.snapshot()
    ws.str_replace("top.txt", "alpha", "ALPHA")
    assert ws.file_at_snapshot(snap, "top.txt") == "alpha\nbeta\ngamma\n"
    assert ws.file_at_snapshot(snap, "absent.txt") is None
    (ws.root / "latin1.txt").write_bytes(b"caf\xe9\n")
    assert ws.file_at_snapshot(ws.snapshot(), "latin1.txt") == "caf\ufffd\n"


# ---------------------------------------------------------------------------
# output capping / tool envelope
# ---------------------------------------------------------------------------


def test_cap_output_preserves_head_and_tail():
    text = "A" * 30_000 + "MIDDLE" + "Z" * 30_000
    capped = cap_output(text, cap=1_000)
    assert len(capped) <= 1_100
    assert capped.startswith("A")
    assert capped.endswith("Z")
    assert "output truncated" in capped


def test_view_output_is_capped(tmp_path):
    repo = init_repo(tmp_path / "big", {"huge.txt": "x" * 50_000 + "\n"})
    workspace = Workspace(repo, output_cap=5_000)
    try:
        result = workspace.view("huge.txt")
        assert len(result.output) <= 5_100
        assert "output truncated" in result.output
    finally:
        workspace.close()


def test_tool_log_record_round_trips_to_json():
    import json

    # The trajectory's tool record holds these two encodings.
    record = {
        "call": ToolCall("view", {"path": "top.txt"}).to_json(),
        "result": ToolResult(True, "     1\talpha").to_json(),
    }
    parsed = json.loads(json.dumps(record))
    assert parsed["call"]["name"] == "view"
    assert parsed["result"]["ok"] is True


# ---------------------------------------------------------------------------
# log_compress
# ---------------------------------------------------------------------------


def test_log_compress_empty_logs():
    ctx = log_compress("")
    assert ctx.visited == []
    assert ctx.applied_hunks == []
    assert ctx.failure_log == ""
    rendered = ctx.render()
    for header in (
        "[visited files/line ranges]",
        "[applied diff hunks]",
        "[verification failure log]",
    ):
        assert header in rendered


def test_log_compress_bookkeeping_fields():
    ctx = log_compress(
        "boring output",
        visited=[("src/a.c", (1, 20)), ("src/b.c", (5, 9))],
        applied_hunks=["@@ -1,2 +1,3 @@\n-x\n+y"],
    )
    assert len(ctx.visited) == 2
    assert len(ctx.applied_hunks) == 1
    assert "src/a.c:1-20" in ctx.render()


def test_log_compress_extracts_fault_line_and_frames_from_big_log():
    frames = "\n".join(f"    #{i} 0xdead in fn{i} file{i}.c:{i + 1}" for i in range(20))
    noise_before = "build output line\n" * 2000
    noise_after = "more noise\n" * 2000
    raw = (
        noise_before
        + "==7==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x60\n"
        + frames
        + "\n"
        + noise_after
    )
    assert len(raw) > 50_000  # a realistically large sanitizer-plus-build log
    ctx = log_compress(raw, budget=2_000)
    assert "ERROR: AddressSanitizer: heap-buffer-overflow" in ctx.failure_log
    assert "#0 0xdead in fn0 file0.c:1" in ctx.failure_log
    assert "#8" not in ctx.failure_log  # frame budget is 8
    assert len(ctx.render()) <= 2_000


def test_log_compress_keeps_failing_test_names():
    raw = "PASS one\nFAIL two (boom)\nPASS three\nFAIL four (bang)\n"
    ctx = log_compress(raw)
    assert "FAIL two (boom)" in ctx.failure_log
    assert "FAIL four (bang)" in ctx.failure_log


def test_log_compress_takes_the_diagnostic_line_from_output_not_a_step_header():
    # A verification log as OracleRunner.check_vul writes it: each step's
    # "$ <command>" header, then its output. This PoC's command text holds
    # "ERROR"; the diagnostic line is the one the PoC printed.
    poc = "python3 -c \"import sys; print('ERROR: overflow in parse'); sys.exit(1)\""
    ctx = log_compress(f"$ make\nok\n$ {poc}\nreading input\nERROR: overflow in parse\n")
    assert ctx.failure_log.splitlines()[0] == "ERROR: overflow in parse"
    assert poc not in ctx.failure_log


def test_render_never_exceeds_budget_for_any_input():
    big = "E" * 1_000_000
    ctx = CompressedContext(
        visited=[(f"file{i}.c", (1, 999)) for i in range(500)],
        applied_hunks=["+giant hunk " + "h" * 5_000] * 50,
        failure_log=big,
        budget=3_000,
    )
    assert len(ctx.render()) <= 3_000


def test_all_file_tools_confined_to_workspace(ws):
    for escape in ("../outside.txt", "a/../../b", "/etc/passwd"):
        assert ws.create(escape, "x").error_kind == "OutsideWorkspace"
        assert ws.str_replace(escape, "a", "b").error_kind == "OutsideWorkspace"
        assert ws.view(escape).error_kind == "OutsideWorkspace"
        assert ws.search("x", escape).error_kind == "OutsideWorkspace"


from hypothesis import example, given, settings
from hypothesis import strategies as st


@settings(max_examples=80, deadline=None)
@given(text=st.text(max_size=4_000), cap=st.integers(min_value=0, max_value=600))
@example(text="x" * 1_000, cap=10)
@example(text="x" * 1_000, cap=0)
def test_cap_output_bound_property(text, cap):
    capped = cap_output(text, cap=cap)
    if len(text) <= cap:
        assert capped == text
    else:
        assert len(capped) <= cap
        # below the note's own length, only the head fits
        assert "output truncated" in capped or capped == text[:cap]


_PATTERN_ATOMS = st.sampled_from(
    ["a", "b", "A", " ", "(", r"\.", r"\(", ".", "[ab]", "[^a]", r"\w", r"\s", "^", "$", r"\b"]
)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, inner).map("".join),
        st.tuples(inner, inner).map("|".join),
        inner.map("({})".format),
        inner.map("(?:{})".format),
        inner.map("(?i:{})".format),
        st.tuples(inner.map("(?:{})".format), st.sampled_from(["?", "*", "+", "{0}", "{1,2}"]))
        .map("".join),
    )


_patterns = st.tuples(
    st.sampled_from(["", "(?i)", "(?x)"]), st.recursive(_PATTERN_ATOMS, _compound, max_leaves=8)
).map("".join)


@settings(max_examples=300, deadline=None)
@given(pattern=_patterns, lines=st.lists(st.text(alphabet="abAB .(_", max_size=12), max_size=8))
@example(pattern="ab(?i:c)d", lines=["abCd", "abcd"])
@example(pattern="(?x) a b", lines=["ab", "a b"])
@example(pattern="a|ab", lines=["b", "ab"])
def test_every_match_holds_the_required_literal(pattern, lines):
    from patchloop.workspace import _required_literal

    try:
        compiled = re.compile(pattern)
    except re.error:
        return
    literal = _required_literal(compiled)
    if compiled.flags & re.IGNORECASE:
        assert literal == ""
    for line in lines:
        for match in compiled.finditer(line):
            assert literal in match.group(), (pattern, line, literal)
