"""Repository workspace and the tool surface the agent drives.

Every tool returns a :class:`ToolResult` instead of raising, so the agent
loop can relay failures back to the model as recoverable observations. All
tools are confined to the workspace root and kept out of every ``.git``
directory under it; ``bash`` is the documented exception and relies on the
host container for confinement, with only a timeout and an output cap
enforced here.

Snapshots are git tree objects written through a private index that each
workspace owns; the checkout's own index is never touched. The private index
starts as a copy of the checkout's, so git's stat cache lets the first
snapshot re-hash only the files whose stat changed, and tracked files that
match an ignore rule are in every snapshot. The files the checkout ignores
when the workspace opens stay out of every snapshot, whatever ignore rules a
candidate writes. Rollback is a ``read-tree --reset -u`` plus ``clean`` on
that index, so git restores the working tree byte-identically, removals
included, and never touches ignored files.
"""

from __future__ import annotations

import bisect
import os
import re
import select
import shutil
import signal
import subprocess
import tempfile
import time
import uuid
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .errors import WorkspaceError
from .localizer import read_text, read_tree

try:
    from re import _parser as _sre_parse  # Python 3.11+
except ImportError:  # Python 3.10
    import sre_parse as _sre_parse

DEFAULT_OUTPUT_CAP = 20_000
DEFAULT_BASH_TIMEOUT = 300.0
DEFAULT_SEARCH_LIMIT = 5
SEARCH_CONTEXT = 2  # lines shown on each side of a search match

_GIT = shutil.which("git") or "git"
_BARE_LF_RE = re.compile(r"(?<!\r)\n")
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]+")  # bytes surrogateescape could not decode

# ToolResult.error_kind values
NOT_FOUND = "NotFound"
OUTSIDE_WORKSPACE = "OutsideWorkspace"
ALREADY_EXISTS = "AlreadyExists"
NO_MATCH = "NoMatch"
AMBIGUOUS_MATCH = "AmbiguousMatch"
BAD_PATTERN = "BadPattern"
TIMEOUT = "Timeout"
SESSION_DEAD = "SessionDead"


@dataclass
class ToolCall:
    name: str
    args: dict[str, str]

    def to_json(self) -> dict:
        return {"name": self.name, "args": dict(self.args)}


@dataclass
class ToolResult:
    ok: bool
    output: str
    error_kind: str | None = None

    def to_json(self) -> dict:
        rec: dict = {"ok": self.ok, "output": self.output}
        if self.error_kind is not None:
            rec["error_kind"] = self.error_kind
        return rec


def cap_output(text: str, cap: int = DEFAULT_OUTPUT_CAP) -> str:
    """Bound tool output to `cap` characters, preserving head and tail around
    a truncation note; a cap too small for the note keeps only the head."""
    if len(text) <= cap:
        return text
    note = f"\n... [output truncated: {len(text) - cap} chars omitted] ...\n"
    if len(note) > cap:
        return text[:max(cap, 0)]
    keep = cap - len(note)
    head = text[: keep // 2]
    tail = text[len(text) - (keep - keep // 2) :]
    return head + note + tail


class PersistentShell:
    """One long-lived bash process; cwd and environment persist across calls.

    The shell leads a process group of its own, and a timeout, a restart and
    ``close`` kill that whole group, so no command it started can write to
    the checkout afterwards.
    """

    def __init__(self, cwd: Path, timeout: float) -> None:
        self.cwd = Path(cwd)
        self.timeout = timeout
        self._spawn()

    def _spawn(self) -> None:
        self._proc = subprocess.Popen(
            ["/bin/bash"],
            cwd=self.cwd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=False,
            start_new_session=True,
        )
        os.set_blocking(self._proc.stdout.fileno(), False)

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def restart(self) -> None:
        self.close()
        self._spawn()

    def close(self) -> None:
        """Kill the shell's process group, reap the shell and close its pipes."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # unflushed input to a shell that already died
                pass
        proc.wait()

    def run(self, command: str) -> tuple[bool, str, str | None]:
        """Returns (ok, output, error_kind). Timeout kills and respawns the shell."""
        if not self.alive:
            return False, "shell session is not running", SESSION_DEAD
        marker = f"__DONE_{uuid.uuid4().hex}__"
        # The command reads /dev/null, not this pipe, so it cannot swallow
        # the marker line; a { } group runs in this shell, so cd and export
        # persist. eval parses the command, so a syntax error in it is exit
        # status 2, not the end of a shell that reads its script from a pipe.
        quoted = "'" + command.replace("'", "'\\''") + "'"
        script = f"{{ eval {quoted}\n}} < /dev/null\nprintf '\\n%s %s\\n' {marker} $?\n"
        try:
            self._proc.stdin.write(script.encode("utf-8"))
            self._proc.stdin.flush()
        except OSError:
            self.close()
            return False, "shell session died", SESSION_DEAD

        deadline = time.monotonic() + self.timeout
        marker_b = marker.encode()
        buf = bytearray()
        fd = self._proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.restart()
                return False, _ended(buf, f"command timed out after {self.timeout:g}s"), TIMEOUT
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.2))
            if not ready:
                if self._proc.poll() is not None:
                    self.close()
                    return False, _ended(buf, "shell session died"), SESSION_DEAD
                continue
            data = self._proc.stdout.read()
            if data == b"":  # end of file: the shell exited, e.g. on `exit`
                self.close()
                return False, _ended(buf, "shell session died"), SESSION_DEAD
            if not data:
                continue
            # Only the new bytes, and a marker split across two reads, can hold it.
            start = max(0, len(buf) - len(marker_b) + 1)
            buf += data
            idx = buf.find(marker_b, start)
            if idx >= 0:
                output = buf[:idx].decode("utf-8", errors="replace")
                m = re.match(rb" (\d+)", buf[idx + len(marker_b):])
                code = int(m.group(1)) if m else 1
                # drop the newline our printf prepended
                if output.endswith("\n"):
                    output = output[:-1]
                return code == 0, output, None


def _required_literal(compiled: re.Pattern) -> str:
    """The longest run of literal characters at the top level of the pattern,
    which every match contains: ``""`` when case is ignored or no run exists."""
    if compiled.flags & re.IGNORECASE:
        return ""
    best = run = ""
    for op, arg in _sre_parse.parse(compiled.pattern):
        run = run + chr(arg) if op == _sre_parse.LITERAL else ""
        best = max(best, run, key=len)
    return best


def _as_viewed(content: str) -> tuple[str, Callable[[int], int]]:
    """`content`, decoded with ``surrogateescape``, as ``view`` shows it, and
    a map from an offset in that text to the same place in `content`.

    ``view`` decodes with ``replace``, which shows each undecodable sequence
    of one to three bytes as one U+FFFD; here that U+FFFD stands for it.
    """
    pieces: list[str] = []
    marks = [(0, 0)]  # (offset shown, offset in content) after each U+FFFD
    for run in _UNDECODABLE_RE.finditer(content):
        shown, done = marks[-1]
        pieces.append(content[done : run.start()])
        shown, done = shown + run.start() - done, run.start()
        data = run.group().encode("utf-8", errors="surrogateescape")
        while data:
            try:
                data.decode("utf-8")
                size = len(data)  # not reached: the run starts undecodable
            except UnicodeDecodeError as exc:
                size = exc.end
            pieces.append("\ufffd")
            data, shown, done = data[size:], shown + 1, done + size
            marks.append((shown, done))
    pieces.append(content[marks[-1][1] :])
    shown_at = [mark[0] for mark in marks]

    def to_content(offset: int) -> int:
        mark_shown, mark_content = marks[bisect.bisect_right(shown_at, offset) - 1]
        return mark_content + offset - mark_shown

    return "".join(pieces), to_content


def _ended(buf: bytearray, message: str) -> str:
    """What a command printed before it ended abnormally, then `message` on
    its own line; just `message` when it printed nothing."""
    if not buf:
        return message
    text = buf.decode("utf-8", errors="replace")
    return text + ("" if text.endswith("\n") else "\n") + message


class Workspace:
    """A version-controlled checkout plus a persistent shell session, which
    starts at the first ``bash`` call."""

    def __init__(
        self,
        root: Path,
        bash_timeout: float = DEFAULT_BASH_TIMEOUT,
        output_cap: int = DEFAULT_OUTPUT_CAP,
    ) -> None:
        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise WorkspaceError(f"workspace root does not exist: {self.root}")
        if not (self.root / ".git").exists():
            raise WorkspaceError(f"workspace root is not a git checkout: {self.root}")
        self.output_cap = output_cap
        self._bash_timeout = bash_timeout
        self._shell: PersistentShell | None = None
        self._index_dir = tempfile.mkdtemp(prefix="pl-index-")
        try:
            index = os.path.join(self._index_dir, "index")
            self._git_env = {**os.environ, "GIT_INDEX_FILE": index}
            self._seed_index(index)
            self._pathspec = self._exclude_ignored()
        except BaseException:
            shutil.rmtree(self._index_dir, ignore_errors=True)
            raise

    def _seed_index(self, index: str) -> None:
        """Start the private index as a copy of the checkout's own, so git's
        stat cache skips the files that have not changed since it was last
        written. ``copy2`` keeps the file's mtime, by which git tells which
        entries are racy. A missing, unreadable or locked index, or one with
        an entry ``ls-files -v`` does not tag ``H`` (assume-unchanged and
        skip-worktree entries, whose staged blob ``add -A`` would keep, and
        unmerged ones), leaves the index empty."""
        user_index = self.root / ".git" / "index"
        if user_index.with_name("index.lock").exists():
            return
        try:
            shutil.copy2(user_index, index)
            tags = self._git("ls-files", "-v", "-z")
        except (OSError, WorkspaceError):
            tags = None
        if tags is None or any(entry[:2] != "H " for entry in tags.split("\0") if entry):
            Path(index).unlink(missing_ok=True)

    def _exclude_ignored(self) -> str:
        """Write the pathspec file every ``add -A`` reads: the whole tree but
        the paths ignored now. Ignored files that a candidate un-ignores, by
        editing ``.gitignore`` or adding a ``!`` rule, then never enter a
        snapshot, where a diff would show them and a rollback delete them.
        The names stay bytes, so a name that is not UTF-8 round-trips."""
        listed = self._git_run(
            (0,), "ls-files", "-o", "-i", "--exclude-standard", "--directory", "-z"
        )
        excludes = b"".join(b":(exclude,literal)%s\0" % n for n in listed.split(b"\0") if n)
        path = os.path.join(self._index_dir, "pathspec")
        Path(path).write_bytes(b".\0" + excludes)
        return path

    def close(self) -> None:
        if self._shell is not None:
            self._shell.close()
        shutil.rmtree(self._index_dir, ignore_errors=True)

    # -- path confinement ---------------------------------------------------

    def _resolve(self, path: str) -> Path | ToolResult:
        """The absolute path, symlinks resolved, or the refusal a tool returns
        for a path outside the root or inside a ``.git`` directory at any
        depth: no snapshot holds git's own files, so no rollback would undo
        an edit there (a planted hook, say)."""
        candidate = (self.root / path).resolve()
        if candidate != self.root and self.root not in candidate.parents:
            return ToolResult(False, f"{path} is outside the workspace", OUTSIDE_WORKSPACE)
        if ".git" in candidate.relative_to(self.root).parts:
            return ToolResult(False, f"{path} is inside a .git directory", OUTSIDE_WORKSPACE)
        return candidate

    # -- git plumbing ---------------------------------------------------------

    def _git_run(self, ok: tuple[int, ...], *args: str) -> bytes:
        """Run git on the workspace's private index and return its output;
        an exit status not in `ok` raises WorkspaceError. A split index is
        written whole, so git adds no shared index file to the checkout's
        ``.git``."""
        proc = subprocess.run(
            [_GIT, "-C", str(self.root), "-c", "core.splitIndex=false", *args],
            env=self._git_env,
            capture_output=True,
            close_fds=False,  # with no cwd either, subprocess can use posix_spawn
        )
        if proc.returncode not in ok:
            stderr = proc.stderr.decode("utf-8", errors="replace").strip()
            raise WorkspaceError(f"git {' '.join(args)} failed: {stderr}")
        return proc.stdout

    def _git(self, *args: str) -> str:
        """Git's output as a text-mode pipe reads it: a byte that is not
        UTF-8 becomes U+FFFD, so a diff of such content does not raise, and
        each line ends in a bare newline."""
        text = self._git_run((0,), *args).decode("utf-8", errors="replace")
        return text.replace("\r\n", "\n").replace("\r", "\n")

    def snapshot(self) -> str:
        """Capture the working tree (tracked and untracked, not ignored) as a
        git tree. ``add`` exits 1 when a path it was told to leave out is
        still ignored, after staging the rest; its fatal errors exit 128."""
        self._git_run((0, 1), "add", "-A", f"--pathspec-from-file={self._pathspec}",
                      "--pathspec-file-nul")
        return self._git("write-tree").strip()

    def rollback(self, snapshot_id: str) -> ToolResult:
        """Restore the working tree byte-identically to a prior snapshot;
        raises WorkspaceError when git cannot.

        ``read-tree`` rewrites changed and deleted files, removes the files
        the index gained since, and restores ``.gitignore`` before ``clean``
        removes the files the index never saw; ignored files stay.
        """
        self._git("read-tree", "--reset", "-u", snapshot_id)
        self._git("clean", "-fdq")
        return ToolResult(True, f"restored snapshot {snapshot_id[:12]}")

    def submit(self, base: str) -> tuple[str, str]:
        """Tree id of the current working tree and its unified diff against
        the snapshot `base`."""
        current = self.snapshot()
        return current, self.diff(base, current)

    def diff(self, old_tree: str, new_tree: str) -> str:
        """Unified diff between two trees, as ``git diff`` prints it."""
        return "" if old_tree == new_tree else self._git("diff", old_tree, new_tree)

    def file_at_snapshot(self, snapshot_id: str, path: str) -> str | None:
        try:
            return self._git("cat-file", "-p", f"{snapshot_id}:{path}")
        except WorkspaceError:
            return None

    # -- tools ----------------------------------------------------------------

    def view(self, path: str, window: tuple[int, int] | None = None) -> ToolResult:
        """File contents with 1-based line numbers, or a depth-2 directory listing."""
        if isinstance(target := self._resolve(path), ToolResult):
            return target
        if target.is_dir():
            return ToolResult(True, cap_output(self._list_dir(target), self.output_cap))
        if not target.is_file():
            return ToolResult(False, f"no such file: {path}", NOT_FOUND)
        lines = target.read_text(encoding="utf-8", errors="replace").splitlines()
        start, end = 1, len(lines)
        if window is not None:
            start = max(1, window[0])
            end = min(len(lines), window[1])
        numbered = "\n".join(f"{i:6}\t{lines[i - 1]}" for i in range(start, end + 1))
        return ToolResult(True, cap_output(numbered, self.output_cap))

    def _list_dir(self, target: Path) -> str:
        """Two levels of names. A symlink is listed by its name and never
        followed, so no listing shows what lies outside the root."""
        rows = []
        for child in sorted(target.iterdir()):
            if child.name == ".git":
                continue
            descend = not child.is_symlink() and child.is_dir()
            rows.append(child.name + ("/" if descend else ""))
            if descend:
                for grand in sorted(child.iterdir()):
                    if grand.name == ".git":
                        continue
                    real_dir = not grand.is_symlink() and grand.is_dir()
                    rows.append("  " + grand.name + ("/" if real_dir else ""))
        return "\n".join(rows)

    def search(
        self, pattern: str, search_path: str = ".", limit: int = DEFAULT_SEARCH_LIMIT
    ) -> ToolResult:
        """Regex search with ``SEARCH_CONTEXT`` lines of context around each
        of the first `limit` matches. A directory's texts come through the
        symbol index's walk (:func:`localizer.read_tree`), so only files
        changed since a walk last read them are read; only texts that hold
        the pattern's required literal are split into lines."""
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            return ToolResult(False, f"bad pattern: {exc}", BAD_PATTERN)
        if isinstance(target := self._resolve(search_path), ToolResult):
            return target
        if not target.exists():
            return ToolResult(False, f"no such path: {search_path}", NOT_FOUND)

        rel_target = target.relative_to(self.root)
        if target.is_file():
            files = [(str(target), rel_target.as_posix(), None, True)]  # read below
        else:
            prefix = "" if target == self.root else rel_target.as_posix() + "/"
            files = read_tree(str(target), prefix)
        required = _required_literal(compiled)
        blocks: list[str] = []
        total = 0
        for path, rel, text, unread in files:
            if unread:  # a single file, or one too large to cache
                try:
                    text = read_text(path)
                except OSError:
                    continue
            if text is None or required not in text:
                continue
            lines = text.splitlines()
            for lineno, line in enumerate(lines, 1):
                if not compiled.search(line):
                    continue
                total += 1
                if len(blocks) >= limit:
                    continue
                lo = max(1, lineno - SEARCH_CONTEXT)
                hi = min(len(lines), lineno + SEARCH_CONTEXT)
                body = "\n".join(
                    f"{'>' if i == lineno else ' '}{i:5}: {lines[i - 1]}"
                    for i in range(lo, hi + 1)
                )
                blocks.append(f"== {rel}:{lineno} ==\n{body}")
        out = "\n".join(blocks) if blocks else "(no matches)"
        if total > len(blocks):
            out += f"\n({total - len(blocks)} more matches not shown)"
        return ToolResult(True, cap_output(out, self.output_cap))

    def create(self, path: str, text: str) -> ToolResult:
        if isinstance(target := self._resolve(path), ToolResult):
            return target
        if target.exists():
            return ToolResult(False, f"path already exists: {path}", ALREADY_EXISTS)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        return ToolResult(True, f"created {path} ({len(text)} chars)")

    def str_replace(self, path: str, old: str, new: str) -> ToolResult:
        """Replace an exact, unique occurrence; the file is untouched on error."""
        if isinstance(target := self._resolve(path), ToolResult):
            return target
        if not target.is_file():
            return ToolResult(False, f"no such file: {path}", NOT_FOUND)
        # Bytes that are not UTF-8 and the file's line endings survive the edit.
        content = target.read_bytes().decode("utf-8", errors="surrogateescape")
        if "\r\n" in content:
            old, new = (_BARE_LF_RE.sub("\r\n", s) for s in (old, new))
        shown, to_content = _as_viewed(content)
        count = shown.count(old)
        if count == 0:
            return ToolResult(False, f"old text not found in {path}", NO_MATCH)
        if count > 1:
            return ToolResult(False, f"old text occurs {count} times in {path}", AMBIGUOUS_MATCH)
        start = shown.find(old)
        edited = content[: to_content(start)] + new + content[to_content(start + len(old)) :]
        target.write_bytes(edited.encode("utf-8", errors="surrogateescape"))
        return ToolResult(True, f"replaced 1 occurrence in {path}")

    def bash(self, command: str, restart: bool = False) -> ToolResult:
        """Run `command` in the session's shell, started on the first call;
        a shell that cannot start raises OSError, and the next call tries
        again."""
        if self._shell is None:
            self._shell = PersistentShell(self.root, self._bash_timeout)
        elif restart:
            self._shell.restart()
        ok, output, error_kind = self._shell.run(command)
        output = cap_output(output, self.output_cap)
        if error_kind is not None:
            return ToolResult(False, output, error_kind)
        return ToolResult(ok, output, None if ok else "NonZeroExit")
