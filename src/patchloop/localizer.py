"""Structure-aware fault localization.

Builds a symbol index over the repository (definition and use sites), parses
sanitizer-style crash reports into ordered frames, and ranks the sites of a
queried symbol by proximity to the crash: sites inside crash-stack files
come first, ordered by frame depth and line distance, then definitions
before uses, then stable path/line order.

Each file is parsed once per process per content: the sites of a file are
cached under its path and git blob id. A stat cache, like git's own, lets
the next call on the same checkout skip reading a file whose size, mtime,
ctime and inode have not changed, binaries included; an unchanged file then
costs one ``stat``.

C/C++ sources get a lightweight declaration-aware parser and Python uses
the stdlib ``ast``; every other text file falls back to word-boundary
lexical matching (all sites flagged as uses).
"""

from __future__ import annotations

import ast
import hashlib
import logging
import os
import re
import time
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType

from .errors import IndexFailure, NoMatch

logger = logging.getLogger(__name__)

DEFINITION = "definition"
USE = "use"

DEFAULT_K = 5
CONTEXT_RADIUS = 10  # lines on each side of a site in a localization's range
MAX_INDEXED_BYTES = 2 * 1024 * 1024

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_C_KEYWORDS = frozenset(
    """auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    bool true false nullptr new delete class namespace template typename
    public private protected virtual operator this using""".split()
)

_C_EXTENSIONS = {".c", ".h", ".cc", ".cpp", ".cxx", ".hpp", ".hh", ".hxx"}


@dataclass(frozen=True, slots=True)
class SymbolSite:
    file: str
    line: int
    kind: str  # DEFINITION or USE
    symbol: str


@dataclass(frozen=True)
class CrashFrame:
    file: str
    line: int
    function: str


@dataclass
class CrashReport:
    frames: list[CrashFrame]
    fault_kind: str
    raw: str


@dataclass
class LocalizationObject:
    file: str
    line_range: tuple[int, int]
    reason: str
    rank: int

    def to_json(self) -> dict:
        return {
            "file": self.file,
            "line_start": self.line_range[0],
            "line_end": self.line_range[1],
            "rank": self.rank,
            "reason": self.reason,
        }


# ---------------------------------------------------------------------------
# Crash report parsing
# ---------------------------------------------------------------------------

_FRAME_RE = re.compile(
    r"^\s*#(\d+)\s+0x[0-9a-fA-F]+\s+in\s+(.+?)\s+(\S+?):(\d+)(?::\d+)?\s*$"
)
_FAULT_RE = re.compile(r"ERROR:\s*\w*Sanitizer:?\s*([A-Za-z0-9_-]+)")


def parse_crash_report(text: str) -> CrashReport | None:
    """Extract ordered frames from sanitizer-style ``#N 0x... in f file:line`` lines.

    Frames without a source location (module+offset form) are skipped.
    Returns None when no frame can be extracted.
    """
    frames: list[CrashFrame] = []
    for line in text.splitlines():
        m = _FRAME_RE.match(line)
        if m:
            frames.append(
                CrashFrame(file=m.group(3), line=int(m.group(4)), function=m.group(2))
            )
    if not frames:
        return None
    fault = _FAULT_RE.search(text)
    return CrashReport(
        frames=frames,
        fault_kind=fault.group(1) if fault else "unknown",
        raw=text,
    )


# ---------------------------------------------------------------------------
# Per-language symbol extraction
# ---------------------------------------------------------------------------


# Whichever starts first of a line comment, a block comment (an unterminated
# one runs to the end of the file) and a string or character literal (with
# backslash escapes; an unterminated one ends at the line end).
_C_NOISE_RE = re.compile(
    r"//[^\n]*"
    r"|/\*(?s:.*?)(?:\*/|\Z)"
    r'|"(?:[^"\\\n]+|\\.?)*"?'
    r"|'(?:[^'\\\n]+|\\.?)*'?"
)


def _blank(match: re.Match) -> str:
    """Spaces in place of a comment or literal, keeping its line breaks."""
    return "\n".join(" " * len(part) for part in match.group().split("\n"))


_C_FUNC_DEF_RE = re.compile(
    r"^\s*(?:[A-Za-z_][\w:<>,\s\*&]*?[\s\*&])?([A-Za-z_]\w*)\s*\(([^;]*)\)\s*\{"
)
_C_DECL_RE = re.compile(
    r"^\s*(?:const\s+|static\s+|unsigned\s+|signed\s+|struct\s+|register\s+|volatile\s+)*"
    r"([A-Za-z_]\w*)(?:\s*\*+\s*|\s+)([A-Za-z_]\w*)\s*(?:=|;|\[)"
)
# Words that start a statement, so never a function's name or a declaration's type.
_C_CONTROL = frozenset("if for while switch return else do sizeof goto case delete".split())


def _c_param_names(arglist: str) -> list[str]:
    """Last identifier of each comma-separated parameter declaration."""
    names = []
    depth = 0
    current = []
    parts = []
    for ch in arglist:
        if ch in "(<[":
            depth += 1
        elif ch in ")>]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    for part in parts:
        tokens = _IDENT_RE.findall(part)
        idents = [t for t in tokens if t not in _C_KEYWORDS]
        if not idents:
            continue  # e.g. bare "void"
        # a type precedes the name: another identifier, a keyword, or a '*'
        if len(idents) >= 2 or len(tokens) > len(idents) or "*" in part:
            names.append(idents[-1])
    return names


def _extract_c_sites(text: str, path: str) -> list[SymbolSite]:
    sites: dict[tuple[str, int, str], str] = {}  # (file, line, symbol) -> kind
    code = _C_NOISE_RE.sub(_blank, "\n".join(text.splitlines()))
    for lineno, line in enumerate(code.split("\n"), 1):
        if line.lstrip().startswith("#"):
            continue

        definitions: set[str] = set()
        m = _C_FUNC_DEF_RE.match(line)
        if m and m.group(1) not in _C_CONTROL:
            definitions.add(m.group(1))
            definitions.update(_c_param_names(m.group(2)))
        else:
            m = _C_DECL_RE.match(line)
            if m and m.group(1) not in _C_CONTROL and m.group(2) not in _C_KEYWORDS:
                definitions.add(m.group(2))

        for token in _IDENT_RE.findall(line):
            if token in _C_KEYWORDS:
                continue
            kind = DEFINITION if token in definitions else USE
            key = (path, lineno, token)
            if sites.get(key) != DEFINITION:
                sites[key] = kind
    return [SymbolSite(f, l, k, s) for (f, l, s), k in sites.items()]


def _extract_python_sites(text: str, path: str) -> list[SymbolSite]:
    tree = ast.parse(text)
    sites: dict[tuple[str, int, str], str] = {}

    def put(line: int, symbol: str, kind: str) -> None:
        key = (path, line, symbol)
        if sites.get(key) != DEFINITION:
            sites[key] = kind

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            put(node.lineno, node.name, DEFINITION)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.args + args.posonlyargs + args.kwonlyargs:
                    put(arg.lineno, arg.arg, DEFINITION)
        elif isinstance(node, ast.Name):
            kind = DEFINITION if isinstance(node.ctx, ast.Store) else USE
            put(node.lineno, node.id, kind)
        elif isinstance(node, ast.Attribute):
            put(node.lineno, node.attr, USE)
    return [SymbolSite(f, l, k, s) for (f, l, s), k in sites.items()]


def _extract_lexical_sites(text: str, path: str) -> list[SymbolSite]:
    """Fallback for files without a registered grammar: every token is a use."""
    seen: set[tuple[int, str]] = set()
    sites = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for token in _IDENT_RE.findall(line):
            if (lineno, token) not in seen:
                seen.add((lineno, token))
                sites.append(SymbolSite(path, lineno, USE, token))
    return sites


def _grammar_for(rel: str):
    name = rel.rpartition("/")[2]
    dot = name.rfind(".")
    suffix = name[dot:].lower() if 0 < dot < len(name) - 1 else ""  # as Path.suffix
    if suffix in _C_EXTENSIONS:
        return _extract_c_sites
    if suffix == ".py":
        return _extract_python_sites
    return None


# ---------------------------------------------------------------------------
# Repository walk
# ---------------------------------------------------------------------------


def walk_files(root: str, prefix: str = "") -> Iterator[tuple[str, str]]:
    """Yield ``(path, prefix + relative path)`` for every file under `root`.

    The order, and the files, are those of ``sorted(Path(root).rglob("*"))``
    filtered by ``is_file()``: siblings sorted by name, a directory's files
    right after its name, so ``a/x.c`` precedes ``a-b/x.c``. Symlinked files
    are included, symlinked directories are not descended, and unreadable
    directories are skipped. Every entry named ``.git`` is pruned.
    """
    try:
        with os.scandir(root) as it:
            entries = sorted(it, key=attrgetter("name"))
    except OSError:
        return
    for entry in entries:
        if entry.name == ".git":
            continue
        try:
            if entry.is_dir(follow_symlinks=False):
                yield from walk_files(entry.path, prefix + entry.name + "/")
            elif entry.is_file():
                yield entry.path, prefix + entry.name
        except OSError:  # e.g. a symlink loop: rglob's is_file() says False
            continue


# ---------------------------------------------------------------------------
# Repository index
# ---------------------------------------------------------------------------


class SymbolIndex:
    """Symbol sites held as groups, one per file when built by
    :func:`index_repository`; ``sites(symbol)`` gathers them on demand."""

    def __init__(
        self, files: dict[str, int], groups: list[Mapping[str, tuple[SymbolSite, ...]]]
    ) -> None:
        self.files = files  # rel path -> line count
        self._groups = groups

    def sites(self, symbol: str) -> list[SymbolSite]:
        found = [site for group in self._groups for site in group.get(symbol, ())]
        found.sort(key=attrgetter("file", "line", "kind"))
        return found

    def line_count(self, file: str) -> int:
        return self.files.get(file, 0)


# (rel path, git blob id) -> (line count, symbol -> sites) of every file the
# last index_repository call indexed, and path -> (stat signature, blob id, or
# None for a binary) of every file it found whose signature can be trusted.
# Each call rebinds both to the entries it used, so they never outgrow one
# repository; concurrent calls on different repositories can only evict each
# other's entries.
_PARSED: dict[tuple[str, str], tuple[int, Mapping[str, tuple[SymbolSite, ...]]]] = {}
_STATS: dict[str, tuple[tuple[int, int, int, int], str | None]] = {}

_NS = 1_000_000_000


def _signature(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino


def _blob_id(data: bytes) -> str:
    """The id git gives `data` as a blob (``git hash-object``)."""
    digest = hashlib.sha1(b"blob %d\0" % len(data))
    digest.update(data)
    return digest.hexdigest()


def _parse(data: bytes, rel: str) -> tuple[int, Mapping[str, tuple[SymbolSite, ...]]]:
    text = data.decode("utf-8", errors="replace")
    grammar = _grammar_for(rel)
    try:
        sites = grammar(text, rel) if grammar else _extract_lexical_sites(text, rel)
    except (SyntaxError, ValueError) as exc:
        logger.warning("parse failure in %s, falling back to lexical: %s", rel, exc)
        sites = _extract_lexical_sites(text, rel)
    by_symbol: dict[str, list[SymbolSite]] = {}
    for site in sites:
        by_symbol.setdefault(site.symbol, []).append(site)
    return len(text.splitlines()), MappingProxyType(
        {symbol: tuple(group) for symbol, group in by_symbol.items()}
    )


def index_repository(root: Path) -> SymbolIndex:
    """Index every readable text file under `root` (skips .git and binaries),
    reading only the files whose stat changed since the last call and
    parsing only those whose content this process has not indexed yet."""
    global _PARSED, _STATS
    if not Path(root).is_dir():
        raise IndexFailure(f"not a readable directory: {root}")
    # git's racy-timestamp rule: a file written in the second its signature
    # was taken, or the one before on a coarse clock, could change again
    # without changing its signature, so that signature is not kept.
    trusted_before = time.time_ns() // _NS - 1
    previous, used = _PARSED, {}
    known, stats = _STATS, {}
    files: dict[str, int] = {}
    groups = []
    for path, rel in walk_files(os.fspath(root)):
        try:
            signature = _signature(os.stat(path))
        except OSError as exc:
            logger.warning("skipping unreadable file %s: %s", path, exc)
            continue
        if signature[0] > MAX_INDEXED_BYTES:
            continue
        cached = known.get(path)
        parsed = None
        if cached is not None and cached[0] == signature:
            stats[path] = cached
            if cached[1] is None:  # a binary
                continue
            key = (rel, cached[1])
            parsed = previous.get(key)
        if parsed is None:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                logger.warning("skipping unreadable file %s: %s", path, exc)
                continue
            blob = None if b"\x00" in data else _blob_id(data)
            if signature[1] // _NS < trusted_before:
                stats[path] = (signature, blob)
            if blob is None:
                continue
            key = (rel, blob)
            parsed = previous.get(key) or _parse(data, rel)
        used[key] = parsed
        files[rel] = parsed[0]
        groups.append(parsed[1])
    _PARSED, _STATS = used, stats
    return SymbolIndex(files, groups)


# ---------------------------------------------------------------------------
# Ranked lookup
# ---------------------------------------------------------------------------


def _frame_matches(site_file: str, frame_file: str) -> bool:
    """Report paths may be absolute; match on exact or path-suffix equality."""
    return frame_file == site_file or frame_file.endswith("/" + site_file)


def _score(site: SymbolSite, report: CrashReport | None) -> tuple:
    kind_rank = 0 if site.kind == DEFINITION else 1
    if report is not None:
        for idx, frame in enumerate(report.frames):
            if _frame_matches(site.file, frame.file):
                return (0, idx, abs(site.line - frame.line), kind_rank, site.file, site.line)
        return (1, 0, 0, kind_rank, site.file, site.line)
    return (0, 0, 0, kind_rank, site.file, site.line)


def _reason(site: SymbolSite, report: CrashReport | None) -> str:
    if report is not None:
        for idx, frame in enumerate(report.frames):
            if _frame_matches(site.file, frame.file):
                dist = abs(site.line - frame.line)
                where = "at the frame line" if dist == 0 else f"{dist} lines from frame line {frame.line}"
                return f"{site.kind} of '{site.symbol}' in crash frame #{idx} file, {where}"
        return f"{site.kind} of '{site.symbol}' outside the crash stack"
    return f"{site.kind} of '{site.symbol}'"


def iter_grep(
    index: SymbolIndex,
    symbol: str,
    report: CrashReport | None = None,
    k: int = DEFAULT_K,
) -> list[LocalizationObject]:
    """Return the top-k locations of `symbol`, ranked by crash proximity.

    Raises NoMatch when the symbol has no indexed site. Without a report
    the ranking degrades to (definition-before-use, file, line).
    """
    if not symbol:
        raise NoMatch("empty symbol")
    sites = index.sites(symbol)
    if not sites:
        raise NoMatch(f"no definition or use site for symbol {symbol!r}")
    ranked = sorted(sites, key=lambda s: _score(s, report))[:k]
    results = []
    for rank, site in enumerate(ranked, 1):
        count = index.line_count(site.file) or site.line
        start = max(1, site.line - CONTEXT_RADIUS)
        end = min(count, site.line + CONTEXT_RADIUS)
        results.append(
            LocalizationObject(
                file=site.file,
                line_range=(start, max(start, end)),
                reason=_reason(site, report),
                rank=rank,
            )
        )
    return results
