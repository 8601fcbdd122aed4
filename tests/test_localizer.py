from __future__ import annotations

import hashlib
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CRASH_REPORT, git, init_repo
from patchloop import localizer
from patchloop.errors import IndexFailure, NoMatch
from patchloop.localizer import (
    DEFINITION,
    USE,
    CrashFrame,
    CrashReport,
    SymbolIndex,
    SymbolSite,
    index_repository,
    iter_grep,
    parse_crash_report,
)

# ---------------------------------------------------------------------------
# crash report parsing
# ---------------------------------------------------------------------------


def test_parse_empty_report_is_absent():
    assert parse_crash_report("") is None
    assert parse_crash_report("no frames in here\njust text\n") is None


def test_parse_two_frame_report():
    report = parse_crash_report(CRASH_REPORT)
    assert report is not None
    assert [(f.file, f.line, f.function) for f in report.frames] == [
        ("utils.c", 45, "safe_copy"),
        ("main.c", 102, "main"),
    ]


def test_fault_kind_extracted():
    report = parse_crash_report(CRASH_REPORT)
    assert report.fault_kind == "heap-buffer-overflow"


def test_frames_keep_report_order_and_columns_are_tolerated():
    text = (
        "==1==ERROR: AddressSanitizer: use-after-free on address 0x1\n"
        "    #0 0xdeadbeef in inner src/deep/inner.c:10:5\n"
        "    #1 0xdeadbea0 in std::vector<int>::at(unsigned long) lib/vec.cc:99\n"
        "    #2 0xdeadbe90 in outer src/outer.c:20\n"
    )
    report = parse_crash_report(text)
    assert [f.file for f in report.frames] == ["src/deep/inner.c", "lib/vec.cc", "src/outer.c"]
    assert report.frames[0].line == 10
    assert report.fault_kind == "use-after-free"


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------


def test_index_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    index = index_repository(empty)
    assert index.files == {}


def test_index_unreadable_root_fails(tmp_path):
    with pytest.raises(IndexFailure):
        index_repository(tmp_path / "missing")


def test_index_fixture_repo_has_definition_and_caller(crash_repo):
    index = index_repository(crash_repo)
    sites = {(s.file, s.line, s.kind) for s in index.sites("safe_copy")}
    assert ("utils.c", 40, DEFINITION) in sites
    assert ("main.c", 102, USE) in sites


def test_index_classifies_parameter_as_definition(crash_repo):
    index = index_repository(crash_repo)
    by_loc = {(s.file, s.line): s.kind for s in index.sites("len")}
    assert by_loc[("utils.c", 40)] == DEFINITION  # signature parameter
    assert by_loc[("utils.c", 45)] == USE  # memcpy argument
    assert len(by_loc) == 3


def test_index_python_grammar(tmp_path):
    root = tmp_path / "py"
    root.mkdir()
    (root / "mod.py").write_text(
        "def handler(payload):\n    size = len(payload)\n    return size\n"
    )
    index = index_repository(root)
    assert {(s.line, s.kind) for s in index.sites("handler")} == {(1, DEFINITION)}
    assert {(s.line, s.kind) for s in index.sites("payload")} == {(1, DEFINITION), (2, USE)}
    assert {(s.line, s.kind) for s in index.sites("size")} == {(2, DEFINITION), (3, USE)}


def test_syntax_error_file_is_isolated(tmp_path):
    root = tmp_path / "mixed"
    root.mkdir()
    (root / "bad.py").write_text("def broken(:\n")
    (root / "good.py").write_text("def fine():\n    return 1\n")
    index = index_repository(root)
    assert index.sites("fine")
    assert index.files["bad.py"] == 1  # still counted, lexical fallback


def test_lexical_fallback_for_unknown_extensions(tmp_path):
    root = tmp_path / "docs"
    root.mkdir()
    (root / "notes.rst").write_text("the safe_copy routine is unsafe\nsafe_copy again\n")
    index = index_repository(root)
    sites = index.sites("safe_copy")
    assert [(s.line, s.kind) for s in sites] == [(1, USE), (2, USE)]


def test_binary_and_oversized_files_skipped(tmp_path):
    root = tmp_path / "repo"
    root.mkdir()
    (root / "blob.bin").write_bytes(b"ELF\x00\x01binary")
    (root / "big.c").write_text("int x;\n" * 400_000)
    (root / "small.c").write_text("int keep_me;\n")
    index = index_repository(root)
    assert "blob.bin" not in index.files
    assert "big.c" not in index.files
    assert index.sites("keep_me")


def test_reindexing_unchanged_repo_is_identical(crash_repo):
    a = index_repository(crash_repo)
    b = index_repository(crash_repo)
    assert a.files == b.files
    for symbol in ("safe_copy", "len", "checksum"):
        assert a.sites(symbol) == b.sites(symbol)


def test_comments_and_strings_do_not_produce_c_sites(tmp_path):
    root = tmp_path / "c"
    root.mkdir()
    (root / "x.c").write_text(
        '/* mentions ghost_sym here */\n'
        '// and ghost_sym here\n'
        'char *s = "ghost_sym too";\n'
        "int real_sym = 1;\n"
    )
    index = index_repository(root)
    assert index.sites("ghost_sym") == []
    assert index.sites("real_sym")


def c_sites(text: str) -> set[tuple[int, str, str]]:
    return {(s.line, s.kind, s.symbol) for s in localizer._extract_c_sites(text, "x.c")}


def test_block_comment_marker_in_a_line_comment_opens_nothing():
    sites = c_sites(
        "// build every src/*.c file\n"
        "int parse_header(char *buf) {\n"
        "    return checksum(buf);\n"
        "}\n"
    )
    assert sites == {
        (2, DEFINITION, "parse_header"), (2, DEFINITION, "buf"),
        (3, USE, "checksum"), (3, USE, "buf"),
    }


def test_block_comment_marker_in_a_literal_opens_nothing():
    sites = c_sites(
        'const char *msg = "/* not a comment";\n'
        "char slash = '/';\n"
        "int after_literal(int n) {\n"
        "    return n + 1; /* a real one */\n"
        "}\n"
    )
    assert sites == {
        (1, DEFINITION, "msg"), (2, DEFINITION, "slash"),
        (3, DEFINITION, "after_literal"), (3, DEFINITION, "n"), (4, USE, "n"),
    }


@pytest.mark.parametrize(
    "statement, symbol",
    [("return n;", "n"), ("return *n;", "n"), ("goto out;", "out"), ("else n = 0;", "n")],
)
def test_statements_are_not_declarations(statement, symbol):
    sites = c_sites(f"int f(int n) {{\n    {statement}\n}}\n")
    assert (2, USE, symbol) in sites
    assert (2, DEFINITION, symbol) not in sites


def test_block_comment_spanning_lines_hides_only_its_own_text():
    sites = c_sites(
        "int before;\n"
        "/* ghost_a\n"
        "   ghost_b\n"
        "   ghost_c */ int after_comment;\n"
        "int later; /* ghost_d */ int same_line;\n"
    )
    assert {s for _, _, s in sites} == {"before", "after_comment", "later", "same_line"}
    assert (4, DEFINITION, "after_comment") in sites


def test_unterminated_block_comment_hides_the_rest_of_the_file():
    sites = c_sites("int visible;\n/* never closed\nint hidden;\nvoid also_hidden(void) {\n}\n")
    assert sites == {(1, DEFINITION, "visible")}


def test_c_line_numbers_follow_every_line_break():
    sites = c_sites(
        "int first;\r\n"
        "/* two\r\n three */\x0cint fourth;\r\n"
        "int fifth; // ghost\x0cint sixth;\u2028int seventh;\n"
    )
    assert sites == {
        (1, DEFINITION, "first"), (4, DEFINITION, "fourth"),
        (5, DEFINITION, "fifth"), (6, DEFINITION, "sixth"), (7, DEFINITION, "seventh"),
    }


# ---------------------------------------------------------------------------
# iter_grep ranking
# ---------------------------------------------------------------------------


def test_worked_example_ranking(crash_repo):
    index = index_repository(crash_repo)
    report = parse_crash_report(CRASH_REPORT)
    result = iter_grep(index, "len", report)
    assert [(o.file, o.line_range[0] + (o.line_range[1] - o.line_range[0]) // 2) for o in result]
    locations = [(o.file, o.rank) for o in result]
    assert locations == [("utils.c", 1), ("utils.c", 2), ("main.c", 3)]
    # rank 1 centers on the crash line, rank 2 on the signature, rank 3 on the caller
    assert result[0].line_range == (35, 46)
    assert result[1].line_range == (30, 46)
    assert result[2].line_range == (92, 106)


def test_single_site_symbol(crash_repo):
    index = index_repository(crash_repo)
    result = iter_grep(index, "dump_hex", None)
    assert len(result) == 1
    assert result[0].rank == 1
    assert result[0].file == "utils.c"


def test_no_match_raises(crash_repo):
    index = index_repository(crash_repo)
    with pytest.raises(NoMatch):
        iter_grep(index, "does_not_exist", None)
    with pytest.raises(NoMatch):
        iter_grep(index, "", None)


def brute_force_rank(sites, report, k):
    def frame_index(site):
        for idx, frame in enumerate(report.frames):
            if frame.file == site.file or frame.file.endswith("/" + site.file):
                return idx
        return None

    def score(site):
        idx = frame_index(site)
        kind = 0 if site.kind == DEFINITION else 1
        if idx is None:
            return (1, 0, 0, kind, site.file, site.line)
        return (0, idx, abs(site.line - report.frames[idx].line), kind, site.file, site.line)

    return [(s.file, s.line) for s in sorted(sites, key=score)][:k]


def test_ranking_matches_brute_force_comparator():
    # 12 synthetic sites across 3 files with a 3-frame trace
    sites = [
        SymbolSite("a.c", 10, USE, "sym"),
        SymbolSite("a.c", 52, DEFINITION, "sym"),
        SymbolSite("a.c", 50, USE, "sym"),
        SymbolSite("a.c", 48, USE, "sym"),
        SymbolSite("b.c", 7, DEFINITION, "sym"),
        SymbolSite("b.c", 7, USE, "other"),
        SymbolSite("b.c", 200, USE, "sym"),
        SymbolSite("c.c", 3, USE, "sym"),
        SymbolSite("c.c", 90, DEFINITION, "sym"),
        SymbolSite("d.c", 1, USE, "sym"),
        SymbolSite("d.c", 2, DEFINITION, "sym"),
        SymbolSite("d.c", 3, USE, "sym"),
    ]
    report = CrashReport(
        frames=[
            CrashFrame("a.c", 50, "inner"),
            CrashFrame("b.c", 7, "middle"),
            CrashFrame("c.c", 88, "outer"),
        ],
        fault_kind="heap-buffer-overflow",
        raw="",
    )
    index = SymbolIndex(
        files={f: 300 for f in ("a.c", "b.c", "c.c", "d.c")},
        groups=[{"sym": [s for s in sites if s.symbol == "sym"]}],
    )
    for k in (3, 5, 12):
        got = [(o.file, o.line_range) for o in iter_grep(index, "sym", report, k=k)]
        want = [
            (f, (max(1, l - 10), min(300, l + 10)))
            for f, l in brute_force_rank([s for s in sites if s.symbol == "sym"], report, k)
        ]
        assert got == want, k


def test_without_report_ranking_degrades_to_kind_then_path():
    sites = [
        SymbolSite("z.c", 9, USE, "sym"),
        SymbolSite("a.c", 5, USE, "sym"),
        SymbolSite("m.c", 1, DEFINITION, "sym"),
    ]
    index = SymbolIndex(files={"z.c": 20, "a.c": 20, "m.c": 20}, groups=[{"sym": sites}])
    result = iter_grep(index, "sym", None)
    assert [(o.file, o.rank) for o in result] == [("m.c", 1), ("a.c", 2), ("z.c", 3)]


def test_output_bounded_by_k_with_contiguous_ranks(crash_repo):
    index = index_repository(crash_repo)
    result = iter_grep(index, "i", None, k=2)
    assert len(result) == 2
    assert [o.rank for o in result] == [1, 2]


def test_line_ranges_stay_within_file_bounds(crash_repo):
    index = index_repository(crash_repo)
    report = parse_crash_report(CRASH_REPORT)
    for symbol in ("len", "safe_copy", "main", "packet"):
        for obj in iter_grep(index, symbol, report, k=10):
            assert 1 <= obj.line_range[0] <= obj.line_range[1]
            assert obj.line_range[1] <= index.line_count(obj.file)


def test_determinism(crash_repo):
    index = index_repository(crash_repo)
    report = parse_crash_report(CRASH_REPORT)
    first = [(o.file, o.line_range, o.rank) for o in iter_grep(index, "len", report)]
    second = [(o.file, o.line_range, o.rank) for o in iter_grep(index, "len", report)]
    assert first == second


def test_crash_file_sites_outrank_outside_sites():
    sites = [
        SymbolSite("cold.c", 50, DEFINITION, "sym"),
        SymbolSite("hot.c", 400, USE, "sym"),
    ]
    index = SymbolIndex(files={"cold.c": 500, "hot.c": 500}, groups=[{"sym": sites}])
    report = CrashReport([CrashFrame("hot.c", 10, "f")], "heap-buffer-overflow", "")
    result = iter_grep(index, "sym", report)
    assert result[0].file == "hot.c"


def test_absolute_frame_paths_match_relative_sites():
    index = SymbolIndex(
        files={"src/mod.c": 100},
        groups=[{"sym": [SymbolSite("src/mod.c", 10, USE, "sym")]}],
    )
    report = CrashReport([CrashFrame("/build/repo/src/mod.c", 12, "f")], "segv", "")
    result = iter_grep(index, "sym", report)
    assert "crash frame #0" in result[0].reason


# ---------------------------------------------------------------------------
# per-process parse cache
# ---------------------------------------------------------------------------


OLD_MTIME = 1_600_000_000 * 10**9


def _blob_id(data: bytes) -> str:
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def test_unchanged_files_are_not_parsed_again(tmp_path, monkeypatch):
    root = init_repo(
        tmp_path / "repo",
        {
            "src/a.c": "int alpha(int n) {\n    return n;\n}\n",
            "src/b.c": "int beta;\n",
            "tool.py": "def gamma(x):\n    return x\n",
            "README": "alpha beta gamma\n",
        },
    )
    parsed = []

    def counting(real):
        def extract(text, path):
            parsed.append(path)
            return real(text, path)

        return extract

    for name in ("_extract_c_sites", "_extract_python_sites"):
        monkeypatch.setattr(localizer, name, counting(getattr(localizer, name)))
    monkeypatch.setattr(localizer, "_PARSED", {})
    monkeypatch.setattr(localizer, "_STATS", {})
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path).relative_to(root).as_posix())
        return open(path, *args, **kwargs)

    monkeypatch.setattr(localizer, "open", counting_open, raising=False)
    (root / "tool.o").write_bytes(b"\x7fELF\x00alpha")  # a binary, never indexed
    for path in root.rglob("*"):
        if ".git" not in path.parts and path.is_file():
            os.utime(path, ns=(OLD_MTIME, OLD_MTIME))  # old enough to trust its stat

    first = index_repository(root)
    assert sorted(parsed) == ["src/a.c", "src/b.c", "tool.py"]
    assert sorted(opened) == ["README", "src/a.c", "src/b.c", "tool.o", "tool.py"]
    # the cache key is git's own blob id, as `git ls-files -s` lists it
    staged = {
        (line.split("\t")[1], line.split()[1])
        for line in git(root, "ls-files", "-s").splitlines()
    }
    assert set(localizer._PARSED) == staged

    parsed.clear()
    opened.clear()
    second = index_repository(root)
    assert (parsed, opened) == ([], [])
    assert second.files == first.files
    assert second.sites("alpha") == first.sites("alpha")

    (root / "src" / "b.c").write_text("int delta;\n")
    third = index_repository(root)
    assert parsed == opened == ["src/b.c"]
    assert [s.file for s in third.sites("beta")] == ["README"]  # no stale src/b.c site
    assert [(s.file, s.line, s.kind) for s in third.sites("delta")] == [("src/b.c", 1, DEFINITION)]


_TREE_NAMES = ("a.c", "b.h", "m.py", "notes.txt", "d/a.c", "d/e/m.py", "d-x/t.txt")
_TREE_LINES = (
    "int foo = 1;", "foo(bar);", "static char *bar;", "/* foo */ baz();",
    "def foo(bar):", "    return bar", "baz = foo", "class Baz:", "def (",
    "foo bar baz", "",
)
_TREE_SYMBOLS = ("foo", "bar", "baz", "Baz", "int", "char", "return", "def", "class")

_contents = st.lists(st.sampled_from(_TREE_LINES), max_size=6).map(lambda ls: "\n".join(ls) + "\n")
_trees = st.dictionaries(st.sampled_from(_TREE_NAMES), _contents, min_size=1)
_steps = st.lists(
    st.tuples(
        st.sampled_from(("edit", "same-size edit", "rename", "delete")),
        st.sampled_from(_TREE_NAMES),
        st.sampled_from(_TREE_NAMES),
        _contents,
    ),
    max_size=5,
)


def _write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)


def _snapshot(index) -> tuple:
    return index.files, {symbol: index.sites(symbol) for symbol in _TREE_SYMBOLS}


def _same_size_edit(text: str) -> str:
    return re.sub("foo|bar|baz", lambda m: {"foo": "bar", "bar": "baz", "baz": "foo"}[m[0]], text)


@settings(max_examples=40, deadline=None)
@given(tree=_trees, steps=_steps, other=_trees)
def test_cached_index_equals_index_built_from_scratch(tree, steps, other):
    saved = localizer._PARSED, localizer._STATS, localizer._signature
    # As if the ctime could not be trusted (git's core.trustctime=false): a
    # same-size edit that keeps the mtime then keeps the whole signature, and
    # only the racy-timestamp rule makes the index read the file again.
    localizer._signature = lambda st: (st.st_size, st.st_mtime_ns, 0, st.st_ino)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            root, second = Path(tmp, "one"), Path(tmp, "two")
            _write_tree(root, tree)
            for rel in tree:  # old enough to trust, so unchanged files hit the cache
                os.utime(root / rel, ns=(OLD_MTIME, OLD_MTIME))
            index_repository(root)
            files = dict(tree)
            for op, name, target, text in steps:
                if op == "same-size edit" and files:
                    name = min(files) if name not in files else name
                if name not in files:
                    continue
                if op == "edit":
                    files[name] = text
                    (root / name).write_text(text)
                elif op == "same-size edit":  # inside the mtime tick an index call saw
                    path = root / name
                    path.write_text(files[name])
                    index_repository(root)
                    seen = path.stat()
                    files[name] = _same_size_edit(files[name])
                    path.write_text(files[name])
                    os.utime(path, ns=(seen.st_atime_ns, seen.st_mtime_ns))
                elif op == "rename" and target not in files:
                    (root / target).parent.mkdir(parents=True, exist_ok=True)
                    (root / name).rename(root / target)
                    files[target] = files.pop(name)
                elif op == "delete":
                    (root / name).unlink()
                    del files[name]
            warm = _snapshot(index_repository(root))
            localizer._PARSED, localizer._STATS = {}, {}
            cold = _snapshot(index_repository(root))
            assert warm == cold
            # every site points at a file that holds the symbol on that line now
            for symbol, sites in warm[1].items():
                for site in sites:
                    line = files[site.file].splitlines()[site.line - 1]
                    assert symbol in line

            _write_tree(second, other)
            index_repository(second)
            assert set(localizer._PARSED) == {
                (rel, _blob_id(text.encode())) for rel, text in other.items()
            }
    finally:
        localizer._PARSED, localizer._STATS, localizer._signature = saved
