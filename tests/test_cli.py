from __future__ import annotations

import configparser
import csv
import json
import re
import socket
import threading
import time
from dataclasses import fields
from pathlib import Path

import conftest as fx
import pytest

from patchloop import cli
from patchloop.config import EngineConfig, load_config
from patchloop.embedding import CachingEmbedder, DeterministicEmbedder
from patchloop.memory import load_store
from patchloop.workspace import Workspace


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.gateway.temperature == 0.0
    assert cfg.retrieval.k_min == 2
    assert cfg.retrieval.top_n == 4
    assert cfg.limits.attempt_cap == 3
    assert cfg.oracle.command_timeout == 600.0


def test_load_config_reads_sections_and_strips_quotes(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
[gateway]
backend = "scripted"
transcript = '/tmp/t.jsonl'
model_name = test-model
temperature = 0.0
max_turns = 12
prompt_budget = 9000
prompt_price_per_1k = 0.5

[retrieval]
embedder = deterministic
k_min = 3
top_n = 6

[oracle]
command_timeout = 45

[limits]
attempt_cap = 2
log_budget = 1234

[ingest]
cwe = cwe_id
"""
    )
    cfg = load_config(path)
    assert cfg.gateway.backend == "scripted"
    assert cfg.gateway.transcript == "/tmp/t.jsonl"
    assert cfg.gateway.model_name == "test-model"
    assert cfg.gateway.max_turns == 12
    assert cfg.gateway.prompt_budget == 9000
    assert cfg.gateway.prompt_price_per_1k == 0.5
    assert cfg.retrieval.k_min == 3 and cfg.retrieval.top_n == 6
    assert cfg.oracle.command_timeout == 45.0
    assert cfg.limits.attempt_cap == 2
    assert cfg.limits.log_budget == 1234
    assert cfg.ingest_column_map == {"cwe": "cwe_id"}


def readme_configuration_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Configuration\n\n```ini\n", 1)[1].split("```", 1)[0]


def test_readme_configuration_block_loads_without_warnings(tmp_path, caplog):
    path = tmp_path / "run.cfg"
    path.write_text(readme_configuration_block(), encoding="utf-8")
    with caplog.at_level("WARNING", logger="patchloop.config"):
        cfg = load_config(path)
    assert caplog.records == []
    assert cfg.gateway.backend == "scripted"  # the trailing "; or: http" is a comment
    assert cfg.retrieval.k_min == 2 and cfg.limits.attempt_cap == 3
    assert cfg.limits.tool_output_cap == 20_000


def test_readme_configuration_block_lists_every_key_of_each_section():
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(readme_configuration_block())
    cfg = EngineConfig()
    for name in ("gateway", "retrieval", "oracle", "limits"):
        assert set(parser[name]) == {f.name for f in fields(getattr(cfg, name))}, name


def test_readme_layout_block_lists_every_module():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout\n\n```\n", 1)[1].split("```", 1)[0]
    listed = set(re.findall(r"^  (\w+\.py) ", block, re.MULTILINE))
    modules = {p.name for p in (root / "src" / "patchloop").glob("*.py")} - {"__init__.py"}
    assert listed == modules


@pytest.mark.parametrize("values", ["k_min = 0", "k_min = 3\ntop_n = 2"])
def test_retrieval_bounds_out_of_order_are_a_bad_config(tmp_path, capsys, values):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[retrieval]\n{values}\n")
    with pytest.raises(ValueError, match="k_min"):
        load_config(cfg)
    code, _, err = run_cli(
        capsys, "--config", str(cfg), "memory", "inspect", "--memory", str(tmp_path / "m.jsonl")
    )
    assert code == 2 and "bad config" in err


def test_load_config_warns_about_keys_it_does_not_read(tmp_path, caplog):
    path = tmp_path / "run.cfg"
    path.write_text("[limits]\natempt_cap = 1\n\n[oracle]\ntotal_budget = 60\n")
    with caplog.at_level("WARNING", logger="patchloop.config"):
        cfg = load_config(path)
    assert [r.getMessage() for r in caplog.records] == [
        "config section [limits]: ignoring unknown key 'atempt_cap'"
    ]
    assert cfg.limits.attempt_cap == 3
    assert cfg.oracle.total_budget == 60.0


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

PATCH = "--- a/f.c\\n+++ b/f.c\\n@@ -1,1 +1,1 @@\\n-x\\n+y\\n"


def corpus_row(iid: str, desc: str, patch_tag: str = "x") -> dict:
    return {
        "project": "proj",
        "cwe": "CWE-787",
        "language": "c",
        "instance_id": iid,
        "description": desc,
        "fix_patch": f"--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-{patch_tag}\n+{patch_tag}2\n",
    }


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def test_ingest_empty_corpus(tmp_path, capsys):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [])
    code, out, _ = run_cli(
        capsys, "--json", "ingest", str(corpus), "--memory", str(tmp_path / "m.jsonl")
    )
    assert code == 0
    assert json.loads(out) == {"inserted": 0, "merged": 0, "rejected": 0}


def test_ingest_three_distinct_rows(tmp_path, capsys):
    corpus = write_jsonl(
        tmp_path / "corpus.jsonl",
        [
            corpus_row("p.cve-2020-1", "alpha overflow in first parser", "a"),
            corpus_row("p.cve-2020-2", "beta underflow in second decoder", "b"),
            corpus_row("p.cve-2020-3", "gamma race in third cache", "c"),
        ],
    )
    mem = tmp_path / "m.jsonl"
    code, out, _ = run_cli(capsys, "--json", "ingest", str(corpus), "--memory", str(mem))
    assert code == 0
    assert json.loads(out) == {"inserted": 3, "merged": 0, "rejected": 0}
    assert len(load_store(mem).l1) == 3


def test_ingest_near_duplicate_pair_merges(tmp_path, capsys):
    base_desc = (
        "heap overflow in the mp3 demuxer when the tag size wraps the "
        "allocation and the copy writes past the end of the buffer"
    )
    rows = [
        corpus_row("p.cve-2020-1", base_desc, "same"),
        corpus_row("p.cve-2020-2", base_desc + " again", "same"),
        corpus_row("p.cve-2020-3", "completely different websocket bug", "other"),
    ]
    corpus = write_jsonl(tmp_path / "corpus.jsonl", rows)
    code, out, _ = run_cli(
        capsys, "--json", "ingest", str(corpus), "--memory", str(tmp_path / "m.jsonl")
    )
    assert code == 0
    assert json.loads(out) == {"inserted": 2, "merged": 1, "rejected": 0}


def test_ingest_rejects_malformed_rows(tmp_path, capsys, caplog):
    rows = [
        corpus_row("p.cve-2020-1", "fine row number one", "a"),
        {**corpus_row("p.cve-2020-2", "bad patch row", "b"), "fix_patch": "not a diff"},
        {**corpus_row("p.cve-2020-3", "bad cwe row", "c"), "cwe": "NVD-noinfo"},
        [1, 2],
    ]
    corpus = write_jsonl(tmp_path / "corpus.jsonl", rows)
    code, out, _ = run_cli(
        capsys, "--json", "ingest", str(corpus), "--memory", str(tmp_path / "m.jsonl")
    )
    assert code == 0
    assert json.loads(out) == {"inserted": 1, "merged": 0, "rejected": 3}
    assert "corpus line 4 rejected: not an object" in caplog.text


def test_ingest_rejects_a_line_of_bad_json_and_keeps_the_others(tmp_path, capsys, caplog):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        json.dumps(corpus_row("p.cve-2020-1", "alpha overflow in first parser", "a")) + "\n"
        "{not json\n"
        + json.dumps(corpus_row("p.cve-2020-3", "gamma race in third cache", "c")) + "\n"
    )
    mem = tmp_path / "m.jsonl"
    code, out, _ = run_cli(capsys, "--json", "ingest", str(corpus), "--memory", str(mem))
    assert code == 0
    assert json.loads(out) == {"inserted": 2, "merged": 0, "rejected": 1}
    assert "corpus line 2 rejected: bad JSON (" in caplog.text
    assert [e.keys.instance_id for e in load_store(mem).l1] == ["p.cve-2020-1", "p.cve-2020-3"]


def write_csv(path: Path, rows: list[dict]) -> Path:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


def test_ingest_csv_warnings_name_the_first_line_of_each_row(tmp_path, capsys, caplog):
    rows = [
        corpus_row("p.cve-2020-1", "alpha overflow in first parser", "a"),  # lines 2-7
        {**corpus_row("p.cve-2020-2", "beta race in second cache", "b"), "cwe": "NVD-noinfo"},
        corpus_row("p.cve-2020-3", "gamma leak in third socket", "c"),
    ]
    corpus = write_csv(tmp_path / "corpus.csv", rows)
    code, out, _ = run_cli(
        capsys, "--json", "ingest", str(corpus), "--memory", str(tmp_path / "m.jsonl")
    )
    assert code == 0
    assert json.loads(out) == {"inserted": 2, "merged": 0, "rejected": 1}
    assert "corpus line 8 rejected: bad CWE 'NVD-noinfo'" in caplog.text


def test_ingest_rejects_a_csv_field_over_the_limit_and_keeps_the_others(tmp_path, capsys, caplog):
    # a patch of 2003 lines, over the csv module's 131072-character limit
    big = "--- a/g.c\n+++ b/g.c\n@@ -1,2000 +1,2000 @@\n" + "".join(
        f'-    printf("{k}: %s", name); /* {"x" * 50} */\n' for k in range(2000)
    )
    rows = [
        corpus_row("p.cve-2020-1", "alpha overflow in first parser", "a"),  # lines 2-7
        {**corpus_row("p.cve-2020-2", "beta race in second cache", "b"), "fix_patch": big},
        {**corpus_row("p.cve-2020-3", "gamma leak in third socket", "c"), "cwe": "NVD-noinfo"},
        corpus_row("p.cve-2020-4", "delta underflow in fourth codec", "d"),
    ]
    corpus = write_csv(tmp_path / "corpus.csv", rows)
    mem = tmp_path / "m.jsonl"
    code, out, _ = run_cli(capsys, "--json", "ingest", str(corpus), "--memory", str(mem))
    assert code == 0
    assert json.loads(out) == {"inserted": 2, "merged": 0, "rejected": 2}
    assert "corpus line 8 rejected: bad CSV (field larger than field limit" in caplog.text
    assert "corpus line 2012 rejected: bad CWE 'NVD-noinfo'" in caplog.text
    assert [e.keys.instance_id for e in load_store(mem).l1] == ["p.cve-2020-1", "p.cve-2020-4"]


def test_ingest_csv_with_a_byte_order_mark_keeps_its_first_column(tmp_path, capsys):
    csv_path = tmp_path / "corpus.csv"
    csv_path.write_text(
        "\ufeffproject,cwe,language,instance_id,description,fix_patch\n"
        'proj,CWE-125,c,p.cve-2021-5,out of bounds read in lexer,"--- a/l.c\n'
        '+++ b/l.c\n@@ -1,1 +1,1 @@\n-q\n+r\n"\n',
        encoding="utf-8",
    )
    mem = tmp_path / "m.jsonl"
    code, out, _ = run_cli(capsys, "--json", "ingest", str(csv_path), "--memory", str(mem))
    assert code == 0
    assert json.loads(out)["inserted"] == 1
    assert load_store(mem).l1[0].keys.project == "proj"


def test_ingest_json_lines_with_a_byte_order_mark_keeps_its_first_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "\ufeff" + json.dumps(corpus_row("p.cve-2020-1", "alpha overflow in first parser")) + "\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, "--json", "ingest", str(corpus), "--memory", str(tmp_path / "m.jsonl")
    )
    assert code == 0
    assert json.loads(out) == {"inserted": 1, "merged": 0, "rejected": 0}


def test_ingest_csv_with_column_map(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[ingest]\ncwe = cwe_id\nfix_patch = patch\n")
    csv_path = tmp_path / "corpus.csv"
    csv_path.write_text(
        "project,cwe_id,language,instance_id,description,patch\n"
        'proj,CWE-125,c,p.cve-2021-5,out of bounds read in lexer,"--- a/l.c\n'
        '+++ b/l.c\n@@ -1,1 +1,1 @@\n-q\n+r\n"\n'
    )
    code, out, _ = run_cli(
        capsys,
        "--config", str(cfg), "--json",
        "ingest", str(csv_path), "--memory", str(tmp_path / "m.jsonl"),
    )
    assert code == 0
    assert json.loads(out)["inserted"] == 1
    entry = load_store(tmp_path / "m.jsonl").l1[0]
    assert entry.keys.cwe == "CWE-125"
    assert "out of bounds read" in entry.keys.description


def test_ingest_idempotent_second_run_inserts_nothing(tmp_path, capsys):
    corpus = write_jsonl(
        tmp_path / "corpus.jsonl",
        [corpus_row("p.cve-2020-1", "one specific overflow description", "a")],
    )
    mem = tmp_path / "m.jsonl"
    run_cli(capsys, "--json", "ingest", str(corpus), "--memory", str(mem))
    code, out, _ = run_cli(capsys, "--json", "ingest", str(corpus), "--memory", str(mem))
    assert code == 0
    assert json.loads(out) == {"inserted": 0, "merged": 1, "rejected": 0}


def test_ingest_dedups_with_the_configured_embedder(tmp_path, capsys, monkeypatch):
    seen: list[str] = []

    class RecordingEmbedder(DeterministicEmbedder):
        def embed(self, text):
            seen.append(text)
            return super().embed(text)

    built = []

    def build(retrieval_cfg):
        built.append(retrieval_cfg.embedder)
        return CachingEmbedder(RecordingEmbedder())

    monkeypatch.setattr(cli, "build_embedder", build)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[retrieval]\nembedder = remote\n")
    corpus = write_jsonl(
        tmp_path / "corpus.jsonl",
        [corpus_row("p.cve-2020-1", "alpha overflow in first parser", "a")],
    )
    code, out, _ = run_cli(
        capsys, "--config", str(cfg), "--json",
        "ingest", str(corpus), "--memory", str(tmp_path / "m.jsonl"),
    )
    assert code == 0 and json.loads(out)["inserted"] == 1
    assert built == ["remote"]
    assert "alpha overflow in first parser" in seen


def embedding_answers(http_server, refuse) -> None:
    """Have `http_server` answer /v1/embeddings with the deterministic
    embedder's vector, or with a 503 (Retry-After: 0) wherever
    ``refuse(request number, text)`` is true; requests count from 1."""
    embedder = DeterministicEmbedder()

    def answer(path, body):
        text = body["input"][0]
        if refuse(len(http_server.seen), text):
            return 503, {"Retry-After": "0"}, {}
        return 200, {}, {"data": [{"embedding": embedder.embed(text).tolist()}]}

    http_server.answer = answer


def remote_embedder_config(tmp_path, url: str) -> Path:
    cfg = tmp_path / "remote.cfg"
    cfg.write_text(f"[retrieval]\nembedder = remote\nendpoint = {url}\nmodel_name = m\ntimeout = 5\n")
    return cfg


TWENTY_ROWS = [corpus_row(f"p.cve-2020-{i}", f"flaw {i} in module{i} handler", f"t{i}") for i in range(1, 21)]


def test_ingest_rides_out_a_transient_embedder_error(tmp_path, capsys, monkeypatch, http_server):
    embedding_answers(http_server, lambda n, text: n == 7)
    sleeps = []
    monkeypatch.setattr("patchloop.gateway.time.sleep", sleeps.append)
    corpus, mem = write_jsonl(tmp_path / "corpus.jsonl", TWENTY_ROWS), tmp_path / "m.jsonl"
    code, out, err = run_cli(
        capsys, "--config", str(remote_embedder_config(tmp_path, http_server.url)), "--json",
        "ingest", str(corpus), "--memory", str(mem),
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"inserted": 20, "merged": 0, "rejected": 0}
    assert sleeps == [0] and len(http_server.seen) == 2 * 20 + 1
    assert len(load_store(mem).l1) == 20


def test_ingest_keeps_the_rows_before_a_lasting_embedder_outage(tmp_path, capsys, monkeypatch, http_server):
    down = []  # the outage starts with corpus line 8 and lasts

    def refuse(n, text):
        if text == TWENTY_ROWS[7]["description"]:
            down.append(n)
        return bool(down)

    embedding_answers(http_server, refuse)
    monkeypatch.setattr("patchloop.gateway.time.sleep", lambda s: None)
    cfg = remote_embedder_config(tmp_path, http_server.url)
    corpus, mem = write_jsonl(tmp_path / "corpus.jsonl", TWENTY_ROWS), tmp_path / "m.jsonl"
    argv = ["--config", str(cfg), "--json", "ingest", str(corpus), "--memory", str(mem)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "corpus line 8: embedding request failed: unreachable after 3 attempts" in err
    assert [e.keys.instance_id for e in load_store(mem).l1] == [r["instance_id"] for r in TWENTY_ROWS[:7]]

    embedding_answers(http_server, lambda n, text: False)  # the embedder is back
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"inserted": 13, "merged": 7, "rejected": 0}
    assert len(load_store(mem).l1) == 20


def test_ingest_missing_corpus_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "ingest", str(tmp_path / "absent.jsonl"), "--memory", str(tmp_path / "m.jsonl")
    )
    assert code == 2
    assert "error" in err.lower() or "cannot" in err.lower()


# ---------------------------------------------------------------------------
# localize
# ---------------------------------------------------------------------------


def test_localize_prints_json(crash_repo, tmp_path, capsys):
    report_file = tmp_path / "crash.txt"
    report_file.write_text(fx.CRASH_REPORT)
    code, out, _ = run_cli(
        capsys,
        "localize", "--repo", str(crash_repo), "--symbol", "len",
        "--report", str(report_file), "-k", "5",
    )
    assert code == 0
    rows = json.loads(out)
    assert [(r["file"], r["rank"]) for r in rows] == [
        ("utils.c", 1), ("utils.c", 2), ("main.c", 3),
    ]
    assert set(rows[0]) == {"file", "line_start", "line_end", "rank", "reason"}


def test_localize_unknown_symbol_prints_empty_list(crash_repo, capsys):
    code, out, err = run_cli(
        capsys, "localize", "--repo", str(crash_repo), "--symbol", "nonexistent_zz"
    )
    assert code == 0
    assert json.loads(out) == []


def test_localize_on_a_deeply_nested_python_file_exits_zero(tmp_path, capsys):
    (tmp_path / "table.py").write_text("TABLE = " + " + ".join(["1"] * 20_000) + "\n")
    code, out, _ = run_cli(capsys, "localize", "--repo", str(tmp_path), "--symbol", "TABLE")
    assert code == 0
    assert [(r["file"], r["line_start"]) for r in json.loads(out)] == [("table.py", 1)]


@pytest.mark.parametrize("k", ["0", "-1"])
def test_localize_k_below_one_exit_two(crash_repo, capsys, k):
    code, out, err = run_cli(
        capsys, "localize", "--repo", str(crash_repo), "--symbol", "len", "-k", k
    )
    assert (code, out) == (2, "")
    assert "k must be at least 1" in err


# ---------------------------------------------------------------------------
# memory inspect / prune
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", [["inspect"], ["prune", "--window", "1"]])
def test_memory_commands_on_a_corrupt_record_exit_two(tmp_path, capsys, command):
    mem = tmp_path / "m.jsonl"
    mem.write_text("[1, 2]\n")
    code, _, err = run_cli(capsys, "memory", command[0], "--memory", str(mem), *command[1:])
    assert code == 2
    assert f"{mem}:1: entry record is not an object" in err


def test_memory_prune_names_the_line_of_a_record_missing_a_field(tmp_path, capsys):
    mem = tmp_path / "m.jsonl"
    good = json.dumps({"tier": "L1", **corpus_row("p.cve-2020-1", "alpha overflow")})
    mem.write_text(good + '\n{"project": "p"}\n')
    before = mem.read_text()
    code, out, err = run_cli(capsys, "memory", "prune", "--memory", str(mem), "--window", "1")
    assert (code, out) == (2, "")
    assert f"{mem}:2: entry record missing field: 'tier'" in err
    assert mem.read_text() == before


def test_memory_inspect_on_a_state_file_of_the_wrong_shape_exits_two(tmp_path, capsys):
    mem = tmp_path / "m.jsonl"
    mem.write_text('{"completed_tasks": null}\n')
    code, out, err = run_cli(capsys, "memory", "inspect", "--memory", str(mem))
    assert (code, out) == (2, "")
    assert f"{mem}:1: completed_tasks is not an integer" in err and "Traceback" not in err


def memory_command_argv(tmp_path, request) -> dict[str, list[str]]:
    """Each command that loads the memory file, without its --memory."""
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [corpus_row("p.cve-2020-1", "alpha overflow")])
    task, cfg, out_dir = write_repair_setup(tmp_path, request.getfixturevalue("demo_repo"), fx.transcript_success)
    return {
        "inspect": ["memory", "inspect"],
        "prune": ["memory", "prune", "--window", "1"],
        "ingest": ["ingest", str(corpus)],
        "repair": ["--config", str(cfg), "repair", str(task), "--out", str(out_dir)],
        "repair --tasks": ["--config", str(cfg), "repair", "--tasks", str(task.parent), "--out", str(out_dir)],
    }


@pytest.mark.parametrize("command", ["inspect", "prune", "ingest", "repair", "repair --tasks"])
def test_every_command_on_a_leftover_state_file_exits_two(tmp_path, capsys, request, command):
    mem, sidecar = tmp_path / "m.jsonl", tmp_path / "m.jsonl.state.json"
    mem.write_text(json.dumps({**corpus_row("p.cve-2019-9", "an old fix"), "tier": "L1"}) + "\n")
    sidecar.write_text('{"completed_tasks": 4}')
    before = mem.read_bytes()
    argv = memory_command_argv(tmp_path, request)[command]
    code, out, err = run_cli(capsys, *argv, "--memory", str(mem))
    assert (code, out) == (2, "")
    assert f"{sidecar}: counter file of an older version" in err and "Traceback" not in err
    assert mem.read_bytes() == before and sidecar.read_text() == '{"completed_tasks": 4}'
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["inspect", "repair"])
def test_a_directory_as_the_memory_file_is_a_configuration_error(tmp_path, capsys, request, command):
    argv = memory_command_argv(tmp_path, request)[command]
    (tmp_path / "mem").mkdir()
    code, out, err = run_cli(capsys, *argv, "--memory", str(tmp_path / "mem"))
    assert (code, out) == (2, "")
    assert "configuration error" in err and "Traceback" not in err


def test_memory_inspect_empty_file(tmp_path, capsys):
    mem = tmp_path / "m.jsonl"
    mem.write_text("")
    code, out, _ = run_cli(capsys, "--json", "memory", "inspect", "--memory", str(mem))
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"L1": 0, "L2": 0, "L3": 0}


def test_memory_prune_inf_sentinel_removes_nothing(tmp_path, capsys):
    corpus = write_jsonl(
        tmp_path / "corpus.jsonl",
        [corpus_row("p.cve-2020-1", "entry one for inspection", "a")],
    )
    mem = tmp_path / "m.jsonl"
    run_cli(capsys, "--json", "ingest", str(corpus), "--memory", str(mem))
    code, out, _ = run_cli(
        capsys, "--json", "memory", "prune", "--memory", str(mem), "--window", "inf"
    )
    assert code == 0
    assert json.loads(out) == {"removed": 0}


def test_memory_prune_matches_library_oracle(tmp_path, capsys):
    from test_memory import brute_force_stale, build_pruning_store
    from patchloop.memory import save_store

    store = build_pruning_store()
    mem = tmp_path / "m.jsonl"
    save_store(store, mem)
    expected = len(brute_force_stale(store, 5))
    code, out, _ = run_cli(
        capsys, "--json", "memory", "prune", "--memory", str(mem), "--window", "5"
    )
    assert code == 0
    assert json.loads(out) == {"removed": expected}
    # the file was rewritten without the stale entries
    reloaded = load_store(mem)
    assert len(reloaded.l2) + len(reloaded.l3) == 6 - expected


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def write_repair_setup(tmp_path, repo, transcript_builder) -> tuple[Path, Path, Path]:
    transcript = transcript_builder(tmp_path / "transcript.jsonl")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[gateway]\nbackend = scripted\ntranscript = {transcript}\n")
    task = tmp_path / "task.json"
    task.write_text(json.dumps(fx.demo_task_json(repo)))
    return task, cfg, tmp_path / "out"


def test_repair_success_exit_zero(demo_repo, tmp_path, capsys):
    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, fx.transcript_success)
    code, out, _ = run_cli(
        capsys,
        "--config", str(cfg), "--json",
        "repair", str(task), "--memory", str(tmp_path / "m.jsonl"), "--out", str(out_dir),
    )
    assert code == 0
    report = json.loads((out_dir / "task.report.json").read_text())
    assert report["outcome"] == "success"
    assert "raise ValueError" in report["final_diff"]
    assert (out_dir / "task.trajectory.jsonl").exists()
    # memory file now carries the consolidated experience
    assert len(load_store(tmp_path / "m.jsonl").l2) == 1


@pytest.mark.parametrize(
    "cwe, stored",
    [("787", "CWE-787"), ("cwe-787", "CWE-787"), ("", "CWE-UNKNOWN"), ("CWE-UNKNOWN", "CWE-UNKNOWN"),
     ("NVD-noinfo", None)],
)
def test_repair_takes_the_cwe_spellings_that_ingest_stores(demo_repo, tmp_path, capsys, cwe, stored):
    row = {"project": "p", "cwe": cwe, "language": "c", "instance_id": "p.cve-2020-1", "description": "d",
           "fix_patch": "--- a/f.c\n+++ b/f.c\n@@ -1,1 +1,1 @@\n-a\n+b\n"}
    corpus, corpus_memory = tmp_path / "corpus.jsonl", tmp_path / "corpus.memory.jsonl"
    corpus.write_text(json.dumps(row) + "\n")
    assert run_cli(capsys, "ingest", str(corpus), "--memory", str(corpus_memory))[0] == 0
    assert [e.keys.cwe for e in load_store(corpus_memory).l1] == ([stored] if stored else [])

    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, fx.transcript_success)
    task.write_text(json.dumps(fx.demo_task_json(demo_repo, {"cwe": cwe})))
    mem = tmp_path / "m.jsonl"
    code, _, err = run_cli(
        capsys, "--config", str(cfg), "repair", str(task), "--memory", str(mem), "--out", str(out_dir)
    )
    if stored is None:
        assert code == 2 and f"configuration error: bad CWE tag: {cwe!r}" in err
        return
    assert code == 0
    assert [e.keys.cwe for e in load_store(mem).l2] == [stored]


def test_repair_tool_call_raising_os_error_is_a_failed_result(demo_repo, tmp_path, capsys):
    def transcript(path):
        records = fx.locator_turns(1) + fx.patcher_turns(1, fx.GOOD_NEW)
        # a file as a parent directory, then a name longer than any file system allows
        records[2]["turn"]["tool_calls"][:0] = [
            {"name": "create", "args": {"path": "app/buffer.py/oops.py", "text": "x\n"}},
            {"name": "create", "args": {"path": "a" * 300, "text": "x\n"}},
        ]
        return fx.write_transcript(path, records)

    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, transcript)
    code, _, err = run_cli(
        capsys,
        "--config", str(cfg), "--json",
        "repair", str(task), "--memory", str(tmp_path / "m.jsonl"), "--out", str(out_dir),
    )
    assert (code, err) == (0, "")
    assert json.loads((out_dir / "task.report.json").read_text())["outcome"] == "success"
    with (out_dir / "task.trajectory.jsonl").open() as fh:
        tools = [r for r in map(json.loads, fh) if r["type"] == "tool"]
    results = [(t["call"]["name"], t["result"]["ok"], t["result"].get("error_kind")) for t in tools]
    assert results[1:] == [
        ("create", False, "OSError"), ("create", False, "OSError"), ("str_replace", True, None)
    ]
    assert tools[1]["result"]["output"] == "create failed on app/buffer.py/oops.py: File exists"


@pytest.mark.parametrize(
    "bad",
    [
        {"phase": "locator", "attempt": 1, "turn": "hello"},
        ["locator", 1],
        {"phase": "locator", "attempt": [1], "turn": {"content": "x"}},
        {"phase": "locator", "attempt": "1", "turn": {"content": "x"}},
        {"phase": "locator", "attempt": 0, "turn": {"content": "x"}},
        {"phase": "locator", "attempt": True, "turn": {"content": "x"}},
        {"phase": "patchr", "attempt": 1, "turn": {"content": "x"}},
        {"attempt": 1, "turn": {"content": "x"}},
        {"phase": "locator", "attempt": 1, "turn": {"content": ["x"]}},
        {"phase": "locator", "attempt": 1, "turn": {"role": 1, "content": "x"}},
        '{"phase": "locator", "attempt": 1,',
    ],
    ids=["turn a string", "a list", "attempt a list", "attempt a string", "attempt 0",
         "attempt true", "unknown phase", "no phase", "content a list", "role a number", "not JSON"],
)
def test_repair_transcript_record_of_the_wrong_shape_exit_two(demo_repo, tmp_path, capsys, bad):
    def transcript(path):
        lines = [json.dumps(rec) for rec in fx.locator_turns(1) + fx.patcher_turns(1, fx.GOOD_NEW)]
        lines.insert(2, bad if isinstance(bad, str) else json.dumps(bad))  # a str is the raw line
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, transcript)
    code, _, err = run_cli(
        capsys,
        "--config", str(cfg),
        "repair", str(task), "--memory", str(tmp_path / "m.jsonl"), "--out", str(out_dir),
    )
    assert code == 2
    assert f"{tmp_path / 'transcript.jsonl'}:3: " in err
    assert not (out_dir / "task.report.json").exists()


def test_repair_exhausted_exit_one(demo_repo, tmp_path, capsys):
    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, fx.transcript_four_failures)
    code, _, _ = run_cli(
        capsys,
        "--config", str(cfg), "--json",
        "repair", str(task), "--memory", str(tmp_path / "m.jsonl"), "--out", str(out_dir),
    )
    assert code == 1
    report = json.loads((out_dir / "task.report.json").read_text())
    assert report["failed_attempts"] == 3


def test_repair_whose_rollback_fails_exits_two_naming_the_git_step(
    demo_repo, tmp_path, capsys, monkeypatch
):
    fx.fail_next_read_tree(monkeypatch)
    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, fx.transcript_relocate_then_success)
    code, _, err = run_cli(
        capsys,
        "--config", str(cfg),
        "repair", str(task), "--memory", str(tmp_path / "m.jsonl"), "--out", str(out_dir),
    )
    assert code == 2
    assert "configuration error: git read-tree --reset -u" in err
    assert not (out_dir / "task.report.json").exists()
    assert fx.git(demo_repo, "status", "--porcelain") == ""


def test_repair_keeps_a_verified_fix_when_memory_cannot_embed(demo_repo, tmp_path, capsys, caplog, monkeypatch):
    # The retry waits are whole seconds and are recorded; a subprocess's
    # wait polls in fractions of one, and those are slept.
    real_sleep, sleeps = time.sleep, []
    monkeypatch.setattr(
        "patchloop.gateway.time.sleep", lambda s: sleeps.append(s) if type(s) is int else real_sleep(s)
    )
    with socket.socket() as sock:  # a port nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    mem = tmp_path / "m.jsonl"
    run_cli(capsys, "ingest", str(write_jsonl(tmp_path / "c.jsonl", [corpus_row("old.1", "kept")])),
            "--memory", str(mem))
    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, fx.transcript_success)
    with cfg.open("a") as fh:
        fh.write(f"[retrieval]\nembedder = remote\nendpoint = http://127.0.0.1:{port}\n"
                 "model_name = m\ntimeout = 5\n")
    code, out, _ = run_cli(
        capsys,
        "--config", str(cfg), "--json",
        "repair", str(task), "--memory", str(mem), "--out", str(out_dir),
    )
    assert code == 0 and json.loads(out)["exit"] == 0
    report = json.loads((out_dir / "task.report.json").read_text())
    assert report["outcome"] == "success"
    assert report["reason"].startswith("memory consolidation skipped: embedding request failed")
    assert sleeps == [1, 2]  # the one consolidation embed, retried before it is given up
    assert fx.git(demo_repo, "diff") == report["final_diff"] != ""
    assert "not consolidated into memory" in caplog.text
    store = load_store(mem)
    assert [e.keys.instance_id for e in store.l1] == ["old.1"] and store.l2 == []


def test_repair_with_a_malformed_embedder_endpoint_exits_two(demo_repo, tmp_path, capsys):
    """The URL is refused before any request; retrieval does not fall back
    to token overlap for it."""
    mem = tmp_path / "m.jsonl"
    row = {**corpus_row("other.cve-2020-1", "out-of-bounds write in a copy loop"), "language": "python"}
    run_cli(capsys, "ingest", str(write_jsonl(tmp_path / "c.jsonl", [row])), "--memory", str(mem))
    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, fx.transcript_success)
    with cfg.open("a") as fh:
        fh.write("[retrieval]\nembedder = remote\nendpoint = foo://127.0.0.1/v1\n")
    code, out, err = run_cli(
        capsys, "--config", str(cfg), "repair", str(task), "--memory", str(mem), "--out", str(out_dir),
    )
    assert (code, out) == (2, "")
    assert "configuration error: not an http(s) URL: foo://127.0.0.1/v1/embeddings" in err
    assert not (out_dir / "task.report.json").exists()
    assert fx.git(demo_repo, "status", "--porcelain") == ""


def test_repair_with_a_malformed_embedder_endpoint_and_no_memories_exits_two_at_once(
    demo_repo, tmp_path, capsys
):
    """No retrieval embeds from an empty store, so only the endpoint check
    made when the embedder is built stops the session before it starts."""
    mem, marker = tmp_path / "m.jsonl", tmp_path / "poc_ran"
    mem.write_text("")
    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, fx.transcript_success)
    task.write_text(json.dumps(on_demo()(demo_repo, marker)))
    with cfg.open("a") as fh:
        fh.write("[retrieval]\nembedder = remote\nendpoint = foo://127.0.0.1/v1\n")
    code, out, err = run_cli(
        capsys, "--config", str(cfg), "repair", str(task), "--memory", str(mem), "--out", str(out_dir),
    )
    assert (code, out) == (2, "")
    assert "configuration error: not an http(s) URL: foo://127.0.0.1/v1/embeddings" in err
    assert not marker.exists()  # no oracle command ran
    assert not (out_dir / "task.report.json").exists()
    assert fx.git(demo_repo, "status", "--porcelain") == "" and mem.read_text() == ""


def test_repair_missing_task_file_exit_two(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "repair", str(tmp_path / "absent.json"), "--memory", str(tmp_path / "m.jsonl")
    )
    assert code == 2
    assert "configuration error" in err


def on_demo(**fields):
    """A demo task on a fresh checkout with `fields` replaced, whose PoC
    first writes the marker file it is given."""
    return lambda repo, marker: fx.demo_task_json(
        repo, {"poc_command": f"touch {marker}; python3 poc.py", **fields}
    )


@pytest.mark.parametrize(
    "task",
    [
        5,
        None,
        ["repo", "poc_command", "regression_command", "instance_id"],
        {"repo": ".", "poc_command": "true", "regression_command": "true",
         "instance_id": "t", "pass_predicates": ["exit_zero"]},
        on_demo(poc_command=5),
        on_demo(instance_id=7),
        on_demo(repo=5),
        on_demo(cwe="bogus"),
        on_demo(instance_id=""),
        on_demo(description=None),
        on_demo(build_command=["make"]),
        on_demo(ground_truth_files="app/buffer.py"),
        on_demo(ground_truth_files=[1]),
    ],
    ids=["a number", "null", "a list of the field names", "pass_predicates a list",
         "poc_command a number", "instance_id a number", "repo a number", "cwe not a CWE tag",
         "instance_id empty", "description null", "build_command a list",
         "ground_truth_files a string", "ground_truth_files of numbers"],
)
def test_repair_task_file_of_the_wrong_shape_exit_two(tmp_path, capsys, request, task):
    marker = tmp_path / "poc_ran"
    argv = []
    if callable(task):
        repo = request.getfixturevalue("demo_repo")
        _, cfg, _ = write_repair_setup(tmp_path, repo, fx.transcript_success)
        task, argv = task(repo, marker), ["--config", str(cfg)]
    task_file = tmp_path / "task.json"
    task_file.write_text(json.dumps(task))
    code, _, err = run_cli(capsys, *argv, "repair", str(task_file), "--memory", str(tmp_path / "m.jsonl"),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "configuration error" in err
    assert not (tmp_path / "m.jsonl").exists()
    assert not marker.exists()  # rejected before the oracle ran anything


def test_repair_misspelled_pass_predicate_key_exit_two(demo_repo, tmp_path, capsys):
    marker = tmp_path / "poc_ran"
    _, cfg, _ = write_repair_setup(tmp_path, demo_repo, fx.transcript_success)
    task = on_demo(pass_predicates={"nope": "exit_zero"})(demo_repo, marker)
    task_file = tmp_path / "task.json"
    task_file.write_text(json.dumps(task))
    code, _, err = run_cli(capsys, "--config", str(cfg), "repair", str(task_file),
                           "--memory", str(tmp_path / "m.jsonl"), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "'nope'" in err
    assert all(key in err for key in ("poc_command", "regression_command", "build_command"))
    assert not marker.exists()


def test_repair_without_task_argument_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "repair", "--memory", str(tmp_path / "m.jsonl"))
    assert code == 2


def test_repair_tasks_on_a_directory_without_task_files_exit_two(tmp_path, capsys):
    (tmp_path / "tasks").mkdir()
    (tmp_path / "tasks" / "notes.txt").write_text("not a task")
    code, out, err = run_cli(
        capsys, "repair", "--tasks", str(tmp_path / "tasks"), "--memory", str(tmp_path / "m.jsonl")
    )
    assert (code, out) == (2, "")
    assert err == f"no task files under {tmp_path / 'tasks'}\n"
    assert not (tmp_path / "m.jsonl").exists()


def test_repair_already_fixed_repo_exit_two(demo_repo, tmp_path, capsys):
    (demo_repo / "app" / "buffer.py").write_text(
        (demo_repo / "app" / "buffer.py").read_text().replace(fx.REPLACE_OLD, fx.GOOD_NEW, 1)
    )
    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, fx.transcript_success)
    code, _, err = run_cli(
        capsys,
        "--config", str(cfg),
        "repair", str(task), "--memory", str(tmp_path / "m.jsonl"), "--out", str(out_dir),
    )
    assert code == 2
    assert "pristine" in err


def test_repair_with_missing_poc_tool_exit_two(demo_repo, tmp_path, capsys):
    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, fx.transcript_success)
    task.write_text(json.dumps(fx.demo_task_json(demo_repo, {"poc_command": "no-such-poc-tool"})))
    code, _, err = run_cli(
        capsys,
        "--config", str(cfg),
        "repair", str(task), "--memory", str(tmp_path / "m.jsonl"), "--out", str(out_dir),
    )
    assert code == 2
    assert "configuration error" in err and "no-such-poc-tool" in err
    assert fx.git(demo_repo, "status", "--porcelain") == ""


@pytest.mark.parametrize(
    "loc",
    [
        {"file": "app/buffer.py", "line_start": "eleven", "line_end": 17},
        {"file": "app/buffer.py", "line_range": 11},
    ],
)
def test_repair_with_unusable_locator_output_exit_one(demo_repo, tmp_path, capsys, loc):
    def transcript(path):
        records = fx.locator_turns(1)
        records[-1]["turn"]["content"] = json.dumps(loc)
        return fx.write_transcript(path, records)

    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, transcript)
    code, _, _ = run_cli(
        capsys,
        "--config", str(cfg),
        "repair", str(task), "--memory", str(tmp_path / "m.jsonl"), "--out", str(out_dir),
    )
    assert code == 1
    report = json.loads((out_dir / "task.report.json").read_text())
    assert report["outcome"] == "exhausted"
    assert report["reason"].startswith("LocalizationFailure")


def test_json_flag_keeps_stdout_machine_readable(demo_repo, tmp_path, capsys):
    task, cfg, out_dir = write_repair_setup(tmp_path, demo_repo, fx.transcript_success)
    code, out, _ = run_cli(
        capsys,
        "--config", str(cfg), "--json",
        "repair", str(task), "--memory", str(tmp_path / "m.jsonl"), "--out", str(out_dir),
    )
    json.loads(out)  # stdout is exactly one JSON document


def test_repair_tasks_directory_fans_out(tmp_path, capsys):
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    for name, builder in [("one", fx.transcript_success), ("two", fx.transcript_four_failures)]:
        repo = fx.init_repo(tmp_path / f"repo_{name}", dict(fx.DEMO_FILES))
        transcript = builder(tmp_path / f"{name}.jsonl")
        task = fx.demo_task_json(repo, {"transcript": str(transcript)})
        (tasks_dir / f"{name}.json").write_text(json.dumps(task))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[gateway]\nbackend = scripted\ntranscript = unused-default\n")
    mem = tmp_path / "m.jsonl"
    out_dir = tmp_path / "out"

    code, out, _ = run_cli(
        capsys,
        "--config", str(cfg), "--json",
        "repair", "--tasks", str(tasks_dir),
        "--memory", str(mem), "--out", str(out_dir), "--jobs", "2",
    )
    assert code == 1  # worst of {success: 0, exhausted: 1}
    results = json.loads(out)["results"]
    assert results == {"one.json": 0, "two.json": 1}
    assert (out_dir / "one.report.json").exists()
    assert (out_dir / "two.report.json").exists()
    # the shared store was persisted once with the successful consolidation
    store = load_store(mem)
    assert len(store.l2) == 1
    assert store.completed_tasks == 2


def test_repair_tasks_on_one_checkout_never_run_at_once(tmp_path, capsys, monkeypatch):
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    for name, repo in [("a1", "repo_a"), ("a2", "repo_a"), ("b1", "repo_b")]:
        task = fx.demo_task_json(tmp_path / repo)
        (tasks_dir / f"{name}.json").write_text(json.dumps(task))
    lock = threading.Lock()
    running: dict[str, int] = {}
    peaks: dict[str, int] = {}
    overlapped = []

    def fake_repair_one(task_file, memory_file, cfg, out_dir, store):
        repo = Path(json.loads(task_file.read_text())["repo"]).name
        with lock:
            running[repo] = running.get(repo, 0) + 1
            peaks[repo] = max(peaks.get(repo, 0), running[repo])
            overlapped.append(sum(running.values()) > 1)
        time.sleep(0.2)
        with lock:
            running[repo] -= 1
        return 0, out_dir / f"{task_file.stem}.report.json"

    monkeypatch.setattr(cli, "repair_one", fake_repair_one)
    code, out, _ = run_cli(
        capsys,
        "repair", "--tasks", str(tasks_dir),
        "--memory", str(tmp_path / "m.jsonl"), "--out", str(tmp_path / "out"), "--jobs", "3",
    )
    assert code == 0
    assert peaks == {"repo_a": 1, "repo_b": 1}
    assert any(overlapped)  # the two checkouts still ran side by side
    assert [line.split(":")[0] for line in out.splitlines()] == ["a1.json", "a2.json", "b1.json"]


def test_repair_tasks_malformed_task_spares_its_sibling(tmp_path, capsys):
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    repo = fx.init_repo(tmp_path / "repo_good", dict(fx.DEMO_FILES))
    transcript = fx.transcript_success(tmp_path / "good.jsonl")
    good = fx.demo_task_json(repo, {"transcript": str(transcript)})
    (tasks_dir / "good.json").write_text(json.dumps(good))
    broken = fx.demo_task_json(repo)
    del broken["poc_command"]
    (tasks_dir / "broken.json").write_text(json.dumps(broken))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[gateway]\nbackend = scripted\ntranscript = unused-default\n")
    mem = tmp_path / "m.jsonl"
    out_dir = tmp_path / "out"

    code, out, err = run_cli(
        capsys,
        "--config", str(cfg), "--json",
        "repair", "--tasks", str(tasks_dir), "--memory", str(mem), "--out", str(out_dir),
    )
    assert code == 2
    assert json.loads(out)["results"] == {"broken.json": 2, "good.json": 0}
    assert "poc_command" in err
    assert json.loads((out_dir / "good.report.json").read_text())["outcome"] == "success"
    assert len(load_store(mem).l2) == 1


def test_repair_tasks_bad_cwe_fails_alone_before_its_poc_runs(tmp_path, capsys):
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    marker = tmp_path / "poc_ran"
    for name, cwe in [("bad", "bogus"), ("good", fx.DEMO_KEYS.cwe)]:
        repo = fx.init_repo(tmp_path / f"repo_{name}", dict(fx.DEMO_FILES))
        task = fx.demo_task_json(repo, {
            "transcript": str(fx.transcript_success(tmp_path / f"{name}.jsonl")),
            "cwe": cwe,
        })
        if name == "bad":
            task["poc_command"] = f"touch {marker}; python3 poc.py"
        (tasks_dir / f"{name}.json").write_text(json.dumps(task))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[gateway]\nbackend = scripted\ntranscript = unused-default\n")
    mem = tmp_path / "m.jsonl"

    code, out, err = run_cli(
        capsys,
        "--config", str(cfg), "--json",
        "repair", "--tasks", str(tasks_dir), "--memory", str(mem), "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert json.loads(out)["results"] == {"bad.json": 2, "good.json": 0}
    assert "bogus" in err
    assert not marker.exists()
    assert len(load_store(mem).l2) == 1


def test_repair_tasks_oracle_timeout_mid_batch_leaves_nothing_behind(tmp_path, capsys):
    # Once the fix is in, the slow task's PoC starts a grandchild that would
    # write into the checkout after the oracle timeout, unless it dies too.
    tasks_dir = tmp_path / "tasks"
    tasks_dir.mkdir()
    slow_repo = fx.init_repo(tmp_path / "repo_slow", dict(fx.DEMO_FILES))
    slow = fx.demo_task_json(slow_repo, {
        "transcript": str(fx.transcript_success(tmp_path / "slow.jsonl")),
        "poc_command": (
            "if grep -q 'exceeds capacity' app/buffer.py; "
            "then sh -c 'sleep 0.8; touch orphan_wrote_this'; fi; python3 poc.py"
        ),
    })
    (tasks_dir / "a_slow.json").write_text(json.dumps(slow))
    good_repo = fx.init_repo(tmp_path / "repo_good", dict(fx.DEMO_FILES))
    good = fx.demo_task_json(good_repo, {"transcript": str(fx.transcript_success(tmp_path / "g.jsonl"))})
    (tasks_dir / "b_good.json").write_text(json.dumps(good))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[gateway]\nbackend = scripted\ntranscript = unused-default\n"
                   "[oracle]\ncommand_timeout = 0.3\n")
    mem = tmp_path / "m.jsonl"
    out_dir = tmp_path / "out"

    code, out, _ = run_cli(
        capsys,
        "--config", str(cfg), "--json",
        "repair", "--tasks", str(tasks_dir), "--memory", str(mem), "--out", str(out_dir),
    )
    assert json.loads(out)["results"] == {"a_slow.json": 1, "b_good.json": 0}
    assert code == 1
    report = json.loads((out_dir / "a_slow.report.json").read_text())
    assert report["outcome"] == "exhausted" and "OracleTimeout" in report["reason"]
    time.sleep(1.0)
    assert not (slow_repo / "orphan_wrote_this").exists()
    assert fx.git(slow_repo, "status", "--porcelain") == ""
    assert len(load_store(mem).l2) == 1


def test_repair_one_closes_workspace_when_task_is_invalid(demo_repo, tmp_path, monkeypatch):
    opened: list[Workspace] = []

    class RecordingWorkspace(Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(cli, "Workspace", RecordingWorkspace)
    task = tmp_path / "task.json"
    task.write_text(json.dumps(fx.demo_task_json(demo_repo, {"poc_command": " "})))
    with pytest.raises(ValueError, match="poc_command"):
        cli.repair_one(task, tmp_path / "m.jsonl", load_config(None), tmp_path / "out")
    # the shell starts at the first bash call, so it may not exist
    assert not any((ws._shell and ws._shell.alive) or Path(ws._index_dir).exists() for ws in opened)


def test_memory_inspect_table_output(tmp_path, capsys):
    corpus = write_jsonl(
        tmp_path / "corpus.jsonl",
        [
            corpus_row("p.cve-2020-1", "first entry description", "a"),
            corpus_row("p.cve-2020-2", "second entry description", "b"),
        ],
    )
    mem = tmp_path / "m.jsonl"
    run_cli(capsys, "--json", "ingest", str(corpus), "--memory", str(mem))
    code, out, _ = run_cli(capsys, "memory", "inspect", "--memory", str(mem))
    assert code == 0
    assert "L1=2 L2=0 L3=0" in out
    assert "p.cve-2020-1" in out and "p.cve-2020-2" in out
    # filters narrow the listing
    code, out, _ = run_cli(
        capsys, "memory", "inspect", "--memory", str(mem), "--tier", "L2"
    )
    assert "p.cve-2020-1" not in out
