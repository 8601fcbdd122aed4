"""Command-line entry points: corpus ingestion, repair runs, localization,
and memory administration.

Exit codes for `repair`: 0 on success, 1 when the attempt budget is
exhausted, 2 on configuration errors (bad task file, unreadable memory
file, unusable workspace, reproduction command passing, missing or timing
out on the pristine repo, ...).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import memory
from .agent import RepairTask, SessionRunner
from .config import EngineConfig, build_embedder, load_config
from .errors import EmbeddingUnavailable, InvariantViolation, NoMatch, PatchloopError, UnreadableCorpus
from .gateway import build_gateway
from .localizer import DEFAULT_K, index_repository, iter_grep, parse_crash_report
from .memory import (
    CWE_UNKNOWN,
    L1Entry,
    MemoryStore,
    RetrievalKeys,
    insert,
    load_store,
    save_store,
)
from .oracle import OracleRunner, OracleSpec
from .workspace import Workspace

logger = logging.getLogger("patchloop")

CORPUS_FIELDS = ("project", "cwe", "language", "instance_id", "description", "fix_patch")


def _normalize_cwe(raw: str) -> str | None:
    """The stored spelling of a CWE tag: "CWE-<n>" for "<n>" or "CWE-<n>" in
    any case, CWE_UNKNOWN for an empty tag or CWE_UNKNOWN itself, and None
    for anything else."""
    raw = (raw or "").strip()
    if not raw or raw.upper() == CWE_UNKNOWN:
        return CWE_UNKNOWN
    if raw.upper().startswith("CWE-"):
        raw = raw[4:]
    return f"CWE-{int(raw)}" if raw.isdigit() else None


def _iter_corpus_rows(path: Path):
    """Yield (line, row) from a CSV or JSON-lines corpus, `line` being the
    row's first line; a row that cannot be read is an InvariantViolation saying why."""
    try:
        if path.suffix.lower() == ".csv":
            with path.open("r", encoding="utf-8-sig", newline="") as fh:
                read = [0, 0]  # lines read; quote characters in the current row's lines

                def lines():
                    for line in fh:
                        read[0] += 1
                        read[1] += line.count('"')
                        yield line

                source = lines()
                reader = csv.reader(source)
                header = next(reader, [])
                while True:
                    lineno, read[1] = read[0] + 1, 0
                    try:
                        fields = next(reader)
                    except StopIteration:
                        return
                    except csv.Error as exc:  # e.g. a field over the csv module's limit
                        yield lineno, InvariantViolation(f"bad CSV ({exc})")
                        while read[1] % 2 and next(source, None) is not None:
                            pass  # on to the line that closes the row's open quote
                        continue
                    if fields:
                        yield lineno, dict(zip(header, fields))
        else:
            with path.open("r", encoding="utf-8-sig") as fh:
                for lineno, raw in enumerate(fh, 1):
                    if not raw.strip():
                        continue
                    try:
                        row = json.loads(raw)
                    except json.JSONDecodeError as exc:
                        row = InvariantViolation(f"bad JSON ({exc.msg} at column {exc.colno})")
                    yield lineno, row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UnreadableCorpus(f"cannot read corpus {path}: {exc}") from exc


def ingest(
    corpus_file: Path, memory_file: Path, column_map: dict[str, str], store: MemoryStore
) -> tuple[int, int, int]:
    """Load corpus rows into `store` as historical-fix entries, then save it
    to `memory_file`; returns (inserted, merged, rejected). When the embedder
    fails on a row, the rows before it are saved and the error names its line."""
    inserted = merged = rejected = 0
    for lineno, row in _iter_corpus_rows(Path(corpus_file)):
        try:
            if not isinstance(row, dict):
                raise row if isinstance(row, InvariantViolation) else InvariantViolation("not an object")
            mapped = {f: str(row.get(column_map.get(f, f), "") or "") for f in CORPUS_FIELDS}
            cwe = _normalize_cwe(mapped["cwe"])
            if cwe is None:
                raise InvariantViolation(f"bad CWE {mapped['cwe']!r}")
            keys = RetrievalKeys(
                project=mapped["project"],
                cwe=cwe,
                language=mapped["language"],
                instance_id=mapped["instance_id"],
                description=mapped["description"],
            )
            outcome = insert(store, L1Entry(keys=keys, fix_patch=mapped["fix_patch"]))
        except InvariantViolation as exc:
            logger.warning("corpus line %d rejected: %s", lineno, exc)
            rejected += 1
            continue
        except EmbeddingUnavailable as exc:  # keep the rows before this one
            save_store(store, Path(memory_file))
            raise EmbeddingUnavailable(f"corpus line {lineno}: {exc}") from exc
        if outcome == memory.InsertOutcome.INSERTED:
            inserted += 1
        else:
            merged += 1
    save_store(store, Path(memory_file))
    return inserted, merged, rejected


def _load_task(task_file: Path) -> dict:
    task = json.loads(Path(task_file).read_text(encoding="utf-8"))
    if not isinstance(task, dict):
        raise ValueError(f"task file {task_file} is not a JSON object")
    for required in ("repo", "poc_command", "regression_command", "instance_id"):
        if required not in task:
            raise KeyError(f"task file missing field {required!r}")
    for name in ("repo", "poc_command", "regression_command", "instance_id",
                 "project", "cwe", "language", "description"):
        if not isinstance(task.get(name, ""), str):
            raise ValueError(f"task field {name!r} is not a string")
    for name in ("build_command", "transcript"):
        if task.get(name) is not None and not isinstance(task[name], str):
            raise ValueError(f"task field {name!r} is neither a string nor null")
    files = task.get("ground_truth_files")
    if files is not None and not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
        raise ValueError("task field 'ground_truth_files' is neither a list of strings nor null")
    return task


def _checkout_of(task_file: Path) -> Path:
    """The resolved checkout a task edits; a task file that cannot be read
    stands for itself, so it fails alone."""
    try:
        return Path(_load_task(task_file)["repo"]).resolve()
    except (OSError, ValueError, LookupError, TypeError):
        return task_file


def repair_one(
    task_file: Path,
    memory_file: Path,
    cfg: EngineConfig,
    out_dir: Path,
    store: MemoryStore | None = None,
) -> tuple[int, Path]:
    """Run one repair session; writes report.json and trajectory.jsonl.

    When `store` is provided the caller owns persistence (used by the
    multi-task runner so one shared store serializes all writes).
    """
    task_data = _load_task(task_file)
    spec = OracleSpec(
        poc_command=task_data["poc_command"],
        regression_command=task_data["regression_command"],
        build_command=task_data.get("build_command"),
        pass_predicates=task_data.get("pass_predicates", {}),
    )
    spec.validate()
    cwe = _normalize_cwe(task_data.get("cwe", ""))
    if cwe is None:  # the spellings ingest stores, and no other
        raise InvariantViolation(f"bad CWE tag: {task_data['cwe']!r}")
    keys = RetrievalKeys(
        project=task_data.get("project", ""),
        cwe=cwe,
        language=task_data.get("language", ""),
        instance_id=task_data["instance_id"],
        description=task_data.get("description", ""),
    )
    keys.validate()
    owns_store = store is None
    if owns_store:
        store = load_store(Path(memory_file), embedder=build_embedder(cfg.retrieval))
    gateway_cfg = cfg.gateway
    if task_data.get("transcript"):  # per-task replay for scripted batch runs
        gateway_cfg = replace(gateway_cfg, transcript=str(task_data["transcript"]))
    gateway = build_gateway(gateway_cfg)

    # Opened last: everything above can fail without an index to clean up.
    workspace = Workspace(
        Path(task_data["repo"]),
        bash_timeout=cfg.limits.bash_timeout,
        output_cap=cfg.limits.tool_output_cap,
    )
    try:
        oracle = OracleRunner(
            workspace.root, spec,
            command_timeout=cfg.oracle.command_timeout,
            total_budget=cfg.oracle.total_budget,
        )
        task = RepairTask(
            workspace=workspace,
            oracle=oracle,
            keys=keys,
            ground_truth_files=task_data.get("ground_truth_files"),
        )
        runner = SessionRunner(task, store, gateway, cfg)
        report = runner.run()
    finally:
        workspace.close()
    if owns_store:
        save_store(store, Path(memory_file))

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = task_file.stem
    report_path = out_dir / f"{stem}.report.json"
    report_path.write_text(json.dumps(report.to_json(), indent=2), encoding="utf-8")
    with (out_dir / f"{stem}.trajectory.jsonl").open("w", encoding="utf-8") as fh:
        for record in runner.trajectory:
            fh.write(json.dumps(record) + "\n")
    return (0 if report.outcome == "success" else 1), report_path


def _cmd_ingest(args, cfg: EngineConfig) -> int:
    store = load_store(Path(args.memory), embedder=build_embedder(cfg.retrieval))
    inserted, merged, rejected = ingest(
        Path(args.corpus), Path(args.memory), cfg.ingest_column_map, store
    )
    if args.json:
        print(json.dumps({"inserted": inserted, "merged": merged, "rejected": rejected}))
    else:
        print(f"inserted={inserted} merged={merged} rejected={rejected}")
    return 0


def _cmd_repair(args, cfg: EngineConfig) -> int:
    out_dir = Path(args.out)
    if args.tasks:
        task_files = sorted(Path(args.tasks).glob("*.json"))
        if not task_files:
            print(f"no task files under {args.tasks}", file=sys.stderr)
            return 2
        # One shared store: session writes are serialized by its writer lock.
        store = load_store(Path(args.memory), embedder=build_embedder(cfg.retrieval))
        # Tasks on one checkout run one after another on one worker, so no
        # two sessions edit it at once; checkouts run in parallel.
        groups: dict[Path, list[Path]] = {}
        for tf in task_files:
            groups.setdefault(_checkout_of(tf), []).append(tf)

        def run_serially(group: list[Path]) -> dict[Path, tuple | Exception]:
            outcomes: dict[Path, tuple | Exception] = {}
            for tf in group:
                try:
                    outcomes[tf] = repair_one(tf, Path(args.memory), cfg, out_dir, store)
                except Exception as exc:  # one bad task must not take its siblings down
                    outcomes[tf] = exc
            return outcomes

        results: dict[str, int] = {}
        try:
            with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
                futures = {}
                for group in groups.values():
                    futures.update(dict.fromkeys(group, pool.submit(run_serially, group)))
                for tf in task_files:
                    outcome = futures[tf].result()[tf]
                    if isinstance(outcome, Exception):
                        print(f"{tf}: {type(outcome).__name__}: {outcome}", file=sys.stderr)
                        results[tf.name] = 2
                        continue
                    code, report_path = outcome
                    results[tf.name] = code
                    if not args.json:
                        print(f"{tf.name}: exit {code} ({report_path})")
        finally:
            save_store(store, Path(args.memory))
        if args.json:
            print(json.dumps({"results": results}))
        return max(results.values())
    code, report_path = repair_one(Path(args.task), Path(args.memory), cfg, out_dir)
    if args.json:
        print(json.dumps({"exit": code, "report": str(report_path)}))
    else:
        print(f"exit {code} ({report_path})")
    return code


def _cmd_localize(args, cfg: EngineConfig) -> int:
    index = index_repository(Path(args.repo))
    report = None
    if args.report:
        report = parse_crash_report(Path(args.report).read_text(encoding="utf-8"))
    try:
        objs = iter_grep(index, args.symbol, report, k=args.k)
    except NoMatch as exc:
        print(str(exc), file=sys.stderr)
        print("[]")
        return 0
    print(json.dumps([o.to_json() for o in objs], indent=2))
    return 0


def _cmd_memory_inspect(args, cfg: EngineConfig) -> int:
    cwe = _normalize_cwe(args.cwe) if args.cwe else None
    if args.cwe and cwe is None:  # the spellings ingest and repair take, and no other
        raise InvariantViolation(f"bad CWE tag: {args.cwe!r}")
    store = load_store(Path(args.memory))
    counts = {tier: len(store.tier_entries(tier)) for tier in memory.TIERS}
    rows = []
    for tier in memory.TIERS:
        if args.tier and tier != args.tier:
            continue
        for entry in store.tier_entries(tier):
            keys = entry.keys
            if args.project and keys.project != args.project:
                continue
            if cwe and keys.cwe != cwe:
                continue
            rows.append(
                {
                    "tier": tier,
                    "instance_id": keys.instance_id,
                    "project": keys.project,
                    "cwe": keys.cwe,
                    "language": keys.language,
                    "description": keys.description[:60],
                }
            )
    if args.json:
        print(json.dumps({"counts": counts, "entries": rows}, indent=2))
    else:
        print(" ".join(f"{tier}={count}" for tier, count in counts.items()))
        for row in rows:
            print(
                f"{row['tier']}  {row['instance_id']:<28} {row['project']:<12} "
                f"{row['cwe']:<10} {row['language']:<6} {row['description']}"
            )
    return 0


def _cmd_memory_prune(args, cfg: EngineConfig) -> int:
    store = load_store(Path(args.memory))
    window = math.inf if args.window in ("inf", "all") else int(args.window)
    removed = memory.prune(store, window)
    save_store(store, Path(args.memory))
    if args.json:
        print(json.dumps({"removed": removed}))
    else:
        print(f"removed={removed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patchloop")
    parser.add_argument("--config", help="run configuration file")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a fix corpus into memory")
    p.add_argument("corpus")
    p.add_argument("--memory", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("repair", help="run a repair session")
    p.add_argument("task", nargs="?", help="task.json file")
    p.add_argument("--tasks", help="directory of task.json files")
    p.add_argument("--memory", required=True)
    p.add_argument("--out", default=".", help="directory for reports")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("localize", help="rank symbol sites by crash proximity")
    p.add_argument("--repo", required=True)
    p.add_argument("--symbol", required=True)
    p.add_argument("--report", help="crash report file")
    p.add_argument("-k", type=int, default=DEFAULT_K)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("memory", help="memory administration")
    msub = p.add_subparsers(dest="memory_command", required=True)
    mi = msub.add_parser("inspect")
    mi.add_argument("--memory", required=True)
    mi.add_argument("--tier", choices=memory.TIERS)
    mi.add_argument("--project")
    mi.add_argument("--cwe")
    mi.set_defaults(func=_cmd_memory_inspect)
    mp = msub.add_parser("prune")
    mp.add_argument("--memory", required=True)
    mp.add_argument("--window", required=True, help="task count, or 'inf'")
    mp.set_defaults(func=_cmd_memory_prune)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "repair" and not args.task and not args.tasks:
        print("repair needs a task file or --tasks directory", file=sys.stderr)
        return 2
    try:
        cfg = load_config(Path(args.config) if args.config else None)
    except (OSError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except (OSError, KeyError, ValueError, PatchloopError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
