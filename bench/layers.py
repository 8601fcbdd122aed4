"""Which engine callables form each layer, and the per-layer metrics the
traced run reports.

A span's layer is the part of its name before the first dot. Spans named
``bench.*`` are the benchmark's own root spans around each operation; their
self time is harness time between the engine calls.
"""

from __future__ import annotations

from spans import Tracer

LAYERS = ("cli", "agent", "oracle", "workspace", "localizer", "gateway",
          "memory", "embedding", "retrieval")

# Classes whose methods are wrapped: dotted path -> (layer, method names).
_CLASS_METHODS = {
    "patchloop.workspace.Workspace": (
        "workspace", ("__init__", "close", "snapshot", "rollback", "submit", "file_at_snapshot",
                      "view", "search", "create", "str_replace", "bash")),
    "patchloop.oracle.OracleRunner": ("oracle", ("validate_pristine", "run_poc", "check_vul")),
    "patchloop.gateway.ScriptedGateway": ("gateway", ("from_file", "set_context", "complete")),
    "patchloop.agent.SessionRunner": ("agent", ("run", "locate", "patch", "verify")),
    "patchloop.memory.MemoryStore": ("memory", ("touch", "complete_task")),
    "patchloop.embedding.CachingEmbedder": ("embedding", ("embed",)),
}

EDIT_TOOLS = ("view", "create", "str_replace", "bash")


def _resolve(path: str):
    import importlib

    module, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module), attr)


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the session and memory workloads cross."""
    import patchloop.agent as agent
    import patchloop.cli as cli
    import patchloop.embedding as embedding
    import patchloop.memory as memory
    import patchloop.retrieval as retrieval

    counts = tracer.counts

    def count_merge(args, kwargs, result):
        counts["memory.insert.merged"] += result == memory.InsertOutcome.MERGED

    def count_files(args, kwargs, result):
        counts["localizer.files_indexed"] += len(result.files)

    def count_dropped(args, kwargs, result):
        memories = kwargs.get("memories", args[2] if len(args) > 2 else [])
        counts["gateway.memories_dropped"] += len(memories) - result[1].content.count("## Experience ")

    def count_pools(args, kwargs, result):
        for ranked in result:
            counts[f"retrieval.pool_p{int(ranked.priority_tier)}"] += 1

    tracer.patch(cli, "repair_one", "cli.repair_one")
    tracer.patch(agent, "index_repository", "localizer.index_repository", count_files)
    tracer.patch(agent, "iter_grep", "localizer.iter_grep")
    tracer.patch(agent, "parse_crash_report", "localizer.parse_crash_report")
    tracer.patch(agent, "render_prompt", "gateway.render_prompt", count_dropped)
    tracer.patch(memory, "insert", "memory.insert", count_merge)
    tracer.patch(memory, "consolidate_success", "memory.consolidate_success")
    tracer.patch(memory, "save_store", "memory.save_store")
    tracer.patch(memory, "load_store", "memory.load_store")
    tracer.patch(memory, "cosine", "embedding.cosine.memory")
    tracer.patch(retrieval, "cosine", "embedding.cosine.retrieval")
    tracer.patch(retrieval, "retrieve", "retrieval.retrieve", count_pools)
    tracer.patch(embedding.DeterministicEmbedder, "embed", "embedding.inner")
    for path, (prefix, methods) in _CLASS_METHODS.items():
        cls = _resolve(path)
        for name in methods:
            tracer.patch(cls, name, f"{prefix}.{name.strip('_')}")
    tracer.patch_popen()


def layer_self_ms(reduced: dict) -> dict[str, float]:
    """Total self milliseconds per layer, the benchmark's own `bench` included."""
    out = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, seconds in reduced["self_s"].items():
        out[name.split(".", 1)[0]] += 1000.0 * seconds
    return out


def per_layer_metrics(reduced: dict, counts, harness: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: `.ms` values are total self
    milliseconds over the pass, counts are totals over the pass."""
    self_s = reduced["self_s"]
    calls = reduced["calls"]

    def ms(*names: str) -> float:
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names)

    def n(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    embeds = n("embedding.embed")
    out: dict[str, tuple[float, str]] = {
        "oracle.validate_pristine.ms": (ms("oracle.validate_pristine"), "ms"),
        "oracle.run_poc.ms": (ms("oracle.run_poc"), "ms"),
        "oracle.check_vul.ms": (ms("oracle.check_vul"), "ms"),
        "oracle.calls": (n("oracle.validate_pristine", "oracle.run_poc", "oracle.check_vul"), "count"),
        "oracle.subprocesses": (counts["oracle.subprocess.oracle"], "count"),
        "workspace.snapshot.ms": (ms("workspace.snapshot"), "ms"),
        "workspace.rollback.ms": (ms("workspace.rollback"), "ms"),
        "workspace.submit.ms": (ms("workspace.submit"), "ms"),
        "workspace.search.ms": (ms("workspace.search"), "ms"),
        "workspace.edit_tools.ms": (ms(*(f"workspace.{t}" for t in EDIT_TOOLS)), "ms"),
        "workspace.git_calls": (counts["workspace.subprocess.git"], "count"),
        "workspace.ignored_files_lost": (harness["ignored_files_lost"], "count"),
        "localizer.index_repository.ms": (ms("localizer.index_repository"), "ms"),
        "localizer.files_indexed": (counts["localizer.files_indexed"], "count"),
        "localizer.iter_grep.ms": (ms("localizer.iter_grep"), "ms"),
        "localizer.parse_crash_report.ms": (ms("localizer.parse_crash_report"), "ms"),
        "memory.insert.ms": (ms("memory.insert"), "ms"),
        "memory.insert.merged_ratio": (ratio(counts["memory.insert.merged"], n("memory.insert")), "ratio"),
        "memory.consolidate_success.ms": (ms("memory.consolidate_success"), "ms"),
        "memory.save_store.ms": (ms("memory.save_store"), "ms"),
        "memory.load_store.ms": (ms("memory.load_store"), "ms"),
        "memory.cosine_calls": (n("embedding.cosine.memory"), "count"),
        "embedding.embed.calls": (embeds, "count"),
        "embedding.cache_hit_ratio": (ratio(embeds - n("embedding.inner"), embeds), "ratio"),
        "embedding.inner_ms": (ms("embedding.inner"), "ms"),
        "retrieval.retrieve.ms": (ms("retrieval.retrieve"), "ms"),
        "retrieval.pool_p1": (counts["retrieval.pool_p1"], "count"),
        "retrieval.pool_p2": (counts["retrieval.pool_p2"], "count"),
        "retrieval.cosine_calls": (n("embedding.cosine.retrieval"), "count"),
        "gateway.complete.ms": (ms("gateway.complete"), "ms"),
        "gateway.complete.calls": (n("gateway.complete"), "count"),
        "gateway.render_prompt.ms": (ms("gateway.render_prompt"), "ms"),
        "gateway.memories_dropped": (counts["gateway.memories_dropped"], "count"),
        "gateway.prompt_tokens_per_session": (harness["prompt_tokens_per_session"], "tokens"),
        "agent.attempts": (harness["attempts"], "count"),
        "agent.turns": (harness["turns"], "count"),
        "agent.accepted_ratio": (ratio(harness["accepted"], harness["verified"]), "ratio"),
        "cli.repair_one.self_ms": (ms("cli.repair_one"), "ms"),
        "subprocess.git": (counts["subprocess.git"], "count"),
        "subprocess.oracle": (counts["subprocess.oracle"], "count"),
        "subprocess.shell": (counts["subprocess.shell"], "count"),
    }
    # cli.repair_one is the cli layer's only span: its self time is the layer's.
    for layer, value in layer_self_ms(reduced).items():
        if layer != "cli":
            out[f"{layer}.self_ms"] = (value, "ms")
    return out
