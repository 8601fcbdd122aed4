"""Run configuration: one key/value file with [gateway], [retrieval],
[oracle], [limits], and [ingest] sections.

Values may be quoted TOML-style; quotes are stripped on load so the same
file works for either habit.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .agent import EngineLimits
from .gateway import GatewayConfig


@dataclass
class RetrievalConfig:
    embedder: str = "deterministic"  # deterministic | remote
    endpoint: str = ""
    model_name: str = ""
    api_key_env: str = ""
    timeout: float = 30.0


@dataclass
class OracleConfig:
    command_timeout: float = 600.0
    total_budget: float = 1800.0


@dataclass
class EngineConfig:
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    limits: EngineLimits = field(default_factory=EngineLimits)
    bash_timeout: float = 300.0
    tool_output_cap: int = 20_000
    prune_window: int = 50
    ingest_column_map: dict[str, str] = field(default_factory=dict)


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in ("'", '"'):
        return value[1:-1]
    return value


def _apply(target, section: configparser.SectionProxy, casts: dict) -> None:
    for key, raw in section.items():
        if key not in casts:
            continue
        value = _unquote(raw)
        cast = casts[key]
        setattr(target, key, cast(value))


def _to_bool(value: str) -> bool:
    return value.lower() in ("1", "true", "yes", "on")


def load_config(path: Path | None) -> EngineConfig:
    """Load configuration, falling back to defaults for anything unset."""
    cfg = EngineConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    with Path(path).open("r", encoding="utf-8") as fh:
        parser.read_file(fh)

    # Some [gateway] and [retrieval] keys are engine limits: they load into cfg.limits.
    if parser.has_section("gateway"):
        _apply(cfg.gateway, parser["gateway"], {
            "endpoint": str, "model_name": str, "temperature": float,
            "api_key_env": str, "backend": str, "transcript": str, "timeout": float,
        })
        _apply(cfg.limits, parser["gateway"], {
            "max_turns": int, "prompt_budget": int,
            "prompt_price_per_1k": float, "completion_price_per_1k": float,
        })
    if parser.has_section("retrieval"):
        _apply(cfg.retrieval, parser["retrieval"], {
            "embedder": str, "endpoint": str, "model_name": str,
            "api_key_env": str, "timeout": float,
        })
        _apply(cfg.limits, parser["retrieval"], {"k_min": int, "top_n": int})
    if parser.has_section("oracle"):
        _apply(cfg.oracle, parser["oracle"], {
            "command_timeout": float, "total_budget": float,
        })
    if parser.has_section("limits"):
        _apply(cfg, parser["limits"], {
            "bash_timeout": float, "tool_output_cap": int, "prune_window": int,
        })
        _apply(cfg.limits, parser["limits"], {
            "attempt_cap": int, "log_budget": int,
        })
    if parser.has_section("ingest"):
        cfg.ingest_column_map = {
            key: _unquote(value) for key, value in parser["ingest"].items()
        }
    return cfg


def build_embedder(cfg: RetrievalConfig):
    from .embedding import CachingEmbedder, DeterministicEmbedder, RemoteEmbedder

    if cfg.embedder == "remote":
        return CachingEmbedder(
            RemoteEmbedder(cfg.endpoint, cfg.model_name, cfg.api_key_env, cfg.timeout)
        )
    return CachingEmbedder(DeterministicEmbedder())
