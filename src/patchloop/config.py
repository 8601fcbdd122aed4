"""Run configuration: one key/value file with [gateway], [retrieval],
[oracle], [limits], and [ingest] sections.

Each of the first four sections loads into one dataclass, whose fields are
the keys it accepts. Values may be quoted TOML-style; quotes are stripped on
load so the same file works for either habit. A ``;`` after whitespace
starts a comment. A key that is not a field of its section is logged as a
warning and otherwise ignored.
"""

from __future__ import annotations

import configparser
import logging
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .embedding import CachingEmbedder, default_embedder
from .gateway import DEFAULT_REMOTE_TIMEOUT, GatewayConfig, RemoteEmbedder
from .oracle import DEFAULT_COMMAND_TIMEOUT, DEFAULT_TOTAL_BUDGET
from .retrieval import DEFAULT_K_MIN, DEFAULT_TOP_N
from .workspace import DEFAULT_BASH_TIMEOUT, DEFAULT_OUTPUT_CAP

logger = logging.getLogger(__name__)

DEFAULT_ATTEMPT_CAP = 3


@dataclass
class RetrievalConfig:
    embedder: str = "deterministic"  # deterministic | remote
    endpoint: str = ""
    model_name: str = ""
    api_key_env: str = ""
    timeout: float = DEFAULT_REMOTE_TIMEOUT
    k_min: int = DEFAULT_K_MIN
    top_n: int = DEFAULT_TOP_N


@dataclass
class OracleConfig:
    command_timeout: float = DEFAULT_COMMAND_TIMEOUT
    total_budget: float = DEFAULT_TOTAL_BUDGET


@dataclass
class LimitsConfig:
    attempt_cap: int = DEFAULT_ATTEMPT_CAP
    bash_timeout: float = DEFAULT_BASH_TIMEOUT
    tool_output_cap: int = DEFAULT_OUTPUT_CAP


@dataclass
class EngineConfig:
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    limits: LimitsConfig = field(default_factory=LimitsConfig)
    ingest_column_map: dict[str, str] = field(default_factory=dict)


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in ("'", '"'):
        return value[1:-1]
    return value


def _apply(section: configparser.SectionProxy, target) -> None:
    """Set each key of `section` that names a field of `target`, cast to the
    field's declared type; warn about any other key, such as a misspelt one.
    A value that does not cast, a negative number and a `max_turns` below 1
    raise ValueError naming the section and the key."""
    hints = typing.get_type_hints(type(target))  # every field and its type
    for key, raw in section.items():
        if key not in hints:
            logger.warning("config section [%s]: ignoring unknown key %r", section.name, key)
            continue
        try:
            value = hints[key](_unquote(raw))
        except ValueError as exc:
            raise ValueError(f"[{section.name}] {key}: {exc}") from None
        least = 1 if key == "max_turns" else 0  # a phase needs one model call
        if hints[key] is not str and not value >= least:  # NaN too
            raise ValueError(f"[{section.name}] {key} must be at least {least}, got {raw.strip()}")
        setattr(target, key, value)


def load_config(path: Path | None) -> EngineConfig:
    """Load configuration, falling back to defaults for anything unset."""
    cfg = EngineConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    with Path(path).open("r", encoding="utf-8") as fh:
        parser.read_file(fh)

    for name in ("gateway", "retrieval", "oracle", "limits"):
        if parser.has_section(name):
            _apply(parser[name], getattr(cfg, name))
    if not 1 <= cfg.retrieval.k_min <= cfg.retrieval.top_n:
        raise ValueError(
            f"[retrieval] needs 1 <= k_min <= top_n, got k_min = {cfg.retrieval.k_min}, "
            f"top_n = {cfg.retrieval.top_n}"
        )
    if parser.has_section("ingest"):
        cfg.ingest_column_map = {
            key: _unquote(value) for key, value in parser["ingest"].items()
        }
    return cfg


def build_embedder(cfg: RetrievalConfig):
    if cfg.embedder == "remote":
        return CachingEmbedder(
            RemoteEmbedder(cfg.endpoint, cfg.model_name, cfg.api_key_env, cfg.timeout)
        )
    return default_embedder()
