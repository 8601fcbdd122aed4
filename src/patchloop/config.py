"""Run configuration: one key/value file with [gateway], [retrieval],
[oracle], [limits], and [ingest] sections.

Values may be quoted TOML-style; quotes are stripped on load so the same
file works for either habit. A ``;`` after whitespace starts a comment. A key
that no field reads in [gateway], [retrieval], [oracle] or [limits] is
logged as a warning and otherwise ignored.
"""

from __future__ import annotations

import configparser
import logging
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .agent import EngineLimits
from .embedding import DEFAULT_REMOTE_TIMEOUT, CachingEmbedder, RemoteEmbedder, default_embedder
from .gateway import GatewayConfig
from .oracle import DEFAULT_COMMAND_TIMEOUT, DEFAULT_TOTAL_BUDGET
from .workspace import DEFAULT_BASH_TIMEOUT, DEFAULT_OUTPUT_CAP

logger = logging.getLogger(__name__)


@dataclass
class RetrievalConfig:
    embedder: str = "deterministic"  # deterministic | remote
    endpoint: str = ""
    model_name: str = ""
    api_key_env: str = ""
    timeout: float = DEFAULT_REMOTE_TIMEOUT


@dataclass
class OracleConfig:
    command_timeout: float = DEFAULT_COMMAND_TIMEOUT
    total_budget: float = DEFAULT_TOTAL_BUDGET


@dataclass
class EngineConfig:
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    limits: EngineLimits = field(default_factory=EngineLimits)
    bash_timeout: float = DEFAULT_BASH_TIMEOUT
    tool_output_cap: int = DEFAULT_OUTPUT_CAP
    ingest_column_map: dict[str, str] = field(default_factory=dict)


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in ("'", '"'):
        return value[1:-1]
    return value


def _apply(section: configparser.SectionProxy, targets: list[tuple[object, tuple | None]]) -> None:
    """Set each key of `section` on the first target that names it (None
    names every field), cast to that field's declared type; warn about a key
    no target reads, such as a misspelt one."""
    for key, raw in section.items():
        for target, names in targets:
            if key in (names or [f.name for f in fields(target)]):
                cast = typing.get_type_hints(type(target))[key]
                setattr(target, key, cast(_unquote(raw)))
                break
        else:
            logger.warning("config section [%s]: ignoring unknown key %r", section.name, key)


def load_config(path: Path | None) -> EngineConfig:
    """Load configuration, falling back to defaults for anything unset."""
    cfg = EngineConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    with Path(path).open("r", encoding="utf-8") as fh:
        parser.read_file(fh)

    # Some [gateway] and [retrieval] keys are engine limits: they load into cfg.limits.
    sections = {
        "gateway": [
            (cfg.gateway, None),
            (cfg.limits, ("max_turns", "prompt_budget",
                          "prompt_price_per_1k", "completion_price_per_1k")),
        ],
        "retrieval": [(cfg.retrieval, None), (cfg.limits, ("k_min", "top_n"))],
        "oracle": [(cfg.oracle, None)],
        "limits": [
            (cfg, ("bash_timeout", "tool_output_cap")),
            (cfg.limits, ("attempt_cap", "log_budget")),
        ],
    }
    for name, targets in sections.items():
        if parser.has_section(name):
            _apply(parser[name], targets)
    if not 1 <= cfg.limits.k_min <= cfg.limits.top_n:
        raise ValueError(
            f"[retrieval] needs 1 <= k_min <= top_n, got k_min = {cfg.limits.k_min}, "
            f"top_n = {cfg.limits.top_n}"
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
