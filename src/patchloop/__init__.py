"""patchloop: memory-guided automated vulnerability repair engine."""

from .agent import RepairTask, SessionRunner, Transition, decide_transition, log_compress
from .localizer import index_repository, iter_grep, parse_crash_report
from .memory import (
    L1Entry,
    L2Entry,
    L3Entry,
    MemoryStore,
    RetrievalKeys,
    consolidate_success,
    insert,
    load_store,
    parse_timestamp,
    prune,
    save_store,
)
from .oracle import OracleRunner, OracleSpec, VerificationVerdict
from .retrieval import Query, RankedEntry, retrieve
from .workspace import Workspace

__version__ = "0.1.0"

__all__ = [
    "L1Entry",
    "L2Entry",
    "L3Entry",
    "MemoryStore",
    "OracleRunner",
    "OracleSpec",
    "Query",
    "RankedEntry",
    "RepairTask",
    "RetrievalKeys",
    "SessionRunner",
    "Transition",
    "VerificationVerdict",
    "Workspace",
    "consolidate_success",
    "decide_transition",
    "index_repository",
    "insert",
    "iter_grep",
    "load_store",
    "log_compress",
    "parse_crash_report",
    "parse_timestamp",
    "prune",
    "retrieve",
    "save_store",
]
