"""Exception types shared across the engine."""


class PatchloopError(Exception):
    """Base class for all engine errors."""


class InvariantViolation(PatchloopError):
    """A domain object failed its structural invariants."""


class CorruptMemoryFile(PatchloopError):
    """The persisted memory file could not be parsed."""


class UnreadableCorpus(PatchloopError):
    """An ingestion corpus file could not be read or decoded."""


class L3NotStored(PatchloopError):
    """Memory refused a session's L3 entry after storing its L2 entry."""


class EmbeddingUnavailable(PatchloopError):
    """The embedding backend failed; callers may degrade to lexical scoring."""


class IndexFailure(PatchloopError):
    """The repository root could not be indexed at all."""


class NoMatch(PatchloopError):
    """A symbol lookup found zero candidate sites."""


class WorkspaceError(PatchloopError):
    """The workspace is not usable (missing root, not version-controlled)."""


class OracleTimeout(PatchloopError):
    """A verification command exceeded its time budget."""


class BuildToolMissing(PatchloopError):
    """A verification command's executable was not found."""


class PristineCheckFailed(PatchloopError):
    """The task's reproduction command does not fail on the untouched repo."""


class GatewayExhausted(PatchloopError):
    """The model backend cannot produce further turns (retries or transcript spent)."""


class MalformedToolCall(PatchloopError):
    """A model turn carried a tool call that could not be decoded."""


class LocalizationFailure(PatchloopError):
    """The locator phase ended without a parseable target location."""
