"""Exception hierarchy shared by every geograms subsystem."""

from __future__ import annotations


class GeogramsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GeogramsError):
    """Malformed input text; carries the offending line (and column if known)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class ValidationError(GeogramsError):
    """Structurally well-formed input that violates a data-model invariant."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class GrammarLoadError(GeogramsError):
    """A grammar definition that cannot be assembled or fails validation."""

    def __init__(self, message: str, violations: list | None = None):
        self.violations = violations or []
        super().__init__(message)


class GrammarRuntimeError(GeogramsError):
    """A grammar/graph mismatch detected while a walker executes a rule."""

    def __init__(self, message: str, context_id: str):
        self.context_id = context_id
        super().__init__(f"{message} (context {context_id!r})")


class UnresolvableEntryError(GeogramsError):
    """The entry context names a vertex that does not occur in the graph."""


class TruncationError(GeogramsError):
    """A run hit its generation cap with walkers still alive.

    ``partial_records`` holds every complete path found before the cap;
    ``pair`` is the (source, sink) the run was bound to, when known.
    """

    def __init__(self, max_steps: int, partial_records: frozenset, pair: tuple | None = None):
        self.max_steps = max_steps
        self.partial_records = partial_records
        self.pair = pair
        where = "" if pair is None else f" from {pair[0]!r} to {pair[1]!r}"
        super().__init__(
            f"run{where} truncated after {max_steps} generations with walkers still "
            f"active ({len(partial_records)} complete paths found)"
        )


class IncompleteStoreError(GeogramsError):
    """A path store queried for pairs it was never populated with."""

    def __init__(self, message: str, missing_pairs: list | None = None):
        self.missing_pairs = missing_pairs or []
        super().__init__(message)
