"""Exception types shared across the library."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


class BipartitionError(ValueError):
    """A bipartition is missing, incomplete, or has a same-side edge."""


class ExtractionError(RuntimeError):
    """A construction that is guaranteed to succeed failed.

    Raising this signals a bug (or a violated hidden assumption), not a
    recoverable input condition.
    """


class ResourceLimitError(RuntimeError):
    """An input exceeds a configured size limit: an exact solver's limit, or
    ``graphio.MAX_VERTICES`` for the vertex count of a graph file."""


class ParseError(ValueError):
    """A graph file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
