"""Exception types shared across the library and the CLI exit-code map."""


class GctrlError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(GctrlError):
    """Bad configuration text or an invalid parameter combination.

    Carries an optional 1-based line number so the CLI can point at the
    offending config line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericError(GctrlError):
    """Non-finite value or failed linear-algebra kernel, with location context."""


class ConsistencyError(GctrlError):
    """An internal cross-check failed: the exact A(t) matches no printed closed form,
    or the closed form's HJB residual is too large."""
