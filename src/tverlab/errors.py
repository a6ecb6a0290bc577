"""Exception types shared across modules (and mapped to CLI exit codes)."""


class ParseError(ValueError):
    """Malformed file, rational literal, or JSON payload, or a number too long to write."""


class CapExceeded(RuntimeError):
    """An internal enumeration or size cap was hit before an answer."""


class PreconditionError(ValueError):
    """An operation was called on input violating its stated precondition."""
