"""Shared exception types, and the one check of integer parameters.

_require_ints is the package's only test of an integer parameter.  The
public entry points call it; the private helpers behind them trust
their callers and check nothing.
"""


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class CeilingExceeded(PreconditionError):
    """Resource guard: requested weight exceeds the configured ceiling."""


class CacheError(RuntimeError):
    """A coefficient cache file failed its integrity check."""


def _require_ints(least: int | None = None, **params) -> None:
    """Refuse, by name, each value that is not an int, and each below least.

    A bool is an int subclass, but True is no parameter value: it fails too.
    """
    for name, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise PreconditionError(f"{name} must be an integer, got {value!r}")
        if least is not None and value < least:
            raise PreconditionError(f"{name} must be >= {least}, got {value}")
