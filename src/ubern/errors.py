"""Shared exception types, the one check of integer parameters, and the
one check of a cap.

_require_ints is the package's only test of an integer parameter, and
_require_ceiling its only test of a value against a cap.  The public
entry points call them; the private helpers behind them trust their
callers and check nothing.
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


def _require_ceiling(ceiling: int, **values) -> None:
    """Refuse, by name, each value above the ceiling, itself an int >= 1.

    Every cap of the package (the weight ceiling of each command, the
    exponent cap of lemmas 4.1 and 4.2) is checked here, with one message.
    """
    _require_ints(1, n_ceiling=ceiling)
    for name, value in values.items():
        if value > ceiling:
            raise CeilingExceeded(f"{name}={value} exceeds the ceiling {ceiling}")
