"""Exception types shared across the package.

Everything raised on purpose derives from ZenError so callers (and the CLI)
can separate computation failures from usage mistakes.
"""

from numbers import Integral


class ZenError(Exception):
    """Base class for all errors raised by this package."""


class HypergraphParseError(ZenError):
    """Malformed hyperedge file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DatasetError(ZenError):
    """Inconsistent dataset: shape mismatches, missing labels, bad class ids."""


class ConfigError(ZenError):
    """Invalid configuration value (weights off the simplex, bad hop count, ...)."""


def check_count(name, value, minimum=1) -> None:
    """Raise ConfigError unless ``value`` is an integer (numpy's included, as
    ``numbers.Integral``; a bool is not a count) of at least ``minimum``, 1 or 0."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise ConfigError(f"{name} must be a {kind} integer, got {value!r}")


class GuardError(ZenError):
    """A dense computation was requested above the configured size guard."""


class IsolatedNodeError(ZenError):
    """An operation that needs incident edges was asked about a degree-zero node."""


class SplitError(ZenError):
    """A k-shot split cannot be built or is inconsistent with the labels."""


class DivergenceError(ZenError):
    """Gradient descent's loss left the numerically sane regime: the step is
    too large for the training rows' spectrum."""
