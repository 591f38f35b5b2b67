"""Exception hierarchy shared across the package.

ConfigurationError covers bad pairings, parameters, and CLI keys (exit
code 2 in the CLI); NumericError and its subclasses cover runtime
numerical failures and malformed data (exit code 3).  Every parameter is
checked where it is declared, by one of two rules: _check_real for a
real, _check_count for a count.
"""

import math
import numbers


class SymproxError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SymproxError):
    """Unsupported kernel pairing, invalid parameter, or bad config key."""


def _check_real(key, x, least=0.0, strict=True):
    """The one rule for a real parameter: finite and x > least (x >= least when not strict)."""
    if not (least < x < math.inf if strict else least <= x < math.inf):
        op = ">" if strict else ">="
        raise ConfigurationError(f"{key} must be finite and {key} {op} {least:g}, got {x!r}")


def _check_count(key, value, least):
    """The one rule for a count: an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{key} must be an integer >= {least}, got {value!r}")


class NumericError(SymproxError):
    """Numerical failure at runtime."""


class DomainError(NumericError):
    """Argument outside the domain of the requested operation."""


class ConditioningError(NumericError):
    """Matrix too close to singular for the requested operation."""

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class BracketingError(NumericError):
    """Root solver called with an invalid sign bracket."""


class InvalidInputError(NumericError):
    """Malformed data (non-finite entries, dimension mismatch, a bad dataset file)."""
