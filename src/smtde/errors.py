"""Exception types shared across the package, and the one rule for a caller's
numeric argument: ``as_int`` for a count, ``as_real`` for a real and
``as_real_array`` for an array of reals. A bool, a numeric string or a float
where an integer is due is refused, never converted or truncated; the error
names the argument."""

import math

import numpy as np


class SmtdeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SmtdeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(SmtdeError, ValueError):
    """Invalid problem, grid, or configuration data."""


class NonConvergenceError(SmtdeError, RuntimeError):
    """A series or iteration failed to converge within its configured budget."""


class TruncationBoundError(SmtdeError, RuntimeError):
    """A coefficient beyond the configured truncation bound was requested."""


class EnsembleError(SmtdeError, RuntimeError):
    """Too many sample paths were flagged as blown up to trust the ensemble."""


class DegenerateExperimentError(SmtdeError, RuntimeError):
    """The experiment setup makes the measured quantity identically trivial."""


def as_int(value, name: str, lo: int | None = None) -> int:
    """value as an int: a Python or numpy integer, not a bool, and at least
    lo where that is given; ValidationError naming the argument otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValidationError(f"{name} must be >= {lo}, got {value!r}")
    return int(value)


def as_real(value, name: str, lo: float = -math.inf, hi: float = math.inf,
            error: type = ValidationError) -> float:
    """value as a float: a finite Python or numpy integer or float, not a
    bool, strictly inside (lo, hi) (no bound by default); ``error`` naming the
    argument otherwise."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:       # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise error(f"{name} must be finite, got {value!r}")
    if not lo < x < hi:
        raise error(f"{name} must be in ({lo:g}, {hi:g}), got {value!r}")
    return x


def as_real_array(values, name: str) -> np.ndarray:
    """values as a float64 array of finite reals: an ndarray of an integer or
    float dtype (not copied where it is float64 already), or (nested)
    sequences whose every entry ``as_real`` accepts; ValidationError naming
    the argument otherwise."""
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if arr.dtype.kind == "O":
        return np.array([as_real(v, f"{name} entry") for v in arr.flat],
                        dtype=float).reshape(arr.shape)
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite real numbers")
    return arr.astype(float, copy=False)
