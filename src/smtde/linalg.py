"""Dense real matrix primitives with max row-sum norm semantics.

All matrices are plain ``numpy.ndarray`` values, square, float64, row-major.
Systems in this package are small (n <= 16, typically 2x2), so there is no
sparse or structured path anywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, as_real_array


def as_matrix(m, name: str) -> np.ndarray:
    """``m`` as a square float64 array of finite reals (``as_real_array``);
    ValidationError naming the argument otherwise."""
    a = as_real_array(m, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def row_sum_norms(m: np.ndarray) -> np.ndarray:
    """Unchecked max row-sum norm of each matrix of a (..., n, n) stack."""
    return np.abs(m).sum(axis=-1).max(axis=-1)


def mat_norm(m) -> float:
    """Max row-sum norm: max_i sum_j |m_ij| (the operator norm for max-norm vectors)."""
    return float(row_sum_norms(as_matrix(m, "m")))


def commutator(a, b) -> np.ndarray:
    """Return [a, b] = ab - ba."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a

