"""Dense real matrix primitives with max row-sum norm semantics.

All matrices are plain ``numpy.ndarray`` values, square, float64, row-major.
Systems in this package are small (n <= 16, typically 2x2), so there is no
sparse or structured path anywhere.
"""

from __future__ import annotations

import numpy as np


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a square float64 array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def row_sum_norms(m: np.ndarray) -> np.ndarray:
    """Unchecked max row-sum norm of each matrix of a (..., n, n) stack."""
    return np.abs(m).sum(axis=-1).max(axis=-1)


def mat_norm(m) -> float:
    """Max row-sum norm: max_i sum_j |m_ij| (the operator norm for max-norm vectors)."""
    return float(row_sum_norms(as_matrix(m)))


def commutator(a, b) -> np.ndarray:
    """Return [a, b] = ab - ba."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a

