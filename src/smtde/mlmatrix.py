"""Bivariate Mittag-Leffler-type matrix functions.

Two evaluation routes are provided:

* ``ml_nonperm`` sums the double series
      sum_{k,m} Q_{k,m} * t^(k*rho + m*sigma) / Gamma(k*rho + m*sigma + delta)
  where Q_{k,m} is the sum over all orderings of k copies of A and m copies
  of B (the non-permutable coefficients). The paper defines them by
      Q_{k,0} = A^k,  Q_{0,m} = B^m,
      Q_{k,m} = sum_{l=0}^{k} A^(k-l) B Q_{l,m-1}      (k, m >= 1),
  which splits each ordering at its first B. ``QTable`` splits it by its
  last factor instead, which gives the same matrices from two terms:
      Q_{k,m} = Q_{k-1,m} A + Q_{k,m-1} B,
  with out-of-range entries taken as zero and Q_{0,0} = I.

* ``ml_perm`` uses the binomial closed form binom(k+m, m) A^k B^m, valid
  only when A and B commute (then both routes agree).

Both routes, and ``ml_nonperm_grid`` on a batch of times, share one
single-pass summation loop. It runs over anti-diagonals k + m = d so that
terms sharing the same total order, and hence the same t-power scale, are
grouped; each coefficient is fetched once and added at every time. The
series stops once four consecutive anti-diagonals are negligible relative to
the partial sum at the largest time, so that time sets the depth for the
whole batch. Terms whose scalar weight is zero (a reciprocal-gamma pole, or
t = 0 with a positive exponent) contribute exactly zero.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, TruncationBoundError
from .linalg import as_matrix, commutator, mat_norm
from .specfun import reciprocal_gamma

ML_MATRIX_TOL = 1e-12
DEFAULT_MAX_DIAGONALS = 200
_CONVERGED_RUN = 4


def _row_sum_norm(m: np.ndarray) -> float:
    # mat_norm without the finite-entry validation; an overflowing series must
    # run into the non-convergence guard, not a validation error
    return float(np.max(np.sum(np.abs(m), axis=1)))


@dataclass(frozen=True)
class MLParams:
    """Exponent pair and offset of the bivariate series.

    ``rho`` scales the first index (powers of A), ``sigma_exp`` the second
    (powers of B); ``delta`` shifts every Gamma argument.
    """

    rho: float
    sigma_exp: float
    delta: float

    def __post_init__(self):
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise DomainError(f"rho must be positive, got {self.rho!r}")
        if not (self.sigma_exp > 0 and math.isfinite(self.sigma_exp)):
            raise DomainError(f"sigma_exp must be positive, got {self.sigma_exp!r}")
        if not math.isfinite(self.delta):
            raise DomainError(f"delta must be finite, got {self.delta!r}")


class QTable:
    """Memoized table of the coefficient matrices Q_{k,m}.

    Anti-diagonal d is stored as one (d+1, dim, dim) array whose entry m is
    Q_{d-m,m}; each one is built from the previous one with the two-term
    recurrence. Entries are filled lazily up to k + m <= DEFAULT_MAX_DIAGONALS;
    beyond that the table raises rather than truncate silently, because the
    coefficient norms can grow combinatorially. Fills are lock-protected so a table may be
    shared across threads; values behave as pure functions of (A, B, k, m).
    """

    def __init__(self, a, b):
        a = as_matrix(a)
        b = as_matrix(b)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        self.a = a.copy()
        self.b = b.copy()
        self.dim = a.shape[0]
        self._diagonals = [np.eye(self.dim)[None]]
        self._lock = threading.Lock()

    def coeff(self, k: int, m: int) -> np.ndarray:
        if int(k) != k or int(m) != m or k < 0 or m < 0:
            raise ValueError(f"indices must be nonnegative integers, got ({k!r}, {m!r})")
        k, m = int(k), int(m)
        if k + m > DEFAULT_MAX_DIAGONALS:
            raise TruncationBoundError(f"Q coefficient ({k}, {m}) beyond the bound "
                                       f"k+m <= {DEFAULT_MAX_DIAGONALS}")
        with self._lock:
            while len(self._diagonals) <= k + m:
                # prev[j] = Q_{d-1-j,j}; right factors keep Q_{k,0} equal to A^k
                prev = self._diagonals[-1]
                d = len(prev)
                diag = np.zeros((d + 1, self.dim, self.dim))
                diag[:d] = prev @ self.a
                diag[1:] += prev @ self.b
                self._diagonals.append(diag)
            return self._diagonals[k + m][m]


@dataclass(frozen=True)
class MLEvalInfo:
    """Truncation metadata for a series evaluation.

    ``tail_estimate`` is a heuristic (twice the mass of the final negligible
    anti-diagonals), not a rigorous two-sided bound.
    """

    diagonals_used: int
    tail_estimate: float


def _sum_series(term, dim: int, p: MLParams, ts):
    """Sum term(k, m) t^(k*rho + m*sigma) / Gamma(k*rho + m*sigma + delta)
    over k, m >= 0 by anti-diagonals at every time of the 1-d array ``ts``;
    returns (values of shape (len(ts), dim, dim), info).

    The stopping rule reads the row of the largest time, so that time sets
    the truncation depth. All series exponents are nonnegative, so every
    term's magnitude at a smaller time is bounded by its magnitude at t_max,
    and the t_max tail bounds all tails in absolute terms. ``term(k, m)``
    gives the (dim, dim) coefficient matrix; it is called once per term, and
    only for terms whose scalar weight is nonzero at some time.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("ts must be a non-empty 1-d array of times")
    bad = ~(np.isfinite(ts) & (ts >= 0))
    if bad.any():
        raise DomainError(
            f"t must be finite and nonnegative, got {float(ts[bad][0])!r}")
    top = int(np.argmax(ts))
    total = np.zeros((ts.size, dim, dim))
    recent: list[float] = []
    run = 0
    for d in range(0, DEFAULT_MAX_DIAGONALS + 1):
        ms = np.arange(d + 1)
        exps = (d - ms) * p.rho + ms * p.sigma_exp   # entry m is term (d-m, m)
        rgs = [reciprocal_gamma(e + p.delta) for e in exps]
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflowing power is left to the non-convergence guard
            weights = ts[:, None] ** exps * rgs
            live = np.flatnonzero(np.any(weights != 0.0, axis=0))
            diag = np.zeros_like(total)
            if live.size:
                coeffs = np.array([term(d - m, m) for m in live])
                diag = np.einsum("tm,mjk->tjk", weights[:, live], coeffs)
            total += diag
        diag_norm = _row_sum_norm(diag[top])
        total_norm = _row_sum_norm(total[top])
        if not (math.isfinite(diag_norm) and math.isfinite(total_norm)):
            raise NonConvergenceError(
                f"matrix ml series overflowed at anti-diagonal {d} (t={ts[top]})")
        recent.append(diag_norm)
        if diag_norm <= ML_MATRIX_TOL * total_norm:
            run += 1
            if run == _CONVERGED_RUN:
                tail = 2.0 * sum(recent[-_CONVERGED_RUN:])
                return total, MLEvalInfo(diagonals_used=d, tail_estimate=tail)
        else:
            run = 0
    raise NonConvergenceError(
        f"matrix ml series not converged after {DEFAULT_MAX_DIAGONALS} anti-diagonals "
        f"(t={ts[top]})")


def ml_nonperm_info(q: QTable, p: MLParams, t: float):
    """Evaluate the non-permutable series at t >= 0; returns (value, info)."""
    values, info = _sum_series(q.coeff, q.dim, p, [t])
    return values[0], info


def ml_nonperm(q: QTable, p: MLParams, t: float) -> np.ndarray:
    """Non-permutable bivariate matrix Mittag-Leffler value at t."""
    value, _ = ml_nonperm_info(q, p, t)
    return value


def ml_nonperm_grid(q: QTable, p: MLParams, ts):
    """Evaluate the series at a 1-d batch of times t >= 0; returns (values, info).

    One pass serves every time; the largest one sets the truncation depth.
    """
    return _sum_series(q.coeff, q.dim, p, ts)


def ml_perm(a, b, p: MLParams, t: float) -> np.ndarray:
    """Binomial-form bivariate matrix Mittag-Leffler for commuting matrices.

    Sums binom(k+m, m) a^k b^m t^(k*rho + m*sigma) / Gamma(k*rho + m*sigma + delta)
    with the same anti-diagonal summation loop as ``ml_nonperm``. The leading
    t^(delta-1) prefactor of the usual kernel form is left to callers. Raises
    if the inputs do not commute.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    comm_tol = 1e-12 * mat_norm(a) * mat_norm(b)
    if mat_norm(commutator(a, b)) > comm_tol:
        raise DomainError("ml_perm requires commuting matrices")
    dim = a.shape[0]
    a_pows, b_pows = [np.eye(dim)], [np.eye(dim)]

    def term(k, m):
        while len(a_pows) <= k:
            a_pows.append(a_pows[-1] @ a)
        while len(b_pows) <= m:
            b_pows.append(b_pows[-1] @ b)
        return math.comb(k + m, m) * (a_pows[k] @ b_pows[m])

    values, _ = _sum_series(term, dim, p, [t])
    return values[0]
