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

Both routes share one summation loop. It runs over anti-diagonals k + m = d
so that terms sharing the same total order, and hence the same t-power
scale, are grouped; the series stops once four consecutive anti-diagonals
are negligible relative to the partial sum. Terms whose Gamma argument hits
a pole contribute zero (reciprocal-gamma convention).
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
    recurrence. Entries are filled lazily up to k + m <= max_total; beyond that
    the table raises rather than truncate silently, because the coefficient
    norms can grow combinatorially. Fills are lock-protected so a table may be
    shared across threads; values behave as pure functions of (A, B, k, m).
    """

    def __init__(self, a, b, max_total: int = DEFAULT_MAX_DIAGONALS):
        a = as_matrix(a)
        b = as_matrix(b)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        self.a = a.copy()
        self.b = b.copy()
        self.max_total = int(max_total)
        self.dim = a.shape[0]
        self._diagonals = [np.eye(self.dim)[None]]
        self._lock = threading.Lock()

    def coeff(self, k: int, m: int) -> np.ndarray:
        if int(k) != k or int(m) != m or k < 0 or m < 0:
            raise ValueError(f"indices must be nonnegative integers, got ({k!r}, {m!r})")
        k, m = int(k), int(m)
        if k + m > self.max_total:
            raise TruncationBoundError(
                f"Q coefficient ({k}, {m}) beyond configured bound k+m <= {self.max_total}")
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


def q_coeff(q: QTable, k: int, m: int) -> np.ndarray:
    """Coefficient matrix Q_{k,m}, memoized in ``q``."""
    return q.coeff(k, m)


@dataclass(frozen=True)
class MLEvalInfo:
    """Truncation metadata for a series evaluation.

    ``tail_estimate`` is a heuristic (twice the mass of the final negligible
    anti-diagonals), not a rigorous two-sided bound.
    """

    diagonals_used: int
    tail_estimate: float


def _tpow(t: float, exponent: float) -> float:
    # explicit split so t = 0 yields 0^0 = 1 for the leading term, 0 otherwise
    if t == 0.0:
        return 1.0 if exponent == 0.0 else 0.0
    try:
        return t ** exponent
    except OverflowError:
        # let the series guard report non-convergence instead of crashing
        return math.inf


def _sum_series(term, dim: int, p: MLParams, t: float, tol: float,
                max_diagonals: int):
    """Sum term(k, m) t^(k*rho + m*sigma) / Gamma(k*rho + m*sigma + delta)
    over k, m >= 0 by anti-diagonals; returns (value, info).

    ``term(k, m)`` gives the (dim, dim) coefficient matrix; it is only called
    for terms whose scalar factor is nonzero.
    """
    t = float(t)
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"t must be finite and nonnegative, got {t!r}")
    total = np.zeros((dim, dim))
    recent: list[float] = []
    run = 0
    for d in range(0, max_diagonals + 1):
        diag = np.zeros((dim, dim))
        for m in range(0, d + 1):
            k = d - m
            exponent = k * p.rho + m * p.sigma_exp
            coeff = _tpow(t, exponent) * reciprocal_gamma(exponent + p.delta)
            if coeff != 0.0:
                diag = diag + coeff * term(k, m)
        total = total + diag
        diag_norm = _row_sum_norm(diag)
        total_norm = _row_sum_norm(total)
        if not (math.isfinite(diag_norm) and math.isfinite(total_norm)):
            raise NonConvergenceError(
                f"matrix ml series overflowed at anti-diagonal {d} (t={t})")
        recent.append(diag_norm)
        if diag_norm <= tol * total_norm:
            run += 1
            if run == _CONVERGED_RUN:
                tail = 2.0 * sum(recent[-_CONVERGED_RUN:])
                return total, MLEvalInfo(diagonals_used=d, tail_estimate=tail)
        else:
            run = 0
    raise NonConvergenceError(
        f"matrix ml series not converged after {max_diagonals} anti-diagonals (t={t})")


def ml_nonperm_info(q: QTable, p: MLParams, t: float,
                    tol: float = ML_MATRIX_TOL,
                    max_diagonals: int = DEFAULT_MAX_DIAGONALS):
    """Evaluate the non-permutable series at t >= 0; returns (value, info)."""
    return _sum_series(q.coeff, q.dim, p, t, tol, max_diagonals)


def ml_nonperm(q: QTable, p: MLParams, t: float,
               tol: float = ML_MATRIX_TOL,
               max_diagonals: int = DEFAULT_MAX_DIAGONALS) -> np.ndarray:
    """Non-permutable bivariate matrix Mittag-Leffler value at t."""
    value, _ = ml_nonperm_info(q, p, t, tol=tol, max_diagonals=max_diagonals)
    return value


def ml_nonperm_grid(q: QTable, p: MLParams, ts,
                    tol: float = ML_MATRIX_TOL,
                    max_diagonals: int = DEFAULT_MAX_DIAGONALS):
    """Evaluate the series on a batch of nonnegative times; returns (values, info).

    The truncation depth is fixed by the largest time in the batch. All series
    exponents are nonnegative, so every term's magnitude at a smaller time is
    bounded by its magnitude at t_max, and the t_max tail bounds all tails in
    absolute terms.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be a 1-d array of times")
    if np.any(ts < 0) or not np.all(np.isfinite(ts)):
        raise DomainError("grid times must be finite and nonnegative")
    t_max = float(ts.max()) if ts.size else 0.0
    _, info = ml_nonperm_info(q, p, t_max, tol=tol, max_diagonals=max_diagonals)
    depth = info.diagonals_used

    exps = []
    coeffs = []
    for d in range(0, depth + 1):
        for m in range(0, d + 1):
            k = d - m
            exponent = k * p.rho + m * p.sigma_exp
            rg = reciprocal_gamma(exponent + p.delta)
            if rg == 0.0:
                continue
            exps.append(exponent)
            coeffs.append(rg * q.coeff(k, m))
    exps = np.asarray(exps)
    stack = np.asarray(coeffs)  # (n_terms, dim, dim)

    pows = np.empty((ts.size, exps.size))
    pos = ts > 0
    with np.errstate(divide="ignore"):
        pows[pos] = np.power(ts[pos, None], exps[None, :])
    if (~pos).any():
        pows[~pos] = np.where(exps[None, :] == 0.0, 1.0, 0.0)
    values = np.einsum("ti,ijk->tjk", pows, stack)
    return values, info


def ml_perm(a, b, p: MLParams, t: float,
            tol: float = ML_MATRIX_TOL,
            max_diagonals: int = DEFAULT_MAX_DIAGONALS) -> np.ndarray:
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

    value, _ = _sum_series(term, dim, p, t, tol, max_diagonals)
    return value
