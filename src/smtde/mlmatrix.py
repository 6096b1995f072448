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
summation in two phases. A depth scan runs over anti-diagonals k + m = d at
the largest time only: it reads the coefficients of SCAN_BATCH
anti-diagonals with one call, keeps the live terms, and stops once four
consecutive anti-diagonals are negligible relative to the partial sum,
checked one anti-diagonal at a time, so the largest time sets the depth for
the whole batch of times. Then every kept term is added at every time in one
product, using t^(k*rho + m*sigma) = t^(k*rho) t^(m*sigma). Terms whose
scalar weight is zero (a reciprocal-gamma pole, or t = 0 with a positive
exponent) are never read and contribute exactly zero.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, TruncationBoundError
from .linalg import as_matrix, commutator, mat_norm, row_sum_norms
from .specfun import reciprocal_gammas

ML_MATRIX_TOL = 1e-12
DEFAULT_MAX_DIAGONALS = 200
_CONVERGED_RUN = 4
# Times per matrix product when the kept series terms are summed.
SERIES_TIME_BLOCK = 128
# Anti-diagonals per pass of the depth scan (``_sum_series``): one index
# build, one reciprocal-gamma map, one power and one coefficient read each.
SCAN_BATCH = 16


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

    The anti-diagonals are stored back to back in one (entries, dim, dim)
    buffer: anti-diagonal d starts at d(d+1)/2 and its entry m is Q_{d-m,m}.
    Each one is built from the previous one with the two-term recurrence.
    Entries are filled lazily up to k + m <= DEFAULT_MAX_DIAGONALS; beyond that
    the table raises rather than truncate silently, because the coefficient
    norms can grow combinatorially. Fills and reads are lock-protected so a
    table may be shared across threads; values behave as pure functions of
    (A, B, k, m).
    """

    def __init__(self, a, b):
        a = as_matrix(a)
        b = as_matrix(b)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        self.a = a.copy()
        self.b = b.copy()
        self.dim = a.shape[0]
        self._flat = np.eye(self.dim)[None]
        self._depth = 0
        self._lock = threading.Lock()

    def coeff(self, k, m) -> np.ndarray:
        """Q_{k,m}: a (dim, dim) matrix for integers k, m, or the
        (n, dim, dim) stack of Q_{k_i,m_i} for two index arrays of length n."""
        ks, ms = _index_array(k), _index_array(m)
        if ks.shape != ms.shape or ks.ndim > 1:
            raise ValueError(f"indices must be two integers or two equal-length "
                             f"1-d arrays, got shapes {ks.shape} and {ms.shape}")
        ds = ks + ms            # negative only where the sum overflowed
        top = int(ds.max(initial=0))
        if top > DEFAULT_MAX_DIAGONALS or ds.size and ds.min() < 0:
            bad = int(np.argmax((ds < 0) | (ds > DEFAULT_MAX_DIAGONALS)))
            raise TruncationBoundError(
                f"Q coefficient ({ks.flat[bad]}, {ms.flat[bad]}) beyond the bound "
                f"k+m <= {DEFAULT_MAX_DIAGONALS}")
        with self._lock:
            if top > self._depth:
                self._fill(top)
            return self._flat.take((ds * (ds + 1) >> 1) + ms, axis=0)

    def _fill(self, top: int) -> None:
        # called under the lock; grows the buffer at least twofold
        need = (top + 1) * (top + 2) // 2
        if need > len(self._flat):
            size = min(max(need, 2 * len(self._flat)),
                       (DEFAULT_MAX_DIAGONALS + 1) * (DEFAULT_MAX_DIAGONALS + 2) // 2)
            flat = np.empty((size, self.dim, self.dim))
            flat[:len(self._flat)] = self._flat
            self._flat = flat
        for d in range(self._depth + 1, top + 1):
            # prev[j] = Q_{d-1-j,j}; right factors keep Q_{k,0} equal to A^k
            lo = d * (d + 1) // 2
            prev = self._flat[lo - d:lo]
            diag = self._flat[lo:lo + d + 1]
            diag[:d] = prev @ self.a
            diag[d] = 0.0
            diag[1:] += prev @ self.b
        self._depth = top


def _index_array(v) -> np.ndarray:
    arr = np.asarray(v)
    if arr.dtype.kind == "f" and np.all(np.isfinite(arr) & (arr == np.floor(arr))
                                        & (np.abs(arr) < 2.0 ** 62)):
        arr = arr.astype(np.int64)
    if arr.dtype.kind in "iu":
        arr = arr.astype(np.int64, copy=False)    # uint64 past 2^63 turns negative
        if not (arr.size and arr.min() < 0):
            return arr
    raise ValueError(f"indices must be nonnegative integers, got {v!r}")


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
    over k, m >= 0 at every time of the 1-d array ``ts``; returns (values of
    shape (len(ts), dim, dim), info).

    A depth scan runs over the anti-diagonals at the largest time only and
    applies the stopping rule there. All series exponents are nonnegative,
    so every term's magnitude at a smaller time is bounded by its magnitude
    at t_max, and the t_max tail bounds all tails in absolute terms. The
    terms the scan kept are then summed at every time in one product, from
    t^(k*rho + m*sigma) = t^(k*rho) t^(m*sigma). The scan reads SCAN_BATCH
    anti-diagonals per pass: ``term(ks, ms)`` gives the (n, dim, dim) stack
    of coefficient matrices for two index arrays, and it is called once per
    batch, only for terms whose scalar weight is nonzero at t_max (then at
    some time: smaller times only shrink it). Each anti-diagonal still gets
    its own product at t_max, the running total adds them in order, and the
    overflow check and stopping rule run one anti-diagonal at a time, so the
    depth and the values do not depend on the batch size; a batch only reads
    coefficients up to its end, past the depth it finds.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("ts must be a non-empty 1-d array of times")
    bad = ~(np.isfinite(ts) & (ts >= 0))
    if bad.any():
        raise DomainError(
            f"t must be finite and nonnegative, got {float(ts[bad][0])!r}")
    t_max = float(ts.max())
    kept_k, kept_m, kept_g = [], [], []    # live terms and rg * Q, per batch
    total = np.zeros(dim * dim)
    recent: list[float] = []
    run = 0
    for d0 in range(0, DEFAULT_MAX_DIAGONALS + 1, SCAN_BATCH):
        # the batch's anti-diagonals back to back: d's entry m is term (d-m, m)
        ds = np.arange(d0, min(d0 + SCAN_BATCH, DEFAULT_MAX_DIAGONALS + 1))
        starts = (ds * (ds + 1) - d0 * (d0 + 1)) >> 1
        diag_of = np.repeat(ds, ds + 1)
        ms = np.arange(diag_of.size) - np.repeat(starts, ds + 1)
        ks = diag_of - ms
        exps = ks * p.rho + ms * p.sigma_exp
        rgs = reciprocal_gammas(exps + p.delta)
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflowing power or norm is left to the non-convergence
            # guard, which reports the first anti-diagonal it reaches
            powers = t_max ** exps
            live = np.flatnonzero(powers * rgs)
            ks, ms, rgs, powers = ks[live], ms[live], rgs[live], powers[live]
            g = np.zeros((0, dim * dim))
            if ms.size:
                g = rgs[:, None] * term(ks, ms).reshape(ms.size, dim * dim)
            # live entries of anti-diagonal d0 + i: bounds[i] to bounds[i + 1]
            bounds = np.searchsorted(live, np.append(starts, diag_of.size)).tolist()
            diags = np.zeros((ds.size, dim * dim))
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                if hi > lo:
                    diags[i] = powers[lo:hi] @ g[lo:hi]
            totals = np.cumsum(np.vstack([total, diags]), axis=0)[1:]
            diag_norms = row_sum_norms(diags.reshape(-1, dim, dim)).tolist()
            total_norms = row_sum_norms(totals.reshape(-1, dim, dim)).tolist()
        kept_k.append(ks)
        kept_m.append(ms)
        kept_g.append(g)
        for d, diag_norm, total_norm in zip(ds.tolist(), diag_norms, total_norms):
            if not (math.isfinite(diag_norm) and math.isfinite(total_norm)):
                raise NonConvergenceError(
                    f"matrix ml series overflowed at anti-diagonal {d} (t={t_max})")
            recent.append(diag_norm)
            if diag_norm <= ML_MATRIX_TOL * total_norm:
                run += 1
                if run == _CONVERGED_RUN:
                    # drop the terms the batch read past the depth
                    n = bounds[d - d0 + 1]
                    kept_k[-1], kept_m[-1], kept_g[-1] = ks[:n], ms[:n], g[:n]
                    tail = 2.0 * sum(recent[-_CONVERGED_RUN:])
                    values = _sum_kept(kept_k, kept_m, kept_g, d, dim, p, ts)
                    return (values.reshape(ts.size, dim, dim),
                            MLEvalInfo(diagonals_used=d, tail_estimate=tail))
            else:
                run = 0
        total = totals[-1]
    raise NonConvergenceError(
        f"matrix ml series not converged after {DEFAULT_MAX_DIAGONALS} anti-diagonals "
        f"(t={t_max})")


def _sum_kept(kept_k, kept_m, kept_g, depth: int, dim: int, p: MLParams,
              ts: np.ndarray) -> np.ndarray:
    """Sum the kept terms at every time, flattened to (len(ts), dim * dim):
    sum_k t^(k*rho) sum_m t^(m*sigma) G[m, k] with G[m, k] = rg Q_{k,m}. Per
    block of SERIES_TIME_BLOCK times, the inner sums of all k are one GEMM
    over m; the block bounds its (times, k, dim * dim) intermediate."""
    n = depth + 1
    width = dim * dim
    g = np.zeros((n, n, width))
    if kept_g:
        g[np.concatenate(kept_m), np.concatenate(kept_k)] = np.concatenate(kept_g)
    g = g.reshape(n, n * width)
    powers = np.arange(n)
    out = np.empty((ts.size, width))
    for lo in range(0, ts.size, SERIES_TIME_BLOCK):
        t = ts[lo:lo + SERIES_TIME_BLOCK, None]
        with np.errstate(under="ignore"):
            t_sigma = t ** (powers * p.sigma_exp)     # (times, n) over m
            t_rho = t ** (powers * p.rho)             # (times, n) over k
        inner = (t_sigma @ g).reshape(t.size, n, width)
        out[lo:lo + t.size] = np.matmul(t_rho[:, None, :], inner)[:, 0]
    return out


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

    The largest time sets the truncation depth for every time of the batch.
    """
    return _sum_series(q.coeff, q.dim, p, ts)


def ml_perm(a, b, p: MLParams, t: float) -> np.ndarray:
    """Binomial-form bivariate matrix Mittag-Leffler for commuting matrices.

    Sums binom(k+m, m) a^k b^m t^(k*rho + m*sigma) / Gamma(k*rho + m*sigma + delta)
    with the same summation as ``ml_nonperm``. The leading
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

    def term(ks, ms):
        while len(a_pows) <= ks.max():
            a_pows.append(a_pows[-1] @ a)
        while len(b_pows) <= ms.max():
            b_pows.append(b_pows[-1] @ b)
        binoms = np.array([float(math.comb(k + m, m))
                           for k, m in zip(ks.tolist(), ms.tolist())])
        return binoms[:, None, None] * (np.array(a_pows)[ks] @ np.array(b_pows)[ms])

    values, _ = _sum_series(term, dim, p, [t])
    return values[0]
