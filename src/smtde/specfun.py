"""Scalar special functions and fractional-order quadrature on sampled functions.

Provides the gamma function, the one-parameter Mittag-Leffler function
E_a(z) = sum_k z^k / Gamma(k*a + 1), and product-rule quadrature for the
Riemann-Liouville fractional integral

    I^a f(t) = (1/Gamma(a)) * integral_0^t (t-r)^(a-1) f(r) dr.

The quadrature is a left-endpoint product rule: f is held piecewise constant
at the left endpoint of each cell while the singular kernel is integrated
exactly, giving the weights [(t-t_j)^a - (t-t_{j+1})^a] / Gamma(a+1). On a
uniform grid they depend on the lag m only; ``rl_weights`` is their one
owner, formed as -expm1(a log1p(-1/m)) (m h)^a / Gamma(a+1) without the
cancellation of the difference of powers. ``rl_integral`` forms each cell
of any grid the same way, from the cell's width over its distance to t.

The Gauss rules behind the em far field's exponentials (``gauss_legendre``,
``gauss_jacobi``) come from one Golub-Welsch eigenproblem each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, ValidationError

ML_SERIES_TOL = 1e-14
ML_MAX_TERMS = 100_000
# Series scale u = z^(1/a) from which ml_scalar_log uses the exponential
# asymptotic expansion (0 < a < 1). Below it the power series is cheap; above
# it the series needs ~u/a terms while the expansion is accurate to ~e^(-2u).
ML_ASYMPTOTIC_U0 = 20.0
# A grid is uniform if each point is within this times T of (T/N) n (rounding ~eps T)
UNIFORM_GRID_EPS = 4.0 * np.finfo(float).eps
# Consecutive negligible terms required before the series is declared
# converged; guards against alternating-sign false stops.
_CONVERGED_RUN = 4
_LOG_BLOCK = 128


def gamma_fn(x: float) -> float:
    """Gamma function for finite x > 0, inf where it exceeds float64 range
    (x above ~171.62). Raises DomainError otherwise."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) for finite x, extended by zero at the poles x = 0, -1, -2, ...

    Where Gamma overflows (x above ~171.62) it is exp(-lgamma(x)), subnormal
    and then 0.0, also past ~2.6e305 where lgamma overflows too; where Gamma
    underflows to a signed zero (x below about -177.6) it is inf with the
    sign of Gamma.
    """
    x = float(x)
    if x <= 0.0 and x == int(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        try:
            return math.exp(-math.lgamma(x))
        except OverflowError:
            return 0.0
    return 1.0 / g if g else math.copysign(math.inf, g)


def reciprocal_gammas(xs: np.ndarray) -> np.ndarray:
    """``reciprocal_gamma`` at every x of a 1-d float array, bit for bit,
    evaluated once per distinct x: sorted, a value that differs from its
    left neighbour starts a run (a NaN always does), and each run's result
    is scattered back to its positions. No ``np.unique``: its first call
    imports ``numpy.ma``. One ``math.gamma`` map and one division where
    1e-300 <= x < 171 (Gamma is finite and nonzero there), the scalar
    function elsewhere. ``np.fromiter`` takes each value as it is made, so
    no list of Python float results is ever built: the object-arena pages
    such a list touches stay resident after it is freed."""
    order = np.argsort(xs)
    xs_sorted = xs[order]
    starts = np.empty(xs.shape, dtype=bool)
    starts[:1] = True
    np.not_equal(xs_sorted[1:], xs_sorted[:-1], out=starts[1:])
    vals = xs_sorted[starts]
    plain = (vals >= 1e-300) & (vals < 171.0)
    rgs = np.empty(vals.shape)
    rgs[plain] = 1.0 / np.fromiter(map(math.gamma, vals[plain].tolist()), float)
    rgs[~plain] = np.fromiter(map(reciprocal_gamma, vals[~plain].tolist()), float)
    out = np.empty(xs.shape)
    out[order] = rgs[np.cumsum(starts) - 1]
    return out


def _ml_log_series(alpha: float, z: np.ndarray, tol: float,
                   max_terms: int) -> np.ndarray:
    """log E_alpha(z) for z >= 0 from the power series, summed in log space.

    Terms are formed as logs, so neither they nor the sum overflow; each block
    of terms is folded into the running total with one log-sum-exp.
    """
    with np.errstate(divide="ignore"):
        logz = np.log(z)
    total = np.zeros_like(z)  # log of the k = 0 term: log(1/Gamma(1)) = 0
    log_tol = math.log(tol)
    k0 = 1
    while k0 <= max_terms:
        ks = np.arange(k0, min(k0 + _LOG_BLOCK, max_terms + 1))
        lgam = np.array([math.lgamma(k * alpha + 1.0) for k in ks])
        log_terms = ks[:, None] * logz[None, :] - lgam[:, None]
        total = np.logaddexp(total, np.logaddexp.reduce(log_terms, axis=0))
        # the last few terms of the block must be negligible against the
        # partial sum; terms are nonnegative and unimodal in k, so this
        # realizes the consecutive-small-terms rule
        if np.all(log_terms[-_CONVERGED_RUN:] <= total + log_tol):
            return total
        k0 += ks.size
    raise NonConvergenceError(
        f"ml series did not converge within {max_terms} terms "
        f"(alpha={alpha}, max z={z.max()})")


def _ml_log_expansion(alpha: float, z: np.ndarray, u: np.ndarray,
                      tol: float) -> np.ndarray:
    """log E_alpha(z) for 0 < alpha < 1 and z > 0 from the asymptotic expansion

        E_alpha(z) = e^u / alpha - S(z),  S(z) = sum_{k>=1} z^-k / Gamma(1 - alpha k),

    with u = z^(1/alpha), i.e. log E = u - log alpha + log1p(-alpha e^-u S).
    S diverges, so each entry is truncated at the smallest term of its
    envelope |z^-k / Gamma(1 - alpha k)| <= Gamma(alpha k) z^-k / pi, or
    earlier, once alpha e^-u times the envelope (the term's share of the
    log) falls below tol.
    """
    logz = np.log(z)
    log_tol = math.log(tol)
    log_front = math.log(alpha / math.pi) - u  # alpha e^-u, and the envelope's 1/pi
    s = np.zeros_like(z)
    live = np.ones(z.shape, dtype=bool)
    lgam = math.lgamma(alpha)
    k = 1
    while True:
        # term k can still move the log: alpha e^-u Gamma(alpha k) z^-k / pi > tol
        live &= log_front + lgam - k * logz > log_tol
        if not live.any():
            break
        s[live] += reciprocal_gamma(1.0 - alpha * k) * np.exp(-k * logz[live])
        lgam_next = math.lgamma(alpha * (k + 1))
        # optimal truncation: stop once the envelope stops decreasing
        live &= lgam_next - lgam < logz
        lgam = lgam_next
        k += 1
    return u - math.log(alpha) + np.log1p(-alpha * np.exp(-u) * s)


def ml_scalar_log(alpha: float, z):
    """log E_alpha(z) for z >= 0; stays accurate where E_alpha(z) overflows.

    Each entry takes one of two routes by its series scale u = z^(1/alpha):
    for 0 < alpha < 1 and u >= ML_ASYMPTOTIC_U0 the exponential asymptotic
    expansion (of order 1/alpha terms: 18 at alpha = 0.2, 58 at 0.05),
    otherwise the power series summed in log space (bounded through u < U0
    for 0 < alpha < 1; for alpha >= 1 the term count grows like u).
    """
    if alpha <= 0:
        raise DomainError(f"ml order must be positive, got {alpha!r}")
    zs = np.asarray(z, dtype=float)
    if np.any(zs < 0) or not np.all(np.isfinite(zs)):
        raise DomainError("ml_scalar_log requires finite z >= 0")
    flat = np.atleast_1d(zs).ravel()
    with np.errstate(over="ignore"):
        u = flat ** (1.0 / alpha)
    asym = (u >= ML_ASYMPTOTIC_U0) & (alpha < 1.0)
    out = np.empty_like(flat)
    if asym.any():
        out[asym] = _ml_log_expansion(alpha, flat[asym], u[asym], ML_SERIES_TOL)
    if not asym.all():
        out[~asym] = _ml_log_series(alpha, flat[~asym], ML_SERIES_TOL,
                                    ML_MAX_TERMS)
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def ml_scalar(alpha: float, z):
    """One-parameter Mittag-Leffler function E_alpha(z) for finite z >= 0.

    Accepts a scalar or an ndarray of arguments. Computed as
    exp(ml_scalar_log(alpha, z)), so it shares that function's domain
    (DomainError otherwise) and returns inf where the value exceeds float64
    range.
    """
    with np.errstate(over="ignore"):
        out = np.exp(ml_scalar_log(alpha, z))
    return float(out) if np.ndim(z) == 0 else out


@dataclass(frozen=True)
class SampledFunction:
    """A real-valued function sampled on a strictly increasing grid from 0;
    ValidationError on any other grid or on a non-finite value."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValidationError("grid must be a 1-d array with at least two points")
        if grid[0] != 0.0:
            raise ValidationError("grid must start at 0")
        if not np.all(np.diff(grid) > 0):
            raise ValidationError("grid must be strictly increasing")
        if values.shape != grid.shape:
            raise ValidationError(
                f"values shape {values.shape} does not match grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("sampled values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def n_points(self) -> int:
        return self.grid.size

    def is_uniform(self) -> bool:
        """Whether the grid is t_n = (T/N) n up to the rounding of its points."""
        ref = np.linspace(0.0, self.grid[-1], self.grid.size)
        return bool(np.all(np.abs(self.grid - ref) <= UNIFORM_GRID_EPS * self.grid[-1]))


def _golub_welsch(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of the Gauss rule with the Jacobi matrix of diagonal
    ``diag`` and off-diagonal ``off``, and the squared first components of
    its eigenvectors: the weights over the weight function's total mass
    (Golub & Welsch, 1969)."""
    t, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return t, vecs[0] ** 2


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]
    (mass 2), symmetrized about 0 as the rule is: within 1e-15 of
    ``np.polynomial.legendre.leggauss``, without loading
    ``numpy.polynomial``."""
    k = np.arange(1.0, n)
    t, w = _golub_welsch(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))
    return (t - t[::-1]) / 2.0, w + w[::-1]


def gauss_jacobi(q: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for int_0^1 x^-q f(x) dx,
    0 < q < 1 (the Jacobi recurrence of (1+t)^-q on [-1, 1])."""
    b = -q
    k = np.arange(n, dtype=float)
    s = 2.0 * k + b
    diag = b * b / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * k * (k + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    t, w = _golub_welsch(diag, off)
    return (t + 1.0) / 2.0, w / (1.0 - q)


def rl_weights(q: float, h: float, n: int) -> np.ndarray:
    """Product-rule weights ((m h)^q - ((m-1) h)^q) / Gamma(q+1) of I^q at
    lags m = 0..n (lag 0 is zero), for any q > 0. Formed as
    -expm1(q log1p(-1/m)) (m h)^q / Gamma(q+1): the difference of powers
    would lose about log10(m) digits to cancellation."""
    m = np.arange(1, n + 1, dtype=float)
    w = np.zeros(n + 1)
    with np.errstate(divide="ignore"):       # log1p(-1) = -inf at lag 1
        w[1:] = -np.expm1(q * np.log1p(-1.0 / m)) * (m * h) ** q
    return w * reciprocal_gamma(q + 1.0)


def rl_integral(alpha: float, f: SampledFunction, t_index: int) -> float:
    """Riemann-Liouville integral I^alpha f at grid point ``t_index``.

    Left-endpoint product rule with exact per-cell kernel integrals, so the
    integrable singularity at r -> t never enters the weights. On any grid
    cell j's weight is formed as (t - t_j)^alpha (-expm1(alpha log1p(-(t_{j+1}
    - t_j) / (t - t_j)))) / Gamma(alpha+1), as ``rl_weights`` forms the
    uniform ones, without the cancellation of the difference of powers.
    """
    if alpha <= 0:
        raise DomainError(f"fractional order must be positive, got {alpha!r}")
    n = int(t_index)
    if n < 0 or n >= f.n_points:
        raise ValueError(f"t_index {t_index} outside grid of {f.n_points} points")
    if n == 0:
        return 0.0
    dist = f.grid[n] - f.grid[:n]       # t - t_j, decreasing
    with np.errstate(divide="ignore"):   # log1p(-1) = -inf in the last cell
        weights = -np.expm1(alpha * np.log1p(-np.diff(f.grid[:n + 1]) / dist))
    weights *= dist ** alpha / gamma_fn(alpha + 1.0)
    return float(weights @ f.values[:n])


def rl_integral_all(alpha: float, f: SampledFunction) -> np.ndarray:
    """I^alpha f evaluated at every grid point.

    On uniform grids the weights depend on the lag only, so all values come
    from one discrete convolution; otherwise falls back to per-index sums.
    """
    if alpha <= 0:
        raise DomainError(f"fractional order must be positive, got {alpha!r}")
    n_pts = f.n_points
    if not f.is_uniform():
        return np.array([rl_integral(alpha, f, i) for i in range(n_pts)])
    w = rl_weights(alpha, f.grid[-1] / (n_pts - 1), n_pts - 1)
    return np.convolve(f.values, w)[:n_pts]


def caputo_identity_residual(alpha: float, f: SampledFunction,
                             df_caputo: SampledFunction) -> float:
    """Max-norm residual of I^alpha applied to a claimed Caputo derivative.

    For alpha in (0, 1) the fractional integral of the Caputo derivative
    recovers f(t) - f(0); the returned residual is
    max_n | I^alpha df_caputo (t_n) - (f(t_n) - f(0)) |.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"identity check requires alpha in (0, 1), got {alpha!r}")
    if f.grid.shape != df_caputo.grid.shape or not np.array_equal(f.grid, df_caputo.grid):
        raise ValueError("f and df_caputo must share the same grid")
    recovered = rl_integral_all(alpha, df_caputo)
    return float(np.max(np.abs(recovered - (f.values - f.values[0]))))
