"""Mean-square estimators, contraction constants, and the separation and
continuity experiments.

The weighted maximum norm used throughout is

    |xi|_w^2 = sup_t  E |xi(t)|^2 / E_{2a-1}(w t^(2a-1)),

whose denominator grows fast enough to make the mild-form integral operator
a contraction once w exceeds the threshold

    w > 4 Gamma(2a-1) M^2 (1 + L_b^2 T + L_s^2),

with M the sup of the kernel norm over [0, T]. At that threshold the
contraction constant

    zeta = 3 Gamma(2a-1) M^2 (1 + L_b^2 T + L_s^2) / w

equals 3/4 by construction.

The paper's three checks step stacked copies of one kernel run
(``solvers._run``) and reduce them to squared distances in one sink,
``_SqDistances``, which measures each copy from one reference: the copy
before it (the Picard iterates Y_1..Y_n), copy 0 (continuity's shifted
runs, and the separation pair) or a fixed vector (eta for Y_1, so Y_0 =
eta is never stored, and 0 for ``simulate``'s one copy: |X|^2). The
separation experiment and ``simulate_ms_norm`` keep every path's rows in
one (n_steps + 1, n_paths) array (``squared_norms``), which the standard
errors and the bootstrap read. Continuity and Picard keep a chunk's rows
until the kernel returns its mask, then sum them over the paths valid in
both copies, the chunks in chunk order, so no result depends on
``threads``. Every one of them hands ``_run`` the noise function of
``solvers._draw``, so a chunk reads its increments as a stream of rows
drawn one slab of NOISE_SLAB steps at a time (``solvers._slabs``), each
path's slabs continuing its stream: the squares equal those of the
stored ensembles bit for bit, and a chunk holds no increments that grow
with the grid. So only the library calls of ``solvers`` that return a
``PathEnsemble`` store paths.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateExperimentError, DomainError, EnsembleError,
                     ValidationError)
from .linalg import row_sum_norms
from .solvers import (BrownianDriver, InitialState, PathEnsemble, ProblemSpec,
                      _check_dims, _draw, _run, kernel_tables, mild_init_term,
                      mild_kernel_tables, mild_ml)
from .specfun import gamma_fn, ml_scalar_log, rl_weights

FIT_WINDOW_START = 1.0
FITTED_EXPONENT_SLACK = 0.25
BOOTSTRAP_RESAMPLES = 200
# Resamples per product of ``_bootstrap_exponents``. With OpenBLAS, batches
# that start at multiples of 48 rows take the bits of one whole product and
# fit (batches of 50 did not).
BOOTSTRAP_BATCH = 48
SUP_GRID_POINTS = 1000
# Grid times per block of the squared-norm reducer (_sq_reduce), of the
# standard errors (_mean_and_se) and of the weighted sup (_log_weighted_sup).
SQ_BLOCK_TIMES = 64


@dataclass(frozen=True)
class WeightedNormParams:
    omega: float
    alpha: float

    def __post_init__(self):
        if not self.omega > 0:
            raise DomainError(f"omega must be positive, got {self.omega!r}")
        if not 0.5 < self.alpha < 1.0:
            raise DomainError(f"alpha must be in (1/2, 1), got {self.alpha!r}")


def _check_two_paths(n_paths: int) -> None:
    """The two-path rule: a mean over paths is reported with its standard
    error, which one path cannot give. (A count below 1 is rejected where
    the paths are drawn.)"""
    if n_paths == 1:
        raise ValidationError("the two-path rule: a mean over paths needs at "
                              "least 2 paths for its standard error, got 1")


def _joint_mask(ensembles: tuple[PathEnsemble, ...]) -> np.ndarray:
    """The paths valid in every ensemble, (n_paths,). ValidationError for
    two ensembles of different grids or shapes and under the two-path rule;
    EnsembleError if every path is flagged."""
    e = ensembles[0]
    mask = ~e.flags
    for e2 in ensembles[1:]:
        if e.paths.shape != e2.paths.shape or not np.array_equal(e.grid, e2.grid):
            raise ValidationError("ensembles must share the same grid and shape")
        mask &= ~e2.flags
    _check_two_paths(e.n_paths)
    if not mask.any():
        raise EnsembleError("all paths flagged; no valid statistics")
    return mask


def _sum_sq(x: np.ndarray, y: np.ndarray | None = None, out=None) -> np.ndarray:
    """Sum over dim of x^2 or (x - y)^2, (rows, dim, ...) -> (rows, ...):
    the squared norms of the core's blocks and of stored ensembles alike."""
    if y is None:
        sq = np.square(x)
    else:
        sq = np.subtract(x, y)
        np.square(sq, out=sq)
    return np.sum(sq, axis=1, out=out)


def _valid_sums(sq: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row of sq (rows, paths), numpy's pairwise sum over the paths in
    mask (paths,), the flagged ones compressed out first (none, no copy)."""
    return (sq if mask.all() else sq.compress(mask, axis=-1)).sum(axis=-1)


class _SqDistances:
    """Write-only output of a chunk of c paths of stacked copies, rows of
    shape (rows, dim, copies, c), kept as each copy's squared distance from
    its reference in ``sq`` (n_steps + 1, n, c). With ``chain`` copy 0 is
    measured from ``origin`` (dim, 1, 1) (None: 0, so |X|^2) and copy k from
    copy k - 1, n = copies; without, copy k >= 1 from copy 0, n = copies - 1.

    ``sq`` is a view of the caller's (n_steps + 1, n_paths) array, which
    keeps every path's rows (one distance), or, given ``totals``, the
    chunk's own block: once the kernel returns the chunk's mask, ``done``
    sums each distance's rows over the paths valid in both copies and adds
    them to ``totals``, the per-row sums (n_steps + 1, n) and the paths
    summed (n,)."""

    def __init__(self, sq: np.ndarray, chain: bool = False,
                 origin: np.ndarray | None = None, totals: list | None = None):
        self.sq, self.chain, self.origin, self.totals = sq, chain, origin, totals

    def __setitem__(self, rows: slice, x: np.ndarray) -> None:
        if self.chain:
            _sum_sq(x[:, :, :1], self.origin, out=self.sq[rows, :1])
            _sum_sq(x[:, :, 1:], x[:, :, :-1], out=self.sq[rows, 1:])
        else:
            _sum_sq(x[:, :, 1:], x[:, :, :1], out=self.sq[rows])

    def done(self, ok: np.ndarray) -> None:
        if self.totals is None:
            return
        # each copy's validity and its reference's: copy 0's own in a chain,
        # as the origin is never flagged
        both = ok & np.vstack([ok[:1], ok[:-1]]) if self.chain else ok[1:] & ok[0]
        # dropped here: the caller still holds this sink while the next
        # chunk runs
        sq, self.sq = self.sq, None
        with np.errstate(over="ignore"):
            self.totals[0] += np.stack([_valid_sums(sq[:, k], mask)
                                        for k, mask in enumerate(both)], axis=1)
        self.totals[1] += both.sum(axis=1)


def squared_norms(p: ProblemSpec, inits, drv: BrownianDriver, n_paths: int,
                  scheme: str = "em",
                  threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The grid and, per time and valid path, |X(t)|^2 for one initial state
    or |X(t) - Y(t)|^2 for two coupled ones, shape (n_steps + 1, n_valid),
    without storing paths or more than one slab of increments per chunk.

    The chunks are those of ``simulate`` (one initial state) or
    ``coupled_pair`` (two), and the core's output rows go straight into the
    squares. So the values equal the squares that ``ms_norm_series`` forms
    from the ``simulate`` ensemble, or ``ms_distance_series`` from the
    ``coupled_pair`` ensembles, bit for bit; the paths left out (flagged in
    either ensemble) and the EnsembleError above FLAGGED_FRACTION_LIMIT
    (the first ensemble checked first) are the same.
    """
    if len(inits) not in (1, 2):
        raise ValidationError(
            f"squared_norms takes one or two initial states, got {len(inits)}")
    tables = kernel_tables(p, drv.n_steps, scheme)
    noise = _draw(p, drv, n_paths, *inits)
    sq = np.empty((drv.n_steps + 1, n_paths))
    valid = _run(p, tables, inits, n_paths, noise, lambda cols: _SqDistances(
        sq[:, None, cols], chain=len(inits) == 1), threads).all(axis=0)
    return p.grid(drv.n_steps), sq if valid.all() else sq.compress(valid, axis=1)


def _sq_reduce(ensembles: tuple[PathEnsemble, ...], rows=slice(None)) -> np.ndarray:
    """|X(t)|^2 of one ensemble, or |X(t) - Y(t)|^2 of two on one grid, per
    time in ``rows`` and jointly valid path (``_joint_mask``), shape (n_t,
    n_valid), formed SQ_BLOCK_TIMES times at a time: the temporaries are one
    block, not a whole ensemble."""
    mask = _joint_mask(ensembles)
    paths = [x.paths[rows] for x in ensembles]
    out = np.empty((paths[0].shape[0], int(np.count_nonzero(mask))))
    # flagged paths may hold inf/nan; they are dropped after the reduction
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, out.shape[0], SQ_BLOCK_TIMES):
            block = slice(lo, lo + SQ_BLOCK_TIMES)
            _sum_sq(*(x[block] for x in paths)).compress(mask, axis=1, out=out[block])
    return out


def _mean_and_se(sq: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-time mean and standard error of a C-ordered (n_t, n_valid) array
    at the grid times ``times`` (n_t,): each time's sum over paths is numpy's
    pairwise sum. The deviations from the mean are formed SQ_BLOCK_TIMES
    times at a time, not for all of sq. ValidationError, naming the first
    such time, where a mean or standard error is not finite: the paths are
    finite, but their squares or the squares' spread overflow."""
    n_valid = sq.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        est = sq.mean(axis=-1)
        se = np.zeros_like(est)
        if n_valid > 1:
            for lo in range(0, sq.shape[0], SQ_BLOCK_TIMES):
                rows = slice(lo, lo + SQ_BLOCK_TIMES)
                se[rows] = sq[rows].std(axis=-1, ddof=1)
            se /= math.sqrt(n_valid)
    bad = ~(np.isfinite(est) & np.isfinite(se))
    if bad.any():
        raise ValidationError(
            f"the mean square or its standard error is not finite from "
            f"t = {float(times[bad.argmax()]):g}: the squares of finite paths "
            f"overflow float64")
    return est, se


def ms_norm(e: PathEnsemble, t_index: int) -> tuple[float, float]:
    """Sample mean of |X(t)|^2 across paths and its standard error."""
    if isinstance(t_index, bool) or not isinstance(t_index, (int, np.integer)):
        raise ValidationError(f"t_index must be an integer, got {t_index!r}")
    n = int(t_index)
    if n < 0 or n > e.n_steps:
        raise ValidationError(f"t_index {t_index} outside grid")
    est, se = _mean_and_se(_sq_reduce((e,), slice(n, n + 1)), e.grid[n:n + 1])
    return float(est[0]), float(se[0])


def ms_norm_series(e: PathEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Per-time mean of |X(t)|^2 with standard errors."""
    return _mean_and_se(_sq_reduce((e,)), e.grid)


def simulate_ms_norm(p: ProblemSpec, init: InitialState, drv: BrownianDriver,
                     n_paths: int, scheme: str = "em", threads: int = 1
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The grid, per-time mean of |X(t)|^2 with standard errors, and the
    number of paths left out (flagged), of a run that stores no paths: the
    values of ``ms_norm_series(simulate(...))`` bit for bit."""
    _check_two_paths(n_paths)
    grid, sq = squared_norms(p, [init], drv, n_paths, scheme, threads)
    return (grid, *_mean_and_se(sq, grid), n_paths - sq.shape[1])


def ms_distance_series(e: PathEnsemble, e2: PathEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Per-time mean of |X(t) - Y(t)|^2 with standard errors."""
    return _mean_and_se(_sq_reduce((e, e2)), e.grid)


# Large contraction weights push the discounting denominators far beyond
# float64 range (log E ~ 10^5 is routine, ~10^15 near alpha = 1/2), so the
# norm is formed in log space.
def _log_weight_denominators(w: WeightedNormParams, times: np.ndarray) -> np.ndarray:
    order = 2.0 * w.alpha - 1.0
    return ml_scalar_log(order, w.omega * times ** order)


def _log_sup(d2: np.ndarray, log_denom: np.ndarray) -> float:
    """max over t of log d2(t) - log_denom(t); a zero d2 is -inf."""
    with np.errstate(divide="ignore"):
        return float(np.max(np.log(d2) - log_denom))


def _log_weighted_sup(e: PathEnsemble, e2: PathEnsemble,
                      log_denom: np.ndarray) -> float:
    """max over t of log E|X(t) - Y(t)|^2 - log_denom(t). The ensembles are
    checked and their joint mask formed once; then each time's mean is
    taken from one SQ_BLOCK_TIMES block of squared distances at a time, the
    same pairwise sum as over the whole (n_t, n_valid) array."""
    mask = _joint_mask((e, e2))
    n_valid = np.count_nonzero(mask)
    d2 = np.empty(e.paths.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, d2.size, SQ_BLOCK_TIMES):
            rows = slice(lo, lo + SQ_BLOCK_TIMES)
            d2[rows] = _valid_sums(_sum_sq(e.paths[rows], e2.paths[rows]), mask)
    return _log_sup(d2 / n_valid, log_denom)


def log_weighted_norm(e: PathEnsemble, e2: PathEnsemble,
                      w: WeightedNormParams) -> float:
    """log of the weighted maximum norm; -inf for identical ensembles."""
    return _log_weighted_sup(e, e2, _log_weight_denominators(w, e.grid))


def _contraction_scale(p: ProblemSpec, m_sup: float) -> float:
    """Gamma(2a-1) M^2 (1 + L_b^2 T + L_s^2), shared by the threshold and zeta;
    DomainError where it overflows."""
    try:
        factor = 1.0 + p.lip_b ** 2 * p.horizon + p.lip_sigma ** 2
        scale = gamma_fn(2.0 * p.alpha - 1.0) * m_sup ** 2 * factor
    except OverflowError:
        scale = math.inf
    if not scale < math.inf:
        raise DomainError(
            f"the contraction threshold overflows: lip_b {p.lip_b!r}, lip_sigma "
            f"{p.lip_sigma!r}, horizon {p.horizon!r}, M {m_sup!r}")
    return scale


def omega_threshold(p: ProblemSpec, m_sup: float) -> float:
    """Weight above which the mild-form operator is a contraction."""
    if m_sup < 0:
        raise DomainError("m_sup must be nonnegative")
    return 4.0 * _contraction_scale(p, m_sup)


def zeta_const(p: ProblemSpec, m_sup: float, omega: float) -> float:
    """Contraction constant of the mild-form operator in the omega-norm."""
    if not omega > 0:
        raise DomainError(f"omega must be positive, got {omega!r}")
    return 3.0 * _contraction_scale(p, m_sup) / omega


def ml_sup_norm(p: ProblemSpec) -> tuple[float, float]:
    """Grid maximum of the kernel norm over [0, T], with a 2x refinement gap.

    Returns (sup at 2*SUP_GRID_POINTS resolution, relative gap against
    SUP_GRID_POINTS).
    """
    ts = np.linspace(0.0, p.horizon, 2 * SUP_GRID_POINTS + 1)
    norms = row_sum_norms(mild_ml(p, p.alpha, ts))
    fine = float(norms.max())
    coarse = float(norms[::2].max())
    gap = abs(fine - coarse) / fine if fine > 0 else 0.0
    return fine, gap


def init_term_sup_sq(p: ProblemSpec) -> float:
    """sup_t of |I + t^alpha E_{a+1}(t) B|^2 over [0, T] (scalar bound)."""
    ts = np.linspace(0.0, p.horizon, 2 * SUP_GRID_POINTS + 1)
    norms = row_sum_norms(mild_init_term(p, ts, mild_ml(p, p.alpha + 1.0, ts)))
    return float(norms.max()) ** 2


@dataclass(frozen=True)
class LemmaCheck:
    lhs: float
    rhs: float
    holds: bool


def convolution_bound_check(alpha: float, omega: float, t: float, n_quad: int) -> LemmaCheck:
    """Numerical check of the convolution bound

        (w/Gamma(2a-1)) int_0^t (t-r)^(2a-2) E_{2a-1}(w r^(2a-1)) dr
            <= E_{2a-1}(w t^(2a-1)).

    Both sides are evaluated in log space because E can exceed float64 range;
    the returned lhs/rhs floats may be inf in that regime but ``holds`` is
    decided on the logs. The quadrature holds the integrand at left endpoints
    (an underestimate, since it is increasing) and integrates the singular
    kernel exactly per cell.
    """
    if not 0.5 < alpha < 1.0:
        raise DomainError(f"alpha must be in (1/2, 1), got {alpha!r}")
    if not omega > 0:
        raise DomainError(f"omega must be positive, got {omega!r}")
    if not t > 0:
        raise DomainError(f"t must be positive, got {t!r}")
    n_quad = int(n_quad)
    if n_quad < 1:
        raise ValidationError("n_quad must be >= 1")
    order = 2.0 * alpha - 1.0
    r = np.linspace(0.0, t, n_quad + 1)
    # the exact cell kernel integrals are Gamma(order) w[n_quad - j]: 1/Gamma cancels
    cells = rl_weights(order, t / n_quad, n_quad)[:0:-1]
    log_e = ml_scalar_log(order, omega * r[:-1] ** order)
    with np.errstate(divide="ignore"):
        log_terms = np.log(cells) + log_e
    log_lhs = math.log(omega) + float(np.logaddexp.reduce(log_terms))
    log_rhs = float(ml_scalar_log(order, omega * t ** order))
    holds = log_lhs <= log_rhs + math.log1p(1e-6)
    with np.errstate(over="ignore"):
        return LemmaCheck(lhs=float(np.exp(log_lhs)), rhs=float(np.exp(log_rhs)),
                          holds=bool(holds))


@dataclass
class ContractionReport:
    """Observed Picard contraction data plus the analytic constants.

    ``log_weighted_diffs`` holds log |Y_{k+1} - Y_k|_w^2 per iterate (-inf for
    an exact fixed point); the ratios are formed from the logs so they stay
    meaningful when the norms themselves underflow. ``n_dropped`` is the most
    paths that one of those norms left out (flagged in either iterate).
    """

    m_sup: float
    omega_min: float
    omega_used: float
    zeta: float
    c_const: float
    iterate_ratios: list[float] = field(default_factory=list)
    log_weighted_diffs: list[float] = field(default_factory=list)
    immediate_convergence: bool = False
    n_dropped: int = 0


def contraction_report(p: ProblemSpec, init: InitialState, drv: BrownianDriver,
                       n_iter: int, n_paths: int, omega: float | None = None,
                       threads: int = 1) -> ContractionReport:
    """Run Picard iterates Y_{k+1} = T Y_k from the constant path Y_0 = eta
    and record successive weighted-norm ratios against the analytic constant.

    Row n of T Y reads only rows 0..n-1 of Y, so all n_iter iterates are
    stepped in one pass of the mild kernel, as n_iter stacked copies of one
    chunk: copy 0 reads Y_0 = eta (a broadcast view, never stored), copy k
    the row of copy k - 1 just computed. Each chunk draws its own
    increments one slab at a time, which every iterate's stochastic term
    reuses, and keeps |Y_{k+1} - Y_k|^2 per row, iterate and path
    (``_SqDistances``), so no iterate is stored: a chunk of CHUNK_PATHS //
    n_iter paths holds those and the kernel's pending rows, (dim n_iter +
    n_iter) doubles per path and step, and one slab of increments. The
    per-row sums of the chunks are added in chunk order, so the report does
    not depend on ``threads``.
    The values are those of ``log_weighted_norm`` over ``picard_apply``
    iterates from ``constant_ensemble`` to rounding: the iterates are the
    same sums in wider products, and the means sum per chunk. ``n_dropped``
    and the EnsembleError above FLAGGED_FRACTION_LIMIT (the first iterate
    checked first) are the same.
    """
    if n_iter < 3:
        raise ValidationError("n_iter must be >= 3")
    _check_two_paths(n_paths)
    m_sup, _ = ml_sup_norm(p)
    omega_min = omega_threshold(p, m_sup)
    omega_used = float(omega) if omega is not None else omega_min
    zeta = zeta_const(p, m_sup, omega_used)
    c_const = init_term_sup_sq(p)
    w = WeightedNormParams(omega=omega_used, alpha=p.alpha)

    tables = mild_kernel_tables(p, drv.n_steps)
    noise = _draw(p, drv, n_paths, init)
    grid = p.grid(drv.n_steps)
    totals = [0, 0]     # per-row sums and paths summed, in chunk order
    y0 = np.broadcast_to(init.eta[:, None], (grid.size, p.dim, n_paths))
    _run(p, tables, [init] * n_iter, n_paths, noise, lambda cols: _SqDistances(
        np.empty((grid.size, n_iter, len(range(n_paths)[cols]))), chain=True,
        origin=init.eta[:, None, None], totals=totals), threads, known=y0)
    sums, counts = totals
    log_denom = _log_weight_denominators(w, grid)  # same for every iterate
    log_diffs = [_log_sup(d2, log_denom) for d2 in (sums / counts).T]
    report = ContractionReport(m_sup=m_sup, omega_min=omega_min,
                               omega_used=omega_used, zeta=zeta, c_const=c_const,
                               log_weighted_diffs=log_diffs,
                               n_dropped=int(n_paths - counts.min()))
    if log_diffs[0] == -math.inf:
        report.immediate_convergence = True
        return report
    for prev, nxt in zip(log_diffs[:-1], log_diffs[1:]):
        if prev == -math.inf:
            break
        report.iterate_ratios.append(math.exp(nxt - prev))
    return report


@dataclass
class SeparationReport:
    """Time-resolved coupled distance and its fitted decay exponent.

    ``n_dropped`` of the ``n_paths`` coupled paths were flagged in either
    ensemble and left out of every statistic.
    """

    times: np.ndarray
    ms_distance: np.ndarray
    std_errors: np.ndarray
    scaling_exponent: float
    scaled: np.ndarray
    fitted_exponent: float
    fitted_ci: tuple[float, float]
    kappa_hat: float
    alpha: float
    consistent_with_lower_bound: bool
    lambda_gt_alpha: bool
    lambda_gt_alpha_over_1_minus_alpha: bool
    positive_3se_from_fit_start: bool
    n_paths: int
    n_dropped: int


def _fit_decay_exponent(times: np.ndarray, d2: np.ndarray) -> tuple[float, float]:
    """OLS fit of log d(t) = log kappa - p log t with d = sqrt(ms distance)."""
    d = np.sqrt(d2)
    slope, intercept = np.polyfit(np.log(times), np.log(d), 1)
    return float(-slope), float(math.exp(intercept))


def _bootstrap_exponents(times: np.ndarray, sq: np.ndarray,
                         rng: np.random.Generator, n_boot: int) -> np.ndarray:
    """Fitted exponents of n_boot path resamples of sq (n_valid, n_t).

    A resample's mean is its row counts times sq over n_valid, so the means
    of a batch of BOOTSTRAP_BATCH resamples (the last batch also takes the
    n_boot % BOOTSTRAP_BATCH left over) come from one (batch, n_valid) @
    (n_valid, n_t) product, and their exponents from one least-squares fit.
    Each batch starts at a multiple of BOOTSTRAP_BATCH rows, so where the
    batches and one whole product run the same BLAS kernel (at every
    shipped size), the exponents equal one product's and one fit's bit for
    bit.
    """
    n_valid = sq.shape[0]
    log_t = np.log(times)
    slopes = np.empty(n_boot)
    starts = range(0, max(n_boot - BOOTSTRAP_BATCH, 0) + 1, BOOTSTRAP_BATCH)
    for b0, b1 in zip(starts, [*starts[1:], n_boot]):
        counts = np.empty((b1 - b0, n_valid))
        for row in counts:
            row[:] = np.bincount(rng.integers(0, n_valid, n_valid),
                                 minlength=n_valid)
        means = counts @ sq
        means /= n_valid
        log_d = np.log(np.sqrt(means, out=means), out=means)
        slopes[b0:b1] = np.polyfit(log_t, log_d.T, 1)[0]
    return -slopes


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` of a 1-D array, 0 <= q <= 1, bit for bit:
    numpy's default ``linear`` rule on the sorted values, at v = (n - 1) q
    and interpolated as numpy's ``_lerp`` does. ``np.quantile`` itself
    calls ``np.unique``, whose first call imports ``numpy.ma``."""
    v = np.sort(values)
    n = v.size
    virtual = (n - 1) * q
    if math.isnan(v[-1]) or virtual >= n - 1:
        return float(v[-1])
    i = math.floor(virtual)
    t = virtual - i
    diff = v[i + 1] - v[i]
    return float(v[i + 1] - diff * (1 - t) if t >= 0.5 else v[i] + diff * t)


def separation_experiment(p: ProblemSpec, eta: InitialState, gamma: InitialState,
                          drv: BrownianDriver, scaling_exponent: float,
                          n_paths: int, scheme: str = "em",
                          threads: int = 1) -> SeparationReport:
    """Coupled two-initial-value run with a log-log decay-rate fit.

    The fit window starts at t = 1 to skip small-t transients; the confidence
    interval comes from a seeded path bootstrap. A fitted exponent p at or
    below alpha + 0.25 is recorded as consistent with the expected lower bound
    on the separation rate (distances should decay no faster than t^(-alpha)
    up to desk-scale slack; growth shows up as negative p).
    """
    if not scaling_exponent > 0:
        raise ValidationError("scaling exponent must be positive")
    if p.horizon < 4.0:
        raise ValidationError("separation experiment needs horizon >= 4 "
                              "for a meaningful fit window")
    if np.array_equal(eta.eta, gamma.eta):
        raise DegenerateExperimentError("eta == gamma yields zero separation")
    _check_two_paths(n_paths)

    times, sq = squared_norms(p, [eta, gamma], drv, n_paths, scheme=scheme,
                              threads=threads)
    d2, se = _mean_and_se(sq, times)
    if not np.any(d2 > 0):
        raise DegenerateExperimentError("coupled distance is identically zero")

    # the fit window is a suffix of the grid: every window below is a view
    window = slice(int(np.searchsorted(times, FIT_WINDOW_START)), None)
    t_win = times[window]
    if t_win.size < 2:
        raise ValidationError("fit window holds fewer than two grid points")
    p_hat, kappa_hat = _fit_decay_exponent(t_win, d2[window])

    rng = np.random.Generator(np.random.Philox(key=[drv.seed, 0xB007]))
    boot = _bootstrap_exponents(t_win, sq[window].T, rng, BOOTSTRAP_RESAMPLES)
    ci = (_quantile(boot, 0.025), _quantile(boot, 0.975))

    with np.errstate(invalid="ignore", over="ignore"):
        scaled = times ** scaling_exponent * np.sqrt(d2)
    positive = bool(np.all(d2[window] - 3.0 * se[window] > 0))
    return SeparationReport(
        times=times, ms_distance=d2, std_errors=se,
        scaling_exponent=scaling_exponent, scaled=scaled,
        fitted_exponent=p_hat, fitted_ci=ci, kappa_hat=kappa_hat,
        alpha=p.alpha,
        consistent_with_lower_bound=bool(p_hat <= p.alpha + FITTED_EXPONENT_SLACK),
        lambda_gt_alpha=bool(scaling_exponent > p.alpha),
        lambda_gt_alpha_over_1_minus_alpha=bool(
            scaling_exponent > p.alpha / (1.0 - p.alpha)),
        positive_3se_from_fit_start=positive,
        n_paths=n_paths, n_dropped=n_paths - sq.shape[1],
    )


@dataclass(frozen=True)
class ContinuityPoint:
    """One offset's sup-t distance, which left out ``n_dropped`` flagged paths."""

    offset: float
    sup_ms_distance: float
    ratio: float
    n_dropped: int


def continuity_experiment(p: ProblemSpec, eta: InitialState, offsets,
                          drv: BrownianDriver, n_paths: int, scheme: str = "em",
                          threads: int = 1) -> list[ContinuityPoint]:
    """sup-t mean-square distance per initial offset, against a shared base run.

    For each offset the perturbed initial value is the vector
    eta + offset * u along the unit diagonal u (eta's dim is checked before
    any is formed); the reported ratio sup_t d^2 / |eta - gamma|^2
    should stay bounded across offsets when the solution map is continuous in
    the initial data. The base and every shifted run are stepped in one
    pass, as stacked copies [eta, *gammas] of each chunk over the chunk's
    increments, drawn once, one slab at a time; the chunk keeps |X_k -
    X_0|^2 per row, offset and path (``_SqDistances``) and sums them over
    the paths valid in both copies once the kernel returns, so no path is
    stored. A chunk of CHUNK_PATHS // (offsets + 1) paths holds those, one
    slab of its increments and the stacked rows of one block, so while
    offsets + 1 <= CHUNK_PATHS the memory does not grow with the number of
    offsets. The per-row sums of the chunks are added in chunk order, so
    the points do not depend on ``threads``. They equal
    ``max(ms_distance_series(*coupled_pair(...))[0])`` per offset to
    rounding, and ``n_dropped`` (the paths flagged in either copy) is the
    same. ValidationError unless each offset's square, which
    the ratio divides by, is a finite normal float, and unless each sup
    mean-square distance and ratio is finite.
    """
    offsets = [float(o) for o in offsets]
    if not offsets or any(o <= 0 for o in offsets):
        raise ValidationError("offsets must be positive")
    if any(b >= a for a, b in zip(offsets[:-1], offsets[1:])):
        raise ValidationError("offsets must be strictly decreasing")
    for off in offsets:
        try:
            normal = sys.float_info.min <= off ** 2 < math.inf
        except OverflowError:
            normal = False
        if not normal:
            raise ValidationError(
                f"offset {off!r}: its square is not a finite normal float")
    _check_dims(p, eta)
    _check_two_paths(n_paths)

    u = np.ones(p.dim) / math.sqrt(p.dim)
    gammas = [InitialState(eta.eta + off * u) for off in offsets]
    tables = kernel_tables(p, drv.n_steps, scheme)
    noise = _draw(p, drv, n_paths, eta, *gammas)
    totals = [0, 0]     # per-row sums and paths summed, in chunk order
    _run(p, tables, [eta, *gammas], n_paths, noise, lambda cols: _SqDistances(
        np.empty((drv.n_steps + 1, len(offsets), len(range(n_paths)[cols]))),
        totals=totals), threads)
    sums, counts = totals
    # Python floats: a ratio that overflows is inf, with no numpy warning
    sup_d2s = (sums / counts).max(axis=0).tolist()
    for off, sup_d2 in zip(offsets, sup_d2s):
        # squared distances near the top of the float range overflow their
        # sum over paths
        if not math.isfinite(sup_d2 / off ** 2):
            raise ValidationError(
                f"offset {off!r}: the distance ratio overflows (sup mean-square "
                f"distance {sup_d2!r})")
    return [ContinuityPoint(offset=off, sup_ms_distance=sup_d2, ratio=sup_d2 / off ** 2,
                            n_dropped=int(n_paths - count))
            for off, sup_d2, count in zip(offsets, sup_d2s, counts)]
