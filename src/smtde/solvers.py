"""Problem definition, Brownian drivers, and path-ensemble solvers.

The model is a two-order Caputo stochastic system

    D^alpha X(t) - A D^beta X(t) - B X(t) = b(t, X(t)) + sigma(t, X(t)) dW/dt,
    X(0) = eta,

with 1/2 < alpha < 1 and 0 < beta < alpha, a scalar Brownian motion W, and
globally Lipschitz drift b and diffusion sigma. Two explicit schemes are
provided, both on uniform grids:

* ``simulate_em`` discretizes the equivalent second-kind Volterra equation

      X(t) = eta - A t^(alpha-beta)/Gamma(alpha-beta+1) eta
           + A/Gamma(alpha-beta) int (t-r)^(alpha-beta-1) X dr
           + B/Gamma(alpha)      int (t-r)^(alpha-1)      X dr
           + 1/Gamma(alpha)      int (t-r)^(alpha-1)      b  dr
           + 1/Gamma(alpha)      int (t-r)^(alpha-1)      sigma dW

  with exact-kernel product weights for the memory and drift terms and a
  left-point kernel value inside the Ito sum.

* ``simulate_mild`` discretizes the variation-of-constants (mild) form

      X(t) = (I + t^alpha E_{a+1}(t) B) eta
           + int (t-r)^(alpha-1) E_a(t-r) b(r, X(r)) dr
           + int (t-r)^(alpha-1) E_a(t-r) sigma(r, X(r)) dW(r)

  where E_d is the bivariate matrix Mittag-Leffler kernel with exponents
  (alpha-beta, alpha) and offset d. Drift cells are integrated exactly via
  F(s) = s^alpha E_{a+1}(s), whose lag differences are the exact cell
  integrals of the kernel; the diffusion term keeps the non-anticipating
  left-point kernel value.

Both schemes share one stepping core. Each scheme's kernel tables hold one
lag table in the narrowest form it uses (scalar weights for ``em``, no
X-memory block for ``mild``), so with A = B = 0 the two schemes sum the same
terms in different groupings and agree to rounding, not bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EnsembleError, ValidationError
from .linalg import as_matrix
from .mlmatrix import MLParams, QTable, ml_nonperm_grid
from .specfun import reciprocal_gamma

# Paths are simulated in fixed-size chunks regardless of thread count so that
# results are independent of the parallel partition.
CHUNK_PATHS = 2048
# Output steps per far-field GEMM in the stepping core; a block re-reads the
# path history once instead of once per step.
HISTORY_BLOCK = 32
FLAGGED_FRACTION_LIMIT = 0.10


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients, nonlinearity, and horizon of one problem instance.

    ``drift`` and ``diffusion`` map (t, x) -> vector and must broadcast over
    trailing axes of x (x arrives with shape (dim,) or (dim, n_paths)).
    ``lip_b`` and ``lip_sigma`` are caller-asserted Lipschitz constants.
    """

    alpha: float
    beta: float
    a_mat: np.ndarray
    b_mat: np.ndarray
    drift: Callable
    diffusion: Callable
    lip_b: float
    lip_sigma: float
    horizon: float
    dim: int

    def __post_init__(self):
        if not 0.5 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (1/2, 1), got {self.alpha!r}")
        if not 0.0 < self.beta:
            raise ValidationError(f"beta must be positive, got {self.beta!r}")
        if not self.beta < self.alpha:
            raise ValidationError("beta must be < alpha")
        a = as_matrix(self.a_mat)
        b = as_matrix(self.b_mat)
        if a.shape != (self.dim, self.dim) or b.shape != (self.dim, self.dim):
            raise ValidationError(
                f"coefficient matrices must be {self.dim}x{self.dim}")
        if self.lip_b < 0 or self.lip_sigma < 0:
            raise ValidationError("Lipschitz constants must be nonnegative")
        if not self.horizon > 0:
            raise ValidationError(f"horizon must be positive, got {self.horizon!r}")
        object.__setattr__(self, "a_mat", a.copy())
        object.__setattr__(self, "b_mat", b.copy())


class InitialState:
    """Deterministic vector or independent-Gaussian initial condition."""

    def __init__(self, eta=None, mean=None, std=None):
        if (eta is None) == (mean is None):
            raise ValidationError("specify exactly one of eta (deterministic) or mean/std")
        if eta is not None:
            vec = np.asarray(eta, dtype=float)
            if vec.ndim != 1 or not np.all(np.isfinite(vec)):
                raise ValidationError("eta must be a finite vector")
            self.eta = vec.copy()
            self.mean = None
            self.std = None
        else:
            mvec = np.asarray(mean, dtype=float)
            svec = np.broadcast_to(np.asarray(std, dtype=float), mvec.shape).copy()
            if mvec.ndim != 1 or not np.all(np.isfinite(mvec)):
                raise ValidationError("mean must be a finite vector")
            if not np.all(np.isfinite(svec)) or np.any(svec < 0):
                raise ValidationError("std must be finite and nonnegative")
            self.eta = None
            self.mean = mvec
            self.std = svec

    @classmethod
    def deterministic(cls, eta) -> "InitialState":
        return cls(eta=eta)

    @classmethod
    def gaussian(cls, mean, std) -> "InitialState":
        return cls(mean=mean, std=std)

    @property
    def is_deterministic(self) -> bool:
        return self.eta is not None

    @property
    def dim(self) -> int:
        return self.eta.size if self.eta is not None else self.mean.size

    def sample_block(self, driver: "BrownianDriver", path_ids) -> np.ndarray:
        """Initial values for the given paths, shape (dim, n_paths)."""
        n = len(path_ids)
        if self.is_deterministic:
            return np.repeat(self.eta[:, None], n, axis=1)
        z = driver.initial_normals(path_ids, self.dim)  # (n, dim)
        return (self.mean[None, :] + self.std[None, :] * z).T


class BrownianDriver:
    """Deterministic per-path scalar Brownian increment source.

    Each path owns a counter-based RNG stream keyed by (seed, path_id), so
    increments are a pure function of (seed, path_id, step) and do not depend
    on ensemble size or on how paths are partitioned into chunks. Initial-value
    draws come from a disjoint counter region of the same stream.
    """

    def __init__(self, seed: int, n_steps: int):
        seed = int(seed)
        n_steps = int(n_steps)
        if seed < 0 or seed >= 2 ** 63:
            raise ValidationError(f"seed must be in [0, 2^63), got {seed!r}")
        if n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {n_steps!r}")
        self.seed = seed
        self.n_steps = n_steps

    def _generator(self, path_id: int, init_region: bool = False) -> np.random.Generator:
        bitgen = np.random.Philox(key=[self.seed, int(path_id)])
        if init_region:
            bitgen.advance(2 ** 96)
        return np.random.Generator(bitgen)

    def standard_normals(self, path_id: int) -> np.ndarray:
        return self._generator(path_id).standard_normal(self.n_steps)

    def increments_block(self, path_ids, h: float) -> np.ndarray:
        """Brownian increments dW ~ N(0, h) of shape (n_paths, n_steps)."""
        out = np.empty((len(path_ids), self.n_steps))
        for i, pid in enumerate(path_ids):
            out[i] = self.standard_normals(pid)
        out *= math.sqrt(h)
        return out

    def initial_normals(self, path_ids, count: int) -> np.ndarray:
        out = np.empty((len(path_ids), count))
        for i, pid in enumerate(path_ids):
            out[i] = self._generator(pid, init_region=True).standard_normal(count)
        return out


@dataclass
class PathEnsemble:
    """Sample paths on a uniform grid plus the increments that drove them.

    ``paths`` has shape (n_paths, n_steps + 1, dim); ``flags`` marks paths
    that blew up (non-finite values anywhere along the trajectory).
    """

    grid: np.ndarray
    paths: np.ndarray
    increments: np.ndarray
    flags: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.paths.shape[2]

    @property
    def valid_mask(self) -> np.ndarray:
        return ~self.flags


@dataclass(frozen=True)
class KernelTables:
    """Lag-indexed kernel tables consumed by the shared stepping core.

    The core records, for every history time t_j, ``n_chan`` channels of
    shape (dim, n_paths): ``x_map @ x_j`` split into its ``dim``-row blocks,
    the drift added to the last of them, then sigma dW_j. Without ``x_map``
    the channels are just [b; sigma dW]. Lag 0 is never used (explicit
    scheme) and is zero.

    * ``init_mats[n]`` multiplies eta in the step-n initial term.
    * ``weights[k]`` (r, n_chan * r) holds the lag-k weights in the narrowest
      form the scheme allows: r = 1 when every channel's weight is a scalar
      times I, r = dim otherwise.
    """

    init_mats: np.ndarray         # (n_steps+1, dim, dim)
    weights: np.ndarray           # (n_steps+1, r, n_chan*r)
    x_map: np.ndarray | None      # ((n_chan-1)*dim, dim) or None


def _difference_weights(cumulative: np.ndarray) -> np.ndarray:
    w = np.zeros_like(cumulative)
    w[1:] = cumulative[1:] - cumulative[:-1]
    return w


def em_kernel_tables(p: ProblemSpec, n_steps: int) -> KernelTables:
    """Exact-kernel product weights for the Volterra-form scheme.

    Every lag kernel is a scalar sequence times a fixed matrix, so the
    channels are [A x; B x + b; sigma dW] with scalar weights
    (w_ab, w_a, ks): the far field multiplies no matrix per lag.
    """
    h = p.horizon / n_steps
    s = h * np.arange(n_steps + 1)

    f_ab = s ** (p.alpha - p.beta) * reciprocal_gamma(p.alpha - p.beta + 1.0)
    f_a = s ** p.alpha * reciprocal_gamma(p.alpha + 1.0)
    weights = np.zeros((n_steps + 1, 1, 3))
    weights[:, 0, 0] = _difference_weights(f_ab)
    weights[:, 0, 1] = _difference_weights(f_a)
    weights[1:, 0, 2] = s[1:] ** (p.alpha - 1.0) * reciprocal_gamma(p.alpha)

    init_mats = np.eye(p.dim) - f_ab[:, None, None] * p.a_mat
    return KernelTables(init_mats=init_mats, weights=weights,
                        x_map=np.concatenate([p.a_mat, p.b_mat]))


def mild_kernel_tables(p: ProblemSpec, n_steps: int) -> KernelTables:
    """Matrix Mittag-Leffler kernel tables for the mild-form scheme.

    The mild form has no X-memory term: the channels are [b; sigma dW],
    weighted by dense (dim, dim) blocks.
    """
    h = p.horizon / n_steps
    s = h * np.arange(n_steps + 1)

    q = QTable(p.a_mat, p.b_mat)
    kern = MLParams(rho=p.alpha - p.beta, sigma_exp=p.alpha, delta=p.alpha)
    kern_int = MLParams(rho=p.alpha - p.beta, sigma_exp=p.alpha, delta=p.alpha + 1.0)
    e_a, _ = ml_nonperm_grid(q, kern, s)      # (n+1, nd, nd)
    e_a1, _ = ml_nonperm_grid(q, kern_int, s)

    f_ml = s[:, None, None] ** p.alpha * e_a1               # exact cell cumulative
    kb = _difference_weights(f_ml)
    ks = np.zeros_like(kb)
    ks[1:] = (s[1:] ** (p.alpha - 1.0))[:, None, None] * e_a[1:]

    init_mats = np.eye(p.dim) + s[:, None, None] ** p.alpha * (e_a1 @ p.b_mat)
    return KernelTables(init_mats=init_mats,
                        weights=np.concatenate([kb, ks], axis=2), x_map=None)


def _step_paths(tables: KernelTables, p: ProblemSpec, times: np.ndarray,
                x0: np.ndarray, dw: np.ndarray,
                known: np.ndarray | None = None) -> np.ndarray:
    """Explicit time-blocked stepping for one chunk of paths.

    x0 has shape (dim, n_paths); dw has shape (n_paths, n_steps). Returns
    paths of shape (n_steps + 1, dim, n_paths). Step n sums weights[n - j]
    against the history channels of every t_j, j < n, in blocks of
    HISTORY_BLOCK output steps: at a block start one GEMM applies the
    far-field slab (the lags to all history already known); inside the block
    each step adds only its in-block (near-field) lags. This regroups the
    direct sum, exact up to rounding. The near field uses dense (dim, cn)
    blocks even where the weights are scalars: a one-row product runs as
    gemv, whose bits depend on the number of paths. With ``known`` (shape
    (n_steps + 1, dim, n_paths)) the history comes from those paths, not the
    output: the operator without feedback.
    """
    nd = p.dim
    _, r, cf = tables.weights.shape     # lag blocks (r, cf), cf = n_chan * r
    n_chan = cf // r
    cn = n_chan * nd
    n_steps = times.size - 1
    n_chunk = x0.shape[1]
    x = np.empty((n_steps + 1, nd, n_chunk))
    x[0] = x0
    src = x if known is None else known
    # one history, read as (steps*cf, dim*paths/r) by the far field and as
    # (steps*cn, paths) by the near field
    hist = np.empty((n_steps, n_chan, nd, n_chunk))
    far_hist = hist.reshape(n_steps * cf, -1)
    near_hist = hist.reshape(n_steps * cn, n_chunk)
    near = tables.weights[:HISTORY_BLOCK]
    if r == 1:
        near = np.kron(near, np.eye(nd))
    # lags HISTORY_BLOCK-1 .. 1 side by side: step k of a block reads the
    # last k blocks of columns
    near_row = np.concatenate(near[:0:-1], axis=1)

    def record(j: int) -> None:
        xj = src[j]
        if tables.x_map is None:
            hist[j, 0] = p.drift(times[j], xj)
        else:
            hist[j, :-1] = (tables.x_map @ xj).reshape(n_chan - 1, nd, n_chunk)
            hist[j, -2] += p.drift(times[j], xj)
        hist[j, -1] = p.diffusion(times[j], xj) * dw[:, j]

    with np.errstate(over="ignore", invalid="ignore"):
        record(0)
        for n0 in range(1, n_steps + 1, HISTORY_BLOCK):
            n1 = min(n0 + HISTORY_BLOCK, n_steps + 1)
            lags = np.arange(n0, n1)[:, None] - np.arange(n0)
            slab = np.take(tables.weights, lags, axis=0).transpose(0, 2, 1, 3)
            acc = (slab.reshape((n1 - n0) * r, n0 * cf)
                   @ far_hist[:n0 * cf]).reshape(n1 - n0, nd, n_chunk)
            acc += tables.init_mats[n0:n1] @ x0
            for k, n in enumerate(range(n0, n1)):
                if k:
                    acc[k] += near_row[:, -k * cn:] @ near_hist[n0 * cn:n * cn]
                x[n] = acc[k]
                if n < n_steps:
                    record(n)
    return x


def _draw(p: ProblemSpec, drv: BrownianDriver, n_paths: int,
          *inits: InitialState) -> tuple[np.ndarray, ...]:
    """The noise of one experiment, drawn once for all of its ensembles.

    Returns the grid, the increments of paths 0..n_paths-1 (shape
    (n_paths, n_steps)) and then, per initial state, their initial values
    (shape (dim, n_paths)).
    """
    for init in inits:
        if init.dim != p.dim:
            raise ValidationError(
                f"initial state dim {init.dim} != problem dim {p.dim}")
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    h = p.horizon / drv.n_steps
    ids = range(n_paths)
    return (h * np.arange(drv.n_steps + 1), drv.increments_block(ids, h),
            *(init.sample_block(drv, ids) for init in inits))


def _run_ensemble(p: ProblemSpec, tables: KernelTables, grid: np.ndarray,
                  x0: np.ndarray, dw: np.ndarray, threads: int = 1,
                  known: np.ndarray | None = None) -> PathEnsemble:
    """Step the initial values x0 (dim, n_paths) over the increments dw.

    Paths are stepped in fixed chunks of CHUNK_PATHS, so the result does not
    depend on ``threads``. With ``known`` (an ensemble's paths) the history
    comes from those paths: the operator without feedback. The returned
    ensemble holds dw itself, not a copy.
    """
    n_paths = dw.shape[0]
    paths = np.empty((n_paths, grid.size, p.dim))

    def worker(lo: int) -> None:
        hi = min(lo + CHUNK_PATHS, n_paths)
        hist = None if known is None else \
            np.ascontiguousarray(known[lo:hi].transpose(1, 2, 0))
        x = _step_paths(tables, p, grid, np.ascontiguousarray(x0[:, lo:hi]),
                        dw[lo:hi], known=hist)
        paths[lo:hi] = x.transpose(2, 0, 1)

    starts = range(0, n_paths, CHUNK_PATHS)
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(worker, starts))
    else:
        list(map(worker, starts))
    flags = ~np.isfinite(paths).all(axis=(1, 2))
    frac = float(flags.mean()) if flags.size else 0.0
    if frac > FLAGGED_FRACTION_LIMIT:
        raise EnsembleError(
            f"{frac:.1%} of paths blew up (limit {FLAGGED_FRACTION_LIMIT:.0%})")
    return PathEnsemble(grid=grid, paths=paths, increments=dw, flags=flags)


# Scheme name -> kernel table builder, looked up at call time so that a
# wrapper bound over the module attribute (perfbench's tracer) sees the call.
_TABLE_BUILDERS = {
    "em": lambda p, n_steps: em_kernel_tables(p, n_steps),
    "mild": lambda p, n_steps: mild_kernel_tables(p, n_steps),
}
# Scheme names accepted by ``kernel_tables`` (and by the CLI config check).
_SCHEMES = tuple(_TABLE_BUILDERS)


def kernel_tables(p: ProblemSpec, n_steps: int, scheme: str) -> KernelTables:
    """Kernel tables of the named scheme: ``em`` (Volterra form) or ``mild``."""
    if scheme not in _SCHEMES:
        raise ValidationError(f"unknown scheme '{scheme}' (choices: {list(_SCHEMES)})")
    return _TABLE_BUILDERS[scheme](p, n_steps)


def _ensembles(p: ProblemSpec, drv: BrownianDriver, n_paths: int, inits,
               scheme: str, threads: int):
    """One ensemble per initial state in ``inits``, all over one increments
    array. Tables and noise are made at the call, so bad input raises there;
    each ensemble is stepped only when the returned iterator reaches it."""
    tables = kernel_tables(p, drv.n_steps, scheme)
    grid, dw, *x0s = _draw(p, drv, n_paths, *inits)
    return (_run_ensemble(p, tables, grid, x0, dw, threads) for x0 in x0s)


def simulate(p: ProblemSpec, init: InitialState, drv: BrownianDriver,
             n_paths: int, scheme: str = "em", threads: int = 1) -> PathEnsemble:
    """Path ensemble of the named scheme (see ``kernel_tables``)."""
    return next(_ensembles(p, drv, n_paths, [init], scheme, threads))


def simulate_em(p: ProblemSpec, init: InitialState, drv: BrownianDriver,
                n_paths: int, threads: int = 1) -> PathEnsemble:
    """Explicit Euler-Maruyama scheme on the Volterra integral form."""
    return simulate(p, init, drv, n_paths, "em", threads=threads)


def simulate_mild(p: ProblemSpec, init: InitialState, drv: BrownianDriver,
                  n_paths: int, threads: int = 1) -> PathEnsemble:
    """Explicit scheme on the mild (matrix Mittag-Leffler kernel) form."""
    return simulate(p, init, drv, n_paths, "mild", threads=threads)


def constant_ensemble(p: ProblemSpec, init: InitialState, drv: BrownianDriver,
                      n_paths: int) -> PathEnsemble:
    """Paths frozen at the initial value, with driver increments attached.

    Serves as the Y_0 iterate for Picard iteration: the increments are drawn
    once here, and every iterate's stochastic term reuses them.
    """
    grid, dw, x0 = _draw(p, drv, n_paths, init)
    # nothing is stepped, and InitialState data are finite: no path is flagged
    return PathEnsemble(
        grid=grid, paths=np.repeat(x0.T[:, None, :], grid.size, axis=1),
        increments=dw, flags=np.zeros(n_paths, dtype=bool))


def picard_apply(p: ProblemSpec, init: InitialState, y: PathEnsemble,
                 threads: int = 1,
                 tables: KernelTables | None = None) -> PathEnsemble:
    """One application of the mild-form integral operator to the ensemble y.

    The operator maps Y to

        (I + t^alpha E_{a+1}(t) B) eta
        + int (t-r)^(alpha-1) E_a(t-r) b(r, Y(r)) dr
        + int (t-r)^(alpha-1) E_a(t-r) sigma(r, Y(r)) dW(r)

    evaluated with the same product quadrature as ``simulate_mild``; the
    stochastic term reuses y's stored increments, and eta is taken from y's
    stored initial values (which must be consistent with ``init``).
    """
    if y.dim != p.dim:
        raise ValidationError(f"ensemble dim {y.dim} != problem dim {p.dim}")
    if init.dim != p.dim:
        raise ValidationError(f"initial state dim {init.dim} != problem dim {p.dim}")
    n_steps = y.n_steps
    h = p.horizon / n_steps
    grid = h * np.arange(n_steps + 1)
    if not np.allclose(y.grid, grid, rtol=0, atol=1e-12 * max(1.0, p.horizon)):
        raise ValidationError("ensemble grid does not match the problem horizon")
    if y.increments.shape != (y.n_paths, n_steps):
        raise ValidationError("ensemble increments do not match its grid")
    if init.is_deterministic:
        if not np.allclose(y.paths[:, 0, :], init.eta[None, :], rtol=0, atol=0):
            raise ValidationError("ensemble initial values differ from init")
    if tables is None:
        tables = mild_kernel_tables(p, n_steps)
    return _run_ensemble(p, tables, y.grid.copy(), y.paths[:, 0, :].T,
                         y.increments, threads, known=y.paths)


def coupled_pair(p: ProblemSpec, eta: InitialState, gamma: InitialState,
                 drv: BrownianDriver, n_paths: int, scheme: str = "em",
                 threads: int = 1) -> tuple[PathEnsemble, PathEnsemble]:
    """Two ensembles from distinct initial data driven by identical noise.

    Synchronous coupling: the increments are drawn once and both ensembles
    step over (and hold) the same array, so the per-path difference isolates
    the initial-condition effect. The default scheme is the Volterra-form
    integrator, which has no series cutoff limiting the horizon.
    """
    return tuple(_ensembles(p, drv, n_paths, (eta, gamma), scheme, threads))
