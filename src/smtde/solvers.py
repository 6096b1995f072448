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

Both schemes share one stepping core, the feedback recurrence
``_step_paths``. Each scheme's kernel tables hold one lag table in the
narrowest form it uses (scalar weights for ``em``, no X-memory block for
``mild``), so with A = B = 0 the two schemes sum the same terms in
different groupings and agree to rounding, not bit for bit.

The core sums each step's lags in three fields: the lags inside the current
block of HISTORY_BLOCK steps (near field), the history before the block
that the window still holds (an exact slab, one product per block of
history rows), and all older history, which enters through a sum of
exponentials carried by the tables. The ``em`` power-law kernels have one
(a few dozen shared rates, checked against the exact weights at every far
lag), so its stepping costs O(N (K + B)) for N steps, K rates and block
length B, and it keeps only the 2B history rows it still reads. The
``mild`` tables carry no exponentials, and the slab then covers all of the
history exactly, as an O(N^2) sum over a history kept whole.

The Picard operator ``picard_apply`` has no feedback: its history is a
given ensemble. Its kernel, ``_apply_known``, takes the history one block
of rows at a time and adds each block's contribution to every later block
of output rows, one product each, with exact weights at every lag. A chunk
holds its output and one block of history, not N rows. It forms the same
products as the core and adds them in the same order, so it maps a
``simulate_mild`` ensemble to itself bit for bit.

Paths are stored time first and paths last, (n_steps + 1, dim, n_paths),
the layout the core computes in. Every ensemble is stepped by one chunk
loop, ``_run``, from its initial states and a noise source alone: a chunk
stacks the same paths from each eta (one copy for ``simulate``, two for a
coupled pair) over one copy of their increments, on the grid
``p.grid(n_steps)`` of the increments' row count, and the kernel writes
the rows as (rows, dim, copies, c) and reports which paths stayed finite.
The stored routes (``simulate``, ``coupled_pair``, ``picard_apply``) keep
every row and the increments; ``squared_norms`` keeps only |X|^2 of one
copy or |X - Y|^2 of two (both routes form them with ``_sum_sq``) and
draws each chunk's increments in the chunk's worker, so the two routes
agree bit for bit.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EnsembleError, NonConvergenceError, ValidationError
from .linalg import as_matrix
from .mlmatrix import MLParams, QTable, ml_nonperm_grid
from .specfun import reciprocal_gamma, rl_weights

# Paths are simulated in fixed-size chunks regardless of thread count so that
# results are independent of the parallel partition. A chunk's width sets
# how much history, how many exponential states and, on the reduced route,
# how many increments are held at once.
CHUNK_PATHS = 1024
# Output steps per block of the stepping core: a block reads its older
# history with one product instead of once per step.
HISTORY_BLOCK = 32
# Sum-of-exponentials far field of the em kernels (``_em_far_exponentials``):
# Gauss-Legendre nodes per log-rate panel (panels of width 2 in ln x),
# Gauss-Jacobi nodes per power x^-q on the smallest rates, and the relative
# error every far lag weight is checked against when the tables are built.
SOE_PANEL_NODES = 14
SOE_JACOBI_NODES = 8
SOE_TOL = 1e-13
FLAGGED_FRACTION_LIMIT = 0.10


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Coefficients, nonlinearity, and horizon of one problem instance.

    ``drift`` and ``diffusion`` map (t, x) -> vector and must broadcast over
    trailing axes of x (x arrives with shape (dim,) or (dim, n_paths)).
    ``lip_b`` and ``lip_sigma`` are caller-asserted Lipschitz constants.
    ``a_mat`` and ``b_mat`` are stored as read-only copies; ``q_table`` is the
    one (lazily filled) table of their Q coefficients for every series call.
    A problem compares and hashes by identity, so it can key a dict.
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
    q_table: QTable = field(init=False, repr=False)

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
        for name, mat in (("a_mat", a.copy()), ("b_mat", b.copy())):
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)
        object.__setattr__(self, "q_table", QTable(self.a_mat, self.b_mat))

    def grid(self, n_steps: int) -> np.ndarray:
        """The uniform grid t_n = (horizon / n_steps) n, n = 0..n_steps."""
        return self.horizon / n_steps * np.arange(n_steps + 1)


class InitialState:
    """The initial value eta of every path of an ensemble: one finite vector."""

    def __init__(self, eta):
        vec = np.asarray(eta, dtype=float)
        if vec.ndim != 1 or not np.all(np.isfinite(vec)):
            raise ValidationError("eta must be a finite vector")
        self.eta = vec.copy()

    @property
    def dim(self) -> int:
        return self.eta.size


class BrownianDriver:
    """Deterministic per-path scalar Brownian increment source.

    Each path owns a counter-based RNG stream keyed by (seed, path_id), so
    increments are a pure function of (seed, path_id, step) and do not depend
    on ensemble size or on how paths are partitioned into chunks.
    ``initial_normals`` draws from a disjoint counter region of the same
    stream, 2^96 draws in. Each thread holds one Philox generator and re-keys
    it per path: the draws equal those of a fresh
    ``Generator(Philox(key=[seed, path_id]))`` bit for bit, without seeding a
    new generator per path.
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
        self._local = threading.local()

    def _generator(self, path_id: int, init_region: bool = False) -> np.random.Generator:
        local = self._local
        if not hasattr(local, "state"):
            local.generator = np.random.Generator(np.random.Philox(0))
            # the state of a fresh Philox(key=[seed, path_id]): zero counter,
            # empty buffer; only the key's second word changes per path
            local.state = {
                "bit_generator": "Philox",
                "state": {"counter": np.zeros(4, np.uint64),
                          "key": np.array([self.seed, 0], np.uint64)},
                "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0}
        local.state["state"]["key"][1] = path_id
        bitgen = local.generator.bit_generator
        bitgen.state = local.state
        if init_region:
            bitgen.advance(2 ** 96)
        return local.generator

    def standard_normals(self, path_id: int) -> np.ndarray:
        return self._generator(path_id).standard_normal(self.n_steps)

    def increments_block(self, path_ids, h: float) -> np.ndarray:
        """Brownian increments dW ~ N(0, h) of shape (n_steps, n_paths)."""
        out = np.empty((self.n_steps, len(path_ids)))
        for i, pid in enumerate(path_ids):
            out[:, i] = self.standard_normals(pid)
        out *= math.sqrt(h)
        return out

    def initial_normals(self, path_ids, count: int) -> np.ndarray:
        """Standard normals of shape (count, n_paths)."""
        out = np.empty((count, len(path_ids)))
        for i, pid in enumerate(path_ids):
            out[:, i] = self._generator(pid, init_region=True).standard_normal(count)
        return out


@dataclass
class PathEnsemble:
    """Sample paths on a uniform grid plus the increments that drove them.

    Time comes first and paths last, the layout the stepping core writes:
    ``paths`` has shape (n_steps + 1, dim, n_paths) and ``increments`` shape
    (n_steps, n_paths). ``flags`` (n_paths,) marks paths that blew up
    (non-finite values anywhere along the trajectory).
    """

    grid: np.ndarray
    paths: np.ndarray
    increments: np.ndarray
    flags: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.paths.shape[2]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.paths.shape[1]


@dataclass(frozen=True)
class KernelTables:
    """Lag-indexed kernel tables consumed by the stepping core and the
    no-feedback kernel.

    Both record, for every history time t_j, ``n_chan`` channels of
    shape (dim, n_paths): ``x_map @ x_j`` split into its ``dim``-row blocks,
    the drift added to the last of them, then sigma dW_j. Without ``x_map``
    the channels are just [b; sigma dW]. Lag 0 is never used (explicit
    scheme) and is zero.

    * ``init_mats[n]`` multiplies eta in the step-n initial term.
    * ``weights[k]`` (r, n_chan * r) holds the lag-k weights in the narrowest
      form the scheme allows: r = 1 when every channel's weight is a scalar
      times I, r = dim otherwise.
    * From lag ``far_lag`` on, the feedback core reads the weights as the
      sum of exponentials ``sum_l exp(-rates[l] k) far_weights[l]`` (the
      no-feedback kernel reads ``weights`` at every lag). Building the
      tables checks that sum against ``weights`` at every such lag and raises
      ``NonConvergenceError`` beyond SOE_TOL relative. Tables without
      exponentials set ``far_lag`` past the grid: every lag stays exact.
    """

    init_mats: np.ndarray         # (n_steps+1, dim, dim)
    weights: np.ndarray           # (n_steps+1, r, n_chan*r)
    x_map: np.ndarray | None      # ((n_chan-1)*dim, dim) or None
    rates: np.ndarray             # (K,) decay per step
    far_weights: np.ndarray       # (K, r, n_chan*r)
    far_lag: int

    def __post_init__(self):
        lags = np.arange(self.far_lag, self.weights.shape[0])
        size = self.weights[0].size
        exact = self.weights[self.far_lag:].reshape(lags.size, size)
        approx = np.exp(-np.outer(lags, self.rates)) @ \
            self.far_weights.reshape(self.rates.size, size)
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.abs(approx - exact) / np.abs(exact)
        bad = ~(err <= SOE_TOL)
        if bad.any():
            i, c = np.argwhere(bad)[0]
            raise NonConvergenceError(
                f"sum-of-exponentials far field: lag {lags[i]} weight {c} is "
                f"off by {err[i, c]:.1e} relative (tolerance {SOE_TOL:.0e})")


def _gauss_jacobi(q: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for int_0^1 x^-q f(x) dx,
    0 < q < 1 (Golub-Welsch on the Jacobi recurrence of (1+t)^-q on [-1, 1])."""
    b = -q
    k = np.arange(n, dtype=float)
    s = 2.0 * k + b
    diag = b * b / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * k * (k + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    t, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return (t + 1.0) / 2.0, vecs[0] ** 2 / (1.0 - q)


def _em_far_exponentials(p: ProblemSpec, h: float,
                         n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Rates (K,) and weights (K, 1, 3) of the exponentials that carry the em
    lag weights (w_ab, w_a, k_s) beyond lag HISTORY_BLOCK.

    From m^-q = Gamma(q)^-1 int_0^inf x^(q-1) e^(-x m) dx,

        k_s(m) = h^(a-1) / (Gamma(a) Gamma(1-a)) int x^-a e^(-x m) dx,
        w_q(m) = h^q / (Gamma(q) Gamma(1-q)) int x^-q (e^x - 1)/x e^(-x m) dx

    for q = a - b (w_ab) and q = a (w_a). One set of rates x serves all three
    (Jiang, Zhang, Zhang & Zhang, CiCP 21, 2017): on [0, 1/N], one
    Gauss-Jacobi rule per power x^-q, weighted for the channels with that
    power only; above it, Gauss-Legendre panels in ln x up to
    40 / (HISTORY_BLOCK + 1), past which e^(-x m) < e^-40 at every far lag.
    """
    a, ab = p.alpha, p.alpha - p.beta
    lo, hi = -math.log(n_steps), math.log(40.0 / (HISTORY_BLOCK + 1))
    n_pan = math.ceil((hi - lo) / 2.0)
    t, g = np.polynomial.legendre.leggauss(SOE_PANEL_NODES)
    half = (hi - lo) / (2 * n_pan)
    x = np.exp(lo + half * (2 * np.arange(n_pan)[:, None] + 1 + t)).ravel()
    rates = [x]
    # quadrature weight times x^-q, per channel
    gx = np.tile(half * g, n_pan) * x
    dens = [gx[:, None] * x[:, None] ** -np.array([ab, a, a])]
    for q, channels in ((ab, [1.0, 0.0, 0.0]), (a, [0.0, 1.0, 1.0])):
        y, w = _gauss_jacobi(q, SOE_JACOBI_NODES)
        rates.append(y / n_steps)
        dens.append(np.outer(w * float(n_steps) ** (q - 1.0), channels))
    rates = np.concatenate(rates)
    dens = np.concatenate(dens)
    dens[:, :2] *= (np.expm1(rates) / rates)[:, None]
    # 1 / (Gamma(q) Gamma(1-q)) = sin(pi q) / pi
    dens *= [h ** q * math.sin(math.pi * q) / math.pi for q in (ab, a)] + \
        [h ** (a - 1.0) * math.sin(math.pi * a) / math.pi]
    return rates, dens[:, None, :]


def em_kernel_tables(p: ProblemSpec, n_steps: int) -> KernelTables:
    """Exact-kernel product weights for the Volterra-form scheme.

    Every lag kernel is a scalar sequence times a fixed matrix, so the
    channels are [A x; B x + b; sigma dW] with scalar weights
    (w_ab, w_a, ks): the far field multiplies no matrix per lag, and lags
    beyond HISTORY_BLOCK come from one shared set of exponentials.
    """
    h = p.horizon / n_steps
    s = p.grid(n_steps)

    weights = np.zeros((n_steps + 1, 1, 3))
    weights[:, 0, 0] = rl_weights(p.alpha - p.beta, h, n_steps)
    weights[:, 0, 1] = rl_weights(p.alpha, h, n_steps)
    weights[1:, 0, 2] = s[1:] ** (p.alpha - 1.0) * reciprocal_gamma(p.alpha)

    f_ab = s ** (p.alpha - p.beta) * reciprocal_gamma(p.alpha - p.beta + 1.0)
    init_mats = np.eye(p.dim) - f_ab[:, None, None] * p.a_mat
    rates, far_weights = _em_far_exponentials(p, h, n_steps)
    return KernelTables(init_mats=init_mats, weights=weights,
                        x_map=np.concatenate([p.a_mat, p.b_mat]),
                        rates=rates, far_weights=far_weights,
                        far_lag=HISTORY_BLOCK + 1)


def mild_ml(p: ProblemSpec, delta: float, ts: np.ndarray) -> np.ndarray:
    """Mild-form matrix function E_delta, exponents (alpha - beta, alpha), at
    the times ts: shape (len(ts), dim, dim). The mild form uses delta = alpha
    (the kernel) and alpha + 1 (its integral and the initial term)."""
    params = MLParams(p.alpha - p.beta, p.alpha, delta)
    return ml_nonperm_grid(p.q_table, params, ts)[0]


def mild_init_term(p: ProblemSpec, ts: np.ndarray, e_a1: np.ndarray) -> np.ndarray:
    """I + t^alpha E_{a+1}(t) B at the times ts, from e_a1 = mild_ml(p, alpha + 1, ts)."""
    return np.eye(p.dim) + ts[:, None, None] ** p.alpha * (e_a1 @ p.b_mat)


def mild_kernel_tables(p: ProblemSpec, n_steps: int) -> KernelTables:
    """Matrix Mittag-Leffler kernel tables for the mild-form scheme.

    The mild form has no X-memory term: the channels are [b; sigma dW],
    weighted by dense (dim, dim) blocks. There are no exponentials yet, so
    the core sums every lag exactly.
    """
    s = p.grid(n_steps)
    e_a = mild_ml(p, p.alpha, s)               # (n+1, nd, nd)
    e_a1 = mild_ml(p, p.alpha + 1.0, s)

    f_ml = s[:, None, None] ** p.alpha * e_a1               # exact cell cumulative
    kb = np.diff(f_ml, axis=0, prepend=f_ml[:1])             # lag 0: zero, unused
    ks = np.zeros_like(kb)
    ks[1:] = (s[1:] ** (p.alpha - 1.0))[:, None, None] * e_a[1:]
    weights = np.concatenate([kb, ks], axis=2)
    return KernelTables(init_mats=mild_init_term(p, s, e_a1), weights=weights,
                        x_map=None, rates=np.zeros(0),
                        far_weights=np.zeros((0,) + weights.shape[1:]),
                        far_lag=n_steps + 1)


def _channels(tables: KernelTables, p: ProblemSpec, t: float, x: np.ndarray,
              dw: np.ndarray, row: np.ndarray) -> None:
    """Write the history channels of the values x = X(t), (dim, m), into row,
    (n_chan, dim, m): ``x_map @ x`` split into its dim-row blocks with the
    drift added to the last of them (the drift alone without ``x_map``),
    then sigma(t, x) dW, the increments dw (c,) broadcast over the m // c
    stacked copies."""
    if tables.x_map is None:
        row[0] = p.drift(t, x)
    else:
        np.matmul(tables.x_map, x, out=row[:-1].reshape(-1, x.shape[1]))
        row[-2] += p.drift(t, x)
    row[-1].reshape(p.dim, -1, dw.size)[...] = dw
    row[-1] *= p.diffusion(t, x)


def _blocks(n_steps: int) -> list[tuple[int, int]]:
    """The output blocks (n0, n1): steps 1..n_steps in runs of HISTORY_BLOCK."""
    return [(n0, min(n0 + HISTORY_BLOCK, n_steps + 1))
            for n0 in range(1, n_steps + 1, HISTORY_BLOCK)]


def _lag_weights(tables: KernelTables, n0: int, n1: int, j0: int,
                 j1: int) -> np.ndarray:
    """weights[n - j] of the steps n0..n1-1 against the history rows
    j0..j1-1, gathered in a product's row order, ((n1 - n0) r, (j1 - j0) cf)
    (the reshape copies nothing)."""
    r = tables.weights.shape[1]
    lags = np.arange(n0, n1)[:, None, None] - np.arange(j0, j1)
    return tables.weights[lags, np.arange(r)[:, None]].reshape((n1 - n0) * r, -1)


def _near_row(tables: KernelTables, nd: int) -> np.ndarray:
    """The weights of lags HISTORY_BLOCK-1 .. 1 side by side: step k of a
    block reads the last k blocks of columns against its in-block history.
    The blocks are dense (dim, n_chan dim) even where the weights are
    scalars: a one-row product runs as gemv, whose bits depend on the
    number of paths."""
    near = tables.weights[:HISTORY_BLOCK]
    if near.shape[1] == 1:
        near = np.kron(near, np.eye(nd))
    return np.concatenate(near[:0:-1], axis=1)


def _step_paths(tables: KernelTables, p: ProblemSpec, etas: np.ndarray,
                dw: np.ndarray, out) -> np.ndarray:
    """The feedback recurrence, time-blocked, for one chunk of paths; returns
    the (copies * c,) mask of the paths whose output stayed finite.

    etas has shape (dim, copies) and dw shape (n_steps, c): the chunk stacks
    c paths from each initial value side by side, x0 = np.repeat(etas, c,
    axis=1), on the grid ``p.grid(n_steps)``, and every copy steps over the
    same increments, broadcast, never copied. Each block of steps n0..n1-1
    is written once, as ``out[n0:n1]`` (x0 as ``out[:1]``), and never read
    back: ``out`` may be a strided view of the caller's ensembles, shape
    (n_steps + 1, dim, copies, c), or any object that takes row-slice
    assignments. The finite mask is checked on x0 and then once per block,
    on the block's rows.
    Step n sums weights[n - j] against the history channels (``_channels``)
    of every t_j, j < n, in blocks of B = HISTORY_BLOCK output steps, split
    three ways:

    * far field: history whose lag is at least ``tables.far_lag`` at every
      step of the block lives in exponential states, state_l = sum_j
      exp(-rates[l] (n0 - j)) far_weights[l] @ h_j at the block start n0.
      Each block decays them by exp(-rates B) and adds the rows that just
      became old (one GEMM); one more GEMM reads all B steps out of them.
    * slab: the rest of the history known at n0, weighted exactly into the
      accumulator that every block reuses, one GEMM per history piece (row
      0, then the rows of each earlier block), added in time order: for em
      the previous block, lags 1..2B-1; without exponentials, all of it.
    * near field: inside the block, each step adds only its in-block lags.

    A history row absorbed into the states is never read again, so the
    history is a window of far_lag + B - 1 rows (2B for em): at each block
    start, after the absorb GEMM, the rows still read move to its front.
    Without exponentials every row stays, and no far-field GEMM runs.

    The slab and the near field regroup the direct sum, exact up to
    rounding; the far field is as exact as the checked exponentials.
    ``_apply_known`` sums the same products in the same order, so without
    exponentials the operator maps this recurrence's paths to themselves
    bit for bit.
    """
    nd = p.dim
    _, r, cf = tables.weights.shape     # lag blocks (r, cf), cf = n_chan * r
    n_chan = cf // r
    cn = n_chan * nd
    n_steps, c = dw.shape
    # x0 and the mask are allocated before the working arrays, so they cannot
    # pin the heap top above their freed space (that cost 0.7 MB peak RSS on
    # a 768-path em pair)
    x0 = np.repeat(etas, c, axis=1)
    finite = np.isfinite(x0).all(axis=0)
    times = p.grid(n_steps)
    n_chunk = x0.shape[1]
    stacked = (nd, etas.shape[1], c)
    blk = HISTORY_BLOCK
    # the live history window, read as (rows*cf, dim*paths/r) by the far
    # field and the slab and as (rows*cn, paths) by the near field
    rows = min(n_steps, tables.far_lag + blk - 1)
    hist = np.empty((rows, n_chan, nd, n_chunk))
    far_hist = hist.reshape(rows * cf, -1)
    near_hist = hist.reshape(rows * cn, n_chunk)
    near_row = _near_row(tables, nd)
    # rows absorbed at a block start sit at lags far_lag+B-1 .. far_lag there;
    # step k of a block reads state_l with exp(-rates[l] k)
    n_exp = tables.rates.size
    into = np.exp(-np.outer(tables.rates, tables.far_lag + blk - 1 - np.arange(blk)))
    absorb = (into[:, None, :, None] * tables.far_weights[:, :, None, :]
              ).reshape(n_exp * r, blk * cf)
    readout = np.kron(np.exp(-np.outer(np.arange(blk), tables.rates)), np.eye(r))
    decay = np.repeat(np.exp(-blk * tables.rates), r)[:, None]
    state = np.zeros((n_exp * r, far_hist.shape[1]))
    old = 0         # history rows held by the state; window row i is t_(old+i)
    acc_rows = np.empty((blk * r, far_hist.shape[1]))  # every block's sums

    with np.errstate(over="ignore", invalid="ignore"):
        out[:1] = x0.reshape(1, *stacked)
        _channels(tables, p, times[0], x0, dw[0], hist[0])
        for n0, n1 in _blocks(n_steps):
            new_old = max(old, n0 - tables.far_lag + 1)
            if new_old > old:
                state *= decay
                state += absorb[:, (blk - new_old + old) * cf:] @ \
                    far_hist[:(new_old - old) * cf]
                hist[:n0 - new_old] = hist[new_old - old:n0 - old]
                old = new_old
            # the slab, cut where the history pieces start (1, 1 + B, ...)
            cuts = [old, *(j for j in range(1, n0, blk) if j > old), n0]
            # the first piece is written into the accumulator, the rest added
            acc = acc_rows[:(n1 - n0) * r]
            for i, (j0, j1) in enumerate(zip(cuts[:-1], cuts[1:])):
                piece = np.matmul(_lag_weights(tables, n0, n1, j0, j1),
                                  far_hist[(j0 - old) * cf:(j1 - old) * cf],
                                  out=None if i else acc)
                if i:
                    acc += piece
            if old:         # the states hold rows
                acc += readout[:(n1 - n0) * r] @ state
            acc = acc.reshape(n1 - n0, nd, n_chunk)
            acc += tables.init_mats[n0:n1] @ x0
            for k, n in enumerate(range(n0, n1)):
                if k:
                    acc[k] += near_row[:, -k * cn:] @ \
                        near_hist[(n0 - old) * cn:(n - old) * cn]
                if n < n_steps:
                    _channels(tables, p, times[n], acc[k], dw[n], hist[n - old])
            out[n0:n1] = acc.reshape(n1 - n0, *stacked)
            finite &= np.isfinite(acc).all(axis=(0, 1))
    return finite


def _apply_known(tables: KernelTables, p: ProblemSpec, etas: np.ndarray,
                 known: np.ndarray, dw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The operator without feedback for one chunk of paths: the lag sum of
    ``_step_paths`` with the history channels formed from the given paths
    ``known`` (n_steps + 1, dim, c), not from the output. Returns the
    (copies * c,) mask of the paths whose output stayed finite.

    etas, dw and the (n_steps + 1, dim, copies, c) output are those of
    ``_step_paths``, but the output is an array that accumulates. The known
    rows are taken one piece at a time: row 0, then the rows of each output
    block of B = HISTORY_BLOCK steps. The kernel forms a piece's channels
    once (``_channels``) and holds no other history. If the piece is the
    in-block history of output block n0..n1-1, it adds that block's
    initial term and near field, as the feedback core does; the block is
    then complete, and the finite mask is checked on it. Then it adds the
    piece's contribution to every later output block, one product each,
    with the weights weights[n - j] gathered from ``tables.weights``. So
    each output row takes the feedback core's products in the feedback
    core's order. Every lag is weighed exactly: tables with exponentials
    (em) are read only through ``weights``.

    A chunk thus holds one block of history and one block's product, not
    the history of every step. The known row n_steps is never read.
    """
    nd = p.dim
    _, r, cf = tables.weights.shape
    n_chan = cf // r
    cn = n_chan * nd
    n_steps, c = dw.shape
    x0 = np.repeat(etas, c, axis=1)
    finite = np.isfinite(x0).all(axis=0)
    times = p.grid(n_steps)
    stacked = (nd, etas.shape[1], c)
    hist = np.empty((HISTORY_BLOCK, n_chan, nd, c))
    hist_cols = hist.reshape(HISTORY_BLOCK * cf, -1)
    near_hist = hist.reshape(HISTORY_BLOCK * cn, c)
    near_row = _near_row(tables, nd)
    acc_rows = np.empty((HISTORY_BLOCK * r, hist_cols.shape[1]))
    blocks = _blocks(n_steps)
    # piece i: row 0 for i = 0, else the rows of output block i - 1
    pieces = [(0, 1)] + [(n0, min(n1, n_steps)) for n0, n1 in blocks]

    with np.errstate(over="ignore", invalid="ignore"):
        out[:1] = x0.reshape(1, *stacked)
        for i, (j0, j1) in enumerate(pieces):
            for j in range(j0, j1):
                _channels(tables, p, times[j], known[j], dw[j], hist[j - j0])
            if i:
                n0, n1 = blocks[i - 1]
                block = out[n0:n1]
                block += (tables.init_mats[n0:n1] @ x0).reshape(n1 - n0, *stacked)
                for k in range(1, n1 - n0):
                    block[k] += (near_row[:, -k * cn:] @ near_hist[:k * cn]
                                 ).reshape(nd, 1, c)
                finite &= np.isfinite(block).all(axis=(0, 1)).ravel()
            for n0, n1 in blocks[i:]:
                # one history for every copy
                piece = np.matmul(_lag_weights(tables, n0, n1, j0, j1),
                                  hist_cols[:(j1 - j0) * cf],
                                  out=acc_rows[:(n1 - n0) * r]).reshape(n1 - n0, nd, 1, c)
                if i:
                    out[n0:n1] += piece
                else:
                    out[n0:n1] = piece
    return finite


def _check_dims(p: ProblemSpec, *inits: InitialState) -> None:
    for init in inits:
        if init.dim != p.dim:
            raise ValidationError(
                f"initial state dim {init.dim} != problem dim {p.dim}")


def _draw(p: ProblemSpec, drv: BrownianDriver, n_paths: int,
          *inits: InitialState) -> Callable[[slice], np.ndarray]:
    """Checks the initial states and n_paths; returns the experiment's noise.

    ``noise(cols)`` draws the increments of the paths in the column slice
    ``cols`` of 0..n_paths-1, shape (n_steps, c): a path's increments are a
    pure function of (seed, path, step), so a chunk can draw its own, and
    ``noise(slice(None))`` draws them all.
    """
    _check_dims(p, *inits)
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    ids, h = range(n_paths), p.horizon / drv.n_steps

    def noise(cols: slice) -> np.ndarray:
        return drv.increments_block(ids[cols], h)

    return noise


def _run(p: ProblemSpec, tables: KernelTables, inits, n_paths: int,
         noise: Callable[[slice], np.ndarray], out: Callable[[slice], object],
         threads: int = 1, known: np.ndarray | None = None) -> np.ndarray:
    """Step n_paths paths from each initial state in inits, one copy each;
    returns which paths stayed finite, (copies, n_paths).

    Every chunk stacks CHUNK_PATHS // copies paths of each copy, whatever
    ``threads`` is, so the result does not depend on it; ``threads`` > 1
    runs the chunks on a pool. For the chunk of columns ``cols``,
    ``noise(cols)`` gives its increments (n_steps, c), which every copy
    steps over, and ``out(cols)`` takes the kernel's output. The kernel is
    the feedback recurrence ``_step_paths``, or with ``known`` (an
    ensemble's paths, whose columns ``cols`` the chunk reads in place) the
    operator without feedback, ``_apply_known``, whose output must then be
    an array. EnsembleError if more than FLAGGED_FRACTION_LIMIT of one
    copy's paths blew up, the copies checked in order.
    """
    etas = np.stack([init.eta for init in inits], axis=1)
    copies = etas.shape[1]
    finite = np.empty((copies, n_paths), dtype=bool)

    def worker(cols: slice) -> None:
        if known is None:
            ok = _step_paths(tables, p, etas, noise(cols), out(cols))
        else:
            ok = _apply_known(tables, p, etas, known[:, :, cols], noise(cols),
                              out(cols))
        finite[:, cols] = ok.reshape(copies, -1)

    width = max(CHUNK_PATHS // copies, 1)
    chunks = [slice(lo, lo + width) for lo in range(0, n_paths, width)]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(worker, chunks))
    else:
        list(map(worker, chunks))
    for flags in ~finite:
        frac = float(flags.mean()) if flags.size else 0.0
        if frac > FLAGGED_FRACTION_LIMIT:
            raise EnsembleError(
                f"{frac:.1%} of paths blew up (limit {FLAGGED_FRACTION_LIMIT:.0%})")
    return finite


def _ensembles(p: ProblemSpec, tables: KernelTables, inits, dw: np.ndarray,
               threads: int = 1,
               known: np.ndarray | None = None) -> list[PathEnsemble]:
    """One stored ensemble per initial state in inits, stepped together by
    ``_run`` over the increments dw (n_steps, n_paths) on ``p.grid(n_steps)``.
    Each ensemble's paths are C-contiguous, and each ensemble holds dw
    itself, not a copy."""
    n_steps, n_paths = dw.shape
    paths = np.empty((len(inits), n_steps + 1, p.dim, n_paths))
    finite = _run(p, tables, inits, n_paths, lambda cols: dw[:, cols],
                  lambda cols: paths[..., cols].transpose(1, 2, 0, 3),
                  threads, known)
    grid = p.grid(n_steps)
    return [PathEnsemble(grid=grid, paths=x, increments=dw, flags=~ok)
            for x, ok in zip(paths, finite)]


def _sum_sq(x: np.ndarray, y: np.ndarray | None = None, out=None) -> np.ndarray:
    """Sum over dim of x^2 or (x - y)^2, (rows, dim, paths) -> (rows, paths):
    the squared norms of the core's blocks and of stored ensembles alike."""
    if y is None:
        sq = np.square(x)
    else:
        sq = np.subtract(x, y)
        np.square(sq, out=sq)
    return np.sum(sq, axis=1, out=out)


class _SqNorms:
    """Write-only output of a chunk of one or two copies: rows of X, shape
    (rows, dim, 1, c), or of [X, Y], shape (rows, dim, 2, c), become |X|^2
    or |X - Y|^2 in ``sq[rows, cols]``."""

    def __init__(self, sq: np.ndarray, cols: slice):
        self.sq, self.cols = sq, cols

    def __setitem__(self, rows: slice, x: np.ndarray) -> None:
        _sum_sq(*np.moveaxis(x, 2, 0), out=self.sq[rows, self.cols])


# Scheme names accepted by ``kernel_tables`` (and by the CLI config check).
_SCHEMES = ("em", "mild")


def kernel_tables(p: ProblemSpec, n_steps: int, scheme: str) -> KernelTables:
    """Kernel tables of the named scheme: ``em`` (Volterra form) or ``mild``."""
    if scheme not in _SCHEMES:
        raise ValidationError(f"unknown scheme '{scheme}' (choices: {list(_SCHEMES)})")
    if scheme == "em":
        return em_kernel_tables(p, n_steps)
    return mild_kernel_tables(p, n_steps)


def simulate(p: ProblemSpec, init: InitialState, drv: BrownianDriver,
             n_paths: int, scheme: str = "em", threads: int = 1) -> PathEnsemble:
    """Path ensemble of the named scheme (see ``kernel_tables``)."""
    tables = kernel_tables(p, drv.n_steps, scheme)
    noise = _draw(p, drv, n_paths, init)
    return _ensembles(p, tables, [init], noise(slice(None)), threads)[0]


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
    noise = _draw(p, drv, n_paths, init)
    # nothing is stepped, and every eta is finite: no path is flagged
    return PathEnsemble(
        grid=p.grid(drv.n_steps),
        paths=np.tile(init.eta[:, None], (drv.n_steps + 1, 1, n_paths)),
        increments=noise(slice(None)), flags=np.zeros(n_paths, dtype=bool))


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
    stored initial values, which must equal ``init.eta`` on every path.
    The no-feedback kernel ``_apply_known`` reads y's paths in place and
    holds, per chunk, one block of HISTORY_BLOCK rows of their channels: the
    memory is the output plus O(one block), whatever n_steps is. ``tables``
    defaults to the mild ones; any tables are read through their exact
    weights only, so em tables give the em operator without exponentials.
    """
    if y.dim != p.dim:
        raise ValidationError(f"ensemble dim {y.dim} != problem dim {p.dim}")
    _check_dims(p, init)
    n_steps = y.n_steps
    if not np.allclose(y.grid, p.grid(n_steps), rtol=0,
                       atol=1e-12 * max(1.0, p.horizon)):
        raise ValidationError("ensemble grid does not match the problem horizon")
    if y.increments.shape != (n_steps, y.n_paths):
        raise ValidationError("ensemble increments do not match its grid")
    if not np.array_equal(y.paths[0], np.broadcast_to(init.eta[:, None],
                                                      y.paths[0].shape)):
        raise ValidationError("ensemble initial values differ from init")
    if tables is None:
        tables = mild_kernel_tables(p, n_steps)
    return _ensembles(p, tables, [init], y.increments, threads, known=y.paths)[0]


def coupled_pair(p: ProblemSpec, eta: InitialState, gamma: InitialState,
                 drv: BrownianDriver, n_paths: int, scheme: str = "em",
                 threads: int = 1) -> tuple[PathEnsemble, PathEnsemble]:
    """Two ensembles from distinct initial data driven by identical noise.

    Synchronous coupling: the increments are drawn once and both ensembles
    step over (and hold) the same array, so the per-path difference isolates
    the initial-condition effect. The default scheme is the Volterra-form
    integrator, which has no series cutoff limiting the horizon. This is the
    stored form of ``squared_norms(p, [eta, gamma], ...)``: the same stacked
    chunks, with both ensembles kept, 2 (n_steps + 1) dim doubles per path.
    """
    tables = kernel_tables(p, drv.n_steps, scheme)
    noise = _draw(p, drv, n_paths, eta, gamma)
    return tuple(_ensembles(p, tables, [eta, gamma], noise(slice(None)), threads))


def squared_norms(p: ProblemSpec, inits, drv: BrownianDriver, n_paths: int,
                  scheme: str = "em",
                  threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The grid and, per time and valid path, |X(t)|^2 for one initial state
    or |X(t) - Y(t)|^2 for two coupled ones, shape (n_steps + 1, n_valid),
    without storing paths or the increments of more than one chunk.

    The chunks are those of ``simulate`` (one initial state) or
    ``coupled_pair`` (two), each drawing its own increments, and the core's
    output rows go straight into the squares. So the values equal the
    squares that ``ms_norm_series`` forms from the ``simulate`` ensemble, or
    ``ms_distance_series`` from the ``coupled_pair`` ensembles, bit for bit;
    the paths left out (flagged in either ensemble) and the EnsembleError
    above FLAGGED_FRACTION_LIMIT (the first ensemble checked first) are the
    same.
    """
    if len(inits) not in (1, 2):
        raise ValidationError(
            f"squared_norms takes one or two initial states, got {len(inits)}")
    tables = kernel_tables(p, drv.n_steps, scheme)
    noise = _draw(p, drv, n_paths, *inits)
    sq = np.empty((drv.n_steps + 1, n_paths))
    valid = _run(p, tables, inits, n_paths, noise, lambda cols: _SqNorms(sq, cols),
                 threads).all(axis=0)
    return p.grid(drv.n_steps), sq if valid.all() else sq.compress(valid, axis=1)
