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

Both schemes and the Picard operator share one stepping kernel,
``_step_paths``: the same lag sum, computed with feedback (the history is
the output just computed) or without, for the Picard operator: the first
copy of a chunk reads a given ensemble (``picard_apply``), and each further
copy the row that the copy before it has just computed. Row n of T Y reads
rows 0..n-1 of Y only, so n stacked copies step the Picard iterates
Y_1..Y_n in one pass (``analysis.contraction_report``). Each scheme's
kernel tables hold one lag table in the narrowest form it uses (scalar
weights for ``em``, no X-memory block for ``mild``), so with A = B = 0 the
two schemes sum the same terms in different groupings and agree to
rounding, not bit for bit.

The kernel holds one block of HISTORY_BLOCK history rows and pushes each
finished block forward. A step's lags fall in three fields: the lags inside
its own block (near field), the previous block (one exact product per block
of history, pushed into the next block), and all older history (lags from
B + 1 = far_lag on), which the tables carry in a far field checked against
the exact weights at every far lag. The ``em`` power-law kernels have a sum
of exponentials (K shared rates: 55 at N = 1000, 14 more per factor of ten
in N), so a block is pushed into the next block only, its stepping costs
O(N (K + B)) for N steps, K rates and block length B, and no history beyond
one block is kept. The ``mild`` tables have one basis of k rows (at most 22
measured on sec6) that every far block offset shares: a finished block is
pushed into every later block but the next through its k coordinates,
(B dim x k) per push instead of a (B dim x 2 B dim) block, still an O(N^2)
sum whose pending sums (dim doubles per step and path) are the only thing
that grows with the grid, held in the output when it is stored. Where the
basis would cost more than exact pushes (``_basis_limit``; decaying
kernels), every mild lag stays exact. So ``picard_apply`` maps a
``simulate_mild`` ensemble to itself bit for bit.

Paths are stored time first and paths last, (n_steps + 1, dim, n_paths),
the layout the core computes in. Every ensemble is stepped by one chunk
loop, ``_run``, from its initial states and a noise source alone: a chunk
stacks the same paths from each eta (one copy for ``simulate``, two for a
coupled pair) over one copy of their increments, on the grid
``p.grid(n_steps)`` of the kernel tables' step count, and the kernel
writes the rows as (rows, dim, copies, c) and reports which paths stayed
finite. ``_run`` alone decides where a chunk's increments come from: the
columns of a stored array, or a stream of rows that the noise function of
``_draw`` draws one slab of NOISE_SLAB steps at a time (``_slabs``). The
kernel reads either once, row by row in step order. A path's slabs
continue its stream, so both give the same bits. The stored routes
(``simulate``, ``coupled_pair``, ``picard_apply``) keep every row and the
increments, drawn at once; the reduced routes of ``analysis`` pass a
noise function and a sink of squared distances, and store no path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import EnsembleError, NonConvergenceError, ValidationError
from .linalg import as_matrix
from .mlmatrix import MLParams, QTable, ml_nonperm_grid
from .specfun import (gauss_jacobi, gauss_legendre, reciprocal_gamma,
                      rl_weights)

# Paths are simulated in fixed-size chunks regardless of thread count so that
# results are independent of the parallel partition. A chunk's width sets
# how much history, how many exponential states and, for a chunk drawn from
# a noise function, how wide a slab of increments is held at once.
CHUNK_PATHS = 1024
# Output steps per block of the stepping core: a block reads its older
# history with one product instead of once per step.
HISTORY_BLOCK = 32
# Rows per near piece of a block's near field: a finished near piece is
# pushed into the rest of its block with one product, so a row's own
# product reads at most NEAR_PIECE - 1 lags (8 timed fastest of 4, 8, 16).
NEAR_PIECE = 8
# Steps per slab of the increment stream of a chunk drawn from a noise
# function (``_slabs``): its noise does not grow with the grid.
NOISE_SLAB = 8 * HISTORY_BLOCK
# Sum-of-exponentials far field of the em kernels (``_em_far_exponentials``):
# Gauss-Legendre nodes per unit of ln x (one rule over the whole log range),
# Gauss-Jacobi nodes per power x^-q on the smallest rates, and the relative
# error every far lag weight is checked against when the tables are built.
SOE_LOG_NODES = 6.0
SOE_JACOBI_NODES = 6
SOE_TOL = 1e-13
# Far lags per block of the build-time far-field check, and far block
# offsets per group of the mild basis build (``_far_basis``): their working
# arrays do not grow with the grid.
FAR_CHECK_LAGS = 1024
FAR_BASIS_OFFSETS = 8
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
    stream, 2^96 draws in. Each call builds one Philox generator and re-keys
    it per path: the draws equal those of a fresh
    ``Generator(Philox(key=[seed, path_id]))`` bit for bit, without seeding a
    new generator per path. The driver holds no state of its own beyond
    (seed, n_steps), so threads may share it.
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

    def _generator(self) -> tuple[np.random.Generator, dict]:
        """A Philox generator and the state of a fresh
        ``Philox(key=[seed, 0])``: zero counter, empty buffer. Only the key's
        second word changes per path, so writing path_id there and setting
        the state puts the generator at the start of that path's stream."""
        # plain ints: the state setter reads them faster than uint64 arrays
        # (timed 0.46 against 1.05 us per re-key), to the same bits
        return np.random.Generator(np.random.Philox(0)), {
            "bit_generator": "Philox",
            "state": {"counter": [0] * 4, "key": [self.seed, 0]},
            "buffer": [0] * 4, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}

    def increments_block(self, path_ids, h: float, steps: slice = slice(None),
                         states: dict | None = None) -> np.ndarray:
        """Brownian increments dW ~ N(0, h) of the steps ``steps`` (all by
        default), shape (len(steps), n_paths): the transposed view of a
        path-major (n_paths, len(steps)) array, each path's steps contiguous.
        ValidationError, naming the slice, unless it is consecutive steps
        (stride 1, stop >= start).

        A slab of consecutive steps continues each path's stream: one that
        starts past step 0 resumes path pid from ``states[pid]``, which the
        slab before it left (ValidationError, naming the slab and the path,
        where there is none), and one that ends before n_steps leaves its
        state in ``states`` where that is given. So a path's slabs, drawn in
        step order, equal one draw of all its steps bit for bit.
        """
        start, stop, stride = steps.indices(self.n_steps)
        if stride != 1 or stop < start:
            raise ValidationError(f"steps {steps!r} of {self.n_steps}: a slab is "
                                  f"consecutive steps, stride 1 and stop >= start")
        gen, fresh = self._generator()
        bitgen, key = gen.bit_generator, fresh["state"]["key"]
        out = np.empty((len(path_ids), stop - start))
        for row, pid in zip(out, path_ids):
            if start:
                if states is None or pid not in states:
                    raise ValidationError(
                        f"increments from step {start} to {stop - 1} resume path "
                        f"{pid}'s stream from the state the slab before them "
                        f"left; none was given")
                bitgen.state = states[pid]
            else:
                key[1] = pid
                bitgen.state = fresh
            gen.standard_normal(out=row)
            if states is not None and stop < self.n_steps:
                states[pid] = bitgen.state
        out *= math.sqrt(h)
        return out.T

    def initial_normals(self, path_ids, count: int) -> np.ndarray:
        """Standard normals of shape (count, n_paths), the transposed view of
        a path-major array like ``increments_block``'s."""
        gen, fresh = self._generator()
        bitgen, key = gen.bit_generator, fresh["state"]["key"]
        out = np.empty((len(path_ids), count))
        for row, pid in zip(out, path_ids):
            key[1] = pid
            bitgen.state = fresh
            bitgen.advance(2 ** 96)
            gen.standard_normal(out=row)
        return out.T


@dataclass
class PathEnsemble:
    """Sample paths on a uniform grid plus the increments that drove them.

    Time comes first and paths last, the layout the stepping core writes:
    ``paths`` has shape (n_steps + 1, dim, n_paths) and ``increments`` shape
    (n_steps, n_paths), the transposed view of the path-major array that
    ``BrownianDriver.increments_block`` draws. ``flags`` (n_paths,) marks
    paths that blew up (non-finite values anywhere along the trajectory).
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
    """Lag-indexed kernel tables consumed by the stepping kernel.

    It records, for every history time t_j, ``n_chan`` channels of
    shape (dim, n_paths): ``x_map @ x_j`` split into its ``dim``-row blocks,
    the drift added to the last of them, then sigma dW_j. Without ``x_map``
    the channels are just [b; sigma dW]. Lag 0 is never used (explicit
    scheme) and is zero.

    * ``init_mats[n]`` multiplies eta in the step-n initial term.
    * ``weights[k]`` (r, n_chan * r) holds the lag-k weights in the narrowest
      form the scheme allows: r = 1 when every channel's weight is a scalar
      times I, r = dim otherwise.
    * From lag ``far_lag`` on, the kernel reads the weights, with and without
      feedback, through one of two far fields:

      - exponentials (em): ``sum_l exp(-rates[l] k) far_weights[l]``;
      - a shared basis (mild, ``_far_basis``): the window of the B lags
        s, s - 1, ..., s - B + 1, ``_lag_weights(weights, s, s + 1, 0, B)``,
        is ``far_rows[s] @ far_basis`` for every s >= far_lag + B - 1, with
        ``far_basis`` (k, B * cf) orthonormal rows and ``far_rows``
        (n_steps + 1, r, k), zero below 2B.

      Building the tables checks the far field against ``weights`` at every
      far lag and raises ``NonConvergenceError`` beyond SOE_TOL relative:
      per weight for the exponentials, FAR_CHECK_LAGS lags at a time; per
      (r, cf) lag block in Frobenius norm for the basis, at every position
      of the lag in a window, B windows at a time.
    """

    init_mats: np.ndarray         # (n_steps+1, dim, dim)
    weights: np.ndarray           # (n_steps+1, r, n_chan*r)
    x_map: np.ndarray | None      # ((n_chan-1)*dim, dim) or None
    rates: np.ndarray             # (K,) decay per step
    far_weights: np.ndarray       # (K, r, n_chan*r)
    far_basis: np.ndarray | None = None   # (k, HISTORY_BLOCK*n_chan*r)
    far_rows: np.ndarray | None = None    # (n_steps+1, r, k)

    @property
    def far_lag(self) -> int:
        """The first lag of the far field: HISTORY_BLOCK + 1 where the tables
        carry exponentials or a basis, past the grid otherwise (every lag
        stays exact)."""
        if self.rates.size or self.far_basis is not None:
            return HISTORY_BLOCK + 1
        return len(self.weights)

    def __post_init__(self):
        basis = self.far_basis is not None
        for lags, err, scale in (self._basis_errors() if basis else
                                 self._exponential_errors()):
            bad = ~(err <= SOE_TOL * scale)
            if bad.any():
                i, c = np.argwhere(bad)[0]
                where = (f"shared-basis far field: lag {lags[i, c]} block" if basis
                         else f"sum-of-exponentials far field: lag {lags[i, 0]} "
                         f"weight {c}")
                raise NonConvergenceError(
                    f"{where} is off by {err[i, c] / scale[i, c]:.1e} relative "
                    f"(tolerance {SOE_TOL:.0e})")

    def _exponential_errors(self):
        """Per FAR_CHECK_LAGS far lags: the lags (S, 1), and per weight the
        error of the exponentials and the weight's size, (S, r * cf) each."""
        end, size = len(self.weights), self.weights[0].size
        for lo in range(self.far_lag, end, FAR_CHECK_LAGS):
            hi = min(lo + FAR_CHECK_LAGS, end)
            lags = np.arange(lo, hi)[:, None]
            exact = self.weights[lo:hi].reshape(hi - lo, size)
            approx = np.exp(-lags * self.rates) @ \
                self.far_weights.reshape(self.rates.size, size)
            yield lags, np.abs(approx - exact), np.abs(exact)

    def _basis_errors(self):
        """Per B far windows s (``_far_windows``): the lags s - b (S, B), and
        per lag block the Frobenius norms of the basis's error and of the
        block, (S, B) each."""
        blk = HISTORY_BLOCK
        _, r, cf = self.weights.shape
        windows = _far_windows(self.weights)
        for lo in range(0, len(windows), blk):
            exact = windows[lo:lo + blk].reshape(-1, r, blk, cf)
            s0, s1 = 2 * blk + lo, 2 * blk + lo + len(exact)
            err = (self.far_rows[s0:s1].reshape(-1, len(self.far_basis))
                   @ self.far_basis).reshape(exact.shape)
            err -= exact
            yield (np.arange(s0, s1)[:, None] - np.arange(blk),
                   np.sqrt(_lag_block_sq(err)), np.sqrt(_lag_block_sq(exact)))


def _lag_block_sq(windows: np.ndarray) -> np.ndarray:
    """The squared Frobenius norms of the (r, cf) lag blocks of windows
    (S, r, B, cf), (S, B): each lag row's product with itself, summed over
    r, with no temporary of the windows' size."""
    return (windows[..., None, :] @ windows[..., :, None]).sum(axis=(1, 3, 4))


def _far_windows(weights: np.ndarray) -> np.ndarray:
    """The far windows s = 2B..n_steps-1 of the lag table ``weights``
    (n_steps + 1, r, cf), B = HISTORY_BLOCK: entry s - 2B is
    ``_lag_weights(weights, s, s + 1, 0, B)``, the lags s, s - 1, ...,
    s - B + 1 side by side, (r, B cf). One read-only view of a copy of the
    table in reverse lag order, in which each window row is one run."""
    n_steps, r, cf = weights.shape
    n_steps -= 1
    rev = np.ascontiguousarray(weights[::-1].transpose(1, 0, 2))
    return np.lib.stride_tricks.as_strided(
        rev[:, n_steps - 2 * HISTORY_BLOCK:],
        (n_steps - 2 * HISTORY_BLOCK, r, HISTORY_BLOCK * cf),
        (-cf * rev.itemsize, rev.strides[0], rev.itemsize), writeable=False)


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
    power only; above it, one Gauss-Legendre rule in ln x up to
    40 / (HISTORY_BLOCK + 1), past which e^(-x m) < e^-40 at every far lag,
    with SOE_LOG_NODES nodes per unit of its range L = ln(40 N / (B + 1)).
    K = 55 at N = 1000, 69 at 10^4, 83 at 10^5; every far lag is within
    4e-15 relative for 0.51 <= alpha <= 0.99 (5.5 nodes per unit: 3e-14).
    """
    a, ab = p.alpha, p.alpha - p.beta
    lo, hi = -math.log(n_steps), math.log(40.0 / (HISTORY_BLOCK + 1))
    t, g = gauss_legendre(math.ceil(SOE_LOG_NODES * (hi - lo)))
    half = (hi - lo) / 2.0
    x = np.exp(lo + half * (1.0 + t))
    rates = [x]
    # quadrature weight times x^-q, per channel
    gx = half * g * x
    dens = [gx[:, None] * x[:, None] ** -np.array([ab, a, a])]
    for q, channels in ((ab, [1.0, 0.0, 0.0]), (a, [0.0, 1.0, 1.0])):
        y, w = gauss_jacobi(q, SOE_JACOBI_NODES)
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
    # I - f_ab A, formed in the one array it keeps
    init_mats = f_ab[:, None, None] * -p.a_mat
    init_mats += np.eye(p.dim)
    rates, far_weights = _em_far_exponentials(p, h, n_steps)
    return KernelTables(init_mats=init_mats, weights=weights,
                        x_map=np.concatenate([p.a_mat, p.b_mat]),
                        rates=rates, far_weights=far_weights)


def mild_ml(p: ProblemSpec, delta: float, ts: np.ndarray) -> np.ndarray:
    """Mild-form matrix function E_delta, exponents (alpha - beta, alpha), at
    the times ts: shape (len(ts), dim, dim). The mild form uses delta = alpha
    (the kernel) and alpha + 1 (its integral and the initial term)."""
    params = MLParams(p.alpha - p.beta, p.alpha, delta)
    return ml_nonperm_grid(p.q_table, params, ts)[0]


def mild_init_term(p: ProblemSpec, ts: np.ndarray, e_a1: np.ndarray) -> np.ndarray:
    """I + t^alpha E_{a+1}(t) B at the times ts, from e_a1 = mild_ml(p, alpha + 1, ts)."""
    return np.eye(p.dim) + ts[:, None, None] ** p.alpha * (e_a1 @ p.b_mat)


def _basis_limit(n_steps: int, r: int, cf: int) -> int:
    """The most rows k for which a shared basis makes the far pushes of a
    lag table (n_steps + 1, r, cf) cheaper than exact pushes; 0 where no
    piece is pushed two blocks on.

    With nb blocks of B = HISTORY_BLOCK steps, the full piece of block i is
    pushed into the nb - 2 - i blocks two or more blocks later: exactly,
    one (B r, B cf) product each, or through the basis, one (k, B cf)
    coordinate product per piece and one (B r, k) product per push. Over
    the F = (nb - 2)(nb - 1) / 2 far pushes of the P = nb - 2 pieces, the
    basis takes fewer flops while k (F r + P cf) < F r B cf: k <= 42 with
    three blocks, 88 at 300 steps, 123 at 4000 on sec6 (r = 2, cf = 4).
    The flops give the times: against a (64, 128) @ (128, cols) push at
    256 to 2048 columns (OpenBLAS, one thread), a (64, k) far push took
    0.50-0.53 of it at k = 64 and 0.98-1.01 at k = 128, and the (k, 128)
    coordinate product 0.98-1.00 at k = 64.
    """
    nb = -(-n_steps // HISTORY_BLOCK)
    far, pieces = (nb - 2) * (nb - 1) // 2, nb - 2
    if far <= 0:
        return 0
    return (far * r * HISTORY_BLOCK * cf - 1) // (far * r + pieces * cf)


def _far_basis(weights: np.ndarray):
    """(far_basis, far_rows) of the lag table ``weights`` (n_steps + 1, r, cf)
    (see ``KernelTables``), or (None, None) where it would take more than
    ``_basis_limit`` rows.

    The basis spans the far windows (``_far_windows``; a full piece starts
    at row 1 or later) of every far block offset (``_extend_basis``), taken
    FAR_BASIS_OFFSETS offsets at a time in the order of their lags, each
    group extending the basis of the groups before, so the build holds one
    group of windows whatever the grid. ``far_rows`` holds the coordinates
    of the windows, W far_basis^T.
    """
    _, r, cf = weights.shape
    blk = HISTORY_BLOCK
    limit = _basis_limit(len(weights) - 1, r, cf)
    if not limit:
        return None, None
    # the kept basis is allocated before the temporaries, so it cannot pin
    # the heap above their freed space
    basis = np.empty((limit, blk * cf))
    windows = _far_windows(weights)
    offsets = -(-len(windows) // blk)
    group = np.empty((min(FAR_BASIS_OFFSETS * blk, len(windows)), r, blk, cf))
    coef = np.empty((limit, len(group) * r))
    k = 0
    for lo in range(0, offsets, FAR_BASIS_OFFSETS):
        k = _extend_basis(windows, range(lo, min(lo + FAR_BASIS_OFFSETS, offsets)),
                          basis, k, group, coef)
        if k is None:
            return None, None
    del group, coef
    basis = basis[:k]
    coords = np.zeros((len(weights), r, k))
    for lo in range(0, len(windows), blk):
        part = windows[lo:lo + blk]
        np.matmul(part.reshape(-1, blk * cf), basis.T,
                  out=coords[2 * blk + lo:2 * blk + lo + len(part)].reshape(-1, k))
    return basis, coords


def _extend_basis(windows: np.ndarray, offsets, basis: np.ndarray, k: int,
                  group: np.ndarray, coef: np.ndarray) -> int | None:
    """Extends the orthonormal rows basis[:k] to the far windows of the
    block offsets ``offsets`` (B = HISTORY_BLOCK entries of ``windows`` per
    offset, the last offset those the grid has), until every (r, cf) lag
    block of every window is within SOE_TOL / 2 of its residual, relative
    in Frobenius norm; returns the new count, or None where that takes
    more than len(basis) rows. ``group`` (S, r, B, cf) holds the windows,
    each offset's scaled to unit Frobenius norm, and ``coef`` (len(basis),
    S r) their coordinates.

    Pivoted Gram-Schmidt on the windows' rows: each new basis row is the
    largest residual row, orthogonalized against the basis once more. The
    squared residual norms are downdated by each new coordinate; the
    residual itself is formed once they have lost half their digits or all
    claim to be within the tolerance (a row's residual is at most its
    window's), and its lag blocks decide.
    """
    blk = HISTORY_BLOCK
    n = 0       # windows
    for off in offsets:
        src = windows[off * blk:(off + 1) * blk]
        part = group[n:n + len(src)]
        part.reshape(src.shape)[...] = src
        part /= np.sqrt(part.ravel() @ part.ravel())
        n += len(src)
    win = group[:n]
    rows = win.reshape(-1, basis.shape[1])
    m, run = len(rows), blk * win.shape[1]
    tol = (SOE_TOL / 2) ** 2 * _lag_block_sq(win)
    row_tol = tol.sum(axis=1).repeat(win.shape[1])
    tol_max = row_tol.max()
    np.matmul(basis[:k], rows.T, out=coef[:k, :m])
    row_sq = (rows[:, None] @ rows[:, :, None]).ravel()
    top = row_sq.max()
    row_sq -= np.square(coef[:k, :m]).sum(axis=0)
    k0 = 0      # rows holds the residual of basis[:k0]
    while True:
        i = np.argmax(row_sq)
        if row_sq[i] <= 1e-8 * top or (row_sq[i] <= tol_max and
                                       np.all(row_sq <= row_tol)):
            # one offset at a time: a temporary of the group's size would
            # stay on the heap after the build
            for lo in range(0, m, run):
                rows[lo:lo + run] -= coef[k0:k, lo:m][:, :run].T @ basis[k0:k]
            k0 = k
            row_sq = (rows[:, None] @ rows[:, :, None]).ravel()
            top = row_sq.max()
            if np.all(_lag_block_sq(win) <= tol):
                return k
            i = np.argmax(row_sq)
        if k == len(basis):
            return None
        v = rows[i] - coef[k0:k, i] @ basis[k0:k]
        v -= (basis[:k] @ v) @ basis[:k]
        np.divide(v, np.sqrt(v @ v), out=basis[k])
        np.matmul(rows, basis[k], out=coef[k, :m])
        row_sq -= np.square(coef[k, :m])
        k += 1


def mild_kernel_tables(p: ProblemSpec, n_steps: int) -> KernelTables:
    """Matrix Mittag-Leffler kernel tables for the mild-form scheme.

    The mild form has no X-memory term: the channels are [b; sigma dW],
    weighted by dense (dim, dim) blocks. Lags beyond HISTORY_BLOCK go
    through one basis that all far blocks share (``_far_basis``) where it
    pays; otherwise the core sums every lag exactly.
    """
    s = p.grid(n_steps)
    e_a = mild_ml(p, p.alpha, s)               # (n+1, nd, nd)
    e_a1 = mild_ml(p, p.alpha + 1.0, s)

    f_ml = s[:, None, None] ** p.alpha * e_a1               # exact cell cumulative
    kb = np.diff(f_ml, axis=0, prepend=f_ml[:1])             # lag 0: zero, unused
    ks = np.zeros_like(kb)
    ks[1:] = (s[1:] ** (p.alpha - 1.0))[:, None, None] * e_a[1:]
    weights = np.concatenate([kb, ks], axis=2)
    tables = dict(init_mats=mild_init_term(p, s, e_a1), weights=weights,
                  x_map=None, rates=np.zeros(0),
                  far_weights=np.zeros((0,) + weights.shape[1:]))
    basis, coords = _far_basis(weights)
    if basis is not None:
        try:
            return KernelTables(**tables, far_basis=basis, far_rows=coords)
        except NonConvergenceError:
            pass    # rounding keeps a lag block off: every lag stays exact
    return KernelTables(**tables)


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


def _lag_weights(weights: np.ndarray, n0: int, n1: int, j0: int,
                 j1: int) -> np.ndarray:
    """weights[n - j] of the steps n0..n1-1 against the history rows
    j0..j1-1, gathered in a product's row order, ((n1 - n0) r, (j1 - j0) cf)
    (the reshape copies nothing)."""
    r = weights.shape[1]
    lags = np.arange(n0, n1)[:, None, None] - np.arange(j0, j1)
    return weights[lags, np.arange(r)[:, None]].reshape((n1 - n0) * r, -1)


def _near_weights(tables: KernelTables, nd: int) -> tuple[np.ndarray, np.ndarray]:
    """(own, push): a block's near-field weights in near pieces of P =
    NEAR_PIECE rows, gathered once per call as dense (dim, n_chan dim) lag
    blocks, ``kron(w, I)`` for scalar weights. Against the history as
    ``near_hist`` holds it, every product then has dim rows and one column
    per path; scalar weights against ``hist_cols`` would give one-row
    products over dim columns per path, whose bits moved with the number
    of paths (``test_paths_independent_of_ensemble_size``).

    ``own`` (dim, (P - 1) n_chan dim) holds lags P - 1 .. 1 side by side:
    row m of a near piece reads its last m lag blocks against the piece's
    first m rows. ``push`` ((B - P) dim, P n_chan dim), B = HISTORY_BLOCK,
    holds the B - P rows after a near piece against that piece: the rows
    after any near piece of a block are a prefix."""
    # lags past a short grid are never read
    near = np.zeros((HISTORY_BLOCK, *tables.weights.shape[1:]))
    near[:len(tables.weights)] = tables.weights[:HISTORY_BLOCK]
    if near.shape[1] == 1:
        near = np.kron(near, np.eye(nd))
    return (_lag_weights(near, NEAR_PIECE - 1, NEAR_PIECE, 0, NEAR_PIECE - 1),
            _lag_weights(near, NEAR_PIECE, HISTORY_BLOCK, 0, NEAR_PIECE))


def _step_paths(tables: KernelTables, p: ProblemSpec, etas: np.ndarray,
                dw: Iterable[np.ndarray], out,
                known: np.ndarray | None = None) -> np.ndarray:
    """The lag sum x_n = init_mats[n] x0 + sum_{j<n} weights[n - j] h_j for
    one chunk of paths; returns the (copies * c,) mask of the paths whose
    output stayed finite.

    etas has shape (dim, copies), and dw holds the chunk's increment rows
    (c,), which the kernel reads once, row by row in step order: an
    (n_steps, c) array or a stream of rows (``_slabs``), n_steps that of
    the tables and c the first row's size. The chunk stacks c paths from
    each initial value side by side, x0 = np.repeat(etas, c, axis=1), on
    the grid ``p.grid(n_steps)``, and every copy steps over the same
    increments, broadcast, never copied. Each copy's history channels h_j
    (``_channels``) come from its own output row x_j just computed (the
    feedback recurrence) or, given ``known`` (n_steps + 1, dim, c), from
    known[j] for copy 0 and from copy k - 1's output row x_j for copy k: the
    operator without feedback applied ``copies`` times in one pass, which
    row n of each application allows, as it reads rows 0..n-1 only.
    ``out`` takes x0 as ``out[:1]`` and each block of steps n0..n1-1 once:
    it is a strided view of the caller's ensembles, shape (n_steps + 1,
    dim, copies, c), in whose rows each block is summed in place, or any
    other object, which gets each finished block as ``out[n0:n1] = rows``.
    The mask is checked on x0 and then once per block.

    The kernel holds the channels of one piece of history, row 0 and then
    the rows of each block of B = HISTORY_BLOCK steps, and pushes each piece
    forward once it is complete. Row 0 and a block's next block read the
    exact weights, the rest the tables' far field. Block n0..n1-1 sums, in
    this order:

    * for em, its far field: the pieces older than the previous block live
      in exponential states, state_l = sum_j exp(-rates[l] (n0 - j))
      far_weights[l] @ h_j, read out with one product. After its pushes, a
      piece is folded into the states (decay by exp(-rates B), then the
      absorb product, one slab of state columns at a time in the product
      buffer of one block's rows), ready for the first block that reads it
      there.
    * its pending rows: each piece is pushed, one product each, into the
      later blocks that it reaches: the next block for em, whose states
      carry the rest; for mild every later block, exactly into those that
      start less than ``tables.far_lag`` after it (all of them for row 0 or
      without a basis) and otherwise through the basis, ``far_rows`` of the
      block's lags against the piece's coordinates, formed once per piece
      with one (k, B cf) product after its exact pushes; the far pushes are
      formed in hist, whose channels are read by then. The first piece
      writes, the others add, in time order.
    * its initial term, then row by row its near field (the in-block lags)
      in near pieces of P = NEAR_PIECE rows (``_near_weights``): at the
      first row of a near piece, the one before it is pushed into the rest
      of the block with one product; every other row adds its own product
      over the lags inside its near piece. Then the row's channels are
      formed.

    A block is summed in its pending rows: the output rows themselves when
    ``out`` is an array, otherwise a buffer of the rows that a piece can
    feed (one block for em; for mild the grid, dim doubles per path and
    step, half its history), reused from block to block.

    The exact pushes and the near field regroup the direct sum, exact up to
    rounding; the far field is as exact as the checked exponentials or
    basis. Each output row takes the same products in the same order with
    and without ``known``, so without exponentials (mild, with or without
    a basis) the operator maps this recurrence's paths to themselves bit
    for bit. Stacked applications run each product over ``copies`` times
    the columns, which can move a path's last bits, as the width of its
    chunk can.
    """
    nd = p.dim
    _, r, cf = tables.weights.shape     # lag blocks (r, cf), cf = n_chan * r
    n_chan = cf // r
    cn = n_chan * nd
    n_steps = len(tables.weights) - 1
    dw = iter(dw)
    dw_0 = next(dw)
    c = dw_0.size
    # x0 and the mask are allocated before the working arrays, so they cannot
    # pin the heap top above their freed space (that cost 0.7 MB peak RSS on
    # a 768-path em pair)
    x0 = np.repeat(etas, c, axis=1)
    finite = np.isfinite(x0).all(axis=0)
    times = p.grid(n_steps)
    stacked = (nd, etas.shape[1], c)
    blk = HISTORY_BLOCK
    # one piece of history, read as (rows*cf, dim*width/r) by the products
    # and as (rows*cn, width) by the near field
    width = x0.shape[1]
    # the values whose channels one history row holds, given known
    src = None if known is None else np.empty(stacked)
    hist = np.empty((blk, n_chan, nd, width))
    hist_cols = hist.reshape(blk * cf, -1)
    near_hist = hist.reshape(blk * cn, width)
    own, push = _near_weights(tables, nd)
    stored = isinstance(out, np.ndarray)
    # em's exponential states take each piece past far_lag; mild pushes
    # every piece, exactly or through the shared basis, into every later
    # block
    n_exp = tables.rates.size
    basis = tables.far_basis
    pending = out[1:] if stored else np.empty(
        (min(tables.far_lag - 1, n_steps) if n_exp else n_steps, *stacked))
    # a piece is folded in at lags far_lag+B-1 .. far_lag before the first
    # block that reads it from the states; step k of a block reads state_l
    # with exp(-rates[l] k)
    into = np.exp(-np.outer(tables.rates, tables.far_lag + blk - 1 - np.arange(blk)))
    absorb = (into[:, None, :, None] * tables.far_weights[:, :, None, :]
              ).reshape(n_exp * r, blk * cf)
    readout = np.kron(np.exp(-np.outer(np.arange(blk), tables.rates)), np.eye(r))
    decay = np.repeat(np.exp(-blk * tables.rates), r)[:, None]
    state = np.zeros((n_exp * r, hist_cols.shape[1]))
    # every product is formed here: a block's rows, the states' update in
    # column slabs that fit (at least 256 columns, a multiple of 8: the
    # slabs' bits are those of one product), or a full piece's coordinates
    # in the shared basis, whose far pushes are formed in hist (the piece's
    # channels are read by then)
    rows_size = blk * nd * x0.shape[1]
    col_slab = max(256, rows_size // max(n_exp * r, 1) // 8 * 8)
    coef_size = 0 if basis is None else len(basis) * hist_cols.shape[1]
    prod_buf = np.empty(max(rows_size, state[:, :col_slab].size, coef_size))
    coef = prod_buf[:coef_size].reshape(-1, hist_cols.shape[1])
    # a row's own near product, (dim, width) in prod_buf
    own_out = prod_buf[:nd * width].reshape(nd, width)
    blocks = _blocks(n_steps)

    def sums(n0: int, n1: int) -> np.ndarray:
        """The pending sums of steps n0..n1-1, one block."""
        i = (n0 - 1) % len(pending)
        return pending[i:i + n1 - n0]

    def given(n: int, x: np.ndarray) -> np.ndarray:
        """The values whose channels history row n holds, (dim, width), from
        the output rows x_n (dim, copies, c): each copy's own, or with
        ``known`` known[n] for copy 0 and copy k - 1's for copy k."""
        if known is not None:
            src[:, 0], src[:, 1:] = known[n], x[:, :-1]
            x = src
        return x.reshape(nd, -1)

    def product(weights: np.ndarray, x: np.ndarray, rows: int,
                buf: np.ndarray = prod_buf) -> np.ndarray:
        """weights @ x as ``rows`` output rows, (rows, dim, copies, c)."""
        shape = (*weights.shape[:-1], x.shape[-1])
        return np.matmul(weights, x, out=buf[:math.prod(shape)].reshape(shape)
                         ).reshape(rows, nd, -1, c)

    with np.errstate(over="ignore", invalid="ignore"):
        out[:1] = x0.reshape(1, *stacked)
        _channels(tables, p, times[0], given(0, x0.reshape(stacked)), dw_0, hist[0])
        del dw_0    # a view of the first slab: held, it would keep the slab
        j0, j1 = 0, 1       # the history rows whose channels hist holds
        for i, (n0, n1) in enumerate(blocks):
            acc = sums(n0, n1)
            if n_exp and n0 >= tables.far_lag:      # the states hold rows
                acc[...] = product(readout[:(n1 - n0) * r], state, n1 - n0)
            for m0, m1 in blocks[i:]:
                if m0 < j0 + tables.far_lag or (basis is not None and j1 - j0 < blk):
                    piece = product(_lag_weights(tables.weights, m0, m1, j0, j1),
                                    hist_cols[:(j1 - j0) * cf], m1 - m0)
                elif basis is None:
                    break       # the states carry the rest
                else:
                    if m0 == j0 + 2 * blk:      # the first far block
                        np.matmul(basis, hist_cols, out=coef)
                    piece = product(tables.far_rows[m0 - j0:m1 - j0].reshape(
                        -1, len(basis)), coef, m1 - m0, hist.reshape(-1))
                dest = sums(m0, m1)
                if j0:
                    dest += piece
                else:
                    dest[...] = piece
            if n_exp and blocks[-1][0] >= j0 + tables.far_lag:
                state *= decay
                fold = absorb[:, (blk - j1 + j0) * cf:]
                for c0 in range(0, state.shape[1], col_slab):
                    cols = state[:, c0:c0 + col_slab]
                    cols += np.matmul(
                        fold, hist_cols[:(j1 - j0) * cf, c0:c0 + col_slab],
                        out=prod_buf[:cols.size].reshape(cols.shape))
            acc += product(tables.init_mats[n0:n1], x0, n1 - n0)
            for k, n in enumerate(range(n0, n1)):
                m = k % NEAR_PIECE
                if m:       # the lags inside the row's near piece
                    np.matmul(own[:, -m * cn:], near_hist[(k - m) * cn:k * cn],
                              out=own_out)
                    acc[k] += own_out.reshape(nd, -1, c)
                elif k:     # the near piece before, into the rest of the block
                    acc[k:] += product(push[:(n1 - n0 - k) * nd],
                                       near_hist[(k - NEAR_PIECE) * cn:k * cn],
                                       n1 - n0 - k)
                if n < n_steps:
                    _channels(tables, p, times[n], given(n, acc[k]), next(dw), hist[k])
            if not stored:
                out[n0:n1] = acc
            finite &= np.isfinite(acc).all(axis=(0, 1)).ravel()
            j0, j1 = n0, min(n1, n_steps)
    return finite


def _check_dims(p: ProblemSpec, *inits: InitialState) -> None:
    for init in inits:
        if init.dim != p.dim:
            raise ValidationError(
                f"initial state dim {init.dim} != problem dim {p.dim}")


def _draw(p: ProblemSpec, drv: BrownianDriver, n_paths: int,
          *inits: InitialState) -> Callable[..., np.ndarray]:
    """Checks the initial states and n_paths; returns the experiment's noise.

    ``noise(cols, steps, states)`` draws the increments of the paths in the
    column slice ``cols`` of 0..n_paths-1 at the steps ``steps`` (all by
    default), shape (len(steps), c), each path continuing from ``states``
    (``BrownianDriver.increments_block``). A path's increments are a pure
    function of (seed, path, step), so ``noise(slice(None))`` draws them
    all, and ``_run`` has each chunk draw its own as a stream of rows, one
    slab of steps at a time (``_slabs``).
    """
    _check_dims(p, *inits)
    if n_paths < 1:
        raise ValidationError("n_paths must be >= 1")
    ids, h = range(n_paths), p.horizon / drv.n_steps

    def noise(cols: slice, steps: slice = slice(None),
              states: dict | None = None) -> np.ndarray:
        return drv.increments_block(ids[cols], h, steps, states)

    return noise


def _slabs(noise: Callable[..., np.ndarray], cols: slice, n_steps: int):
    """The increment rows (c,) of steps 0..n_steps-1 of the column slice
    ``cols`` of ``noise`` (``_draw``), in step order, drawn NOISE_SLAB steps
    at a time, each slab continuing its paths' streams from the one before.
    Only the current slab is held: it is dropped before the next is drawn."""
    states = {}
    for start in range(0, n_steps, NOISE_SLAB):
        yield from noise(cols, slice(start, start + NOISE_SLAB), states)


def _run(p: ProblemSpec, tables: KernelTables, inits, n_paths: int,
         noise: np.ndarray | Callable, out: Callable[[slice], object],
         threads: int = 1, known: np.ndarray | None = None) -> np.ndarray:
    """Step n_paths paths from each initial state in inits, one copy each;
    returns which paths stayed finite, (copies, n_paths).

    Every chunk stacks CHUNK_PATHS // copies paths of each copy, whatever
    ``threads`` is, so the result does not depend on it; ``threads`` > 1
    runs the chunks on a pool. The chunk of columns ``cols`` steps every
    copy over the increment rows of its n_steps steps, n_steps those of
    ``tables``: the columns ``cols`` of ``noise`` where it is an array
    (n_steps, n_paths), and otherwise a stream of rows that ``_slabs``
    draws from the noise function ``noise`` (``_draw``) NOISE_SLAB steps
    at a time, in the chunk's worker, as the kernel reads them. No caller
    slices or draws a chunk's increments itself. ``out(cols)`` takes the
    output of the kernel, ``_step_paths``: the feedback recurrence or, with
    ``known`` (an ensemble's paths, whose columns ``cols`` the chunk reads
    in place), the operator without feedback, applied to known by copy 0
    and to copy k - 1 by copy k. An output with a ``done`` method gets the chunk's mask
    (copies, c) once the kernel returns, in chunk order and in the calling
    thread whatever ``threads`` is. EnsembleError if more than
    FLAGGED_FRACTION_LIMIT of one copy's paths blew up, the copies checked
    in order.
    """
    etas = np.stack([init.eta for init in inits], axis=1)
    copies = etas.shape[1]
    finite = np.empty((copies, n_paths), dtype=bool)

    def worker(cols: slice) -> tuple:
        sink = out(cols)
        dw = (noise[:, cols] if isinstance(noise, np.ndarray) else
              _slabs(noise, cols, len(tables.weights) - 1))
        ok = finite[:, cols] = _step_paths(
            tables, p, etas, dw, sink,
            None if known is None else known[:, :, cols]).reshape(copies, -1)
        return sink, ok

    def finish(results) -> None:
        for sink, ok in results:
            if hasattr(sink, "done"):
                sink.done(ok)

    width = max(CHUNK_PATHS // copies, 1)
    chunks = [slice(lo, lo + width) for lo in range(0, n_paths, width)]
    if threads > 1 and len(chunks) > 1:
        # imported here: concurrent.futures loads logging, ~3 ms per import
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            finish(pool.map(worker, chunks))
    else:
        finish(map(worker, chunks))
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
    finite = _run(p, tables, inits, n_paths, dw,
                  lambda cols: paths[..., cols].transpose(1, 2, 0, 3),
                  threads, known)
    grid = p.grid(n_steps)
    return [PathEnsemble(grid=grid, paths=x, increments=dw, flags=~ok)
            for x, ok in zip(paths, finite)]


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
    The stepping kernel, given y's paths as ``known``, reads them in place
    and holds, per chunk, one block of HISTORY_BLOCK rows of their channels;
    its pending sums are the output itself, so the memory is the output plus
    O(one block), whatever n_steps is. This is the one-copy case of the
    stacked iterates of ``analysis.contraction_report``, which apply the
    operator n_iter times in one pass. ``tables`` defaults to the mild ones;
    em tables give the em operator, read through their exponentials as the
    feedback route reads them. Tables of another grid than y's are refused
    (ValidationError).
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
    elif len(tables.weights) != n_steps + 1:
        raise ValidationError(f"kernel tables are for {len(tables.weights) - 1} "
                              f"steps, the ensemble has {n_steps}")
    return _ensembles(p, tables, [init], y.increments, threads, known=y.paths)[0]


def coupled_pair(p: ProblemSpec, eta: InitialState, gamma: InitialState,
                 drv: BrownianDriver, n_paths: int, scheme: str = "em",
                 threads: int = 1) -> tuple[PathEnsemble, PathEnsemble]:
    """Two ensembles from distinct initial data driven by identical noise.

    Synchronous coupling: the increments are drawn once and both ensembles
    step over (and hold) the same array, so the per-path difference isolates
    the initial-condition effect. The default scheme is the Volterra-form
    integrator, which has no series cutoff limiting the horizon. This is the
    stored form of ``analysis.squared_norms(p, [eta, gamma], ...)``: the same
    stacked chunks, with both ensembles kept, 2 (n_steps + 1) dim doubles per
    path.
    """
    tables = kernel_tables(p, drv.n_steps, scheme)
    noise = _draw(p, drv, n_paths, eta, gamma)
    return tuple(_ensembles(p, tables, [eta, gamma], noise(slice(None)), threads))

