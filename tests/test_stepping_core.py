"""The time-blocked stepping kernel against a direct O(N^2) per-step loop.

The kernel splits each step's lag sum into a near field inside the current
block, exact products that push each finished block into the next block and
a far field for every lag beyond HISTORY_BLOCK: exponential states for em,
and for mild pushes through one basis that every far block shares (or exact
pushes where the basis does not pay). The pushes and near field regroup the
direct sum; both far fields are checked against the exact lag weights to
SOE_TOL = 1e-13 relative when the tables are built. So the kernel matches
the direct sum to 1e-12 * max|x_n| at every step n, with and without
feedback, also on grids where the far field carries most of the history.

The direct loop does not read the kernel's tables. It builds each scheme's lag
kernels here, as dense (dim, 3*dim) blocks against the history [x; b; sigma dW],
straight from the product-quadrature weights, and sums each step's lags in
one product.
"""

import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from smtde import analysis, solvers
from smtde.errors import NonConvergenceError, ValidationError
from smtde.mlmatrix import MLParams, QTable, ml_nonperm_grid
from smtde.solvers import (HISTORY_BLOCK, SOE_TOL, BrownianDriver,
                           InitialState, _step_paths,
                           constant_ensemble, coupled_pair,
                           em_kernel_tables, kernel_tables, mild_kernel_tables,
                           picard_apply, simulate_em, simulate_mild)
from smtde.specfun import reciprocal_gamma, rl_weights

from conftest import (PresetDriver, flaky_above, make_problem, one_fn,
                      zero_fn)

REL_TOL = 1e-12
# block and near-field piece (NEAR_PIECE = 8) boundaries
STEP_COUNTS = (1, 7, 8, 9, 17, 25, 31, 32, 33, 67)
# grids on which the em exponentials carry most of each step's history
LONG_STEP_COUNTS = (160, 400)
SIMULATORS = {"em": simulate_em, "mild": simulate_mild}
TABLES = {"em": em_kernel_tables, "mild": mild_kernel_tables}


def _differences(cumulative):
    w = np.zeros_like(cumulative)
    w[1:] = cumulative[1:] - cumulative[:-1]
    return w


def dense_em_kernels(p, n_steps):
    """(init_mats, kbig): kbig[k] = [w_ab A + w_a B, w_a I, ks I] at lag k."""
    s = p.horizon / n_steps * np.arange(n_steps + 1)
    eye = np.eye(p.dim)
    f_ab = s ** (p.alpha - p.beta) * reciprocal_gamma(p.alpha - p.beta + 1.0)
    f_a = s ** p.alpha * reciprocal_gamma(p.alpha + 1.0)
    w_ab = _differences(f_ab)
    w_a = _differences(f_a)
    kx = w_ab[:, None, None] * p.a_mat + w_a[:, None, None] * p.b_mat
    kb = w_a[:, None, None] * eye
    ks = np.zeros((n_steps + 1, p.dim, p.dim))
    ks[1:] = (s[1:] ** (p.alpha - 1.0) * reciprocal_gamma(p.alpha))[:, None, None] * eye
    init_mats = eye - f_ab[:, None, None] * p.a_mat
    return init_mats, np.concatenate([kx, kb, ks], axis=2)


def dense_mild_kernels(p, n_steps):
    """(init_mats, kbig): kbig[k] = [0, F(s_k) - F(s_(k-1)), s_k^(a-1) E_a(s_k)]."""
    s = p.horizon / n_steps * np.arange(n_steps + 1)
    q = QTable(p.a_mat, p.b_mat)
    rho = p.alpha - p.beta
    e_a, _ = ml_nonperm_grid(q, MLParams(rho, p.alpha, p.alpha), s)
    e_a1, _ = ml_nonperm_grid(q, MLParams(rho, p.alpha, p.alpha + 1.0), s)
    kb = _differences(s[:, None, None] ** p.alpha * e_a1)
    ks = np.zeros_like(kb)
    ks[1:] = (s[1:] ** (p.alpha - 1.0))[:, None, None] * e_a[1:]
    init_mats = np.eye(p.dim) + s[:, None, None] ** p.alpha * (e_a1 @ p.b_mat)
    return init_mats, np.concatenate([np.zeros_like(kb), kb, ks], axis=2)


DENSE = {"em": dense_em_kernels, "mild": dense_mild_kernels}


def direct_paths(scheme, p, times, x0, dw, known=None):
    """x_n = init_n x0 + sum_{j<n} K[n-j] [x_j; b(t_j, x_j); sigma(t_j, x_j) dW_j].

    The kernels are the dense ones of ``scheme``. The history comes from
    ``known`` when given (no feedback), otherwise from the paths being
    computed. Shapes follow the ensemble: (n_steps+1, dim, paths).
    """
    n_steps = times.size - 1
    init_mats, kbig = DENSE[scheme](p, n_steps)
    # K[N], ..., K[0] side by side: K[n - j] for j = 0..n-1 is one slice
    wide = np.concatenate(kbig[::-1], axis=1)
    cols = kbig.shape[2]
    x = np.empty((n_steps + 1,) + x0.shape)
    x[0] = x0
    src = x if known is None else known
    hist = np.empty((n_steps, cols) + x0.shape[1:])
    for n in range(1, n_steps + 1):
        j = n - 1
        xj = src[j]
        hist[j] = np.concatenate([xj, p.drift(times[j], xj),
                                  p.diffusion(times[j], xj) * dw[j]])
        # one product over every lag of step n
        x[n] = init_mats[n] @ x0 + wide[:, (n_steps - n) * cols:n_steps * cols] @ \
            hist[:n].reshape(n * cols, -1)
    return x


def assert_close_per_step(got, ref):
    # (n_steps+1, dim, n_paths) paths: compare step by step
    scale = np.abs(ref).max(axis=(1, 2))
    err = np.abs(got - ref).max(axis=(1, 2))
    assert np.all(np.isfinite(got))
    assert np.all(err <= REL_TOL * scale), (err / scale).max()


@pytest.mark.parametrize("scheme", sorted(SIMULATORS))
@pytest.mark.parametrize("n_steps", STEP_COUNTS)
def test_feedback_matches_direct_loop(sec6_problem, eta_state, scheme, n_steps):
    drv = BrownianDriver(seed=4, n_steps=n_steps)
    ens = SIMULATORS[scheme](sec6_problem, eta_state, drv, 5)
    ref = direct_paths(scheme, sec6_problem, ens.grid, ens.paths[0],
                       ens.increments)
    assert_close_per_step(ens.paths, ref)


@pytest.mark.parametrize("scheme", sorted(SIMULATORS))
@pytest.mark.parametrize("n_steps", STEP_COUNTS)
def test_no_feedback_matches_direct_loop(sec6_problem, eta_state, scheme, n_steps):
    drv = BrownianDriver(seed=9, n_steps=n_steps)
    y = simulate_em(sec6_problem, eta_state, drv, 5)
    tables = TABLES[scheme](sec6_problem, n_steps)
    out = picard_apply(sec6_problem, eta_state, y, tables=tables)
    ref = direct_paths(scheme, sec6_problem, y.grid, y.paths[0], y.increments,
                       known=y.paths)
    assert_close_per_step(out.paths, ref)


@pytest.mark.parametrize("n_steps", LONG_STEP_COUNTS)
def test_em_feedback_matches_direct_loop_on_long_grids(sec6_problem, eta_state,
                                                       n_steps):
    drv = BrownianDriver(seed=6, n_steps=n_steps)
    ens = simulate_em(sec6_problem, eta_state, drv, 3)
    ref = direct_paths("em", sec6_problem, ens.grid, ens.paths[0],
                       ens.increments)
    assert_close_per_step(ens.paths, ref)


@pytest.mark.parametrize("n_steps", LONG_STEP_COUNTS)
def test_em_no_feedback_matches_direct_loop_on_long_grids(sec6_problem,
                                                          eta_state, n_steps):
    drv = BrownianDriver(seed=8, n_steps=n_steps)
    y = simulate_mild(sec6_problem, eta_state, drv, 3)
    out = picard_apply(sec6_problem, eta_state, y,
                       tables=em_kernel_tables(sec6_problem, n_steps))
    ref = direct_paths("em", sec6_problem, y.grid, y.paths[0], y.increments,
                       known=y.paths)
    assert_close_per_step(out.paths, ref)


@pytest.mark.parametrize("n_steps", [67, 160])
def test_multi_chunk_matches_direct_loop(sec6_problem, eta_state, monkeypatch,
                                         n_steps):
    # chunks of 2 over 5 paths: each chunk writes strided columns of the
    # ensemble and reads strided columns of dw and of the known paths
    monkeypatch.setattr(solvers, "CHUNK_PATHS", 2)
    p = sec6_problem
    drv = BrownianDriver(seed=5, n_steps=n_steps)
    for scheme, simulate in SIMULATORS.items():
        ens = simulate(p, eta_state, drv, 5)
        assert_close_per_step(ens.paths, direct_paths(
            scheme, p, ens.grid, ens.paths[0], ens.increments))
        out = picard_apply(p, eta_state, ens, tables=TABLES[scheme](p, n_steps))
        assert_close_per_step(out.paths, direct_paths(
            scheme, p, ens.grid, ens.paths[0], ens.increments, known=ens.paths))


def time_drift(t, x):
    return np.stack([np.sin(x[0]) + t, x[1] * (1.0 + t)])


def time_diffusion(t, x):
    return np.stack([x[0] + 5.0 * t, np.cos(x[1]) + t])


def _max_rel_err(got, ref):
    return (np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))).max()


@pytest.mark.parametrize("route, n_steps", [("em", 40), ("em", 160),
                                            ("mild", 40), ("mild", 160),
                                            ("picard-em", 40), ("picard-mild", 40)])
def test_time_dependent_callbacks_match_direct_loop(sec6_problem, eta_state,
                                                    route, n_steps):
    # every other callback in the suite ignores t: here the drift and the
    # diffusion read it, so the core must pass t_j of p.grid(N) with history
    # row j. The reference with the times one step late misses by percents
    p = dataclasses.replace(sec6_problem, drift=time_drift,
                            diffusion=time_diffusion)
    drv = BrownianDriver(seed=4, n_steps=n_steps)
    scheme = route.removeprefix("picard-")
    times = p.grid(n_steps)
    if route == scheme:
        ens = SIMULATORS[scheme](p, eta_state, drv, 5)
        known = None
    else:
        y = simulate_em(p, eta_state, drv, 5)
        ens = picard_apply(p, eta_state, y, tables=TABLES[scheme](p, n_steps))
        known = y.paths
    assert np.array_equal(ens.grid, times)

    def ref(ts):
        return direct_paths(scheme, p, ts, ens.paths[0], ens.increments,
                            known=known)

    assert_close_per_step(ens.paths, ref(times))
    assert _max_rel_err(ens.paths, ref(times + times[1])) > 1e-3


@pytest.mark.parametrize("step", [HISTORY_BLOCK, HISTORY_BLOCK + 1,
                                  2 * HISTORY_BLOCK])
def test_response_across_exponential_boundary(eta_state, step):
    # With A = B = 0, zero drift and unit diffusion the em recurrence is
    # x_n = x_0 + sum_j k_s(n - j) dW_j exactly, so moving dW_j moves step
    # n > j by k_s(n - j) times the move and nothing before. Row j is read
    # by the near field, then by the exact push, then from lag B + 1 on by
    # the exponential states (B = HISTORY_BLOCK); a row summed twice or
    # dropped at a hand-over would show as an error of the size of the
    # response itself
    n_steps = 200
    zero = np.zeros((2, 2))
    p = make_problem(a_mat=zero, b_mat=zero, drift=zero_fn, diffusion=one_fn)
    normals = np.random.default_rng(2).normal(size=(2, n_steps))
    bumped = normals.copy()
    bumped[:, step] += 1.5
    base = simulate_em(p, eta_state, PresetDriver(normals), 2)
    moved = simulate_em(p, eta_state, PresetDriver(bumped), 2)
    lags = np.arange(1, n_steps + 1 - step)
    k_s = (lags * p.horizon / n_steps) ** (p.alpha - 1.0) * reciprocal_gamma(p.alpha)
    delta = moved.increments[step] - base.increments[step]        # (paths,)
    expected = k_s[:, None, None] * delta
    assert np.array_equal(moved.paths[:step + 1], base.paths[:step + 1])
    err = np.abs(moved.paths[step + 1:] - base.paths[step + 1:] - expected
                 ).max(axis=(1, 2))
    assert np.all(err <= REL_TOL * np.abs(base.paths[step + 1:]).max(axis=(1, 2)))


@pytest.mark.parametrize("step", [7, 8, 9, HISTORY_BLOCK - 1, HISTORY_BLOCK,
                                  2 * HISTORY_BLOCK, 2 * HISTORY_BLOCK + 1])
def test_causal_across_block_boundary(sec6_problem, eta_state, step):
    # the first near piece (NEAR_PIECE = 8) holds steps 1..8: dW_7 first
    # enters step 8 (its own product), dW_8 step 9 (the piece's push) and
    # dW_9 step 10 (the own product of the next near piece);
    # dW_{B-1} first enters the last step of the first block (near field),
    # dW_B the first step of the second block (push), B = HISTORY_BLOCK; the
    # rows of the first block move into the exponentials at step 2B + 1
    rng = np.random.default_rng(1)
    base = rng.normal(size=(3, 70))
    bumped = base.copy()
    bumped[:, step] += 1.5
    e1 = simulate_em(sec6_problem, eta_state, PresetDriver(base), 3)
    e2 = simulate_em(sec6_problem, eta_state, PresetDriver(bumped), 3)
    assert np.array_equal(e1.paths[:step + 1], e2.paths[:step + 1])
    assert not np.array_equal(e1.paths[step + 1], e2.paths[step + 1])


@pytest.mark.parametrize("scheme", ["em", "mild", "picard"])
def test_finite_mask_is_the_output_check(scheme):
    # a drift that is inf above 9 blows up some paths from (3, 5) and none
    # from (-5, -3). The kernel's mask over the two stacked copies of the
    # feedback recurrence, or over one copy of picard_apply's operator (its
    # drift reads stored paths, passed as known), equals the check of every
    # output value; so do the flags of the stored ensembles
    n_steps, n_paths = 100, 256
    zero = np.zeros((2, 2))
    p = make_problem(a_mat=zero, b_mat=zero, drift=flaky_above(9.0),
                     diffusion=one_fn, horizon=5.0)
    drv = BrownianDriver(seed=7, n_steps=n_steps)
    inits = [InitialState(v) for v in ([3.0, 5.0], [-5.0, -3.0])]
    etas = np.stack([init.eta for init in inits], axis=1)
    tables = kernel_tables(p, n_steps, "em" if scheme == "em" else "mild")
    dw = drv.increments_block(range(n_paths), p.horizon / n_steps)
    if scheme == "picard":
        y = simulate_em(dataclasses.replace(p, drift=zero_fn), inits[0], drv,
                        n_paths)
        ensembles = [picard_apply(p, inits[0], y)]
        # the kernel never reads the last known row: the mask covers the output
        known = y.paths.copy()
        known[-1] = np.nan
        out = np.empty((n_steps + 1, p.dim, 1, n_paths))
        finite = _step_paths(tables, p, etas[:, :1], dw, out, known)
    else:
        ensembles = coupled_pair(p, *inits, drv, n_paths, scheme=scheme)
        out = np.empty((n_steps + 1, p.dim, 2, n_paths))
        finite = _step_paths(tables, p, etas, dw, out)
    assert np.array_equal(finite, np.isfinite(out).all(axis=(0, 1)).ravel())
    assert 0 < np.count_nonzero(~finite) < n_paths
    for e in ensembles:
        assert np.array_equal(e.flags, ~np.isfinite(e.paths).all(axis=(0, 1)))


class RecordedRows:
    """An increment stream that serves the rows of dw once each, in step
    order, and records the step of every read, one past the last row
    included."""

    def __init__(self, dw):
        self._dw, self.reads = dw, []

    def __iter__(self):
        return self

    def __next__(self):
        n = len(self.reads)
        self.reads.append(n)
        if n == len(self._dw):
            raise StopIteration
        return self._dw[n]


@pytest.mark.parametrize("scheme", sorted(TABLES))
@pytest.mark.parametrize("given", [False, True])
@pytest.mark.parametrize("n_steps", [HISTORY_BLOCK, HISTORY_BLOCK + 1,
                                     solvers.NOISE_SLAB, solvers.NOISE_SLAB + 1])
def test_core_reads_each_increment_row_once_in_step_order(
        sec6_problem, eta_state, scheme, given, n_steps):
    # the kernel reads its increments only by iteration, each row once and
    # in step order, the row count from its tables, across block and slab
    # edges, with and without known: the rows of an array, stepped the same
    p, n_paths = sec6_problem, 5
    drv = BrownianDriver(seed=4, n_steps=n_steps)
    tables = TABLES[scheme](p, n_steps)
    dw = drv.increments_block(range(n_paths), p.horizon / n_steps)
    etas = np.stack([eta_state.eta, -eta_state.eta], axis=1)
    known = simulate_em(p, eta_state, drv, n_paths).paths if given else None
    outs = [np.empty((n_steps + 1, p.dim, 2, n_paths)) for _ in range(2)]
    rows = RecordedRows(dw)
    finite = [_step_paths(tables, p, etas, rows, outs[0], known),
              _step_paths(tables, p, etas, dw, outs[1], known)]
    assert rows.reads == list(range(n_steps))
    assert np.array_equal(*outs) and np.array_equal(*finite)


class CountingOut:
    """A write-only core output that records each assignment's rows."""

    def __init__(self, shape):
        self.rows = np.empty(shape)
        self.writes = []

    def __setitem__(self, key, x):
        self.writes.append(key.indices(len(self.rows))[:2])
        self.rows[key] = x


@pytest.mark.parametrize("scheme", sorted(TABLES))
@pytest.mark.parametrize("n_steps", STEP_COUNTS + LONG_STEP_COUNTS[:1])
def test_core_writes_each_block_once(sec6_problem, eta_state, monkeypatch,
                                     scheme, n_steps):
    # three chunks over 5 paths: each chunk's output takes x0 and then each
    # block of B = HISTORY_BLOCK steps in one assignment, ceil(N/B) + 1 in
    # all, in order, and the rows are the stored ensemble's
    monkeypatch.setattr(solvers, "CHUNK_PATHS", 2)
    p, blk = sec6_problem, HISTORY_BLOCK
    drv = BrownianDriver(seed=5, n_steps=n_steps)
    noise = solvers._draw(p, drv, 5, eta_state)
    sinks = {}

    def out(cols):
        width = len(range(5)[cols])
        sinks[cols.start] = CountingOut((n_steps + 1, p.dim, 1, width))
        return sinks[cols.start]

    solvers._run(p, kernel_tables(p, n_steps, scheme), [eta_state], 5, noise, out)
    paths = SIMULATORS[scheme](p, eta_state, drv, 5).paths
    blocks = [(0, 1)] + [(n0, min(n0 + blk, n_steps + 1))
                         for n0 in range(1, n_steps + 1, blk)]
    assert len(blocks) == math.ceil(n_steps / blk) + 1
    assert sorted(sinks) == [0, 2, 4]
    for lo, sink in sinks.items():
        assert sink.writes == blocks
        assert np.array_equal(sink.rows[:, :, 0], paths[..., lo:lo + 2])


def _core_peak_bytes(p, scheme, n_steps, n_paths, sink=False):
    # the core's own peak: the output, one copy of (dim, 1, n_paths) rows or,
    # with sink, the squared norms that _SqDistances writes, is the caller's
    # like the inputs
    tables = TABLES[scheme](p, n_steps)
    drv = BrownianDriver(seed=3, n_steps=n_steps)
    dw = drv.increments_block(range(n_paths), p.horizon / n_steps)
    etas = InitialState([3.0, 5.0]).eta[:, None]
    if sink:
        out = analysis._SqDistances(np.empty((n_steps + 1, 1, n_paths)), chain=True)
    else:
        out = np.empty((n_steps + 1, p.dim, 1, n_paths))
    tracemalloc.start()
    try:
        _step_paths(tables, p, etas, dw, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _growth_per_step(p, scheme, n_paths, sink=False):
    short = _core_peak_bytes(p, scheme, 100, n_paths, sink)
    long = _core_peak_bytes(p, scheme, 200, n_paths, sink)
    return (long - short) / 100


def test_memory_grows_by_history_and_paths_only(sec6_problem):
    # the em core holds one block of history and pushes it to the next
    # block only, so from 100 to 200 steps (same K) nothing grows with the
    # grid; a whole history would add one [A x; B x + b; sigma dW] row
    # (3*dim) per path and step
    n_paths = 2048
    row = sec6_problem.dim * n_paths * 8
    assert _growth_per_step(sec6_problem, "em", n_paths) <= 0.1 * row


def test_em_core_holds_one_block_of_history(sec6_problem):
    # the core's peak is one block of [A x; B x + b; sigma dW] channels
    # (3 dim per path and step), the K exponential states and the product
    # buffer that takes their update (one state's size each), and at most
    # three blocks of output rows for the rest, the exponentials' own
    # (K, 3B) tables and the grid (1.33 MB against a 1.49 MB bound at
    # N = 4000); the pending sums are the output. K grows with log N (72 at
    # N = 500, 86 at N = 4000). A window of 2B history rows adds a second
    # block of channels and fails this bound at both sizes (1.83 MB at
    # N = 4000)
    p, n_paths = sec6_problem, 256
    rows = HISTORY_BLOCK * p.dim * n_paths * 8
    for n_steps in (500, 4000):
        k = em_kernel_tables(p, n_steps).rates.size
        states = k * p.dim * n_paths * 8
        peak = _core_peak_bytes(p, "em", n_steps, n_paths)
        assert peak <= 3 * rows + 2 * states + 3 * rows, n_steps


def test_mild_memory_grows_by_pending_rows_only(sec6_problem):
    # mild pushes each block of [b; sigma dW] channels to every later block.
    # Into a write-once sink the pending sums of the later rows are the only
    # thing that grows: dim doubles per path and step (a history kept whole
    # would be 2*dim). Into an array they are the output itself, and nothing
    # grows with the grid
    n_paths = 2048
    row = sec6_problem.dim * n_paths * 8
    assert _growth_per_step(sec6_problem, "mild", n_paths, sink=True) <= 1.1 * row
    assert _growth_per_step(sec6_problem, "mild", n_paths) <= 0.1 * row


def _picard_peak_bytes(p, eta, n_steps, n_paths):
    # the traced peak of one picard_apply with mild tables, built untraced
    y = simulate_em(p, eta, BrownianDriver(seed=3, n_steps=n_steps), n_paths)
    tables = mild_kernel_tables(p, n_steps)
    tracemalloc.start()
    try:
        picard_apply(p, eta, y, tables=tables)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_picard_apply_holds_output_and_history_only(sec6_problem, eta_state):
    # two chunks, mild tables: the output (dim per path-step) and, per
    # chunk, O(one block): the [b; sigma dW] channels of B = HISTORY_BLOCK
    # known rows (two blocks of output rows) and the product buffer (one);
    # measured 3.3 blocks. Each block is summed in its own output rows, the
    # input ensemble is read in place, and a history of every step (2*dim
    # per step) would be about 38 blocks more at this N
    p, n_steps, n_paths = sec6_problem, 600, 2 * solvers.CHUNK_PATHS
    peak = _picard_peak_bytes(p, eta_state, n_steps, n_paths)
    row = p.dim * n_paths * 8
    block = HISTORY_BLOCK * p.dim * solvers.CHUNK_PATHS * 8
    assert peak <= (n_steps + 1) * row + 6 * block


def test_picard_apply_grows_by_output_rows_only(sec6_problem, eta_state,
                                                monkeypatch):
    # from 600 to 2400 steps the peak grows by the 1800 output rows alone:
    # the kernel's history is one block whatever N is. Two chunks of 128
    # paths; a history of every step would double the growth
    monkeypatch.setattr(solvers, "CHUNK_PATHS", 128)
    p, n_paths = sec6_problem, 256
    growth = (_picard_peak_bytes(p, eta_state, 2400, n_paths)
              - _picard_peak_bytes(p, eta_state, 600, n_paths))
    assert growth <= 1.02 * 1800 * p.dim * n_paths * 8


@pytest.mark.parametrize("scheme", sorted(TABLES))
@pytest.mark.parametrize("table_steps", [30, 80])
def test_picard_apply_refuses_tables_of_another_grid(sec6_problem, eta_state,
                                                     scheme, table_steps):
    # tables for 80 steps on a 50-step ensemble would step it up to 27 %
    # off, with no error, and tables for 30 steps would end in a raw
    # IndexError: both are refused, naming both step counts, before a step
    y = simulate_em(sec6_problem, eta_state, BrownianDriver(seed=1, n_steps=50), 8)
    tables = TABLES[scheme](sec6_problem, table_steps)
    with pytest.raises(ValidationError, match=f"^kernel tables are for "
                       f"{table_steps} steps, the ensemble has 50$"):
        picard_apply(sec6_problem, eta_state, y, tables=tables)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("drawn", [False, True])
@pytest.mark.parametrize("noise_steps", [40, 60])
def test_run_refuses_increments_of_another_grid(sec6_problem, eta_state,
                                                monkeypatch, threads, drawn,
                                                noise_steps):
    # tables for 50 steps: 40 steps of increments, stored or drawn, ran out
    # inside the kernel (a misleading EnsembleError at one thread, a
    # RuntimeError at two), and a 60-step driver stepped silently with its
    # own h. Both are refused, naming both step counts, before any chunk
    monkeypatch.setattr(solvers, "CHUNK_PATHS", 4)
    p, n_paths = sec6_problem, 8
    noise = solvers._draw(p, BrownianDriver(seed=1, n_steps=noise_steps),
                          n_paths, eta_state)
    chunks = []

    def out(cols):
        chunks.append(cols)
        return np.empty((51, p.dim, 1, len(range(n_paths)[cols])))

    with pytest.raises(ValidationError, match=f"^kernel tables are for 50 steps, "
                       f"the increments for {noise_steps}$"):
        solvers._run(p, em_kernel_tables(p, 50), [eta_state], n_paths,
                     noise if drawn else noise(slice(None)), out, threads)
    assert not chunks


def test_picard_iterates_agree_bit_for_bit_on_their_shared_rows(sec6_problem,
                                                                eta_state):
    # row n of T Y reads rows 0..n-1 of Y, so iterate k + 1 equals iterate
    # k exactly on rows 0..k: the zero differences that contraction_report's
    # weighted sup skips. No product of row n reads a later row, so the
    # agreement is bit for bit also past the block boundaries at rows 33
    # and 65. (From k = 25 on here the iterates agree on more rows: their
    # differences fall below rounding.)
    n_steps = 70
    drv = BrownianDriver(seed=12, n_steps=n_steps)
    tables = mild_kernel_tables(sec6_problem, n_steps)
    current = constant_ensemble(sec6_problem, eta_state, drv, 4)
    for k in range(n_steps + 1):
        nxt = picard_apply(sec6_problem, eta_state, current, tables=tables)
        assert np.array_equal(nxt.paths[:k + 1], current.paths[:k + 1])
        current = nxt


def test_kernel_tables_dispatch(sec6_problem):
    em = kernel_tables(sec6_problem, 8, "em")
    assert np.array_equal(em.weights, em_kernel_tables(sec6_problem, 8).weights)
    # em: scalar weights over three channels
    assert em.weights.shape == (9, 1, 3)
    assert em.x_map.shape == (4, 2)
    mild = kernel_tables(sec6_problem, 8, "mild")
    # mild: no x-memory channel, dense (dim, 2*dim) blocks
    assert mild.weights.shape == (9, 2, 4)
    assert mild.x_map is None
    with pytest.raises(ValidationError, match=r"unknown scheme 'magic' \(choices"):
        kernel_tables(sec6_problem, 8, "magic")


def test_near_tables_stop_below_history_block(sec6_problem):
    n_steps = 3 * HISTORY_BLOCK
    for scheme in TABLES:
        tables = kernel_tables(sec6_problem, n_steps, scheme)
        assert tables.weights.shape[0] == n_steps + 1


def test_mild_tables_carry_no_exponentials(sec6_problem):
    # mild's far field is a shared basis, not exponentials: at 80 steps the
    # windows s = 2B..79 (B = HISTORY_BLOCK) of the third block's pushes.
    # At 64 steps no full piece is two blocks back of another: no far field
    blk = HISTORY_BLOCK
    tables = mild_kernel_tables(sec6_problem, 80)
    assert tables.rates.size == 0 and tables.far_weights.shape == (0, 2, 4)
    assert tables.far_lag == blk + 1
    k = len(tables.far_basis)
    assert tables.far_basis.shape == (k, blk * 4)
    assert 0 < k <= solvers._basis_limit(80, 2, 4)
    assert tables.far_rows.shape == (81, 2, k)
    assert not tables.far_rows[:2 * blk].any() and not tables.far_rows[80].any()
    short = mild_kernel_tables(sec6_problem, 2 * blk)
    assert short.far_basis is None and short.far_rows is None
    assert short.far_lag == 2 * blk + 1


def _mild_far_errors(tables):
    """Per far window s and lag block b: the relative Frobenius error of
    far_rows[s] @ far_basis against weights[s - b], formed here from the
    definition, one window at a time."""
    blk = HISTORY_BLOCK
    n_steps, r, cf = tables.weights.shape
    n_steps -= 1
    errs = []
    for s in range(2 * blk, n_steps):
        approx = (tables.far_rows[s] @ tables.far_basis).reshape(r, blk, cf)
        exact = tables.weights[s - np.arange(blk)].transpose(1, 0, 2)
        errs.append(np.linalg.norm(approx - exact, axis=(0, 2))
                    / np.linalg.norm(exact, axis=(0, 2)))
    return np.array(errs)


@pytest.mark.parametrize("horizon, n_steps", [(1.0, 64), (20.0, 64), (1.0, 100),
                                              (1.0, 1000), (20.0, 1000)])
def test_mild_basis_holds_every_far_lag(horizon, n_steps):
    # every far lag at every position in every window that a push reads:
    # within SOE_TOL relative per (dim, 2 dim) lag block, with an
    # orthonormal basis of 16 to 20 rows (measured; the limit is 54 at 100
    # steps, 113 at 1000). At 64 steps there is nothing far to hold
    p = make_problem(horizon=horizon)
    tables = mild_kernel_tables(p, n_steps)
    if n_steps <= 2 * HISTORY_BLOCK:
        assert tables.far_basis is None
        return
    basis = tables.far_basis
    assert 10 <= len(basis) <= 24
    assert np.abs(basis @ basis.T - np.eye(len(basis))).max() <= 1e-14
    errs = _mild_far_errors(tables)
    assert errs.shape == (n_steps - 2 * HISTORY_BLOCK, HISTORY_BLOCK)
    assert errs.max() <= SOE_TOL


def test_mild_basis_off_raises_and_falls_back(sec6_problem, monkeypatch):
    # a basis that misses one lag block is refused by the build-time check,
    # which names the lag; mild_kernel_tables then keeps every lag exact
    tables = mild_kernel_tables(sec6_problem, 200)
    rows = tables.far_rows.copy()
    rows[150, 0] *= 1.0 + 1e-10
    with pytest.raises(NonConvergenceError,
                       match=r"shared-basis far field: lag 1[2-5]\d block is off by"):
        dataclasses.replace(tables, far_rows=rows)
    monkeypatch.setattr(solvers, "_far_basis",
                        lambda w: (tables.far_basis, rows))
    exact = mild_kernel_tables(sec6_problem, 200)
    assert exact.far_basis is None and exact.far_lag == 201


def test_stable_pair_declines_the_basis(eta_state):
    # A = -[[1, .2], [0, 1]], B = -[[1, 0], [.3, 1]] at T = 5: the decaying
    # kernels need the full rank B cf = 128, so the tables carry no basis and
    # every lag is pushed exactly. The paths still match the direct loop,
    # and the operator maps them to themselves bit for bit
    p = make_problem(a_mat=-np.array([[1.0, 0.2], [0.0, 1.0]]),
                     b_mat=-np.array([[1.0, 0.0], [0.3, 1.0]]), horizon=5.0)
    n_steps = 300
    tables = mild_kernel_tables(p, n_steps)
    assert tables.far_basis is None and tables.far_lag == n_steps + 1
    ens = simulate_mild(p, eta_state, BrownianDriver(seed=3, n_steps=n_steps), 3)
    assert_close_per_step(ens.paths, direct_paths(
        "mild", p, ens.grid, ens.paths[0], ens.increments))
    assert np.array_equal(picard_apply(p, eta_state, ens).paths, ens.paths)


@pytest.mark.parametrize("n_steps, limit", [(32, 0), (64, 0), (65, 42), (96, 42),
                                            (300, 88), (4000, 123)])
def test_basis_limit_is_the_flop_crossover(n_steps, limit):
    # the largest k for which F far pushes of (B r, k) and P coordinate
    # products of (k, B cf) take fewer flops than F exact (B r, B cf)
    # pushes, with r = 2, cf = 4 (sec6 mild) and nb blocks: F = (nb - 2)
    # (nb - 1) / 2 pushes of P = nb - 2 pieces; none below three blocks
    blk, r, cf = HISTORY_BLOCK, 2, 4
    assert solvers._basis_limit(n_steps, r, cf) == limit
    nb = len(solvers._blocks(n_steps))
    far, pieces = (nb - 2) * (nb - 1) // 2, nb - 2
    exact = far * (blk * r) * (blk * cf)
    cost = lambda k: far * (blk * r) * k + pieces * k * (blk * cf)
    if limit:
        assert cost(limit) < exact <= cost(limit + 1)


def lag_blocks(weights, n0, n1, j0, j1):
    """weights[n - j] of the steps n0..n1-1 against the history rows
    j0..j1-1, (n1 - n0, r, j1 - j0, cf), one lag at a time."""
    r, cf = weights.shape[1:]
    out = np.empty((n1 - n0, r, j1 - j0, cf))
    for n in range(n0, n1):
        for j in range(j0, j1):
            out[n - n0, :, j - j0] = weights[n - j]
    return out


def assert_lag_view(weights, n0, n1, j0, j1):
    # a read-only view of the table itself, whose product copy holds the
    # same values
    view = solvers._lag_view(weights, n0, n1, j0, j1)
    assert np.shares_memory(view, weights) and not view.flags.writeable
    assert np.array_equal(view, lag_blocks(weights, n0, n1, j0, j1))


@pytest.mark.parametrize("scheme", sorted(TABLES))
@pytest.mark.parametrize("n_steps", [150, 1000])
def test_lag_view_reads_the_lag_table(sec6_problem, scheme, n_steps):
    # every lag block the kernel and the mild basis read: the row-0 piece
    # against every block, each full piece pushed into the next block, the
    # partial last block, and every far window s = 2B..n_steps-1 (the lags
    # s, ..., s - B + 1)
    blk = HISTORY_BLOCK
    weights = TABLES[scheme](sec6_problem, n_steps).weights
    blocks = solvers._blocks(n_steps)
    assert blocks[-1][1] - blocks[-1][0] < blk      # a partial last block
    for m0, m1 in blocks:
        assert_lag_view(weights, m0, m1, 0, 1)
    for (j0, j1), (m0, m1) in zip(blocks, blocks[1:]):
        assert_lag_view(weights, m0, m1, j0, j1)
    assert_lag_view(weights, 2 * blk, n_steps, 0, blk)


@pytest.mark.parametrize("scheme", sorted(TABLES))
def test_near_weights_on_a_grid_shorter_than_a_block(sec6_problem, scheme):
    # own: lags P - 1 .. 1 side by side; push: rows P..B-1 against rows
    # 0..P-1 of a piece; lags past the 20-step grid are zero, and scalar
    # weights are kron(w, I)
    p, n_steps, piece = sec6_problem, 20, solvers.NEAR_PIECE
    tables = TABLES[scheme](p, n_steps)
    weights = tables.weights
    dense = [np.kron(weights[k], np.eye(p.dim)) if weights.shape[1] == 1
             else weights[k] for k in range(n_steps + 1)]
    dense += [np.zeros_like(dense[0])] * (HISTORY_BLOCK - n_steps - 1)
    own, push = solvers._near_weights(tables, p.dim)
    assert np.array_equal(own, np.hstack(
        [dense[piece - 1 - j] for j in range(piece - 1)]))
    assert np.array_equal(push, np.vstack(
        [np.hstack([dense[n - j] for j in range(piece)])
         for n in range(piece, HISTORY_BLOCK)]))


def test_far_windows_are_read_in_place(sec6_problem):
    # the far windows of a 4000-step mild table are a view of the table:
    # reading them, B windows at a time as the basis build and check do,
    # allocates no copy of it
    blk = HISTORY_BLOCK
    weights = mild_kernel_tables(sec6_problem, 4000).weights
    tracemalloc.start()
    try:
        windows = solvers._lag_view(weights, 2 * blk, len(weights) - 1, 0, blk)
        read = sum(len(windows[lo:lo + blk]) for lo in range(0, len(windows), blk))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == len(weights) - 1 - 2 * blk
    assert peak < 0.01 * weights.nbytes


def test_stable_pair_declines_in_one_pass(monkeypatch):
    # the build takes the 30 far block offsets of 1000 steps in lag order,
    # FAR_BASIS_OFFSETS at a time, in one pass: the stable pair needs more
    # than the limit before the last group and stops at that group, sec6
    # takes all four groups
    calls = []
    extend = solvers._extend_basis

    def spy(windows, offsets, *args):
        k = extend(windows, offsets, *args)
        calls.append((list(offsets), k))
        return k

    monkeypatch.setattr(solvers, "_extend_basis", spy)
    groups = [list(range(lo, min(lo + 8, 30))) for lo in range(0, 30, 8)]
    p = make_problem(a_mat=-np.array([[1.0, 0.2], [0.0, 1.0]]),
                     b_mat=-np.array([[1.0, 0.0], [0.3, 1.0]]), horizon=5.0)
    assert mild_kernel_tables(p, 1000).far_basis is None
    assert 0 < len(calls) < len(groups) and calls[-1][1] is None
    assert [offsets for offsets, _ in calls] == groups[:len(calls)]
    calls.clear()
    tables = mild_kernel_tables(make_problem(), 1000)
    assert tables.far_basis is not None
    assert [offsets for offsets, _ in calls] == groups


@pytest.mark.parametrize("horizon", [1.0, 20.0])
@pytest.mark.parametrize("n_steps", [400, 1000])
def test_mild_far_field_matches_direct_loop(eta_state, horizon, n_steps):
    # most of each step's history is read through the shared basis here,
    # with feedback and by picard_apply; an exact-push run is the same
    # recurrence regrouped, to rounding
    p = make_problem(horizon=horizon)
    drv = BrownianDriver(seed=6, n_steps=n_steps)
    tables = mild_kernel_tables(p, n_steps)
    assert tables.far_basis is not None
    ens = simulate_mild(p, eta_state, drv, 3)
    assert_close_per_step(ens.paths, direct_paths(
        "mild", p, ens.grid, ens.paths[0], ens.increments))
    y = simulate_em(p, eta_state, drv, 3)
    out = picard_apply(p, eta_state, y, tables=tables)
    assert_close_per_step(out.paths, direct_paths(
        "mild", p, y.grid, y.paths[0], y.increments, known=y.paths))
    exact = dataclasses.replace(tables, far_basis=None, far_rows=None)
    assert_close_per_step(picard_apply(p, eta_state, y, tables=exact).paths,
                          out.paths)


def test_mild_fixed_point_through_the_basis(sec6_problem, eta_state,
                                            monkeypatch):
    # 200 steps: seven blocks, so a piece is pushed through the basis into
    # up to five later blocks. Each output row takes the same products in
    # the same order with and without feedback, over three chunks
    monkeypatch.setattr(solvers, "CHUNK_PATHS", 4)
    n_steps = 200
    tables = mild_kernel_tables(sec6_problem, n_steps)
    assert tables.far_basis is not None
    assert len(solvers._blocks(n_steps)) - 2 >= 3
    star = simulate_mild(sec6_problem, eta_state,
                         BrownianDriver(seed=14, n_steps=n_steps), 10)
    image = picard_apply(sec6_problem, eta_state, star, tables=tables)
    assert np.array_equal(image.paths, star.paths)


@pytest.mark.parametrize("q", [0.05, 0.1, 0.5, 0.75, 0.95, 1.3])
def test_cell_weights_match_forty_digit_values(q):
    # specfun.rl_weights, which the em tables, rl_integral_all and the lemma
    # check read, against (m h)^q - ((m - 1) h)^q in 40-digit decimal
    # arithmetic, divided by Gamma(q + 1) in floating point as it does.
    # q = 0.1 is the lemma's 2 alpha - 1 at alpha = 0.55; 1.3 is an I^q > 1
    h = 0.01
    lags = [1, 2, 10, 1000, 99_999, 100_000]
    got = rl_weights(q, h, 100_000)[lags]
    with localcontext() as ctx:
        ctx.prec = 40
        dq, dh = Decimal(q), Decimal(h)
        ref = [float((m * dh) ** dq - ((m - 1) * dh) ** dq) for m in lags]
    ref = np.array(ref) * reciprocal_gamma(q + 1.0)
    assert np.all(np.abs(got - ref) <= 1e-15 * ref)
    assert rl_weights(q, h, 5)[0] == 0.0


@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.95])
@pytest.mark.parametrize("beta_frac", [0.02, 0.98])
@pytest.mark.parametrize("n_steps", [64, 1000, 10_000])
def test_exponentials_hold_every_far_lag(alpha, beta_frac, n_steps):
    # building the tables checks every far lag; here the sum is also compared
    # with the k_s kernel itself, formed without the tables, at both ends
    p = make_problem(alpha=alpha, beta=beta_frac * alpha, horizon=3.0)
    tables = em_kernel_tables(p, n_steps)
    assert tables.far_lag == HISTORY_BLOCK + 1
    h = p.horizon / n_steps
    lags = np.array([HISTORY_BLOCK + 1, n_steps])
    approx = np.exp(-np.outer(lags, tables.rates)) @ tables.far_weights[:, 0, 2]
    k_s = (lags * h) ** (alpha - 1.0) * reciprocal_gamma(alpha)
    assert np.all(np.abs(approx - k_s) <= SOE_TOL * k_s)


def test_em_table_check_runs_in_lag_blocks():
    # the far-field check takes FAR_CHECK_LAGS lags at a time, so at
    # N = 10^5 the build peaks at the tables it keeps (weights and
    # init_mats, 5.6 MB) plus a few grid-sized vectors: 9.6 MB measured.
    # Checked all at once, the (N, K) arrays of exponentials made it 168 MB
    p = make_problem(horizon=3.0)
    n_steps = 100_000
    tracemalloc.start()
    try:
        tables = em_kernel_tables(p, n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = tables.weights.nbytes + tables.init_mats.nbytes
    assert peak <= 2 * kept


@pytest.mark.parametrize("n_steps, n_rates", [(40, 36), (300, 48), (1000, 55),
                                              (10_000, 69)])
def test_exponentials_keep_a_tenfold_margin(n_steps, n_rates):
    # one Gauss-Legendre rule of SOE_LOG_NODES nodes per unit of ln x, and
    # two Gauss-Jacobi rules: K = ceil(6 ln(40 N / 33)) + 12 rates hold every
    # far lag weight to SOE_TOL / 10 over the whole range of orders (the
    # worst measured is 4e-15; 5.5 nodes per unit reach 3e-14)
    margin = SOE_TOL / 10
    for alpha in (0.51, 0.75, 0.99):
        for beta in (0.01, alpha / 2, alpha - 0.01):
            p = make_problem(alpha=alpha, beta=beta, horizon=3.0)
            tables = em_kernel_tables(p, n_steps)
            assert tables.rates.size == n_rates
            for _, err, scale in tables._exponential_errors():
                assert np.all(err <= margin * scale)


@pytest.mark.parametrize("constant, value", [("SOE_LOG_NODES", 2.0),
                                             ("SOE_JACOBI_NODES", 1)])
def test_coarse_exponentials_raise(sec6_problem, monkeypatch, constant, value):
    monkeypatch.setattr(solvers, constant, value)
    with pytest.raises(NonConvergenceError, match=r"lag \d+ weight \d is off by"):
        em_kernel_tables(sec6_problem, 400)
