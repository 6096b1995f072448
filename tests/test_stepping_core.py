"""The time-blocked stepping core against a direct O(N^2) per-step loop.

The blocked core splits each step's lag sum into a near field inside the
current block, an exact slab over older history and, for em, exponential
states that carry every lag beyond HISTORY_BLOCK. The slab and near field
regroup the direct sum; the exponentials are checked against the exact lag
weights to SOE_TOL = 1e-13 relative when the tables are built. So the core
matches the direct sum to 1e-12 * max|x_n| at every step n, also on grids
where the exponentials carry most of the history.

The direct loop does not read the core's tables. It builds each scheme's lag
kernels here, as dense (dim, 3*dim) blocks against the history [x; b; sigma dW],
straight from the product-quadrature weights.
"""

import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from smtde import solvers
from smtde.errors import NonConvergenceError, ValidationError
from smtde.mlmatrix import MLParams, QTable, ml_nonperm_grid
from smtde.solvers import (HISTORY_BLOCK, SOE_TOL, BrownianDriver,
                           InitialState, _apply_known, _step_paths,
                           constant_ensemble, coupled_pair,
                           em_kernel_tables, kernel_tables, mild_kernel_tables,
                           picard_apply, simulate_em, simulate_mild)
from smtde.specfun import reciprocal_gamma, rl_weights

from conftest import (PresetDriver, flaky_above, make_problem, one_fn,
                      zero_fn)

REL_TOL = 1e-12
STEP_COUNTS = (1, 31, 32, 33, 67)
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
    x = np.empty((n_steps + 1,) + x0.shape)
    x[0] = x0
    src = x if known is None else known
    hist = []
    for n in range(1, n_steps + 1):
        j = n - 1
        xj = src[j]
        hist.append(np.concatenate([xj, p.drift(times[j], xj),
                                    p.diffusion(times[j], xj) * dw[j]]))
        x[n] = init_mats[n] @ x0
        for i in range(n):
            x[n] += kbig[n - i] @ hist[i]
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
    # by the near field, then by the exact slab, then from lag B + 1 on by
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


@pytest.mark.parametrize("step", [HISTORY_BLOCK - 1, HISTORY_BLOCK,
                                  2 * HISTORY_BLOCK, 2 * HISTORY_BLOCK + 1])
def test_causal_across_block_boundary(sec6_problem, eta_state, step):
    # dW_{B-1} first enters the last step of the first block (near field),
    # dW_B the first step of the second block (slab), B = HISTORY_BLOCK; the
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
    # from (-5, -3). The feedback core's mask over the two stacked copies,
    # or the no-feedback kernel's over one copy of picard_apply's operator
    # (its drift reads stored paths), equals the check of every output
    # value; so do the flags of the stored ensembles
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
        finite = _apply_known(tables, p, etas[:, :1], known, dw, out)
    else:
        ensembles = coupled_pair(p, *inits, drv, n_paths, scheme=scheme)
        out = np.empty((n_steps + 1, p.dim, 2, n_paths))
        finite = _step_paths(tables, p, etas, dw, out)
    assert np.array_equal(finite, np.isfinite(out).all(axis=(0, 1)).ravel())
    assert 0 < np.count_nonzero(~finite) < n_paths
    for e in ensembles:
        assert np.array_equal(e.flags, ~np.isfinite(e.paths).all(axis=(0, 1)))


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


def _core_peak_bytes(p, scheme, n_steps, n_paths):
    # the core's own peak: the output, one copy of (dim, 1, n_paths) rows,
    # is the caller's like the inputs
    tables = TABLES[scheme](p, n_steps)
    drv = BrownianDriver(seed=3, n_steps=n_steps)
    dw = drv.increments_block(range(n_paths), p.horizon / n_steps)
    etas = InitialState([3.0, 5.0]).eta[:, None]
    out = np.empty((n_steps + 1, p.dim, 1, n_paths))
    tracemalloc.start()
    try:
        _step_paths(tables, p, etas, dw, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _growth_per_step(p, scheme, n_paths):
    short = _core_peak_bytes(p, scheme, 100, n_paths)
    long = _core_peak_bytes(p, scheme, 200, n_paths)
    return (long - short) / 100


def test_memory_grows_by_history_and_paths_only(sec6_problem):
    # the em history is a window of 2B rows, so from 100 to 200 steps
    # (same K) nothing grows with the grid; a whole history would add one
    # [A x; B x + b; sigma dW] row (3*dim) per path and step
    n_paths = 2048
    row = sec6_problem.dim * n_paths * 8
    assert _growth_per_step(sec6_problem, "em", n_paths) <= 0.1 * row


def test_em_history_window_does_not_grow_with_steps(sec6_problem):
    # the core's peak is the history window, the K exponential states and
    # the block accumulators. K grows with log N (72 at N = 500, 86 at
    # N = 4000); a whole history would make the peak 7x larger at 4000
    short = _core_peak_bytes(sec6_problem, "em", 500, 256)
    long = _core_peak_bytes(sec6_problem, "em", 4000, 256)
    assert long <= 1.1 * short


def test_mild_memory_grows_by_history_and_paths_only(sec6_problem):
    # mild records no x-memory channel and keeps all of its history:
    # [b; sigma dW] (2*dim) per path and step
    n_paths = 2048
    per_step = 2 * sec6_problem.dim * n_paths * 8
    assert _growth_per_step(sec6_problem, "mild", n_paths) <= 1.1 * per_step


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
    # known rows (two blocks of output rows), the block product and the
    # initial term (one each); measured 4.3 blocks. The input ensemble is
    # read in place, and a history of every step (2*dim per step) would be
    # about 38 blocks more at this N
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
    tables = mild_kernel_tables(sec6_problem, 80)
    assert tables.rates.size == 0 and tables.far_weights.shape == (0, 2, 4)
    assert tables.far_lag == 81


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


@pytest.mark.parametrize("constant, value", [("SOE_PANEL_NODES", 4),
                                             ("SOE_JACOBI_NODES", 1)])
def test_coarse_exponentials_raise(sec6_problem, monkeypatch, constant, value):
    monkeypatch.setattr(solvers, constant, value)
    with pytest.raises(NonConvergenceError, match=r"lag \d+ weight \d is off by"):
        em_kernel_tables(sec6_problem, 400)
