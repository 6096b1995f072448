"""The time-blocked stepping core against a direct O(N^2) per-step loop.

The blocked core regroups each step's lag sum into a far field over completed
blocks and a near field inside the current block, so it matches the direct sum
up to rounding: at every step n the tolerance is 1e-12 * max|x_n|.

The direct loop does not read the core's tables. It builds each scheme's lag
kernels here, as dense (dim, 3*dim) blocks against the history [x; b; sigma dW],
straight from the product-quadrature weights.
"""

import tracemalloc

import numpy as np
import pytest

from smtde.errors import ValidationError
from smtde.mlmatrix import MLParams, QTable, ml_nonperm_grid
from smtde.solvers import (HISTORY_BLOCK, BrownianDriver, InitialState,
                           _step_paths, em_kernel_tables, kernel_tables,
                           mild_kernel_tables, picard_apply, simulate_em,
                           simulate_mild)
from smtde.specfun import reciprocal_gamma

from conftest import PresetDriver

REL_TOL = 1e-12
STEP_COUNTS = (1, 31, 32, 33, 67)
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
    computed. Shapes follow the core: (n_steps+1, dim, paths).
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
                                    p.diffusion(times[j], xj) * dw[:, j]]))
        x[n] = init_mats[n] @ x0
        for i in range(n):
            x[n] += kbig[n - i] @ hist[i]
    return x


def assert_close_per_step(got, ref):
    # (n_paths, n_steps+1, dim) paths: compare step by step
    scale = np.abs(ref).max(axis=(0, 2))
    err = np.abs(got - ref).max(axis=(0, 2))
    assert np.all(np.isfinite(got))
    assert np.all(err <= REL_TOL * scale), (err / scale).max()


def as_core(paths):
    return np.ascontiguousarray(paths.transpose(1, 2, 0))


def as_paths(x):
    return x.transpose(2, 0, 1)


@pytest.mark.parametrize("scheme", sorted(SIMULATORS))
@pytest.mark.parametrize("n_steps", STEP_COUNTS)
def test_feedback_matches_direct_loop(sec6_problem, eta_state, scheme, n_steps):
    drv = BrownianDriver(seed=4, n_steps=n_steps)
    ens = SIMULATORS[scheme](sec6_problem, eta_state, drv, 5)
    x0 = ens.paths[:, 0, :].T
    ref = direct_paths(scheme, sec6_problem, ens.grid, x0, ens.increments)
    assert_close_per_step(ens.paths, as_paths(ref))


@pytest.mark.parametrize("scheme", sorted(SIMULATORS))
@pytest.mark.parametrize("n_steps", STEP_COUNTS)
def test_no_feedback_matches_direct_loop(sec6_problem, eta_state, scheme, n_steps):
    drv = BrownianDriver(seed=9, n_steps=n_steps)
    y = simulate_em(sec6_problem, eta_state, drv, 5)
    tables = TABLES[scheme](sec6_problem, n_steps)
    out = picard_apply(sec6_problem, eta_state, y, tables=tables)
    known = as_core(y.paths)
    ref = direct_paths(scheme, sec6_problem, y.grid, known[0], y.increments,
                       known=known)
    assert_close_per_step(out.paths, as_paths(ref))


@pytest.mark.parametrize("step", [HISTORY_BLOCK - 1, HISTORY_BLOCK])
def test_causal_across_block_boundary(sec6_problem, eta_state, step):
    # dW_{B-1} first enters the last step of the first block (near field),
    # dW_B the first step of the second block (far field), B = HISTORY_BLOCK
    rng = np.random.default_rng(1)
    base = rng.normal(size=(3, 70))
    bumped = base.copy()
    bumped[:, step] += 1.5
    e1 = simulate_em(sec6_problem, eta_state, PresetDriver(base), 3)
    e2 = simulate_em(sec6_problem, eta_state, PresetDriver(bumped), 3)
    assert np.array_equal(e1.paths[:, :step + 1], e2.paths[:, :step + 1])
    assert not np.array_equal(e1.paths[:, step + 1], e2.paths[:, step + 1])


def _core_peak_bytes(p, scheme, n_steps, n_paths):
    tables = TABLES[scheme](p, n_steps)
    drv = BrownianDriver(seed=3, n_steps=n_steps)
    times = p.horizon / n_steps * np.arange(n_steps + 1)
    dw = drv.increments_block(range(n_paths), p.horizon / n_steps)
    x0 = InitialState.deterministic([3.0, 5.0]).sample_block(drv, range(n_paths))
    tracemalloc.start()
    try:
        _step_paths(tables, p, times, x0, dw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _growth_per_step(p, scheme, n_paths):
    short = _core_peak_bytes(p, scheme, 100, n_paths)
    long = _core_peak_bytes(p, scheme, 200, n_paths)
    return (long - short) / 100


def test_memory_grows_by_history_and_paths_only(sec6_problem):
    # per added step the em core keeps one [A x; B x + b; sigma dW] history
    # row (3*dim) and one output row (dim) per path; nothing else may grow
    # with the grid
    n_paths = 2048
    per_step = 4 * sec6_problem.dim * n_paths * 8
    assert _growth_per_step(sec6_problem, "em", n_paths) <= 1.1 * per_step


def test_mild_memory_grows_by_history_and_paths_only(sec6_problem):
    # mild records no x-memory channel: [b; sigma dW] (2*dim) plus the output
    n_paths = 2048
    per_step = 3 * sec6_problem.dim * n_paths * 8
    assert _growth_per_step(sec6_problem, "mild", n_paths) <= 1.1 * per_step


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
