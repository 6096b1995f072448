import math
import re
import tracemalloc

import numpy as np
import pytest

from smtde import analysis, cli, solvers
from smtde.analysis import (WeightedNormParams,
                            contraction_report, continuity_experiment,
                            init_term_sup_sq, convolution_bound_check,
                            log_weighted_norm, ml_sup_norm, ms_distance_series,
                            ms_norm, ms_norm_series, omega_threshold,
                            separation_experiment, simulate_ms_norm, zeta_const)
from smtde.errors import (DegenerateExperimentError, DomainError, EnsembleError,
                          ValidationError)
from smtde.solvers import (HISTORY_BLOCK, NOISE_SLAB, BrownianDriver,
                           InitialState, PathEnsemble, constant_ensemble,
                           coupled_pair, em_kernel_tables, picard_apply,
                           simulate_em, simulate_mild, squared_norms)

from conftest import (CountingDriver, flaky_above, make_problem, one_fn,
                      zero_fn)

ZERO2 = np.zeros((2, 2))


def manual_ensemble(grid, paths):
    # paths: (n_pts, dim, n_paths)
    paths = np.asarray(paths, dtype=float)
    n_pts, _, n_paths = paths.shape
    return PathEnsemble(grid=np.asarray(grid, dtype=float), paths=paths,
                        increments=np.zeros((n_pts - 1, n_paths)),
                        flags=~np.isfinite(paths).all(axis=(0, 1)))


class TestMsNorm:
    def test_initial_value_arithmetic(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=1, n_steps=20)
        ens = simulate_em(sec6_problem, eta_state, drv, 50)
        est, se = ms_norm(ens, 0)
        assert est == 34.0
        assert se == 0.0

    @pytest.mark.parametrize("t_index", [-1, 21])
    def test_t_index_outside_grid_rejected(self, sec6_problem, eta_state, t_index):
        drv = BrownianDriver(seed=1, n_steps=20)
        ens = simulate_em(sec6_problem, eta_state, drv, 5)
        with pytest.raises(ValidationError, match="outside grid"):
            ms_norm(ens, t_index)

    def test_identical_samples_give_exactly_zero_se(self):
        grid = np.linspace(0.0, 1.0, 5)
        paths = np.tile(np.array([[1.5], [-2.0]]), (5, 1, 6))
        ens = manual_ensemble(grid, paths)
        est, se = ms_norm(ens, 4)
        assert est == 1.5 ** 2 + 2.0 ** 2
        assert se == 0.0

    def test_deterministic_ensemble_negligible_se(self, eta_state):
        # sigma = 0 paths agree up to BLAS lane rounding across columns
        p = make_problem(diffusion=zero_fn, lip_sigma=0.0)
        drv = BrownianDriver(seed=1, n_steps=20)
        ens = simulate_em(p, eta_state, drv, 10)
        est, se = ms_norm(ens, 20)
        assert se <= 1e-10 * est
        assert est == pytest.approx(np.sum(ens.paths[-1, :, 0] ** 2), rel=1e-12)

    def test_brownian_motion_ito_isometry(self):
        # ensemble built directly from driver increments: X(t) = W(t)
        drv = BrownianDriver(seed=77, n_steps=64)
        h = 1.0 / 64
        inc = drv.increments_block(range(0, 8000), h)
        w = np.concatenate([np.zeros((1, 8000)), np.cumsum(inc, axis=0)])
        ens = manual_ensemble(h * np.arange(65), w[:, None, :])
        for idx in (16, 32, 64):
            est, se = ms_norm(ens, idx)
            t = idx * h
            assert abs(est - t) <= 3.0 * se

    def test_flagged_paths_excluded(self):
        grid = np.array([0.0, 1.0])
        paths = np.array([[[1.0, 1.0]], [[1.0, np.inf]]])
        ens = manual_ensemble(grid, paths)
        est, _ = ms_norm(ens, 1)
        assert est == 1.0

    def test_flagged_paths_excluded_from_distance(self):
        grid = np.array([0.0, 1.0])
        e1 = manual_ensemble(grid, [[[1.0, 1.0, 0.0]], [[2.0, np.inf, np.nan]]])
        e2 = manual_ensemble(grid, [[[0.0, 0.0, 0.0]], [[0.0, np.inf, 0.0]]])
        with np.errstate(all="raise"):
            d2, se = ms_distance_series(e1, e2)
        assert np.array_equal(d2, [1.0, 4.0])
        assert np.array_equal(se, [0.0, 0.0])

    def test_distance_reducer_memory_is_one_block(self):
        # the difference is formed per block of times: the peak is the
        # (n_t, n_valid) result plus one block's temporaries, where the
        # whole difference would add a full ensemble (5x the result at dim 2)
        rng = np.random.default_rng(2)
        n_t, n_paths = 2001, 500
        e1, e2 = (manual_ensemble(np.arange(n_t), rng.standard_normal((n_t, 2, n_paths)))
                  for _ in range(2))
        block = analysis.SQ_BLOCK_TIMES * 3 * n_paths * 8   # difference + its sum
        tracemalloc.start()
        try:
            sq = analysis._sq_reduce((e1, e2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sq.shape == (n_t, n_paths)
        assert peak <= 1.1 * sq.nbytes + block
        assert peak <= 1.25 * sq.nbytes
        assert np.array_equal(sq, np.sum(np.square(e1.paths - e2.paths), axis=1))

    def test_standard_errors_memory_is_one_block(self):
        # the deviations from the mean are formed per block of times: the
        # peak is the two (n_t,) outputs plus one block's deviations and
        # numpy's ufunc buffer (getbufsize doubles, taken by the broadcast
        # subtraction), where sq.std formed all of them at once (1.0x sq)
        rng = np.random.default_rng(4)
        n_t, n_valid = 2001, 500
        sq = rng.random((n_t, n_valid))
        block = (analysis.SQ_BLOCK_TIMES * n_valid + np.getbufsize()) * 8
        tracemalloc.start()
        try:
            est, se = analysis._mean_and_se(sq, np.arange(n_t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= est.nbytes + se.nbytes + 1.1 * block
        assert np.array_equal(est, sq.mean(axis=-1))
        assert np.array_equal(se, sq.std(axis=-1, ddof=1) / math.sqrt(n_valid))

    @pytest.mark.parametrize("row, values", [
        (2, [1.7e308, 1.7e308, 1.0, 1.0]),     # the mean overflows
        (3, [1e200, 2e200, 0.0, 1.0]),         # the spread's squares overflow
    ])
    def test_overflowing_mean_square_raises(self, row, values):
        # finite squares whose mean or standard error is not finite fail
        # loudly, naming the first such time, with no numpy warning first
        sq = np.ones((5, 4))
        sq[row] = values
        sq[4] = values
        with np.errstate(all="raise"):
            with pytest.raises(ValidationError,
                               match=rf"not finite from t = 0\.{row}:"):
                analysis._mean_and_se(sq, np.arange(5) / 10)

    def test_one_path_rejected(self):
        # the two-path rule: no mean over paths without its standard error
        ens = manual_ensemble([0.0, 1.0], np.ones((2, 2, 1)))
        w = WeightedNormParams(omega=1.0, alpha=0.75)
        for stat in (lambda: ms_norm(ens, 1), lambda: ms_norm_series(ens),
                     lambda: ms_distance_series(ens, ens),
                     lambda: log_weighted_norm(ens, ens, w)):
            with pytest.raises(ValidationError, match="at least 2 paths"):
                stat()

    def test_all_flagged_is_error(self):
        grid = np.array([0.0, 1.0])
        paths = np.full((2, 1, 3), np.nan)
        ens = manual_ensemble(grid, paths)
        with pytest.raises(EnsembleError):
            ms_norm(ens, 0)


class TestWeightedNorm:
    def test_identical_ensembles(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=2, n_steps=20)
        ens = simulate_em(sec6_problem, eta_state, drv, 10)
        w = WeightedNormParams(omega=5.0, alpha=0.75)
        assert math.exp(log_weighted_norm(ens, ens, w)) == 0.0

    def test_constant_difference_sup_at_origin(self):
        grid = np.linspace(0.0, 1.0, 21)
        base = np.zeros((21, 2, 4))
        shifted = base + np.array([[0.6], [0.8]])
        e1 = manual_ensemble(grid, base)
        e2 = manual_ensemble(grid, shifted)
        w = WeightedNormParams(omega=2.0, alpha=0.75)
        # distance is 1 at every t; denominator is 1 at t = 0 and increasing
        assert math.exp(log_weighted_norm(e1, e2, w)) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_omega(self, sec6_problem, eta_state):
        # same initial value, independent noise: distance vanishes at t = 0,
        # so the sup sits at t > 0 where the discount actually bites
        d1 = BrownianDriver(seed=2, n_steps=40)
        d2 = BrownianDriver(seed=3, n_steps=40)
        e1 = simulate_em(sec6_problem, eta_state, d1, 200)
        e2 = simulate_em(sec6_problem, eta_state, d2, 200)
        values = [math.exp(log_weighted_norm(
                      e1, e2, WeightedNormParams(omega=om, alpha=0.75)))
                  for om in (1.0, 10.0, 100.0)]
        assert values[0] > values[1] > values[2]

    def test_constant_offset_norm_insensitive_to_omega(self, sec6_problem, eta_state):
        # distance already positive at t = 0 where the discount is 1
        gamma = InitialState([3.5, 5.5])
        drv = BrownianDriver(seed=2, n_steps=40)
        e1, e2 = coupled_pair(sec6_problem, eta_state, gamma, drv, 200)
        values = [math.exp(log_weighted_norm(
                      e1, e2, WeightedNormParams(omega=om, alpha=0.75)))
                  for om in (1.0, 10.0, 100.0)]
        assert values[0] >= values[1] >= values[2]
        assert values[2] >= 0.5  # at least the t = 0 contribution

    def test_bounded_by_sup_distance(self, sec6_problem, eta_state):
        gamma = InitialState([3.5, 5.5])
        drv = BrownianDriver(seed=2, n_steps=40)
        e1, e2 = coupled_pair(sec6_problem, eta_state, gamma, drv, 200)
        d2, _ = ms_distance_series(e1, e2)
        w = WeightedNormParams(omega=3.0, alpha=0.75)
        assert math.exp(log_weighted_norm(e1, e2, w)) <= d2.max() * (1 + 1e-12)

    def test_weighted_sup_memory_is_one_block(self):
        # each time's mean comes from one block of squared distances: the
        # peak is the (n_t,) means plus one block's temporaries, where the
        # whole (n_t, n_valid) array was 1.0x of it. Every mean is the same
        # pairwise sum over the valid paths, so the value is bit for bit
        # that of the whole array; a flagged path is left out of both
        rng = np.random.default_rng(5)
        n_t, n_paths = 2001, 500
        paths = rng.standard_normal((2, n_t, 2, n_paths))
        paths[0, 7, 1, 3] = np.inf
        e1, e2 = (manual_ensemble(np.arange(n_t), x) for x in paths)
        log_denom = np.linspace(0.0, 3.0, n_t)
        # the difference (dim 2), its sum and the valid paths' sums
        block = analysis.SQ_BLOCK_TIMES * 4 * n_paths * 8
        tracemalloc.start()
        try:
            got = analysis._log_weighted_sup(e1, e2, log_denom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n_t * 8 + 1.1 * block
        whole = analysis._sq_reduce((e1, e2))
        assert whole.shape == (n_t, n_paths - 1)
        assert got == np.max(np.log(whole.mean(axis=-1)) - log_denom)

    def test_grid_mismatch(self, sec6_problem, eta_state):
        d1 = BrownianDriver(seed=2, n_steps=20)
        d2 = BrownianDriver(seed=2, n_steps=40)
        e1 = simulate_em(sec6_problem, eta_state, d1, 5)
        e2 = simulate_em(sec6_problem, eta_state, d2, 5)
        with pytest.raises(ValidationError):
            log_weighted_norm(e1, e2, WeightedNormParams(omega=1.0, alpha=0.75))


class TestContractionConstants:
    def test_omega_threshold_closed_forms(self):
        p = make_problem(lip_b=0.0, lip_sigma=0.0)
        assert omega_threshold(p, 1.0) == pytest.approx(4.0 * math.sqrt(math.pi),
                                                        rel=1e-12)
        p2 = make_problem(lip_b=1.0, lip_sigma=1.0, horizon=1.0)
        assert omega_threshold(p2, 1.0) == pytest.approx(12.0 * math.sqrt(math.pi),
                                                         rel=1e-12)
        assert omega_threshold(p2, 0.0) == 0.0

    def test_zeta_is_three_quarters_at_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = make_problem(alpha=rng.uniform(0.55, 0.95),
                             beta=0.2,
                             lip_b=rng.uniform(0.0, 2.0),
                             lip_sigma=rng.uniform(0.0, 2.0),
                             horizon=rng.uniform(0.5, 3.0))
            m_sup = rng.uniform(0.1, 4.0)
            omega = omega_threshold(p, m_sup)
            assert abs(zeta_const(p, m_sup, omega) - 0.75) < 1e-12
            assert abs(zeta_const(p, m_sup, 2.0 * omega) - 0.375) < 1e-12

    def test_zeta_domain(self):
        p = make_problem()
        with pytest.raises(DomainError):
            zeta_const(p, 1.0, 0.0)

    def test_ml_sup_norm_refinement_gap(self, sec6_problem):
        m_sup, gap = ml_sup_norm(sec6_problem)
        assert m_sup > 1.0
        assert gap < 1e-3
        assert init_term_sup_sq(sec6_problem) >= 1.0


class TestConvolutionBound:
    def test_vanishing_time_limit(self):
        check = convolution_bound_check(0.75, 1.0, 1e-8, 100)
        assert check.lhs < 1e-3
        assert check.rhs == pytest.approx(1.0, abs=1e-3)
        assert check.holds

    def test_reference_point(self):
        check = convolution_bound_check(0.75, 1.0, 1.0, 2000)
        assert check.holds
        assert check.lhs <= check.rhs

    def test_sweep_holds_everywhere(self):
        for omega in (0.5, 1.0, 5.0):
            for alpha in (0.6, 0.75, 0.9):
                for t in (0.5, 1.0, 2.0):
                    assert convolution_bound_check(alpha, omega, t, 1000).holds

    def test_overflowing_regime_still_decides(self):
        check = convolution_bound_check(0.6, 5.0, 2.0, 500)
        assert check.holds
        assert np.isinf(check.rhs)  # the raw value exceeds float64, logs decide

    def test_domain(self):
        with pytest.raises(DomainError):
            convolution_bound_check(0.4, 1.0, 1.0, 100)
        with pytest.raises(DomainError):
            convolution_bound_check(0.75, -1.0, 1.0, 100)


class TestContractionReport:
    def test_immediate_convergence_for_trivial_problem(self):
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=zero_fn,
                         diffusion=zero_fn, lip_b=0.0, lip_sigma=0.0)
        drv = BrownianDriver(seed=3, n_steps=20)
        report = contraction_report(p, InitialState([1.0, 2.0]),
                                    drv, n_iter=3, n_paths=10)
        assert report.immediate_convergence
        assert report.iterate_ratios == []

    def test_sec6_ratios_below_zeta(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=3, n_steps=50)
        report = contraction_report(sec6_problem, eta_state, drv, n_iter=4,
                                    n_paths=200)
        assert report.zeta == pytest.approx(0.75, abs=1e-12)
        assert report.iterate_ratios  # non-degenerate
        assert max(report.iterate_ratios) <= report.zeta + 0.1

    def test_doubling_omega_tightens_ratios(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=3, n_steps=50)
        base = contraction_report(sec6_problem, eta_state, drv, n_iter=4,
                                  n_paths=200)
        doubled = contraction_report(sec6_problem, eta_state, drv, n_iter=4,
                                     n_paths=200, omega=2.0 * base.omega_min)
        assert doubled.zeta == pytest.approx(base.zeta / 2.0, rel=1e-12)
        assert max(doubled.iterate_ratios) <= doubled.zeta + 0.1

    def test_denominators_computed_once(self, sec6_problem, eta_state,
                                        monkeypatch):
        calls = []
        original = analysis.ml_scalar_log

        def counting(alpha, z):
            calls.append(np.shape(z))
            return original(alpha, z)

        monkeypatch.setattr(analysis, "ml_scalar_log", counting)
        drv = BrownianDriver(seed=3, n_steps=10)
        contraction_report(sec6_problem, eta_state, drv, n_iter=4, n_paths=20)
        assert calls == [(11,)]

    def test_one_q_table(self, sec6_problem, eta_state, q_fills):
        # the sup norm, the initial-term bound and the mild tables all read
        # the problem's own table
        drv = BrownianDriver(seed=3, n_steps=20)
        contraction_report(sec6_problem, eta_state, drv, n_iter=3, n_paths=10)
        assert q_fills
        assert all(table is sec6_problem.q_table for table, _ in q_fills)

    def test_alpha_near_half(self, eta_state):
        # order 2a - 1 = 0.2: the denominators need the asymptotic route
        p = make_problem(alpha=0.6)
        drv = BrownianDriver(seed=3, n_steps=50)
        report = contraction_report(p, eta_state, drv, n_iter=4, n_paths=200)
        assert all(math.isfinite(v) for v in report.log_weighted_diffs)
        assert report.iterate_ratios
        assert max(report.iterate_ratios) <= report.zeta + 0.1

    def test_dropped_paths_reported(self, eta_state):
        # iterate 2 reads iterate 1's paths, some of which leave [-10, 10]
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=flaky_drift,
                         diffusion=one_fn, horizon=5.0)
        drv = BrownianDriver(seed=7, n_steps=100)
        report = contraction_report(p, eta_state, drv, n_iter=3, n_paths=200)
        current = constant_ensemble(p, eta_state, drv, 200)
        dropped = []
        for _ in range(3):
            nxt = picard_apply(p, eta_state, current)
            dropped.append(int((nxt.flags | current.flags).sum()))
            current = nxt
        assert report.n_dropped == max(dropped) > 0

    def test_requires_three_iterations(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=3, n_steps=10)
        with pytest.raises(ValidationError):
            contraction_report(sec6_problem, eta_state, drv, n_iter=2, n_paths=5)

    def test_zero_paths_rejected(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=3, n_steps=10)
        with pytest.raises(ValidationError, match="n_paths must be >= 1"):
            contraction_report(sec6_problem, eta_state, drv, n_iter=3, n_paths=0)


class TestSeparation:
    def make_long_problem(self, **kw):
        return make_problem(horizon=5.0, **kw)

    def test_degenerate_initial_data_rejected(self, eta_state):
        p = self.make_long_problem()
        drv = BrownianDriver(seed=4, n_steps=100)
        with pytest.raises(DegenerateExperimentError):
            separation_experiment(p, eta_state, eta_state, drv, 0.75, 50)

    def test_short_horizon_rejected(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=4, n_steps=100)
        gamma = InitialState([3.5, 5.5])
        with pytest.raises(ValidationError):
            separation_experiment(sec6_problem, eta_state, gamma, drv, 0.75, 50)

    def test_zero_matrix_special_case_runs(self, eta_state):
        # single-order equation: both coefficient matrices vanish
        p = self.make_long_problem(a_mat=ZERO2, b_mat=ZERO2)
        drv = BrownianDriver(seed=4, n_steps=250)
        gamma = InitialState([3.5, 5.5])
        report = separation_experiment(p, eta_state, gamma, drv, 1.0, 400)
        assert np.isfinite(report.fitted_exponent)
        assert report.fitted_ci[0] <= report.fitted_exponent <= report.fitted_ci[1]
        assert report.lambda_gt_alpha

    def test_sec6_report_contents(self, eta_state):
        p = self.make_long_problem()
        drv = BrownianDriver(seed=4, n_steps=250)
        gamma = InitialState([3.5, 5.5])
        report = separation_experiment(p, eta_state, gamma, drv, 1.0, 500)
        assert report.consistent_with_lower_bound
        assert report.positive_3se_from_fit_start
        assert report.lambda_gt_alpha
        assert not report.lambda_gt_alpha_over_1_minus_alpha  # needs > 3
        win = report.times >= 1.0
        assert np.all(report.ms_distance[win] > 0)
        expected_scaled = report.times[win] ** 1.0 * np.sqrt(report.ms_distance[win])
        assert np.allclose(report.scaled[win], expected_scaled, rtol=1e-12)

    def test_memory_holds_distances_not_paths(self, eta_state):
        # the pair is never stored: the peak is the (N+1, P) distances, one
        # slab of NOISE_SLAB increments per chunk, one bootstrap batch and one
        # stacked chunk's working set per column: one block of B history rows
        # of [A x; B x + b; sigma dW], the K exponential states and the
        # product buffer that takes their update, and two (B, dim) blocks,
        # the block's sums and its squared differences. The stored pair added
        # two (N+1, dim, P) ensembles and an (N, 3 dim) history per path:
        # 45.7 MB here, against 9.8 MB measured. A window of 2B history rows
        # measured 14.5 MB, and the chunk's whole (N, P) increments with one
        # bootstrap product of all resamples 13.7 MB, both above this bound
        p = self.make_long_problem()
        n_steps, n_paths = 1000, 500
        k = em_kernel_tables(p, n_steps).rates.size
        per_column = (HISTORY_BLOCK * 3 + 2 * k + 2 * HISTORY_BLOCK) * p.dim * 8
        n_t = int(np.sum(p.grid(n_steps) >= analysis.FIT_WINDOW_START))
        bound = ((n_steps + 1) * n_paths * 8 + NOISE_SLAB * n_paths * 8
                 + boot_batch_bytes(analysis.BOOTSTRAP_RESAMPLES, n_paths, n_t)
                 + 1.2 * per_column * 2 * n_paths)
        drv = BrownianDriver(seed=4, n_steps=n_steps)
        gamma = InitialState([3.5, 5.5])
        tracemalloc.start()
        try:
            separation_experiment(p, eta_state, gamma, drv, 1.0, n_paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_exponent_stable_under_doubling_paths(self, eta_state):
        p = self.make_long_problem()
        gamma = InitialState([3.5, 5.5])
        drv = BrownianDriver(seed=4, n_steps=100)
        r1 = separation_experiment(p, eta_state, gamma, drv, 1.0, 400)
        r2 = separation_experiment(p, eta_state, gamma, drv, 1.0, 800)
        width = (r1.fitted_ci[1] - r1.fitted_ci[0]) + (r2.fitted_ci[1] - r2.fitted_ci[0])
        assert abs(r1.fitted_exponent - r2.fitted_exponent) <= max(width, 0.2)


BOOT_REL_TOL = 1e-12


def boot_batch_bytes(n_boot, n_valid, n_t):
    """One bootstrap batch, the largest: its (b, n_valid) counts and three
    (b, n_t) arrays of means, those of the product and two that the fit
    copies (measured: 2.1)."""
    b = n_boot if n_boot < analysis.BOOTSTRAP_BATCH else \
        analysis.BOOTSTRAP_BATCH + n_boot % analysis.BOOTSTRAP_BATCH
    return b * (n_valid + 3 * n_t) * 8


def whole_bootstrap(times, sq, rng, n_boot):
    """Reference bootstrap: the counts of every resample in one
    (n_boot, n_valid) array, one product and one fit."""
    n_valid = sq.shape[0]
    counts = np.empty((n_boot, n_valid))
    for i in range(n_boot):
        counts[i] = np.bincount(rng.integers(0, n_valid, n_valid),
                                minlength=n_valid)
    means = (counts @ sq) / n_valid
    slopes, _ = np.polyfit(np.log(times), np.log(np.sqrt(means.T)), 1)
    return -slopes


def gather_bootstrap(times, sq, seed, n_boot):
    """Reference bootstrap: one row gather and one fit per resample, with the
    draws of ``separation_experiment``."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xB007]))
    n_valid = sq.shape[0]
    boot = np.empty(n_boot)
    for i in range(n_boot):
        idx = rng.integers(0, n_valid, n_valid)
        boot[i], _ = analysis._fit_decay_exponent(times, sq[idx].mean(axis=0))
    return boot


def flaky_drift(t, x):
    # non-finite once a coordinate leaves [-10, 10]: a few paths blow up
    return np.where(np.abs(x) > 10.0, np.inf, 0.0)


class TestCoupledSqDistances:
    """The one-pass squared distances against the stored pair, bit for bit:
    both step the same stacked chunks of CHUNK_PATHS / 2 pairs, whatever
    their width, and the one pass draws each chunk's increments itself."""

    GAMMA = InitialState([3.5, 5.5])
    HALF = solvers.CHUNK_PATHS // 2

    @pytest.mark.parametrize("scheme, n_steps, n_paths, horizon", [
        ("em", 1000, 768, 10.0),     # the separation-long width
        ("em", 200, 3 * solvers.CHUNK_PATHS // 2, 5.0),  # three full chunks
        ("mild", 100, 64, 4.0),
        ("em", 37, 5, 4.0),          # one narrow chunk
        ("em", 200, 2500, 5.0),      # full chunks and a ragged one
        ("em", 50, HALF + 188, 4.0),         # two chunks, the last partial
        ("em", 50, 2 * HALF + 176, 4.0),     # three chunks, the last partial
        ("mild", 50, HALF + 188, 4.0),
        ("mild", 50, 2 * HALF + 176, 4.0),
    ])
    def test_equals_stored_pair(self, eta_state, scheme, n_steps, n_paths,
                                horizon):
        p = make_problem(horizon=horizon)
        drv = BrownianDriver(seed=1, n_steps=n_steps)
        ref = analysis._sq_reduce(coupled_pair(
            p, eta_state, self.GAMMA, drv, n_paths, scheme=scheme))
        for threads in (1, 2):
            grid, sq = squared_norms(p, [eta_state, self.GAMMA], drv, n_paths,
                                     scheme=scheme, threads=threads)
            assert np.array_equal(sq, ref)
            assert sq.flags.c_contiguous
        assert grid.tobytes() == p.grid(n_steps).tobytes()

    def test_blowup_in_one_ensemble(self, eta_state):
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=flaky_above(9.0),
                         diffusion=one_fn, horizon=5.0)
        gamma = InitialState([-5.0, -3.0])
        drv = BrownianDriver(seed=7, n_steps=100)
        e1, e2 = coupled_pair(p, eta_state, gamma, drv, 256)
        assert e1.flags.sum() > 0 and not e2.flags.any()
        ref = analysis._sq_reduce((e1, e2))
        _, sq = squared_norms(p, [eta_state, gamma], drv, 256)
        assert np.array_equal(sq, ref)
        report = separation_experiment(p, eta_state, gamma, drv, 1.0, 256)
        assert report.n_dropped == int(e1.flags.sum())

    @pytest.mark.parametrize("swap", [False, True])
    def test_flagged_limit_error_matches(self, eta_state, swap):
        # eta's ensemble (or gamma's, swapped) blows up past the 10% limit;
        # the other stays finite
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=flaky_above(8.0),
                         diffusion=one_fn, horizon=5.0)
        inits = [eta_state, InitialState([-5.0, -3.0])]
        if swap:
            inits.reverse()
        drv = BrownianDriver(seed=7, n_steps=100)
        with pytest.raises(EnsembleError) as stored:
            coupled_pair(p, *inits, drv, 256)
        with pytest.raises(EnsembleError) as one_pass:
            squared_norms(p, inits, drv, 256)
        assert str(one_pass.value) == str(stored.value)
        assert "of paths blew up" in str(stored.value)


class TestSimulateMsNorm:
    """The reduced simulate route (|X|^2 in the core's sink, increments drawn
    per chunk) against ms_norm_series of the stored ensemble."""

    CHUNK = solvers.CHUNK_PATHS

    @pytest.mark.parametrize("scheme", ["em", "mild"])
    @pytest.mark.parametrize("n_paths", [5, CHUNK + 476, 2 * CHUNK + 452])
    def test_equals_stored_series(self, eta_state, scheme, n_paths):
        # one, two and three chunks, the last one partial
        p = make_problem(horizon=4.0)
        drv = BrownianDriver(seed=2, n_steps=50)
        ens = solvers.simulate(p, eta_state, drv, n_paths, scheme=scheme)
        est_ref, se_ref = ms_norm_series(ens)
        for threads in (1, 2):
            grid, est, se, dropped = simulate_ms_norm(
                p, eta_state, drv, n_paths, scheme=scheme, threads=threads)
            assert np.array_equal(est, est_ref) and np.array_equal(se, se_ref)
            assert grid.tobytes() == ens.grid.tobytes() and dropped == 0
            _, sq = squared_norms(p, [eta_state], drv, n_paths, scheme=scheme,
                                  threads=threads)
            assert np.array_equal(sq, analysis._sq_reduce((ens,)))

    def test_draws_increments_per_chunk(self, eta_state):
        # each chunk draws its own columns, one slab of NOISE_SLAB steps at a
        # time in step order, and together they are the stored route's one
        # draw
        p, n_steps, n_paths = make_problem(), 600, 2 * self.CHUNK + 452
        drv = CountingDriver(seed=3, n_steps=n_steps)
        squared_norms(p, [eta_state], drv, n_paths)
        chunks = [range(lo, min(lo + self.CHUNK, n_paths))
                  for lo in range(0, n_paths, self.CHUNK)]
        slabs = [range(n0, min(n0 + NOISE_SLAB, n_steps))
                 for n0 in range(0, n_steps, NOISE_SLAB)]
        assert [(ids, steps) for ids, steps, _ in drv.draws] == \
            [(ids, steps) for ids in chunks for steps in slabs]
        assert drv.paths_drawn == n_paths * len(slabs)
        full = BrownianDriver(seed=3, n_steps=n_steps).increments_block(
            range(n_paths), p.horizon / n_steps)
        rows = iter(block for _, _, block in drv.draws)
        got = np.concatenate([np.concatenate([next(rows) for _ in slabs])
                              for _ in chunks], axis=1)
        assert np.array_equal(got, full)

    @pytest.mark.parametrize("slab", [NOISE_SLAB, 45, 7])
    @pytest.mark.parametrize("n_chunks", [1, 2, 3])
    def test_slab_draws_equal_stored_run(self, eta_state, monkeypatch, slab,
                                         n_chunks):
        # 300 steps: the slab edges fall inside blocks of HISTORY_BLOCK
        # steps, and a 7-step slab leaves each path mid-way through the
        # generator's buffer of four words; the last chunk is partial, and
        # two threads run the chunks
        monkeypatch.setattr(solvers, "NOISE_SLAB", slab)
        p, n_steps = make_problem(horizon=4.0), 300
        n_paths = (n_chunks - 1) * self.CHUNK + 100
        drv = BrownianDriver(seed=6, n_steps=n_steps)
        ens = solvers.simulate(p, eta_state, drv, n_paths)
        _, sq = squared_norms(p, [eta_state], drv, n_paths, threads=2)
        assert np.array_equal(sq, analysis._sq_reduce((ens,)))
        gamma = InitialState([3.5, 5.5])
        ref = analysis._sq_reduce(coupled_pair(p, eta_state, gamma, drv,
                                               n_paths // 2))
        _, sq = squared_norms(p, [eta_state, gamma], drv, n_paths // 2,
                              threads=2)
        assert np.array_equal(sq, ref)

    def test_memory_holds_squares_not_paths(self, eta_state):
        # mild, four chunks: the (N+1, P) squares, one chunk's pending sums
        # (dim per step) and one chunk's increments; no paths and no (N, P)
        # increments. The rest is a few blocks of B = HISTORY_BLOCK rows:
        # the block of [b; sigma dW] channels (two), the first block's
        # pending sums, the product buffer and the block's squares; measured
        # 5.6. A chunk
        # that kept its whole history (2*dim per step) measured 23.5 blocks
        # over, and storing the ensemble and all of its increments peaked
        # at 2.3x the earlier bound, 1.1x that history
        p, n_steps, n_paths = make_problem(horizon=4.0), 600, 4 * self.CHUNK
        drv = BrownianDriver(seed=3, n_steps=n_steps)
        tracemalloc.start()
        try:
            simulate_ms_norm(p, eta_state, drv, n_paths, scheme="mild")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_pending = n_steps * p.dim * self.CHUNK * 8
        chunk_noise = n_steps * self.CHUNK * 8
        block = HISTORY_BLOCK * p.dim * self.CHUNK * 8
        assert peak <= ((n_steps + 1) * n_paths * 8 + chunk_pending + chunk_noise
                        + 8 * block)

    def test_rejects_three_initial_states(self, sec6_problem, eta_state):
        with pytest.raises(ValidationError, match="one or two initial states"):
            squared_norms(sec6_problem, [eta_state] * 3,
                          BrownianDriver(seed=1, n_steps=5), 4)


class TestSeparationBootstrap:
    def test_product_matches_gather_loop(self):
        rng = np.random.default_rng(3)
        times = np.linspace(1.0, 5.0, 120)
        sq = np.exp(rng.normal(size=(300, 1))) * times ** -1.5 \
            * np.exp(0.3 * rng.normal(size=(300, 120)))
        ref = gather_bootstrap(times, sq, 11, 200)
        got = analysis._bootstrap_exponents(
            times, sq, np.random.Generator(np.random.Philox(key=[11, 0xB007])), 200)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= BOOT_REL_TOL * np.abs(ref))

    def test_batches_equal_one_product(self):
        # two full batches and a last one that takes the 17 left over, on
        # the separation-long shape: the (n_valid, n_t) view of time-major
        # squares. Pinned to one BLAS thread, as the CLI runs
        n_valid, n_t = 768, 901
        n_boot = 2 * analysis.BOOTSTRAP_BATCH + 17
        rng = np.random.default_rng(5)
        times = np.linspace(1.0, 10.0, n_t)
        sq = (np.exp(rng.normal(size=(n_t, n_valid)))
              * times[:, None] ** -1.5).T

        def boot(fn):
            return fn(times, sq, np.random.Generator(
                np.random.Philox(key=[4, 0xB007])), n_boot)

        with cli._single_thread_blas():
            ref = boot(whole_bootstrap)
            got = boot(analysis._bootstrap_exponents)
            # one batch's arrays, not all resamples': one whole product
            # measured 3.2 MB here, above this bound
            boot(analysis._bootstrap_exponents)   # numpy's one-time buffers
            tracemalloc.start()
            try:
                boot(analysis._bootstrap_exponents)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(got, ref)
        assert peak <= boot_batch_bytes(n_boot, n_valid, n_t)

    @pytest.mark.parametrize("q", [0.0, 0.025, 0.5, 0.975, 1.0])
    def test_quantile_is_numpys_bit_for_bit(self, q):
        # the CI's quantiles, without np.quantile's import of numpy.ma;
        # every other size has ties
        rng = np.random.default_rng(8)
        for n in range(1, 401):
            values = (rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) if n % 2
                      else rng.integers(-4, 5, n).astype(float))
            got = np.float64(analysis._quantile(values, q))
            assert got.tobytes() == np.quantile(values, q).tobytes(), (n, q)
        assert math.isnan(analysis._quantile(np.array([1.0, np.nan, 2.0]), q))

    def test_ci_matches_gather_loop(self, eta_state):
        p = make_problem(horizon=5.0)
        gamma = InitialState([3.5, 5.5])
        drv = BrownianDriver(seed=4, n_steps=100)
        report = separation_experiment(p, eta_state, gamma, drv, 1.0, 300)
        e1, e2 = coupled_pair(p, eta_state, gamma, drv, 300)
        window = e1.grid >= analysis.FIT_WINDOW_START
        sq = analysis._sq_reduce((e1, e2))[window].T
        ref = gather_bootstrap(e1.grid[window], sq, drv.seed,
                               analysis.BOOTSTRAP_RESAMPLES)
        ci = np.quantile(ref, [0.025, 0.975])
        assert np.all(np.abs(np.array(report.fitted_ci) - ci)
                      <= BOOT_REL_TOL * np.abs(ci))

    def test_dropped_paths_reported(self, eta_state):
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=flaky_drift,
                         diffusion=one_fn, horizon=5.0)
        # the two ensembles leave [-10, 10] on opposite sides, so different
        # paths are flagged in each, and a path flagged in either is dropped
        gamma = InitialState([-5.0, -3.0])
        drv = BrownianDriver(seed=7, n_steps=100)
        e1, e2 = coupled_pair(p, eta_state, gamma, drv, 200)
        dropped = int((e1.flags | e2.flags).sum())
        assert dropped > max(e1.flags.sum(), e2.flags.sum()) > 0
        report = separation_experiment(p, eta_state, gamma, drv, 1.0, 200)
        assert report.n_paths == 200
        assert report.n_dropped == dropped
        assert np.all(np.isfinite(report.ms_distance))

    def test_no_dropped_paths(self, eta_state):
        p = make_problem(horizon=5.0)
        drv = BrownianDriver(seed=4, n_steps=60)
        report = separation_experiment(
            p, eta_state, InitialState([3.5, 5.5]), drv, 1.0, 50)
        assert (report.n_paths, report.n_dropped) == (50, 0)


class TestContinuity:
    def test_trivial_dynamics_ratio_one(self):
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=zero_fn,
                         diffusion=zero_fn, lip_b=0.0, lip_sigma=0.0)
        eta = InitialState([3.0, 5.0])
        drv = BrownianDriver(seed=5, n_steps=20)
        rows = continuity_experiment(p, eta, [1e-1, 1e-2, 1e-3], drv, 10)
        for row in rows:
            assert row.ratio == pytest.approx(1.0, rel=1e-10)
            assert row.sup_ms_distance == pytest.approx(row.offset ** 2, rel=1e-10)

    def test_sec6_ratios_in_band(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=5, n_steps=50)
        rows = continuity_experiment(sec6_problem, eta_state,
                                     [1e-1, 1e-2, 1e-3], drv, 400)
        ratios = [row.ratio for row in rows]
        assert max(ratios) / min(ratios) <= 3.0

    def test_noise_drawn_once(self, sec6_problem, eta_state):
        drv = CountingDriver(seed=5, n_steps=20)
        continuity_experiment(sec6_problem, eta_state, [1e-1, 1e-2, 1e-3], drv, 7)
        assert drv.paths_drawn == 7

    def test_dropped_paths_per_offset(self, eta_state):
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=flaky_drift,
                         diffusion=one_fn, horizon=5.0)
        drv = BrownianDriver(seed=7, n_steps=100)
        offsets = [2.0, 1.0]
        rows = continuity_experiment(p, eta_state, offsets, drv, 200)
        u = np.ones(2) / math.sqrt(2.0)
        for off, row in zip(offsets, rows):
            gamma = InitialState(eta_state.eta + off * u)
            e1, e2 = coupled_pair(p, eta_state, gamma, drv, 200)
            assert row.n_dropped == int((e1.flags | e2.flags).sum())
        assert max(row.n_dropped for row in rows) > 0

    def test_memory_holds_one_shifted_ensemble(self, sec6_problem, eta_state):
        # the shifted ensembles are stepped one at a time, so the peak does
        # not grow with the number of offsets (one ensemble here is ~0.8 MB)
        def peak(n_offsets):
            drv = BrownianDriver(seed=5, n_steps=100)
            offsets = [10.0 ** -k for k in range(1, n_offsets + 1)]
            tracemalloc.start()
            try:
                continuity_experiment(sec6_problem, eta_state, offsets, drv, 500)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(6) <= 1.1 * peak(2)

    @pytest.mark.parametrize("offset", [1e-300, 1e-170, 1e-160, 1e300, math.inf])
    def test_offset_square_must_be_normal(self, sec6_problem, eta_state, offset):
        # the ratio divides by offset ** 2: zero below ~1.5e-162, subnormal
        # below ~1.5e-154, an OverflowError above ~1.3e154. Beside a valid
        # offset, nothing is drawn
        drv = CountingDriver(seed=5, n_steps=10)
        offsets = sorted([1.0, offset], reverse=True)
        with pytest.raises(ValidationError,
                           match=re.escape(f"offset {offset!r}: its square is not")):
            continuity_experiment(sec6_problem, eta_state, offsets, drv, 5)
        assert drv.paths_drawn == 0

    def test_extreme_normal_squares_accepted(self):
        # from eta = 0 the trivial dynamics keep the offset itself: ratio 1
        # at both ends of the accepted range
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=zero_fn,
                         diffusion=zero_fn, lip_b=0.0, lip_sigma=0.0)
        drv = BrownianDriver(seed=5, n_steps=10)
        rows = continuity_experiment(p, InitialState([0.0, 0.0]), [1e150, 1e-150],
                                     drv, 4)
        assert [row.ratio for row in rows] == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_offsets_must_decrease(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=5, n_steps=10)
        with pytest.raises(ValidationError):
            continuity_experiment(sec6_problem, eta_state, [1e-3, 1e-2], drv, 5)
        with pytest.raises(ValidationError):
            continuity_experiment(sec6_problem, eta_state, [0.1, -0.2], drv, 5)


# every route that takes initial states, given one of dim 3 (bad) on the
# 2-dim sec6 problem, with the good eta where a route takes two
WRONG_DIM_ROUTES = {
    "simulate_em": lambda p, eta, bad, drv: simulate_em(p, bad, drv, 4),
    "simulate_mild": lambda p, eta, bad, drv: simulate_mild(p, bad, drv, 4),
    "coupled_pair": lambda p, eta, bad, drv: coupled_pair(p, eta, bad, drv, 4),
    "constant_ensemble": lambda p, eta, bad, drv: constant_ensemble(p, bad, drv, 4),
    "squared_norms": lambda p, eta, bad, drv: squared_norms(p, [bad], drv, 4),
    "separation_experiment": lambda p, eta, bad, drv: separation_experiment(
        p, eta, bad, drv, 0.75, 4),
    "continuity_experiment": lambda p, eta, bad, drv: continuity_experiment(
        p, bad, [0.1], drv, 4),
    "contraction_report": lambda p, eta, bad, drv: contraction_report(
        p, bad, drv, 3, 4),
    "picard_apply": lambda p, eta, bad, drv: picard_apply(
        p, bad, constant_ensemble(p, eta, drv, 4)),
}


@pytest.mark.parametrize("route", list(WRONG_DIM_ROUTES))
def test_wrong_dim_initial_state_rejected(eta_state, route):
    # horizon 5 so that the separation experiment reaches its initial states
    p = make_problem(horizon=5.0)
    bad = InitialState([3.0, 5.0, 1.0])
    drv = BrownianDriver(seed=3, n_steps=10)
    with pytest.raises(ValidationError, match="initial state dim 3 != problem dim 2"):
        WRONG_DIM_ROUTES[route](p, eta_state, bad, drv)


# every experiment that reports a mean over paths, given one path
ONE_PATH_ROUTES = {
    "simulate_ms_norm": lambda p, eta, drv: simulate_ms_norm(p, eta, drv, 1),
    "separation_experiment": lambda p, eta, drv: separation_experiment(
        p, eta, InitialState([3.5, 5.5]), drv, 0.75, 1),
    "continuity_experiment": lambda p, eta, drv: continuity_experiment(
        p, eta, [0.1], drv, 1),
    "contraction_report": lambda p, eta, drv: contraction_report(p, eta, drv, 3, 1),
}


@pytest.mark.parametrize("route", list(ONE_PATH_ROUTES))
def test_one_path_rejected_before_drawing(eta_state, route):
    # the two-path rule is checked before any increment is drawn
    drv = CountingDriver(seed=3, n_steps=10)
    with pytest.raises(ValidationError, match="the two-path rule"):
        ONE_PATH_ROUTES[route](make_problem(horizon=5.0), eta_state, drv)
    assert drv.paths_drawn == 0
