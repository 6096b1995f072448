import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from smtde import mlmatrix, specfun
from smtde.errors import DomainError, NonConvergenceError, ValidationError
from smtde.specfun import (ML_ASYMPTOTIC_U0, ML_MAX_TERMS, ML_SERIES_TOL,
                           SampledFunction, caputo_identity_residual, gamma_fn,
                           gauss_jacobi, gauss_legendre, ml_scalar,
                           ml_scalar_log, reciprocal_gamma, reciprocal_gammas,
                           rl_integral, rl_integral_all)
from smtde.solvers import mild_ml

from conftest import make_problem


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(5.0) == 24.0
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_domain(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(DomainError):
                gamma_fn(bad)

    def test_reciprocal_poles(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        assert reciprocal_gamma(2.5) == pytest.approx(1.0 / math.gamma(2.5), rel=1e-15)
        # negative non-integer arguments are fine
        assert reciprocal_gamma(-0.5) == pytest.approx(1.0 / math.gamma(-0.5), rel=1e-14)

    def test_gamma_overflow_is_inf(self):
        assert gamma_fn(171.7) == math.inf
        assert gamma_fn(171.6) == math.gamma(171.6)

    @pytest.mark.parametrize("x", [171.7, 200.0])
    def test_reciprocal_beyond_gamma_overflow(self, x):
        # math.gamma overflows: 1/Gamma is exp(-lgamma), subnormal at 171.7
        # and zero at 200
        assert reciprocal_gamma(x) == math.exp(-math.lgamma(x))
        assert (reciprocal_gamma(x) > 0.0) == (x < 172.0)

    @pytest.mark.parametrize("x", [2.6e305, 3e305, 1e306, 1.7e308, math.inf])
    def test_reciprocal_beyond_lgamma_overflow(self, x):
        # from ~2.6e305 on, math.lgamma overflows too: 1/Gamma is 0.0
        assert reciprocal_gamma(x) == 0.0

    @pytest.mark.parametrize("x, sign", [(-171.5, 1.0), (-200.5, -1.0),
                                         (-201.5, 1.0)])
    def test_reciprocal_where_gamma_underflows(self, x, sign):
        # Gamma is subnormal at -171.5 and a signed zero below about -177.6; its
        # reciprocal is inf with the sign of Gamma, (-1)^n on (-n, -n+1)
        assert reciprocal_gamma(x) == sign * math.inf


class TestReciprocalGammas:
    @staticmethod
    def scalar_map(xs):
        return np.array([reciprocal_gamma(x) for x in xs.tolist()])

    def test_sec6_batches_are_the_scalar_map(self, monkeypatch):
        # the series scans' batches repeat many exponents: one math.gamma per
        # distinct value gives the bits of the per-term map
        batches = []

        def spy(xs):
            batches.append(xs.copy())
            return reciprocal_gammas(xs)

        monkeypatch.setattr(mlmatrix, "reciprocal_gammas", spy)
        p = make_problem()
        ts = np.linspace(0.0, 10.0, 11)
        for delta in (p.alpha, p.alpha + 1.0):
            mild_ml(p, delta, ts)
        assert len(batches) > 2
        for xs in batches:
            assert np.unique(xs).size < xs.size
            assert reciprocal_gammas(xs).tobytes() == self.scalar_map(xs).tobytes()

    def test_scalar_branch_is_the_scalar_map(self):
        # below 1e-300, from 171 on (either side of lgamma's overflow at
        # ~2.6e305 too), the poles, Gamma's underflow and NaN, shuffled among
        # plain values and repeated
        special = [0.0, -0.0, -1.0, -3.0, 5e-324, 1e-310, 1e-301, 171.0, 171.5,
                   171.7, 200.0, 1e5, 2.5e305, 2.6e305, 1e306, 1.7e308, -0.5,
                   -171.5, -200.5, -201.5, math.nan]
        xs = np.array(special * 3 + [0.25, 0.5, 2.5, 170.9, 0.5, 1e-300])
        np.random.default_rng(3).shuffle(xs)
        assert reciprocal_gammas(xs).tobytes() == self.scalar_map(xs).tobytes()
        assert reciprocal_gammas(np.zeros(0)).shape == (0,)


class TestMlScalar:
    def test_reduces_to_exp(self):
        for z in (0.0, 1.0):
            assert ml_scalar(1.0, z) == pytest.approx(math.exp(z), rel=1e-13)

    def test_zero_argument(self):
        for alpha in (0.3, 0.75, 1.5):
            assert ml_scalar(alpha, 0.0) == 1.0

    def test_order_two_is_cosh_sqrt(self):
        assert ml_scalar(2.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-13)
        assert ml_scalar(2.0, 4.0) == pytest.approx(math.cosh(2.0), rel=1e-13)

    def test_monotone_for_nonnegative_arguments(self):
        zs = np.linspace(0.0, 8.0, 40)
        vals = ml_scalar(0.5, zs)
        assert np.all(np.diff(vals) > 0)

    def test_vector_matches_scalar(self):
        zs = np.array([0.0, 0.3, 2.0, 11.0])
        vec = ml_scalar(0.6, zs)
        for z, v in zip(zs, vec):
            assert v == pytest.approx(ml_scalar(0.6, float(z)), rel=1e-14)

    def test_log_variant_handles_overflowing_values(self):
        # E_0.2(5.74) ~ exp(5.74^5) far beyond float64 range
        logv = ml_scalar_log(0.2, 5.74)
        assert logv == pytest.approx(5.74 ** 5, rel=0.01)
        assert np.isinf(ml_scalar(0.2, 5.74))

    def test_divergence_guard(self, monkeypatch):
        # u = 9 is below ML_ASYMPTOTIC_U0, so the log series runs out of terms
        monkeypatch.setattr(specfun, "ML_MAX_TERMS", 10)
        with pytest.raises(NonConvergenceError, match="within 10 terms"):
            ml_scalar_log(0.5, 3.0)

    def test_log_of_tiny_order_is_asymptotic_scale(self):
        # E_0.05(50) ~ exp(50^20) / 0.05: beyond any series, exact in the log
        assert ml_scalar_log(0.05, 50.0) == pytest.approx(
            50.0 ** 20 - math.log(0.05), rel=1e-15)

    def test_negative_argument_raises(self):
        # the domain is z >= 0, for a scalar and for every entry of an array
        for x in (1e-3, 0.5, 4.0):
            with pytest.raises(DomainError):
                ml_scalar(0.5, -x)
            with pytest.raises(DomainError):
                ml_scalar(0.5, np.array([0.0, 1.0, -x, 2.0]))

    @pytest.mark.parametrize("x", [5.0, 8.0])
    def test_negative_argument_cancellation_raises(self, x):
        # an alternating series would lose ~11 digits at x = 5 and overflow
        # Gamma(k/2 + 1) at x = 8; the domain check refuses before any summing
        with pytest.raises(DomainError):
            ml_scalar(0.5, -x)

    def test_domain(self):
        with pytest.raises(DomainError):
            ml_scalar(0.0, 1.0)
        with pytest.raises(DomainError):
            ml_scalar(-1.0, 1.0)


class TestMlScalarLogRoutes:
    def test_threshold(self):
        assert ML_ASYMPTOTIC_U0 == 20.0

    def test_route_chosen_by_series_scale(self, monkeypatch):
        seen = []
        expansion = specfun._ml_log_expansion

        def spy(alpha, z, u, tol):
            seen.append(u.copy())
            return expansion(alpha, z, u, tol)

        monkeypatch.setattr(specfun, "_ml_log_expansion", spy)
        us = np.array([0.0, 19.9, 20.0, 45.0, 5.0])
        got = ml_scalar_log(0.5, np.sqrt(us))
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], [20.0, 45.0], rtol=1e-15)
        assert got[0] == 0.0
        # orders >= 1 always take the series
        ml_scalar_log(1.0, np.array([25.0, 300.0]))
        assert len(seen) == 1

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 0.98])
    def test_routes_agree_on_overlap_band(self, alpha):
        u = np.linspace(ML_ASYMPTOTIC_U0, 4.0 * ML_ASYMPTOTIC_U0, 61)
        z = u ** alpha
        series = specfun._ml_log_series(alpha, z, ML_SERIES_TOL, ML_MAX_TERMS)
        expansion = specfun._ml_log_expansion(alpha, z, z ** (1.0 / alpha),
                                              ML_SERIES_TOL)
        assert np.max(np.abs(expansion - series) / series) <= 1e-14

    def test_expansion_matches_closed_forms(self):
        # log E_{1/2}(z) = z^2 + log erfc(-z); every z here has u = z^2 >= U0
        for z in (4.5, 10.0, 30.0, 100.0):
            assert ml_scalar_log(0.5, z) == pytest.approx(
                z * z + math.log(math.erfc(-z)), rel=1e-15)
        # log E_1(z) = z: every 1/Gamma(1 - k) vanishes, so S = 0 exactly
        z = np.array([20.0, 50.0, 300.0])
        assert np.array_equal(
            specfun._ml_log_expansion(1.0, z, z, ML_SERIES_TOL), z)

    def test_expansion_stops_at_smallest_term(self, monkeypatch):
        # a tolerance no term can meet: the divergent sum must stop at the
        # smallest term of its envelope, where the expansion is most accurate
        monkeypatch.setattr(specfun, "ML_SERIES_TOL", 1e-300)
        z = 5.0
        assert ml_scalar_log(0.5, z) == pytest.approx(
            z * z + math.log(math.erfc(-z)), rel=1e-15)

    def test_series_for_large_order_one_arguments(self):
        # the series route keeps every term in log space: no in-block overflow
        got = ml_scalar_log(1.0, np.array([300.0, 1000.0]))
        np.testing.assert_allclose(got, [300.0, 1000.0], rtol=1e-15)


class TestSampledFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 1.0, 0.5]), np.zeros(3))
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.1, 1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 1.0]), np.array([0.0, np.inf]))

    def test_non_finite_values_are_validation_errors(self):
        # t^2 sampled up to 1e300 overflows: a config error (CLI exit 2)
        grid = np.array([0.0, 1e300])
        with np.errstate(over="ignore"):
            values = grid ** 2
        with pytest.raises(ValidationError, match="sampled values must be finite"):
            SampledFunction(grid, values)

    def test_uniform_detection(self):
        f = SampledFunction(np.linspace(0, 1, 11), np.zeros(11))
        assert f.is_uniform()
        g = SampledFunction(np.array([0.0, 0.1, 0.5, 1.0]), np.zeros(4))
        assert not g.is_uniform()

    @pytest.mark.parametrize("n", [10, 10_000, 1_000_000])
    def test_uniform_detection_allows_rounding(self, n):
        # the points of linspace and of (T/N) * arange carry a rounding of
        # ~eps T, which exceeds 1e-12 h from N ~ 10^4 on
        for t_max in (1e-3, 1.0, 7.3, 1e3):
            for grid in (np.linspace(0.0, t_max, n + 1),
                         t_max / n * np.arange(n + 1)):
                assert SampledFunction(grid, np.zeros(n + 1)).is_uniform()

    @pytest.mark.parametrize("n", [10, 1000, 10_000])
    def test_moved_point_is_not_uniform(self, n):
        grid = np.linspace(0.0, 1.0, n + 1)
        grid[n // 3] += 1e-9 / n
        assert not SampledFunction(grid, np.zeros(n + 1)).is_uniform()


def _uniform(fn, t_max=1.0, n=1000):
    grid = np.linspace(0.0, t_max, n + 1)
    return SampledFunction(grid, fn(grid))


class TestRlIntegral:
    def test_constant_is_quadrature_exact(self):
        f = _uniform(lambda t: np.ones_like(t), n=64)
        for alpha in (0.4, 0.75, 1.3):
            for idx in (1, 17, 64):
                t = f.grid[idx]
                expected = t ** alpha / gamma_fn(alpha + 1.0)
                assert rl_integral(alpha, f, idx) == pytest.approx(expected, rel=1e-13)

    def test_order_one_ordinary_integral(self):
        f = _uniform(lambda t: t, n=1000)
        got = rl_integral(1.0, f, 1000)
        assert got == pytest.approx(0.5, abs=1e-3)

    def test_half_order_of_linear_function(self):
        # I^0.5 t at t = 1 equals Gamma(2)/Gamma(2.5)
        expected = 1.0 / gamma_fn(2.5)
        f = _uniform(lambda t: t, n=4096)
        got = rl_integral(0.5, f, 4096)
        assert got == pytest.approx(expected, abs=1e-3)

    def test_linearity_and_positivity(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 2.0, 200)
        u = rng.normal(size=200)
        v = rng.normal(size=200)
        fu = SampledFunction(grid, u)
        fv = SampledFunction(grid, v)
        fw = SampledFunction(grid, 2.0 * u - 3.0 * v)
        combo = 2.0 * rl_integral(0.7, fu, 150) - 3.0 * rl_integral(0.7, fv, 150)
        assert rl_integral(0.7, fw, 150) == pytest.approx(combo, rel=1e-12, abs=1e-12)
        fpos = SampledFunction(grid, np.abs(u))
        assert rl_integral(0.7, fpos, 199) >= 0.0

    def test_all_indices_matches_single(self):
        f = _uniform(lambda t: np.sin(t), n=128)
        all_vals = rl_integral_all(0.6, f)
        for idx in (0, 1, 31, 128):
            assert all_vals[idx] == pytest.approx(rl_integral(0.6, f, idx),
                                                  rel=1e-12, abs=1e-14)

    def test_all_indices_on_nonuniform_grid(self):
        # a non-uniform grid takes the per-index fallback, not the convolution
        grid = np.array([0.0, 0.1, 0.5, 1.0, 1.2, 2.0, 2.05, 3.0])
        f = SampledFunction(grid, np.cos(grid) + grid ** 2)
        assert not f.is_uniform()
        all_vals = rl_integral_all(0.6, f)
        single = np.array([rl_integral(0.6, f, i) for i in range(grid.size)])
        assert all_vals[0] == 0.0
        np.testing.assert_allclose(all_vals, single, rtol=1e-13, atol=0.0)

    def test_all_indices_of_impulse_match_forty_digit_weights(self):
        # I^a of a unit impulse at t = 0 is the weight row itself; a
        # difference of powers loses ~1e-12 of it by n = 10^4
        n, alpha = 10_000, 0.75
        values = np.zeros(n + 1)
        values[0] = 1.0
        got = rl_integral_all(alpha, SampledFunction(np.linspace(0.0, 1.0, n + 1),
                                                     values))
        lags = [1, 2, 10, *range(97, n, 997), n - 1, n]
        with localcontext() as ctx:
            ctx.prec = 40
            da, dh = Decimal(alpha), Decimal(1.0 / n)
            ref = [float((m * dh) ** da - ((m - 1) * dh) ** da) for m in lags]
        ref = np.array(ref) * reciprocal_gamma(alpha + 1.0)
        assert np.all(np.abs(got[lags] - ref) <= 1e-15 * ref)

    def test_domain_and_bounds(self):
        f = _uniform(lambda t: t, n=8)
        with pytest.raises(DomainError):
            rl_integral(0.0, f, 4)
        with pytest.raises(ValueError):
            rl_integral(0.5, f, 9)


class TestCaputoIdentity:
    def test_quadratic_function(self):
        n = 10_000
        grid = np.linspace(0.0, 1.0, n + 1)
        alpha = 0.75
        f = SampledFunction(grid, grid ** 2)
        df = SampledFunction(grid, 2.0 * grid ** (2.0 - alpha) / gamma_fn(3.0 - alpha))
        assert caputo_identity_residual(alpha, f, df) < 1e-3

    def test_constant_function_exact(self):
        grid = np.linspace(0.0, 1.0, 65)
        f = SampledFunction(grid, np.full(65, 4.2))
        df = SampledFunction(grid, np.zeros(65))
        assert caputo_identity_residual(0.6, f, df) == 0.0

    def test_residual_shrinks_with_refinement(self):
        alpha = 0.5

        def residual(n):
            grid = np.linspace(0.0, 1.0, n + 1)
            f = SampledFunction(grid, grid)
            df = SampledFunction(grid, grid ** 0.5 / gamma_fn(1.5))
            return caputo_identity_residual(alpha, f, df)

        r1, r2 = residual(500), residual(1000)
        assert r2 < r1

    def test_grid_mismatch(self):
        f = SampledFunction(np.linspace(0, 1, 11), np.zeros(11))
        g = SampledFunction(np.linspace(0, 1, 21), np.zeros(21))
        with pytest.raises(ValueError):
            caputo_identity_residual(0.5, f, g)


class TestGaussRules:
    def test_legendre_matches_numpy(self):
        # the em far field's rule, without loading numpy.polynomial
        t, w = gauss_legendre(14)
        ref_t, ref_w = np.polynomial.legendre.leggauss(14)
        assert np.abs(t - ref_t).max() <= 1e-15
        assert np.abs(w - ref_w).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 8, 14])
    def test_legendre_integrates_polynomials_exactly(self, n):
        t, w = gauss_legendre(n)
        for m in range(2 * n):
            assert w @ t ** m == pytest.approx((1 + (-1) ** m) / (m + 1),
                                               rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("q", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_jacobi_integrates_weighted_polynomials_exactly(self, q):
        # int_0^1 x^-q x^m dx = 1 / (m + 1 - q) for m up to 2n - 1
        x, w = gauss_jacobi(q, 8)
        assert np.all((0 < x) & (x < 1))
        for m in range(16):
            assert w @ x ** m == pytest.approx(1.0 / (m + 1 - q), rel=1e-13)
