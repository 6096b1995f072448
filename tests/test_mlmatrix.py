import math
import sys
import threading
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from smtde import mlmatrix
from smtde.errors import DomainError, NonConvergenceError, TruncationBoundError
from smtde.linalg import mat_norm
from smtde.mlmatrix import (MLParams, QTable, ml_nonperm, ml_nonperm_grid,
                            ml_nonperm_info, ml_perm)
from smtde.specfun import ml_scalar, reciprocal_gamma

from conftest import SEC6_A, SEC6_B, left_power

KERNEL_PARAMS = MLParams(rho=0.5, sigma_exp=0.75, delta=0.75)


def random_pair(rng, n=2, commuting=False):
    a = rng.uniform(-0.5, 0.5, size=(n, n))
    if not commuting:
        return a, rng.uniform(-0.5, 0.5, size=(n, n))
    coeffs = rng.uniform(-0.4, 0.4, size=3)
    b = coeffs[0] * np.eye(n) + coeffs[1] * a + coeffs[2] * a @ a
    return a, b


class TestQTable:
    def test_base_cases(self):
        q = QTable(SEC6_A, SEC6_B)
        for k in range(6):
            assert np.array_equal(q.coeff(k, 0), left_power(SEC6_A, k))
        for m in range(6):
            assert np.allclose(q.coeff(0, m), left_power(SEC6_B, m), atol=1e-15)

    def test_q11_is_ab_plus_ba(self):
        q = QTable(SEC6_A, SEC6_B)
        expected = SEC6_A @ SEC6_B + SEC6_B @ SEC6_A
        assert np.allclose(q.coeff(1, 1), expected, atol=1e-15)

    def test_recursion_residual_is_exactly_zero(self):
        # every entry with k+m <= 8 is the two-term recurrence, bit for bit
        q = QTable(SEC6_A, SEC6_B)
        for d in range(1, 9):
            for m in range(0, d + 1):
                k = d - m
                expected = np.zeros((2, 2))
                if k > 0:
                    expected = q.coeff(k - 1, m) @ q.a
                if m > 0:
                    expected = expected + q.coeff(k, m - 1) @ q.b
                assert np.array_equal(q.coeff(k, m), expected)

    @pytest.mark.parametrize("pair", ["sec6", "random"])
    def test_matches_exact_l_sum_definition(self, pair):
        # the paper's definition Q_{k,m} = sum_l A^(k-l) B Q_{l,m-1}, evaluated
        # in exact rational arithmetic from the same float inputs
        if pair == "sec6":
            a, b = SEC6_A, SEC6_B
        else:
            a, b = random_pair(np.random.default_rng(3))
            assert np.any(a < 0) and np.any(b < 0)
            assert mat_norm(a @ b - b @ a) > 1e-3
        depth = 20
        q = QTable(a, b)
        scale_a, scale_b = mat_norm(a), mat_norm(b)
        for (k, m), exact in exact_q_table(a, b, depth).items():
            err = exact_row_sum_error(q.coeff(k, m), exact)
            scale = math.comb(k + m, m) * scale_a ** k * scale_b ** m
            assert err <= 1e-14 * scale, (k, m, err, scale)

    def test_shared_fill_across_threads(self):
        # two threads race to fill fresh tables; a short switch interval makes
        # them interleave inside the fill, where a lost update would show
        depth = 60
        entries = [(d - m, m) for d in range(depth + 1) for m in range(d + 1)]
        reference = QTable(SEC6_A, SEC6_B)
        expected = np.array([reference.coeff(k, m) for k, m in entries])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                shared = QTable(SEC6_A, SEC6_B)
                start = threading.Barrier(2, timeout=60)

                def fill(_):
                    start.wait()
                    return np.array([shared.coeff(k, m) for k, m in entries])

                with ThreadPoolExecutor(max_workers=2) as pool:
                    results = list(pool.map(fill, range(2), timeout=60))
                for got in results:
                    assert np.array_equal(got, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_commuting_pair_binomial_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = random_pair(rng, commuting=True)
            q = QTable(a, b)
            worst = 0.0
            for k in range(0, 8):
                for m in range(0, 8 - k):
                    closed = math.comb(k + m, m) * left_power(a, k) @ left_power(b, m)
                    worst = max(worst, mat_norm(q.coeff(k, m) - closed))
            assert worst < 1e-10

    def test_truncation_bound(self, monkeypatch):
        monkeypatch.setattr(mlmatrix, "DEFAULT_MAX_DIAGONALS", 10)
        q = QTable(SEC6_A, SEC6_B)
        q.coeff(4, 6)
        with pytest.raises(TruncationBoundError):
            q.coeff(5, 6)
        with pytest.raises(ValueError):
            q.coeff(-1, 0)

    def test_array_indices(self, monkeypatch):
        monkeypatch.setattr(mlmatrix, "DEFAULT_MAX_DIAGONALS", 10)
        q = QTable(SEC6_A, SEC6_B)
        ks, ms = np.array([3, 0, 7, 3]), np.array([2, 10, 0, 2])
        stack = q.coeff(ks, ms)
        assert stack.shape == (4, 2, 2)
        for got, k, m in zip(stack, ks, ms):
            assert np.array_equal(got, q.coeff(int(k), int(m)))
        assert q.coeff([], []).shape == (0, 2, 2)
        with pytest.raises(TruncationBoundError):
            q.coeff([1, 5], [2, 6])
        with pytest.raises(ValueError):
            q.coeff([1, -1], [0, 0])
        with pytest.raises(ValueError):
            q.coeff([1, 2], [0])
        with pytest.raises(ValueError):
            q.coeff([1.5], [0])


class TestMlNonperm:
    def test_identity_at_origin(self):
        q = QTable(SEC6_A, SEC6_B)
        p = MLParams(rho=0.5, sigma_exp=0.75, delta=1.0)
        assert np.array_equal(ml_nonperm(q, p, 0.0), np.eye(2))

    def test_zero_matrices_give_identity(self):
        q = QTable(np.zeros((2, 2)), np.zeros((2, 2)))
        p = MLParams(rho=0.5, sigma_exp=0.75, delta=1.0)
        for t in (0.0, 0.5, 3.0):
            assert np.array_equal(ml_nonperm(q, p, t), np.eye(2))

    def test_single_series_when_b_vanishes(self):
        # independent one-matrix series oracle
        rng = np.random.default_rng(5)
        a = rng.uniform(-0.5, 0.5, size=(2, 2))
        q = QTable(a, np.zeros((2, 2)))
        p = MLParams(rho=0.6, sigma_exp=0.9, delta=1.2)
        for t in (0.5, 1.0, 2.0):
            expected = np.zeros((2, 2))
            term = np.eye(2)
            for k in range(250):
                expected = expected + term * t ** (k * p.rho) * \
                    reciprocal_gamma(k * p.rho + p.delta)
                term = term @ a
            assert mat_norm(ml_nonperm(q, p, t) - expected) < 1e-12

    def test_scalar_case_reduces_to_ml_scalar(self):
        a = 0.37
        q = QTable(np.array([[a]]), np.zeros((1, 1)))
        p = MLParams(rho=0.8, sigma_exp=1.0, delta=1.0)
        for t in (0.25, 1.0, 2.0):
            got = ml_nonperm(q, p, t)[0, 0]
            expected = ml_scalar(p.rho, a * t ** p.rho)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_tail_estimate_bounds_refinement(self):
        q = QTable(SEC6_A, SEC6_B)
        value, info = ml_nonperm_info(q, KERNEL_PARAMS, 1.5)
        deeper = 0.0
        for extra in range(1, 11):
            d = info.diagonals_used + extra
            for m in range(0, d + 1):
                k = d - m
                e = k * KERNEL_PARAMS.rho + m * KERNEL_PARAMS.sigma_exp
                deeper += mat_norm(t_pow(1.5, e) * reciprocal_gamma(e + KERNEL_PARAMS.delta)
                                   * q.coeff(k, m))
        assert deeper <= info.tail_estimate

    def test_non_convergence_guard(self, monkeypatch):
        monkeypatch.setattr(mlmatrix, "DEFAULT_MAX_DIAGONALS", 5)
        q = QTable(SEC6_A, SEC6_B)
        with pytest.raises(NonConvergenceError):
            ml_nonperm(q, KERNEL_PARAMS, 3.0)

    def test_grid_matches_scalar_evaluation(self):
        q = QTable(SEC6_A, SEC6_B)
        ts = np.array([0.0, 0.2, 0.9, 1.4])
        vals, _ = ml_nonperm_grid(q, KERNEL_PARAMS, ts)
        for t, v in zip(ts, vals):
            assert mat_norm(v - ml_nonperm(q, KERNEL_PARAMS, float(t))) < 1e-12

    def test_negative_time_rejected(self):
        q = QTable(SEC6_A, SEC6_B)
        with pytest.raises(DomainError):
            ml_nonperm(q, KERNEL_PARAMS, -0.1)

    def test_grid_rejects_malformed_times(self):
        q = QTable(SEC6_A, SEC6_B)
        for ts in ([], [[0.5, 1.0]]):
            with pytest.raises(ValueError, match="non-empty 1-d array"):
                ml_nonperm_grid(q, KERNEL_PARAMS, ts)
        for ts in ([0.5, -0.1], [0.5, math.nan], [math.inf]):
            with pytest.raises(DomainError):
                ml_nonperm_grid(q, KERNEL_PARAMS, ts)

    def test_grid_reads_each_coefficient_once(self):
        # one pass over the series: the depth is not learned by a first sum.
        # The scan reads whole batches, so it reads every anti-diagonal
        # through the end of the batch that holds the depth, each term once
        q = QTable(SEC6_A, SEC6_B)
        calls = count_coeff_calls(q)
        _, info = ml_nonperm_grid(q, KERNEL_PARAMS, np.linspace(0.0, 20.0, 201))
        end = scan_end(info.diagonals_used)
        assert (info.diagonals_used, end) == (100, 111)
        assert len(calls) == (end + 1) * (end + 2) // 2
        assert max(calls.values()) == 1

    def test_unsorted_grid_depth_set_by_largest_time(self):
        q = QTable(SEC6_A, SEC6_B)
        ts = np.array([3.0, 20.0, 0.0, 7.5])
        vals, info = ml_nonperm_grid(q, KERNEL_PARAMS, ts)
        value, expected = ml_nonperm_info(q, KERNEL_PARAMS, 20.0)
        assert info == expected
        assert mat_norm(vals[1] - value) <= 1e-12 * mat_norm(value)

    def test_zero_weight_terms_contribute_exact_zero(self):
        # delta = 0 puts the leading term on the reciprocal-gamma pole, and
        # t = 0 zeroes every other term: the value is an exact zero matrix
        q = QTable(SEC6_A, SEC6_B)
        p = MLParams(rho=0.5, sigma_exp=0.75, delta=0.0)
        calls = count_coeff_calls(q)
        assert np.array_equal(ml_nonperm(q, p, 0.0), np.zeros((2, 2)))
        assert not calls
        vals, _ = ml_nonperm_grid(q, p, [0.0, 1.0])
        assert np.array_equal(vals[0], np.zeros((2, 2)))
        assert (0, 0) not in calls
        assert mat_norm(vals[1] - ml_nonperm(q, p, 1.0)) < 1e-12


class TestSeriesAgainstPerDiagonalSum:
    """The depth scan plus one product against a plain per-diagonal sum."""

    @pytest.mark.parametrize("pair, horizon, delta", [
        ("sec6", 20.0, 0.75), ("sec6", 20.0, 1.75),
        ("commuting", 5.0, 0.75), ("commuting", 5.0, 1.75)])
    def test_matches_per_diagonal_sum(self, pair, horizon, delta):
        if pair == "sec6":
            a, b = SEC6_A, SEC6_B
        else:
            a, b = random_pair(np.random.default_rng(7), commuting=True)
        q = QTable(a, b)
        p = MLParams(rho=0.5, sigma_exp=0.75, delta=delta)
        ts = np.linspace(0.0, horizon, 201)
        vals, info = ml_nonperm_grid(q, p, ts)
        expected = per_diagonal_sum(q, p, ts, info.diagonals_used)
        scale = np.abs(expected).max(axis=(1, 2))
        err = np.abs(vals - expected).max(axis=(1, 2))
        assert np.all(err <= 1e-13 * scale)


class TestBatchedScanAgainstPerDiagonalScan:
    """The batched depth scan against the scan one anti-diagonal at a time,
    bit for bit: values, depth, tail estimate and failures."""

    @pytest.mark.parametrize("delta", [0.75, 1.75, -1.0, -2.5])
    @pytest.mark.parametrize("t", [0.0, 0.5, 20.0])
    def test_sec6_bit_equal(self, monkeypatch, t, delta):
        # delta = -1.0 and -2.5 put terms on reciprocal-gamma poles
        p = MLParams(rho=0.5, sigma_exp=0.75, delta=delta)
        for ts in ([t], np.linspace(0.0, t, 201)):
            got = ml_nonperm_grid(QTable(SEC6_A, SEC6_B), p, ts)
            monkeypatch.setattr(mlmatrix, "_sum_series", per_diagonal_scan)
            expected = ml_nonperm_grid(QTable(SEC6_A, SEC6_B), p, ts)
            monkeypatch.undo()
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1] == expected[1]

    @pytest.mark.parametrize("delta", [0.75, -1.0])
    @pytest.mark.parametrize("t", [0.0, 0.5, 5.0])
    def test_perm_bit_equal(self, monkeypatch, t, delta):
        a, b = random_pair(np.random.default_rng(7), commuting=True)
        p = MLParams(rho=0.5, sigma_exp=0.75, delta=delta)
        got = ml_perm(a, b, p, t)
        monkeypatch.setattr(mlmatrix, "_sum_series", per_diagonal_scan)
        assert got.tobytes() == ml_perm(a, b, p, t).tobytes()

    @pytest.mark.parametrize("t, message", [
        (60.0, "not converged after 200 anti-diagonals"),
        (100.0, "not converged after 200 anti-diagonals"),
        (1e6, "overflowed at anti-diagonal 69 ")])
    def test_same_failures_without_warnings(self, monkeypatch, t, message):
        p = MLParams(rho=0.5, sigma_exp=0.75, delta=0.75)
        errors = []
        for scan in (mlmatrix._sum_series, per_diagonal_scan):
            monkeypatch.setattr(mlmatrix, "_sum_series", scan)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonConvergenceError, match=message) as err:
                    ml_nonperm_info(QTable(SEC6_A, SEC6_B), p, t)
            errors.append(str(err.value))
        assert errors[0] == errors[1]


def per_diagonal_scan(term, dim, p, ts):
    """``mlmatrix._sum_series`` one anti-diagonal at a time: each reads its
    own weights and coefficients, adds its product at t_max to the total and
    applies the overflow check and the stopping rule. The kept terms are
    summed by ``mlmatrix._sum_kept``."""
    ts = np.asarray(ts, dtype=float)
    t_max = float(ts.max())
    kept_k, kept_m, kept_g = [], [], []
    total = np.zeros(dim * dim)
    recent, run = [], 0
    for d in range(mlmatrix.DEFAULT_MAX_DIAGONALS + 1):
        ms = np.arange(d + 1)
        exps = (d - ms) * p.rho + ms * p.sigma_exp
        rgs = np.array([reciprocal_gamma(e + p.delta) for e in exps])
        diag = np.zeros_like(total)
        with np.errstate(over="ignore", invalid="ignore"):
            powers = t_max ** exps
            live = np.flatnonzero(powers * rgs)
            ms, rgs, powers = ms[live], rgs[live], powers[live]
            if ms.size:
                g = rgs[:, None] * term(d - ms, ms).reshape(ms.size, dim * dim)
                kept_k.append(d - ms)
                kept_m.append(ms)
                kept_g.append(g)
                diag = powers @ g
            total += diag
            diag_norm = float(np.abs(diag.reshape(dim, dim)).sum(axis=1).max())
            total_norm = float(np.abs(total.reshape(dim, dim)).sum(axis=1).max())
        if not (math.isfinite(diag_norm) and math.isfinite(total_norm)):
            raise NonConvergenceError(
                f"matrix ml series overflowed at anti-diagonal {d} (t={t_max})")
        recent.append(diag_norm)
        run = run + 1 if diag_norm <= mlmatrix.ML_MATRIX_TOL * total_norm else 0
        if run == 4:
            values = mlmatrix._sum_kept(kept_k, kept_m, kept_g, d, dim, p, ts)
            return (values.reshape(ts.size, dim, dim),
                    mlmatrix.MLEvalInfo(diagonals_used=d,
                                        tail_estimate=2.0 * sum(recent[-4:])))
    raise NonConvergenceError(
        f"matrix ml series not converged after {mlmatrix.DEFAULT_MAX_DIAGONALS} "
        f"anti-diagonals (t={t_max})")


def per_diagonal_sum(q, p, ts, depth):
    """The series to anti-diagonal ``depth`` at every time of ``ts``, one
    anti-diagonal at a time: each term's weight t^(k rho + m sigma) /
    Gamma(k rho + m sigma + delta) is one power, each coefficient one call."""
    total = np.zeros((ts.size, q.dim, q.dim))
    for d in range(depth + 1):
        ms = np.arange(d + 1)
        exps = (d - ms) * p.rho + ms * p.sigma_exp
        rgs = [reciprocal_gamma(e + p.delta) for e in exps]
        weights = ts[:, None] ** exps * rgs
        coeffs = np.array([q.coeff(int(d - m), int(m)) for m in ms])
        total += np.einsum("tm,mjk->tjk", weights, coeffs)
    return total


def scan_end(depth):
    """The last anti-diagonal the depth scan reads when it stops at depth."""
    batch = mlmatrix.SCAN_BATCH
    return min(depth // batch * batch + batch - 1, mlmatrix.DEFAULT_MAX_DIAGONALS)


def count_coeff_calls(q):
    """Route q.coeff through a per-(k, m) read counter; returns the counter.

    An array call counts each of its index pairs once."""
    calls = Counter()
    coeff = q.coeff

    def counted(k, m):
        calls.update(zip(np.atleast_1d(k).tolist(), np.atleast_1d(m).tolist()))
        return coeff(k, m)

    q.coeff = counted
    return calls


def t_pow(t, e):
    if t == 0.0:
        return 1.0 if e == 0.0 else 0.0
    return t ** e


def exact_q_table(a, b, depth):
    """Q_{k,m} for k+m <= depth from the l-sum definition, in exact arithmetic.

    Float entries are dyadic, so A = IA / s and B = IB / s with s a power of
    two and IA, IB integer; then Q_{k,m} = Z_{k,m} / s^(k+m), with Z_{k,m}
    the l-sum over IA and IB in Python integers.
    """
    n = a.shape[0]
    s = max(Fraction(float(v)).denominator for v in np.concatenate([a, b]).flat)
    ia = [[int(Fraction(float(v)) * s) for v in row] for row in a]
    ib = [[int(Fraction(float(v)) * s) for v in row] for row in b]

    def mul(x, y):
        return [[sum(x[i][l] * y[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)]

    a_pows = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(depth):
        a_pows.append(mul(a_pows[-1], ia))
    a_pow_b = [mul(p, ib) for p in a_pows]
    table = {(k, 0): a_pows[k] for k in range(depth + 1)}
    for m in range(1, depth + 1):
        for k in range(0, depth - m + 1):
            acc = [[0] * n for _ in range(n)]
            for l in range(k + 1):
                term = mul(a_pow_b[k - l], table[(l, m - 1)])
                acc = [[x + y for x, y in zip(r, t)] for r, t in zip(acc, term)]
            table[(k, m)] = acc
    return {(k, m): [[Fraction(v, s ** (k + m)) for v in row] for row in z]
            for (k, m), z in table.items()}


def exact_row_sum_error(got, exact):
    """Max row-sum norm of got - exact, with the difference taken exactly."""
    return max(float(sum(abs(Fraction(float(g)) - e) for g, e in zip(grow, erow)))
               for grow, erow in zip(got, exact))


class TestMlPerm:
    def test_zero_matrices(self):
        p = MLParams(rho=0.5, sigma_exp=0.75, delta=1.0)
        z = np.zeros((2, 2))
        assert np.array_equal(ml_perm(z, z, p, 1.0), np.eye(2))

    def test_matches_nonperm_for_commuting_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a, b = random_pair(rng, commuting=True)
            q = QTable(a, b)
            t = rng.uniform(0.0, 2.0)
            diff = mat_norm(ml_perm(a, b, KERNEL_PARAMS, t)
                            - ml_nonperm(q, KERNEL_PARAMS, t))
            assert diff < 1e-10

    def test_diagonal_matrices(self):
        a = np.diag([0.3, -0.2])
        b = np.diag([0.1, 0.4])
        q = QTable(a, b)
        diff = mat_norm(ml_perm(a, b, KERNEL_PARAMS, 1.2)
                        - ml_nonperm(q, KERNEL_PARAMS, 1.2))
        assert diff < 1e-12

    def test_rejects_non_commuting(self):
        with pytest.raises(DomainError):
            ml_perm(SEC6_A, SEC6_B, KERNEL_PARAMS, 1.0)

    def test_scalar_reduction(self):
        b = 0.41
        z = np.zeros((1, 1))
        p = MLParams(rho=1.0, sigma_exp=0.7, delta=1.0)
        got = ml_perm(z, np.array([[b]]), p, 1.5)[0, 0]
        assert got == pytest.approx(ml_scalar(0.7, b * 1.5 ** 0.7), rel=1e-12)


def test_mlparams_validation():
    with pytest.raises(DomainError):
        MLParams(rho=0.0, sigma_exp=1.0, delta=1.0)
    with pytest.raises(DomainError):
        MLParams(rho=1.0, sigma_exp=-0.5, delta=1.0)
    with pytest.raises(DomainError):
        MLParams(rho=1.0, sigma_exp=1.0, delta=math.inf)
