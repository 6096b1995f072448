"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Some criteria are Monte Carlo experiments at full desk scale and take
minutes; seeds are pinned so every run is reproducible bit-for-bit.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import smtde
from smtde.analysis import (contraction_report, continuity_experiment,
                            convolution_bound_check, separation_experiment)
from smtde.linalg import mat_norm
from smtde.mlmatrix import MLParams, QTable, ml_nonperm
from smtde.solvers import BrownianDriver, InitialState, simulate_em
from smtde.specfun import (SampledFunction, caputo_identity_residual, gamma_fn,
                           ml_scalar, reciprocal_gamma)

from conftest import left_power, make_problem, one_fn, zero_fn

SEED = 29  # canonical acceptance seed used by every stochastic criterion


def report(number, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d}: {status} - {detail} [{elapsed:.1f}s]")
    assert passed, f"criterion {number:02d} failed: {detail}"


def test_c01_q_recursion_matches_binomial_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(-0.5, 0.5, size=(2, 2))
        c0, c1, c2 = rng.uniform(-0.4, 0.4, size=3)
        b = c0 * np.eye(2) + c1 * a + c2 * a @ a
        table = QTable(a, b)
        for k in range(0, 13):
            for m in range(0, 13 - k):
                closed = math.comb(k + m, m) * left_power(a, k) @ left_power(b, m)
                worst = max(worst, mat_norm(table.coeff(k, m) - closed))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-10 and elapsed < 1.0,
           f"max |Q - binom A^k B^m| = {worst:.2e} over k+m<=12, 20 pairs",
           elapsed)


def _single_series_matrix_ml(a, rho, delta, t, n_terms=300):
    # independent oracle: plain truncated one-matrix series
    total = np.zeros_like(a)
    power = np.eye(a.shape[0])
    for k in range(n_terms):
        total = total + power * t ** (k * rho) * reciprocal_gamma(k * rho + delta)
        power = power @ a
    return total


def test_c02_ml_reduction_to_single_series():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    zero2 = np.zeros((2, 2))
    worst_matrix = 0.0
    for a in (np.array([[0.1, 0.2], [0.3, 0.4]]),
              rng.uniform(-0.6, 0.6, size=(2, 2))):
        table = QTable(a, zero2)
        for delta in (0.75, 1.0):
            params = MLParams(rho=0.5, sigma_exp=0.75, delta=delta)
            for t in (0.5, 1.0, 2.0):
                got = ml_nonperm(table, params, t)
                expected = _single_series_matrix_ml(a, 0.5, delta, t)
                worst_matrix = max(worst_matrix, mat_norm(got - expected))
    worst_scalar = 0.0
    table1 = QTable(np.array([[0.45]]), np.zeros((1, 1)))
    params1 = MLParams(rho=0.6, sigma_exp=1.0, delta=1.0)
    for t in (0.5, 1.0, 2.0):
        got = ml_nonperm(table1, params1, t)[0, 0]
        expected = ml_scalar(0.6, 0.45 * t ** 0.6)
        worst_scalar = max(worst_scalar, abs(got - expected))
    elapsed = time.perf_counter() - start
    report(2, worst_matrix < 1e-10 and worst_scalar < 1e-12 and elapsed < 1.0,
           f"matrix dev {worst_matrix:.2e}, scalar dev {worst_scalar:.2e}",
           elapsed)


def test_c03_convolution_bound_sweep():
    start = time.perf_counter()
    all_hold = True
    for omega in (0.5, 1.0, 5.0):
        for alpha in (0.6, 0.75, 0.9):
            for t in (0.5, 1.0, 2.0):
                check = convolution_bound_check(alpha, omega, t, 10_000)
                all_hold = all_hold and check.holds
    elapsed = time.perf_counter() - start
    report(3, all_hold and elapsed < 10.0,
           f"lhs <= rhs*(1+1e-6) on all 27 (omega, alpha, t) combinations",
           elapsed)


def test_c04_fractional_integral_recovers_function():
    start = time.perf_counter()
    n = 10_000
    alpha = 0.75
    grid = np.linspace(0.0, 1.0, n + 1)
    f = SampledFunction(grid, grid ** 2)
    df = SampledFunction(grid, 2.0 * grid ** (2.0 - alpha) / gamma_fn(3.0 - alpha))
    residual = caputo_identity_residual(alpha, f, df)
    elapsed = time.perf_counter() - start
    report(4, residual < 1e-3 and elapsed < 1.0,
           f"identity residual {residual:.2e} at {n} grid points", elapsed)


def test_c05_constant_drift_closed_form():
    start = time.perf_counter()
    zero2 = np.zeros((2, 2))
    p = make_problem(a_mat=zero2, b_mat=zero2, drift=one_fn, diffusion=zero_fn,
                     lip_b=0.0, lip_sigma=0.0)
    drv = BrownianDriver(seed=SEED, n_steps=100)
    ens = simulate_em(p, InitialState([3.0, 5.0]), drv, 2)
    shift = ens.grid ** p.alpha / gamma_fn(p.alpha + 1.0)
    err = max(np.abs(ens.paths[:, 0, 0] - (3.0 + shift)).max(),
              np.abs(ens.paths[:, 1, 0] - (5.0 + shift)).max())
    elapsed = time.perf_counter() - start
    report(5, err < 1e-12 and elapsed < 1.0,
           f"max deviation from eta + t^a/Gamma(a+1) is {err:.2e}", elapsed)


def test_c06_deterministic_convergence_rate():
    start = time.perf_counter()
    p = make_problem(diffusion=zero_fn, lip_sigma=0.0)
    eta = InitialState([3.0, 5.0])

    def endpoint(n_steps):
        drv = BrownianDriver(seed=SEED, n_steps=n_steps)
        return simulate_em(p, eta, drv, 1).paths[-1, :, 0]

    reference = endpoint(8000)
    errors = [float(np.linalg.norm(endpoint(n) - reference))
              for n in (250, 500, 1000)]
    f1 = errors[0] / errors[1]
    f2 = errors[1] / errors[2]
    elapsed = time.perf_counter() - start
    report(6, f1 >= 1.3 and f2 >= 1.3 and elapsed < 30.0,
           f"error reduction factors per halving: {f1:.2f}, {f2:.2f} "
           f"(errors {errors[0]:.2e} -> {errors[2]:.2e})", elapsed)


def test_c07_picard_contraction():
    start = time.perf_counter()
    p = make_problem()  # horizon 1.0
    drv = BrownianDriver(seed=SEED, n_steps=100)
    rep = contraction_report(p, InitialState([3.0, 5.0]), drv,
                             n_iter=4, n_paths=1000)
    zeta_exact = abs(rep.zeta - 0.75) < 1e-12
    ratios_ok = bool(rep.iterate_ratios) and max(rep.iterate_ratios) <= 0.85
    elapsed = time.perf_counter() - start
    report(7, zeta_exact and ratios_ok and elapsed < 120.0,
           f"zeta = {rep.zeta!r} (3/4 to 1e-12: {zeta_exact}), "
           f"max ratio {max(rep.iterate_ratios):.3g} <= 0.85, "
           f"M = {rep.m_sup:.3f}, omega = {rep.omega_used:.1f}", elapsed)


def test_c08_separation_at_extended_horizon():
    start = time.perf_counter()
    p = make_problem(horizon=10.0)
    eta = InitialState([3.0, 5.0])
    gamma = InitialState([3.5, 5.5])
    drv = BrownianDriver(seed=SEED, n_steps=1000)
    rep = separation_experiment(p, eta, gamma, drv, scaling_exponent=0.75,
                                n_paths=10_000)
    win = rep.times >= 1.0
    z_min = float(np.min(rep.ms_distance[win] / rep.std_errors[win]))
    significant = bool(np.all(rep.ms_distance[win] - 3.0 * rep.std_errors[win] > 0))
    exponent_ok = rep.fitted_exponent <= 1.0
    elapsed = time.perf_counter() - start
    report(8, significant and exponent_ok and elapsed < 600.0,
           f"min z over t>=1 is {z_min:.2f} (need > 3), fitted p = "
           f"{rep.fitted_exponent:.2f} <= 1.0 "
           f"(CI [{rep.fitted_ci[0]:.2f}, {rep.fitted_ci[1]:.2f}])", elapsed)


def test_c09_continuity_ratio_band():
    start = time.perf_counter()
    p = make_problem()
    eta = InitialState([3.0, 5.0])
    drv = BrownianDriver(seed=SEED, n_steps=100)
    rows = continuity_experiment(p, eta, [1e-1, 1e-2, 1e-3], drv, n_paths=2000)
    ratios = [row.ratio for row in rows]
    band = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - start
    report(9, band <= 3.0 and elapsed < 300.0,
           f"sup-distance ratios {[f'{r:.2f}' for r in ratios]} "
           f"span factor {band:.2f} <= 3", elapsed)


def test_c10_cli_determinism(tmp_path):
    start = time.perf_counter()
    config = Path(__file__).resolve().parent.parent / "configs" / "example_sec6.json"
    # the child imports the same smtde as this process, installed or not
    package_root = str(Path(smtde.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))

    def run_cli(out_name, threads):
        out = tmp_path / out_name
        proc = subprocess.run(
            [sys.executable, "-m", "smtde", "run", "--config", str(config),
             "--out", str(out), "--threads", str(threads)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return (out / "results.csv").read_bytes()

    first = run_cli("run1", 1)
    second = run_cli("run2", 1)
    threaded = run_cli("run4", 4)
    identical = first == second == threaded
    elapsed = time.perf_counter() - start
    report(10, identical,
           "results.csv byte-identical across reruns and thread counts {1, 4}",
           elapsed)
