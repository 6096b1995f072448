"""Command-line harness: JSON configs in, CSV/JSON results out.

Usage:
    smtde run --config <path> --out <dir> [--threads N] [--seed S]

A run writes three files into the output directory:

* ``results.csv``  - long format, columns experiment,time,quantity,value,std_error
* ``report.json``  - scalar constants and fit results (null where not computed)
* ``meta.json``    - effective config echo, seed, package/library versions,
  the BLAS thread pin, and run counters (paths and dropped paths of an
  ensemble experiment)

Identical config and seed produce byte-identical ``results.csv`` for any
``--threads`` value and any BLAS thread environment: paths are simulated in
fixed-size chunks with per-path RNG streams, numpy's bundled OpenBLAS is
pinned to one thread for the run, and statistics are reduced in a fixed order.

Exit codes: 0 success. 2 where the input is at fault: a config that does
not parse, an ``--out`` that exists and is not a directory, or any
ValidationError or DomainError, whether the config check or the experiment
raises it (numbers follow the argument rule of ``smtde.errors``). 3 where the
run is: any other package error, or an error creating or writing the
outputs (outputs of an earlier run are removed). ``--out`` is created only
after a success.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import json
import os
import platform
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (contraction_report, continuity_experiment,
                       convolution_bound_check, separation_experiment,
                       simulate_ms_norm)
from .errors import (DomainError, NonConvergenceError, SmtdeError,
                     TruncationBoundError, ValidationError, as_int, as_real)
from .mlmatrix import MLParams, ml_nonperm_info, ml_perm
from .solvers import _SCHEMES, BrownianDriver, InitialState, ProblemSpec
from .specfun import SampledFunction, caputo_identity_residual, gamma_fn

REPORT_KEYS = ("m_sup", "omega", "zeta", "c_const", "fitted_exponent",
               "fitted_ci_low", "fitted_ci_high", "kappa_hat")


# ---------------------------------------------------------------------------
# built-in drift / diffusion / identity-check registries

# The sec6 callbacks write both rows into one array: the stepping core calls
# each of them once per step.
def _sec6_drift(t, x):
    out = np.empty((2,) + np.shape(x)[1:])
    np.sin(x[:1], out=out[:1])
    np.add(x[1:2], 5.0, out=out[1:])
    return out


def _sec6_diffusion(t, x):
    out = np.empty((2,) + np.shape(x)[1:])
    np.add(x[:1], 5.0, out=out[:1])
    np.cos(x[1:2], out=out[1:])
    return out


def _zero_fn(t, x):
    return np.zeros_like(x)


def _one_fn(t, x):
    return np.ones_like(x)


DRIFT_REGISTRY = {"zero": _zero_fn, "one": _one_fn, "sec6_drift": _sec6_drift}
DIFFUSION_REGISTRY = {"zero": _zero_fn, "one": _one_fn,
                      "sec6_diffusion": _sec6_diffusion}


def _identity_t_squared(alpha: float, grid: np.ndarray):
    f = grid ** 2
    df = 2.0 * grid ** (2.0 - alpha) / gamma_fn(3.0 - alpha)
    return f, df


def _identity_linear(alpha: float, grid: np.ndarray):
    f = grid.copy()
    df = grid ** (1.0 - alpha) / gamma_fn(2.0 - alpha)
    return f, df


def _identity_constant(alpha: float, grid: np.ndarray):
    return np.ones_like(grid), np.zeros_like(grid)


IDENTITY_REGISTRY = {"t_squared": _identity_t_squared,
                     "linear": _identity_linear,
                     "constant": _identity_constant}


# ---------------------------------------------------------------------------
# config validation

@dataclass
class RunConfig:
    problem: ProblemSpec
    n_steps: int
    n_paths: int
    seed: int
    experiment: str
    params: dict
    echo: dict


def _require_keys(section: dict, name: str, required, optional=()):
    if not isinstance(section, dict):
        raise ValidationError(f"{name} must be a JSON object")
    for key in required:
        if key not in section:
            raise ValidationError(f"missing field '{key}' in {name}")
    allowed = set(required) | set(optional)
    for key in section:
        if key not in allowed:
            raise ValidationError(f"unknown field '{key}' in {name}")


def _as_vector(value, name: str, dim: int | None = None) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{name} must be a non-empty list of numbers")
    vec = [as_real(v, f"{name} entry") for v in value]
    if dim is not None and len(vec) != dim:
        raise ValidationError(f"{name} must have {dim} entries")
    return vec


def _as_square(value, name: str, dim: int) -> list[list[float]]:
    if not isinstance(value, list) or len(value) != dim:
        raise ValidationError(f"{name} must be a {dim}x{dim} row-major array")
    return [_as_vector(row, f"{name} row", dim) for row in value]


def _as_choice(value, name: str, choices) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ValidationError(
            f"unknown {name} '{value}' (choices: {sorted(choices)})")
    return value


def _as_param(key: str, value, dim: int):
    """One params entry, checked and converted; the runners read the result."""
    name = f"params.{key}"
    if key == "scheme":
        return _as_choice(value, key, _SCHEMES)
    if key == "function":
        return _as_choice(value, key, IDENTITY_REGISTRY)
    if key == "omega" and value is None:
        return None
    if key in ("n_iter", "n_quad"):
        return as_int(value, name)
    if key in ("lambda", "omega", "delta"):
        return as_real(value, name)
    # the rest are vectors; initial states live in R^dim
    vec = _as_vector(value, name, dim if key in ("eta", "gamma") else None)
    if key == "t_grid" and any(t < 0 for t in vec):
        raise ValidationError("params.t_grid values must be nonnegative")
    return vec


def load_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    _require_keys(raw, "config", ("problem", "grid", "monte_carlo", "experiment"),
                  ("params",))

    grid = raw["grid"]
    _require_keys(grid, "grid", ("horizon", "n_steps"))
    horizon = as_real(grid["horizon"], "grid.horizon")
    n_steps = as_int(grid["n_steps"], "grid.n_steps", 1)

    prob = raw["problem"]
    _require_keys(prob, "problem",
                  ("alpha", "beta", "a_mat", "b_mat", "drift", "diffusion",
                   "lip_b", "lip_sigma", "dim"))
    dim = as_int(prob["dim"], "problem.dim", 1)
    drift_name = _as_choice(prob["drift"], "drift", DRIFT_REGISTRY)
    diffusion_name = _as_choice(prob["diffusion"], "diffusion", DIFFUSION_REGISTRY)
    problem = ProblemSpec(
        alpha=as_real(prob["alpha"], "problem.alpha"),
        beta=as_real(prob["beta"], "problem.beta"),
        a_mat=np.asarray(_as_square(prob["a_mat"], "problem.a_mat", dim)),
        b_mat=np.asarray(_as_square(prob["b_mat"], "problem.b_mat", dim)),
        drift=DRIFT_REGISTRY[drift_name],
        diffusion=DIFFUSION_REGISTRY[diffusion_name],
        lip_b=as_real(prob["lip_b"], "problem.lip_b"),
        lip_sigma=as_real(prob["lip_sigma"], "problem.lip_sigma"),
        horizon=horizon,
        dim=dim,
    )

    mc = raw["monte_carlo"]
    _require_keys(mc, "monte_carlo", ("n_paths", "seed"))
    n_paths = as_int(mc["n_paths"], "monte_carlo.n_paths", 1)
    seed = as_int(mc["seed"], "monte_carlo.seed", 0)

    experiment = _as_choice(raw["experiment"], "experiment", _EXPERIMENTS)
    params = raw.get("params", {})
    _, required, optional = _EXPERIMENTS[experiment]
    _require_keys(params, "params", required, optional)
    params = {key: _as_param(key, value, dim) for key, value in params.items()}

    return RunConfig(problem=problem, n_steps=n_steps, n_paths=n_paths,
                     seed=seed, experiment=experiment, params=params, echo=raw)


# ---------------------------------------------------------------------------
# experiments: runners return ((time, quantity, value, std_error) rows,
# report overrides, meta counters)

def _ensemble_inputs(cfg: RunConfig):
    """Driver, initial state and scheme of an ensemble experiment."""
    return (BrownianDriver(cfg.seed, cfg.n_steps),
            InitialState(cfg.params["eta"]),
            cfg.params.get("scheme", "em"))


def _path_counters(cfg: RunConfig, dropped: int) -> dict:
    return {"n_paths": cfg.n_paths, "dropped_paths": dropped}


def _run_simulate(cfg: RunConfig, threads: int):
    drv, eta, scheme = _ensemble_inputs(cfg)
    grid, est, se, dropped = simulate_ms_norm(cfg.problem, eta, drv, cfg.n_paths,
                                              scheme=scheme, threads=threads)
    rows = [(t, "ms_norm", m, e) for t, m, e in zip(grid, est, se)]
    return rows, {}, _path_counters(cfg, dropped)


def _run_picard(cfg: RunConfig, threads: int):
    drv, eta, _ = _ensemble_inputs(cfg)
    report = contraction_report(cfg.problem, eta, drv,
                                cfg.params.get("n_iter", 4), cfg.n_paths,
                                omega=cfg.params.get("omega"), threads=threads)
    rows = [(k, "log_weighted_diff_sq", diff, None)
            for k, diff in enumerate(report.log_weighted_diffs, start=1)]
    rows += [(k, "weighted_ratio", ratio, None)
             for k, ratio in enumerate(report.iterate_ratios, start=2)]
    rows.append((0, "immediate_convergence", report.immediate_convergence, None))
    overrides = {"m_sup": report.m_sup, "omega": report.omega_used,
                 "zeta": report.zeta, "c_const": report.c_const}
    return rows, overrides, _path_counters(cfg, report.n_dropped)


def _run_separation(cfg: RunConfig, threads: int):
    drv, eta, scheme = _ensemble_inputs(cfg)
    gamma = InitialState(cfg.params["gamma"])
    report = separation_experiment(cfg.problem, eta, gamma, drv,
                                   cfg.params["lambda"], cfg.n_paths,
                                   scheme=scheme, threads=threads)
    rows = []
    for t, d2, se, sc in zip(report.times, report.ms_distance,
                             report.std_errors, report.scaled):
        rows.append((t, "ms_distance", d2, se))
        rows.append((t, "scaled_distance", sc, None))
    t_end = report.times[-1]
    rows.append((t_end, "lambda_gt_alpha", report.lambda_gt_alpha, None))
    rows.append((t_end, "lambda_gt_alpha_over_1_minus_alpha",
                 report.lambda_gt_alpha_over_1_minus_alpha, None))
    rows.append((t_end, "exponent_consistent",
                 report.consistent_with_lower_bound, None))
    overrides = {"fitted_exponent": report.fitted_exponent,
                 "fitted_ci_low": report.fitted_ci[0],
                 "fitted_ci_high": report.fitted_ci[1],
                 "kappa_hat": report.kappa_hat}
    return rows, overrides, _path_counters(cfg, report.n_dropped)


def _run_continuity(cfg: RunConfig, threads: int):
    drv, eta, scheme = _ensemble_inputs(cfg)
    points = continuity_experiment(cfg.problem, eta, cfg.params["offsets"], drv,
                                   cfg.n_paths, scheme=scheme, threads=threads)
    rows = []
    for pt in points:
        rows.append((pt.offset, "sup_ms_distance", pt.sup_ms_distance, None))
        rows.append((pt.offset, "distance_ratio", pt.ratio, None))
    return rows, {}, _path_counters(cfg, max(pt.n_dropped for pt in points))


def _run_ml_eval(cfg: RunConfig, threads: int):
    prob = cfg.problem
    delta = cfg.params.get("delta", prob.alpha)
    params = MLParams(rho=prob.alpha - prob.beta, sigma_exp=prob.alpha, delta=delta)
    rows = []
    for t in cfg.params["t_grid"]:
        try:
            value, info = ml_nonperm_info(prob.q_table, params, t)
        except (NonConvergenceError, TruncationBoundError):
            rows.append((t, "converged", False, None))
            continue
        rows.append((t, "converged", True, None))
        rows += [(t, f"nonperm_{i}{j}", value[i, j], None)
                 for i, j in np.ndindex(value.shape)]
        rows.append((t, "truncation_order", info.diagonals_used, None))
        rows.append((t, "tail_estimate", info.tail_estimate, None))
        with contextlib.suppress(DomainError):  # A and B do not commute
            pvalue = ml_perm(prob.a_mat, prob.b_mat, params, t)
            rows += [(t, f"perm_{i}{j}", pvalue[i, j], None)
                     for i, j in np.ndindex(pvalue.shape)]
    return rows, {}, {}


def _run_check_lemma(cfg: RunConfig, threads: int):
    params = cfg.params
    rows = []
    for omega in params["omegas"]:
        for alpha in params["alphas"]:
            for t in params["times"]:
                check = convolution_bound_check(alpha, omega, t, params["n_quad"])
                tag = f"(omega={omega:g},alpha={alpha:g})"
                rows.append((t, f"lhs{tag}", check.lhs, None))
                rows.append((t, f"rhs{tag}", check.rhs, None))
                rows.append((t, f"holds{tag}", check.holds, None))
    return rows, {}, {}


def _run_check_identity(cfg: RunConfig, threads: int):
    prob = cfg.problem
    grid = prob.grid(cfg.n_steps)
    # a sample that overflows is rejected by SampledFunction below
    with np.errstate(over="ignore"):
        f_vals, df_vals = IDENTITY_REGISTRY[cfg.params["function"]](prob.alpha, grid)
    f = SampledFunction(grid, f_vals)
    df = SampledFunction(grid, df_vals)
    residual = caputo_identity_residual(prob.alpha, f, df)
    return [(prob.horizon, "residual", residual, None)], {}, {}


# experiment name -> (runner, required params, optional params)
_EXPERIMENTS = {
    "simulate": (_run_simulate, ("eta",), ("scheme",)),
    "picard": (_run_picard, ("eta",), ("n_iter", "omega")),
    "separation": (_run_separation, ("eta", "gamma", "lambda"), ("scheme",)),
    "continuity": (_run_continuity, ("eta", "offsets"), ("scheme",)),
    "ml-eval": (_run_ml_eval, ("t_grid",), ("delta",)),
    "check-lemma": (_run_check_lemma, ("omegas", "alphas", "times", "n_quad"), ()),
    "check-identity": (_run_check_identity, ("function",), ()),
}


# ---------------------------------------------------------------------------
# output files

def _write_results(path: str, experiment: str, rows) -> None:
    # numbers, booleans and ints are all written as repr(float(v))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "time", "quantity", "value", "std_error"])
        for t, quantity, value, se in rows:
            writer.writerow([experiment, repr(float(t)), quantity,
                             repr(float(value)),
                             "" if se is None else repr(float(se))])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _remove(paths) -> None:
    """Remove the files that exist of ``paths``, as far as the system lets us."""
    for path in paths:
        with contextlib.suppress(OSError):
            os.remove(path)


@contextlib.contextmanager
def _single_thread_blas():
    """Pin numpy's bundled OpenBLAS pool to one thread for the block.

    A multithreaded BLAS may split a matrix product differently by pool size,
    which moves the last bits of the paths; with one thread the bytes do not
    depend on the BLAS environment. Yields the record written to meta.json.
    The old pool size is restored on exit. A numpy build without the bundled
    library runs unpinned, and the record says so.
    """
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
            setter = lib.scipy_openblas_set_num_threads64_
            getter = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        previous = getter()
        setter(1)
        try:
            yield {"threads_pinned": True, "threads": 1,
                   "previous_threads": previous,
                   "library": os.path.basename(path)}
        finally:
            setter(previous)
        return
    yield {"threads_pinned": False,
           "reason": "scipy_openblas_set_num_threads64_ not found"}


def run(config_path: str, out_dir: str, threads: int = 1,
        seed: int | None = None) -> int:
    """Execute one experiment config; returns the process exit status."""
    if os.path.lexists(out_dir) and not os.path.isdir(out_dir):
        print(f"validation failed: output path '{out_dir}' is not a directory",
              file=sys.stderr)
        return 2
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"parse failed: line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2

    if seed is not None and isinstance(raw, dict) and \
            isinstance(raw.get("monte_carlo"), dict):
        raw["monte_carlo"]["seed"] = seed
    try:
        as_int(threads, "threads", 1)
        cfg = load_config(raw)
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 2

    outputs = [os.path.join(out_dir, name)
               for name in ("results.csv", "report.json", "meta.json")]
    try:
        with _single_thread_blas() as blas:
            rows, overrides, counters = _EXPERIMENTS[cfg.experiment][0](cfg, threads)
    except (ValidationError, DomainError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 2
    except SmtdeError as exc:
        _remove(outputs)
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    report = {**dict.fromkeys(REPORT_KEYS), **overrides}
    meta = {
        "config": cfg.echo,
        "seed": cfg.seed,
        "versions": {
            "smtde": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "blas": blas,
        "counters": counters,
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_results(outputs[0], cfg.experiment, rows)
        _write_json(outputs[1], report)
        _write_json(outputs[2], meta)
    except OSError as exc:
        _remove(outputs)
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="smtde",
        description="Simulation harness for Caputo stochastic multi-term systems")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute an experiment config")
    run_parser.add_argument("--config", required=True, help="path to JSON config")
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--threads", type=int, default=1,
                            help="worker threads for path simulation")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the config seed")
    args = parser.parse_args(argv)
    if args.command == "run":
        sys.exit(run(args.config, args.out, threads=args.threads, seed=args.seed))


if __name__ == "__main__":
    main()
