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

Exit codes: 0 success, 2 config parse/validation error (also for values only
an experiment checks, e.g. ``n_iter < 3``, and for ``--threads`` below 1),
3 runtime/numerical error (outputs of an earlier run are removed); ``--out``
is created only after a success.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import json
import math
import os
import platform
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (contraction_report, continuity_experiment,
                       convolution_bound_check, ms_norm, separation_experiment)
from .errors import (DomainError, NonConvergenceError, SmtdeError,
                     TruncationBoundError, ValidationError)
from .linalg import commutator, mat_norm
from .mlmatrix import MLParams, QTable, ml_nonperm_info, ml_perm
from .solvers import (_SCHEMES, BrownianDriver, InitialState, ProblemSpec,
                      simulate)
from .specfun import SampledFunction, caputo_identity_residual, gamma_fn

EXPERIMENTS = ("ml-eval", "simulate", "picard", "separation", "continuity",
               "check-lemma", "check-identity")

REPORT_KEYS = ("m_sup", "omega", "zeta", "c_const", "fitted_exponent",
               "fitted_ci_low", "fitted_ci_high", "kappa_hat")


# ---------------------------------------------------------------------------
# built-in drift / diffusion / identity-check registries

def _sec6_drift(t, x):
    return np.stack([np.sin(x[0]), x[1] + 5.0])


def _sec6_diffusion(t, x):
    return np.stack([x[0] + 5.0, np.cos(x[1])])


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


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite")
    return value


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer")
    return value


def _as_vector(value, name: str, dim: int | None = None) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{name} must be a non-empty list of numbers")
    vec = [_as_number(v, f"{name} entry") for v in value]
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
    if key in ("omega", "direction") and value is None:
        return None
    if key in ("n_iter", "n_quad"):
        return _as_int(value, name)
    if key in ("lambda", "omega", "delta"):
        return _as_number(value, name)
    # the rest are vectors; initial states and directions live in R^dim
    vec = _as_vector(value, name, dim if key in ("eta", "gamma", "direction") else None)
    if key == "t_grid" and any(t < 0 for t in vec):
        raise ValidationError("params.t_grid values must be nonnegative")
    return vec


_PARAM_FIELDS = {
    "simulate": ({"eta"}, {"scheme"}),
    "picard": ({"eta"}, {"n_iter", "omega"}),
    "separation": ({"eta", "gamma", "lambda"}, {"scheme"}),
    "continuity": ({"eta", "offsets"}, {"direction", "scheme"}),
    "ml-eval": ({"t_grid"}, {"delta"}),
    "check-lemma": ({"omegas", "alphas", "times", "n_quad"}, set()),
    "check-identity": ({"function"}, set()),
}


def load_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    _require_keys(raw, "config", ("problem", "grid", "monte_carlo", "experiment"),
                  ("params",))

    grid = raw["grid"]
    _require_keys(grid, "grid", ("horizon", "n_steps"))
    horizon = _as_number(grid["horizon"], "grid.horizon")
    n_steps = _as_int(grid["n_steps"], "grid.n_steps")
    if n_steps < 1:
        raise ValidationError("grid.n_steps must be >= 1")

    prob = raw["problem"]
    _require_keys(prob, "problem",
                  ("alpha", "beta", "a_mat", "b_mat", "drift", "diffusion",
                   "lip_b", "lip_sigma", "dim"))
    dim = _as_int(prob["dim"], "problem.dim")
    if dim < 1:
        raise ValidationError("problem.dim must be >= 1")
    drift_name = _as_choice(prob["drift"], "drift", DRIFT_REGISTRY)
    diffusion_name = _as_choice(prob["diffusion"], "diffusion", DIFFUSION_REGISTRY)
    problem = ProblemSpec(
        alpha=_as_number(prob["alpha"], "problem.alpha"),
        beta=_as_number(prob["beta"], "problem.beta"),
        a_mat=np.asarray(_as_square(prob["a_mat"], "problem.a_mat", dim)),
        b_mat=np.asarray(_as_square(prob["b_mat"], "problem.b_mat", dim)),
        drift=DRIFT_REGISTRY[drift_name],
        diffusion=DIFFUSION_REGISTRY[diffusion_name],
        lip_b=_as_number(prob["lip_b"], "problem.lip_b"),
        lip_sigma=_as_number(prob["lip_sigma"], "problem.lip_sigma"),
        horizon=horizon,
        dim=dim,
    )

    mc = raw["monte_carlo"]
    _require_keys(mc, "monte_carlo", ("n_paths", "seed"))
    n_paths = _as_int(mc["n_paths"], "monte_carlo.n_paths")
    if n_paths < 1:
        raise ValidationError("monte_carlo.n_paths must be >= 1")
    seed = _as_int(mc["seed"], "monte_carlo.seed")
    if seed < 0:
        raise ValidationError("monte_carlo.seed must be nonnegative")

    experiment = _as_choice(raw["experiment"], "experiment", EXPERIMENTS)
    params = raw.get("params", {})
    required, optional = _PARAM_FIELDS[experiment]
    _require_keys(params, "params", tuple(required), tuple(optional))
    params = {key: _as_param(key, value, dim) for key, value in params.items()}

    return RunConfig(problem=problem, n_steps=n_steps, n_paths=n_paths,
                     seed=seed, experiment=experiment, params=params, echo=raw)


# ---------------------------------------------------------------------------
# experiment dispatch: each returns (rows, report overrides, meta counters)

def _eta_state(cfg: RunConfig) -> InitialState:
    return InitialState.deterministic(cfg.params["eta"])


def _run_simulate(cfg: RunConfig, threads: int):
    drv = BrownianDriver(cfg.seed, cfg.n_steps)
    ens = simulate(cfg.problem, _eta_state(cfg), drv, cfg.n_paths,
                   scheme=cfg.params.get("scheme", "em"), threads=threads)
    rows = []
    for i, t in enumerate(ens.grid):
        est, se = ms_norm(ens, i)
        rows.append(("simulate", t, "ms_norm", est, se))
    return rows, {}, {"n_paths": ens.n_paths, "dropped_paths": int(ens.flags.sum())}


def _run_picard(cfg: RunConfig, threads: int):
    drv = BrownianDriver(cfg.seed, cfg.n_steps)
    report = contraction_report(cfg.problem, _eta_state(cfg), drv,
                                cfg.params.get("n_iter", 4), cfg.n_paths,
                                omega=cfg.params.get("omega"), threads=threads)
    rows = []
    for k, diff in enumerate(report.log_weighted_diffs, start=1):
        rows.append(("picard", float(k), "log_weighted_diff_sq", diff, None))
    for k, ratio in enumerate(report.iterate_ratios, start=2):
        rows.append(("picard", float(k), "weighted_ratio", ratio, None))
    rows.append(("picard", 0.0, "immediate_convergence",
                 1.0 if report.immediate_convergence else 0.0, None))
    counters = {"n_paths": cfg.n_paths, "dropped_paths": report.n_dropped}
    return rows, {"m_sup": report.m_sup, "omega": report.omega_used,
                  "zeta": report.zeta, "c_const": report.c_const}, counters


def _run_separation(cfg: RunConfig, threads: int):
    drv = BrownianDriver(cfg.seed, cfg.n_steps)
    gamma = InitialState.deterministic(cfg.params["gamma"])
    report = separation_experiment(cfg.problem, _eta_state(cfg), gamma, drv,
                                   cfg.params["lambda"], cfg.n_paths,
                                   scheme=cfg.params.get("scheme", "em"),
                                   threads=threads)
    rows = []
    for t, d2, se, sc in zip(report.times, report.ms_distance,
                             report.std_errors, report.scaled):
        rows.append(("separation", t, "ms_distance", d2, se))
        rows.append(("separation", t, "scaled_distance", sc, None))
    t_end = report.times[-1]
    rows.append(("separation", t_end, "lambda_gt_alpha",
                 1.0 if report.lambda_gt_alpha else 0.0, None))
    rows.append(("separation", t_end, "lambda_gt_alpha_over_1_minus_alpha",
                 1.0 if report.lambda_gt_alpha_over_1_minus_alpha else 0.0, None))
    rows.append(("separation", t_end, "exponent_consistent",
                 1.0 if report.consistent_with_lower_bound else 0.0, None))
    counters = {"n_paths": report.n_paths, "dropped_paths": report.n_dropped}
    return rows, {"fitted_exponent": report.fitted_exponent,
                  "fitted_ci_low": report.fitted_ci[0],
                  "fitted_ci_high": report.fitted_ci[1],
                  "kappa_hat": report.kappa_hat}, counters


def _run_continuity(cfg: RunConfig, threads: int):
    drv = BrownianDriver(cfg.seed, cfg.n_steps)
    points = continuity_experiment(cfg.problem, _eta_state(cfg),
                                   cfg.params["offsets"], drv, cfg.n_paths,
                                   direction=cfg.params.get("direction"),
                                   scheme=cfg.params.get("scheme", "em"),
                                   threads=threads)
    rows = []
    for pt in points:
        rows.append(("continuity", pt.offset, "sup_ms_distance",
                     pt.sup_ms_distance, None))
        rows.append(("continuity", pt.offset, "distance_ratio", pt.ratio, None))
    dropped = max(pt.n_dropped for pt in points)
    return rows, {}, {"n_paths": cfg.n_paths, "dropped_paths": dropped}


def _run_ml_eval(cfg: RunConfig, threads: int):
    prob = cfg.problem
    delta = cfg.params.get("delta", prob.alpha)
    params = MLParams(rho=prob.alpha - prob.beta, sigma_exp=prob.alpha, delta=delta)
    q = QTable(prob.a_mat, prob.b_mat)
    commuting = mat_norm(commutator(prob.a_mat, prob.b_mat)) <= \
        1e-12 * mat_norm(prob.a_mat) * mat_norm(prob.b_mat)
    rows = []
    for t in cfg.params["t_grid"]:
        try:
            value, info = ml_nonperm_info(q, params, t)
        except (NonConvergenceError, TruncationBoundError):
            rows.append(("ml-eval", t, "converged", 0.0, None))
            continue
        rows.append(("ml-eval", t, "converged", 1.0, None))
        for i in range(prob.dim):
            for j in range(prob.dim):
                rows.append(("ml-eval", t, f"nonperm_{i}{j}", value[i, j], None))
        rows.append(("ml-eval", t, "truncation_order",
                     float(info.diagonals_used), None))
        rows.append(("ml-eval", t, "tail_estimate", info.tail_estimate, None))
        if commuting:
            pvalue = ml_perm(prob.a_mat, prob.b_mat, params, t)
            for i in range(prob.dim):
                for j in range(prob.dim):
                    rows.append(("ml-eval", t, f"perm_{i}{j}", pvalue[i, j], None))
    return rows, {}, {}


def _run_check_lemma(cfg: RunConfig, threads: int):
    params = cfg.params
    rows = []
    for omega in params["omegas"]:
        for alpha in params["alphas"]:
            for t in params["times"]:
                check = convolution_bound_check(alpha, omega, t, params["n_quad"])
                tag = f"(omega={omega:g},alpha={alpha:g})"
                rows.append(("check-lemma", t, f"lhs{tag}", check.lhs, None))
                rows.append(("check-lemma", t, f"rhs{tag}", check.rhs, None))
                rows.append(("check-lemma", t, f"holds{tag}",
                             1.0 if check.holds else 0.0, None))
    return rows, {}, {}


def _run_check_identity(cfg: RunConfig, threads: int):
    prob = cfg.problem
    grid = prob.horizon / cfg.n_steps * np.arange(cfg.n_steps + 1)
    f_vals, df_vals = IDENTITY_REGISTRY[cfg.params["function"]](prob.alpha, grid)
    f = SampledFunction(grid, f_vals)
    df = SampledFunction(grid, df_vals)
    residual = caputo_identity_residual(prob.alpha, f, df)
    rows = [("check-identity", prob.horizon, "residual", residual, None)]
    return rows, {}, {}


_DISPATCH = {
    "simulate": _run_simulate,
    "picard": _run_picard,
    "separation": _run_separation,
    "continuity": _run_continuity,
    "ml-eval": _run_ml_eval,
    "check-lemma": _run_check_lemma,
    "check-identity": _run_check_identity,
}


# ---------------------------------------------------------------------------
# output files

def _format_value(v) -> str:
    return repr(float(v))


def _write_results(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "time", "quantity", "value", "std_error"])
        for experiment, t, quantity, value, se in rows:
            writer.writerow([experiment, _format_value(t), quantity,
                             _format_value(value),
                             "" if se is None else _format_value(se)])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    if threads < 1:
        print(f"validation failed: threads must be >= 1, got {threads}", file=sys.stderr)
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

    if seed is not None:
        if isinstance(raw, dict) and isinstance(raw.get("monte_carlo"), dict):
            raw["monte_carlo"]["seed"] = int(seed)
    try:
        cfg = load_config(raw)
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 2

    outputs = [os.path.join(out_dir, name)
               for name in ("results.csv", "report.json", "meta.json")]
    try:
        with _single_thread_blas() as blas:
            rows, overrides, counters = _DISPATCH[cfg.experiment](cfg, threads)
    except (ValidationError, DomainError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 2
    except SmtdeError as exc:
        for path in filter(os.path.exists, outputs):
            os.remove(path)
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
    os.makedirs(out_dir, exist_ok=True)
    _write_results(outputs[0], rows)
    _write_json(outputs[1], report)
    _write_json(outputs[2], meta)
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
