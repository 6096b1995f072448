"""One rule for every public scalar argument (``errors.as_int``,
``errors.as_real``) and for array arguments (``errors.as_real_array``): a
bool, a float where an integer is due, a numeric string, NaN, +-inf and an
out-of-range value each raise the entry point's package error, naming the
argument; numpy integers and floats are accepted."""

import functools
import math

import numpy as np
import pytest

from smtde import cli
from smtde.analysis import (WeightedNormParams, contraction_report,
                            continuity_experiment, convolution_bound_check,
                            ms_norm, omega_threshold, separation_experiment,
                            zeta_const)
from smtde.errors import (DomainError, ValidationError, as_int, as_real,
                          as_real_array)
from smtde.linalg import as_matrix, commutator, mat_norm
from smtde.mlmatrix import MLParams
from smtde.solvers import BrownianDriver, InitialState, simulate
from smtde.specfun import (SampledFunction, caputo_identity_residual, gamma_fn,
                           ml_scalar_log, rl_integral, rl_integral_all)

from conftest import make_problem

ETA = InitialState([3.0, 5.0])
GAMMA = InitialState([3.5, 5.5])
GRID = np.linspace(0.0, 1.0, 5)
SAMPLED = SampledFunction(GRID, GRID ** 2)


@functools.cache
def _ensemble():
    return simulate(make_problem(), ETA, BrownianDriver(3, 4), 4)


def _config(section, key, value, experiment="simulate", params=None):
    raw = {
        "problem": {"alpha": 0.75, "beta": 0.25, "dim": 2, "lip_b": 1.0,
                    "lip_sigma": 1.0, "drift": "sec6_drift",
                    "diffusion": "sec6_diffusion",
                    "a_mat": [[0.1, 0.2], [0.3, 0.4]],
                    "b_mat": [[0.4, 0.1], [0.2, 0.3]]},
        "grid": {"horizon": 1.0, "n_steps": 10},
        "monte_carlo": {"n_paths": 4, "seed": 7},
        "experiment": experiment,
        "params": params or {"eta": [3.0, 5.0]},
    }
    raw[section][key] = value
    return cli.load_config(raw)


def _picard(key):
    return lambda v: _config("params", key, v, "picard",
                             {"eta": [3.0, 5.0], key: v})


# (entry point, argument name in the message, error, "int" or "real", call
# with the value, a good value, an out-of-range value or None)
CASES = [
    ("ProblemSpec", "alpha", ValidationError, "real",
     lambda v: make_problem(alpha=v), 0.75, 1.0),
    ("ProblemSpec", "beta", ValidationError, "real",
     lambda v: make_problem(beta=v), 0.25, 0.0),
    ("ProblemSpec", "lip_b", ValidationError, "real",
     lambda v: make_problem(lip_b=v), 1.0, -1.0),
    ("ProblemSpec", "lip_sigma", ValidationError, "real",
     lambda v: make_problem(lip_sigma=v), 1.0, -1.0),
    ("ProblemSpec", "horizon", ValidationError, "real",
     lambda v: make_problem(horizon=v), 1.0, 0.0),
    ("ProblemSpec", "dim", ValidationError, "int",
     lambda v: make_problem(dim=v), 2, 0),
    ("BrownianDriver", "seed", ValidationError, "int",
     lambda v: BrownianDriver(v, 4), 3, -1),
    ("BrownianDriver", "n_steps", ValidationError, "int",
     lambda v: BrownianDriver(3, v), 4, 0),
    ("simulate", "n_paths", ValidationError, "int",
     lambda v: simulate(make_problem(), ETA, BrownianDriver(3, 4), v), 2, 0),
    ("simulate", "threads", ValidationError, "int",
     lambda v: simulate(make_problem(), ETA, BrownianDriver(3, 4), 2, threads=v),
     2, 0),
    ("WeightedNormParams", "omega", DomainError, "real",
     lambda v: WeightedNormParams(omega=v, alpha=0.75), 2.0, 0.0),
    ("WeightedNormParams", "alpha", DomainError, "real",
     lambda v: WeightedNormParams(omega=2.0, alpha=v), 0.75, 0.5),
    ("omega_threshold", "m_sup", DomainError, "real",
     lambda v: omega_threshold(make_problem(), v), 1.0, -1.0),
    ("zeta_const", "m_sup", DomainError, "real",
     lambda v: zeta_const(make_problem(), v, 5.0), 1.0, -1.0),
    ("zeta_const", "omega", DomainError, "real",
     lambda v: zeta_const(make_problem(), 1.0, v), 5.0, 0.0),
    ("convolution_bound_check", "alpha", DomainError, "real",
     lambda v: convolution_bound_check(v, 1.0, 1.0, 10), 0.75, 1.0),
    ("convolution_bound_check", "omega", DomainError, "real",
     lambda v: convolution_bound_check(0.75, v, 1.0, 10), 1.0, 0.0),
    ("convolution_bound_check", "t", DomainError, "real",
     lambda v: convolution_bound_check(0.75, 1.0, v, 10), 1.0, 0.0),
    ("convolution_bound_check", "n_quad", ValidationError, "int",
     lambda v: convolution_bound_check(0.75, 1.0, 1.0, v), 10, 0),
    ("ms_norm", "t_index", ValidationError, "int",
     lambda v: ms_norm(_ensemble(), v), 2, 5),
    ("contraction_report", "n_iter", ValidationError, "int",
     lambda v: contraction_report(make_problem(), ETA, BrownianDriver(3, 4), v, 2),
     3, 2),
    ("contraction_report", "n_paths", ValidationError, "int",
     lambda v: contraction_report(make_problem(), ETA, BrownianDriver(3, 4), 3, v),
     2, 0),
    ("contraction_report", "omega", DomainError, "real",
     lambda v: contraction_report(make_problem(), ETA, BrownianDriver(3, 4), 3, 2,
                                  omega=v), 5.0, 0.0),
    ("separation_experiment", "scaling_exponent", ValidationError, "real",
     lambda v: separation_experiment(make_problem(horizon=4.0), ETA, GAMMA,
                                     BrownianDriver(3, 8), v, 2), 0.75, 0.0),
    # an infinite offset is named by the check of its square
    ("continuity_experiment", "offset", ValidationError, "real",
     lambda v: continuity_experiment(make_problem(), ETA, [v], BrownianDriver(3, 4),
                                     2), 0.5, -0.1),
    ("gamma_fn", "x", DomainError, "real", gamma_fn, 2.5, 0.0),
    ("ml_scalar_log", "alpha", DomainError, "real",
     lambda v: ml_scalar_log(v, 1.0), 0.5, 0.0),
    ("rl_integral", "alpha", DomainError, "real",
     lambda v: rl_integral(v, SAMPLED, 2), 0.5, 0.0),
    ("rl_integral", "t_index", ValidationError, "int",
     lambda v: rl_integral(0.5, SAMPLED, v), 2, 5),
    ("rl_integral_all", "alpha", DomainError, "real",
     lambda v: rl_integral_all(v, SAMPLED), 0.5, 0.0),
    ("caputo_identity_residual", "alpha", DomainError, "real",
     lambda v: caputo_identity_residual(v, SAMPLED, SAMPLED), 0.5, 1.0),
    ("MLParams", "rho", DomainError, "real",
     lambda v: MLParams(v, 0.75, 0.75), 0.5, 0.0),
    ("MLParams", "sigma_exp", DomainError, "real",
     lambda v: MLParams(0.5, v, 0.75), 0.75, 0.0),
    ("MLParams", "delta", DomainError, "real",
     lambda v: MLParams(0.5, 0.75, v), 0.75, None),
    ("load_config", "grid.horizon", ValidationError, "real",
     lambda v: _config("grid", "horizon", v), 1.0, None),
    ("load_config", "grid.n_steps", ValidationError, "int",
     lambda v: _config("grid", "n_steps", v), 10, 0),
    ("load_config", "problem.alpha", ValidationError, "real",
     lambda v: _config("problem", "alpha", v), 0.75, None),
    ("load_config", "problem.beta", ValidationError, "real",
     lambda v: _config("problem", "beta", v), 0.25, None),
    ("load_config", "problem.lip_b", ValidationError, "real",
     lambda v: _config("problem", "lip_b", v), 1.0, None),
    ("load_config", "problem.lip_sigma", ValidationError, "real",
     lambda v: _config("problem", "lip_sigma", v), 1.0, None),
    ("load_config", "problem.dim", ValidationError, "int",
     lambda v: _config("problem", "dim", v), 2, 0),
    ("load_config", "monte_carlo.n_paths", ValidationError, "int",
     lambda v: _config("monte_carlo", "n_paths", v), 4, 0),
    ("load_config", "monte_carlo.seed", ValidationError, "int",
     lambda v: _config("monte_carlo", "seed", v), 7, -1),
    ("load_config", "params.n_iter", ValidationError, "int", _picard("n_iter"),
     3, None),
    ("load_config", "params.omega", ValidationError, "real", _picard("omega"),
     5.0, None),
    ("load_config", "params.n_quad", ValidationError, "int",
     lambda v: _config("params", "n_quad", v, "check-lemma",
                       {"omegas": [1.0], "alphas": [0.75], "times": [1.0],
                        "n_quad": v}), 10, None),
    ("load_config", "params.lambda", ValidationError, "real",
     lambda v: _config("params", "lambda", v, "separation",
                       {"eta": [3.0, 5.0], "gamma": [3.5, 5.5], "lambda": v}),
     0.75, None),
    ("load_config", "params.delta", ValidationError, "real",
     lambda v: _config("params", "delta", v, "ml-eval",
                       {"t_grid": [0.5], "delta": v}), 0.75, None),
]

BAD = {"int": [True, 2.0, 2.5, "3", math.nan, math.inf, -math.inf],
       "real": [True, "0.5", math.nan, math.inf, -math.inf]}


def _rows():
    for entry, name, error, kind, call, _, out_of_range in CASES:
        values = BAD[kind] + ([] if out_of_range is None else [out_of_range])
        for value in values:
            yield pytest.param(name, error, call, value,
                               id=f"{entry}-{name}-{value!r}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, error, call, value", _rows())
def test_bad_scalar_rejected_by_name(name, error, call, value):
    with pytest.raises(error) as info:
        call(value)
    # the entry point's own type, not a sibling package error
    assert type(info.value) is error
    assert name in str(info.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, kind, good", [
    pytest.param(call, kind, good, id=f"{entry}-{name}")
    for entry, name, _, kind, call, good, _ in CASES])
def test_numpy_scalars_accepted(call, kind, good):
    call(np.int64(good) if kind == "int" else np.float32(good))


def test_checked_values_are_python_numbers():
    assert type(as_int(np.int32(3), "n")) is int
    assert as_real(np.float32(0.5), "x") == 0.5 and type(as_real(3, "x")) is float


@pytest.mark.parametrize("call, name", [
    (lambda v: InitialState(v), "eta"),
    (lambda v: as_matrix([v, [0.0, 1.0]], "a_mat"), "a_mat"),
    (lambda v: SampledFunction(GRID[:2], v), "sampled values"),
    (lambda v: SampledFunction(v, [0.0, 1.0]), "grid"),
])
@pytest.mark.parametrize("value", [["3", "5"], [True, 2.0], [0.0, math.nan],
                                   [0.0, math.inf], [0.0, None], [0.0, 1j]])
def test_bad_array_rejected_by_name(call, name, value):
    # numpy read the strings and bools as numbers: [3, 5] and [1, 2]
    with pytest.raises(ValidationError, match=f"^{name}( entry)? must be "):
        call(value)


def test_arrays_of_numpy_and_python_reals_accepted():
    assert InitialState([np.float32(3.0), 5]).eta.tolist() == [3.0, 5.0]
    assert InitialState(np.array([3, 5], dtype=np.int32)).eta.dtype == float
    values = np.arange(3.0)
    assert as_real_array(values, "values") is values


def test_bad_matrix_is_a_package_error():
    # a NaN coefficient failed as a bare ValueError; callers that catch
    # ValueError still catch the ValidationError
    with pytest.raises(ValidationError, match="^a_mat entry must be finite, got nan"):
        make_problem(a_mat=[[math.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="^m must be a square matrix"):
        mat_norm(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^b entry must be a real number"):
        commutator(np.eye(2), [["1", "0"], ["0", "1"]])
