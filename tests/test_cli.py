import ctypes
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import smtde
from smtde import cli
from smtde.cli import REPORT_KEYS, load_config, run
from smtde.errors import ValidationError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def base_config(**overrides):
    cfg = {
        "problem": {
            "alpha": 0.75,
            "beta": 0.25,
            "a_mat": [[0.1, 0.2], [0.3, 0.4]],
            "b_mat": [[0.4, 0.1], [0.2, 0.3]],
            "drift": "sec6_drift",
            "diffusion": "sec6_diffusion",
            "lip_b": 1.0,
            "lip_sigma": 1.0,
            "dim": 2,
        },
        "grid": {"horizon": 1.0, "n_steps": 50},
        "monte_carlo": {"n_paths": 200, "seed": 7},
        "experiment": "simulate",
        "params": {"eta": [3.0, 5.0]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def loaded_in_fresh_process(code, *modules):
    """Which of ``modules`` a fresh interpreter has loaded after ``code``,
    with this smtde first on its path."""
    package_root = str(Path(smtde.__file__).resolve().parent.parent)
    code += ("import json, sys\n"
             f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(
        None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def read_rows(out_dir):
    with open(Path(out_dir) / "results.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestValidation:
    def test_beta_not_below_alpha(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["beta"] = 0.9
        status = run(str(write_config(tmp_path, cfg)), str(tmp_path / "out"))
        assert status == 2
        assert "validation failed: beta must be < alpha" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["extra"] = 1
        status = run(str(write_config(tmp_path, cfg)), str(tmp_path / "out"))
        assert status == 2
        assert "unknown field 'extra'" in capsys.readouterr().err

    def test_unknown_drift(self, tmp_path, capsys):
        cfg = base_config()
        cfg["problem"]["drift"] = "mystery"
        status = run(str(write_config(tmp_path, cfg)), str(tmp_path / "out"))
        assert status == 2
        assert "unknown drift" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(str(path), str(tmp_path / "out")) == 2
        assert "parse failed: line 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run(str(tmp_path / "nope.json"), str(tmp_path / "out")) == 2

    @pytest.mark.parametrize("section, key, value, message", [
        (None, "grid", 5, "grid must be a JSON object"),
        (None, "monte_carlo", [200, 7], "monte_carlo must be a JSON object"),
        (None, "params", "eta", "params must be a JSON object"),
        (None, "experiment", ["simulate"], "unknown experiment"),
        ("problem", "drift", ["x"], "unknown drift"),
        ("problem", "diffusion", {"name": "one"}, "unknown diffusion"),
        ("problem", "lip_b", math.nan, "problem.lip_b must be finite"),
        ("grid", "horizon", math.inf, "grid.horizon must be finite"),
        ("problem", "a_mat", [[0.1, -math.inf], [0.3, 0.4]],
         "problem.a_mat row entry must be finite"),
        ("params", "scheme", "rk4", "unknown scheme 'rk4'"),
        ("params", "eta", [1.0], "params.eta must have 2 entries"),
    ])
    def test_malformed_values_rejected(self, tmp_path, capsys, section, key,
                                       value, message):
        cfg = base_config()
        (cfg if section is None else cfg[section])[key] = value
        status = run(str(write_config(tmp_path, cfg)), str(tmp_path / "out"))
        assert status == 2
        assert f"validation failed: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, params, message", [
        ("separation", {"eta": [3.0, 5.0], "gamma": [3.5], "lambda": 0.75},
         "params.gamma must have 2 entries"),
        ("separation", {"eta": [3.0, 5.0], "gamma": [3.5, 5.5], "lambda": 0.75,
                        "scheme": None}, "unknown scheme 'None'"),
        ("continuity", {"eta": [3.0, 5.0], "offsets": [0.1], "scheme": "rk4"},
         "unknown scheme 'rk4'"),
        ("check-identity", {"function": "cubic"}, "unknown function 'cubic'"),
        ("check-identity", {"function": ["t_squared"]}, "unknown function"),
        ("picard", {"eta": [3.0, 5.0], "n_iter": 3.5},
         "params.n_iter must be an integer"),
        ("ml-eval", {"t_grid": [0.5, -1.0]},
         "params.t_grid values must be nonnegative"),
    ])
    def test_malformed_params_rejected(self, tmp_path, capsys, experiment,
                                       params, message):
        # experiment parameters are checked with the config, before any run
        cfg = base_config(experiment=experiment, params=params)
        status = run(str(write_config(tmp_path, cfg)), str(tmp_path / "out"))
        assert status == 2
        assert f"validation failed: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, params, overrides, message", [
        ("picard", {"eta": [3.0, 5.0], "n_iter": 2}, {}, "n_iter must be >= 3"),
        ("continuity", {"eta": [3.0, 5.0], "offsets": [0.01, 0.1]}, {},
         "offsets must be strictly decreasing"),
        ("check-lemma", {"omegas": [1.0], "alphas": [0.4], "times": [1.0],
                         "n_quad": 10}, {}, "alpha must be in (0.5, 1)"),
        ("check-lemma", {"omegas": [1.0], "alphas": [0.75], "times": [1.0],
                         "n_quad": 0}, {}, "n_quad must be >= 1"),
        ("simulate", {"eta": [3.0, 5.0]},
         {"monte_carlo": {"n_paths": 1, "seed": 7}}, "at least 2 paths"),
        ("separation", {"eta": [3.0, 5.0], "gamma": [3.5, 5.5], "lambda": 1.0},
         {"grid": {"horizon": 1.0, "n_steps": 50}}, "horizon >= 4"),
        # the distance ratio divides by offset ** 2, which is 0.0 here ...
        ("continuity", {"eta": [3.0, 5.0], "offsets": [1e-170]}, {},
         "offset 1e-170: its square is not a finite normal float"),
        # ... and overflows here
        ("continuity", {"eta": [3.0, 5.0], "offsets": [1e300]}, {},
         "offset 1e+300: its square is not a finite normal float"),
        ("picard", {"eta": [3.0, 5.0], "n_iter": 3},
         {"problem": dict(base_config()["problem"], lip_b=1e160)},
         "the contraction threshold overflows: lip_b 1e+160"),
        # t^2 on a grid up to 1e300 is not finite
        ("check-identity", {"function": "t_squared"},
         {"grid": {"horizon": 1e300, "n_steps": 100}},
         "sampled values must be finite"),
        # a continuity offset whose square is finite, but 50 squared
        # distances near 1e308 overflow their mean
        ("continuity", {"eta": [3.0, 5.0], "offsets": [1e154]},
         {"grid": {"horizon": 1.0, "n_steps": 20},
          "monte_carlo": {"n_paths": 50, "seed": 7}},
         "offset 1e+154: the distance ratio overflows"),
        # the two-path rule: a mean over paths needs a standard error
        ("separation", {"eta": [3.0, 5.0], "gamma": [3.5, 5.5], "lambda": 0.75},
         {"grid": {"horizon": 10.0, "n_steps": 200},
          "monte_carlo": {"n_paths": 1, "seed": 7}}, "at least 2 paths"),
        ("continuity", {"eta": [3.0, 5.0], "offsets": [0.1]},
         {"monte_carlo": {"n_paths": 1, "seed": 7}}, "at least 2 paths"),
        ("picard", {"eta": [3.0, 5.0]},
         {"monte_carlo": {"n_paths": 1, "seed": 7}}, "at least 2 paths"),
    ])
    # an overflow is reported by the check, not by a numpy warning first
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_values_checked_by_experiment_rejected(self, tmp_path, capsys,
                                                   experiment, params,
                                                   overrides, message):
        # the experiment runs before the output directory is made
        cfg = base_config(experiment=experiment, params=params, **overrides)
        status = run(str(write_config(tmp_path, cfg)), str(tmp_path / "out"))
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("validation failed: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_mean_square_rejected(self, tmp_path, capsys):
        # explicit em is unstable on this decaying pair at h = 0.1: the paths
        # stay finite, but late in the run the spread of their squared
        # distances overflows, which must not pass as an inf standard error
        cfg = base_config(experiment="separation",
                          params={"eta": [3.0, 5.0], "gamma": [3.5, 5.5],
                                  "lambda": 0.75},
                          grid={"horizon": 100.0, "n_steps": 1000})
        cfg["problem"].update(a_mat=[[-3.0, -0.6], [0.0, -3.0]],
                              b_mat=[[-3.0, 0.0], [-0.9, -3.0]])
        cfg["monte_carlo"]["n_paths"] = 64
        status = run(str(write_config(tmp_path, cfg)), str(tmp_path / "out"))
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("validation failed: ")
        assert "standard error is not finite from t = " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        config = str(write_config(tmp_path, base_config()))
        out = str(tmp_path / "out")
        assert run(config, out, threads=threads) == 2
        assert "validation failed: threads must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--config", config, "--out", out,
                      "--threads", str(threads)])
        assert exit_info.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out_name, status, message", [
        ("taken", 2, "validation failed: "),
        ("taken/sub", 3, "output error: "),
        ("dangling", 2, "validation failed: "),
    ])
    def test_unusable_out_rejected(self, tmp_path, capsys, monkeypatch,
                                   out_name, status, message):
        # --out names a path below (or at) a regular file, or a symlink to
        # nowhere
        (tmp_path / "taken").write_text("keep", encoding="utf-8")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        calls = []
        monkeypatch.setitem(cli.DRIFT_REGISTRY, "counted",
                            lambda t, x: calls.append(t) or np.zeros_like(x))
        cfg = base_config()
        cfg["problem"]["drift"] = "counted"
        assert run(str(write_config(tmp_path, cfg)),
                   str(tmp_path / out_name)) == status
        assert capsys.readouterr().err.startswith(message)
        assert (tmp_path / "taken").read_text(encoding="utf-8") == "keep"
        assert not (tmp_path / "nowhere").exists()
        # an existing non-directory is refused before the experiment runs
        assert bool(calls) == (status == 3)

    def test_load_config_direct(self):
        cfg = load_config(base_config())
        assert cfg.problem.alpha == 0.75
        assert cfg.experiment == "simulate"
        with pytest.raises(ValidationError):
            load_config(base_config(experiment="mystery"))


@pytest.mark.parametrize("shape", [(2,), (2, 7)])
def test_sec6_callbacks_match_stacked_rows(shape):
    # the callbacks fill one array; the reference stacks the two rows
    x = np.random.default_rng(5).normal(size=shape)
    assert np.array_equal(cli._sec6_drift(0.0, x),
                          np.stack([np.sin(x[0]), x[1] + 5.0]))
    assert np.array_equal(cli._sec6_diffusion(0.0, x),
                          np.stack([x[0] + 5.0, np.cos(x[1])]))


# experiment -> (params, a statistic that must not read nan or +inf, dropped
# paths) on the flaky-drift problem of test_counts_dropped_paths;
# dropped_paths is the most paths that any one reported statistic left out
DROPPING_RUNS = {
    "simulate": ({"eta": [3.0, 5.0]}, "ms_norm", 2),
    "picard": ({"eta": [3.0, 5.0]}, "log_weighted_diff_sq", 2),
    "separation": ({"eta": [3.0, 5.0], "gamma": [-5.0, -3.0], "lambda": 1.0},
                   "ms_distance", 3),
    "continuity": ({"eta": [3.0, 5.0], "offsets": [2.0, 1.0]},
                   "sup_ms_distance", 15),
}


class TestRunOutputs:
    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "out"
        status = run(str(write_config(tmp_path, base_config())), str(out))
        assert status == 0
        rows = read_rows(out)
        assert {r["quantity"] for r in rows} == {"ms_norm"}
        assert len(rows) == 51
        assert float(rows[0]["value"]) == 34.0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == set(REPORT_KEYS)
        assert all(report[k] is None for k in REPORT_KEYS)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["config"]["experiment"] == "simulate"

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        run(str(cfg), str(tmp_path / "a"))
        run(str(cfg), str(tmp_path / "b"))
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    def test_meta_config_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        run(str(cfg), str(tmp_path / "a"))
        meta = json.loads((tmp_path / "a" / "meta.json").read_text())
        echo = write_config(tmp_path, meta["config"], name="echo.json")
        run(str(echo), str(tmp_path / "b"))
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
            (tmp_path / "b" / "results.csv").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        run(str(cfg), str(tmp_path / "a"))
        run(str(cfg), str(tmp_path / "b"), seed=99)
        assert (tmp_path / "a" / "results.csv").read_bytes() != \
            (tmp_path / "b" / "results.csv").read_bytes()
        meta = json.loads((tmp_path / "b" / "meta.json").read_text())
        assert meta["seed"] == 99
        assert meta["config"]["monte_carlo"]["seed"] == 99

    def test_meta_records_blas_pin(self, tmp_path):
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, base_config())), str(out)) == 0
        meta = json.loads((out / "meta.json").read_text())
        blas = meta["blas"]
        if blas["threads_pinned"]:
            assert blas["threads"] == 1
            assert blas["previous_threads"] >= 1
        else:
            assert "not found" in blas["reason"]
        assert meta["counters"] == {"n_paths": 200, "dropped_paths": 0}

    def test_blas_pin_restores_pool_size(self):
        with cli._single_thread_blas() as blas:
            if not blas["threads_pinned"]:
                pytest.skip("numpy build without a bundled OpenBLAS")
            lib = ctypes.CDLL(os.path.join(os.path.dirname(np.__file__),
                                           os.pardir, "numpy.libs",
                                           blas["library"]))
            get_threads = lib.scipy_openblas_get_num_threads64_
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            assert get_threads() == 1
        assert get_threads() == blas["previous_threads"]

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # a 2-thread OpenBLAS pool splits the stepping core's products
        # differently; the pin in run() keeps results.csv byte-identical
        cfg = json.loads((CONFIG_DIR / "separation_sec6.json").read_text())
        cfg["monte_carlo"]["n_paths"] = 64
        config = write_config(tmp_path, cfg)
        package_root = str(Path(smtde.__file__).resolve().parent.parent)

        def run_cli(blas_threads):
            out = tmp_path / f"blas{blas_threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
                       PYTHONPATH=os.pathsep.join(filter(
                           None, [package_root, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "smtde", "run", "--config", str(config),
                 "--out", str(out)], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            return (out / "results.csv").read_bytes()

        assert run_cli(1) == run_cli(2)

    def test_run_loads_no_numpy_submodule(self, tmp_path):
        # np.quantile (through np.unique) imports numpy.ma and leggauss
        # numpy.polynomial on their first call, inside a fresh process's
        # timed run
        cfg = base_config(experiment="separation",
                          params={"eta": [3.0, 5.0], "gamma": [3.5, 5.5],
                                  "lambda": 0.75})
        cfg["grid"] = {"horizon": 5.0, "n_steps": 40}
        cfg["monte_carlo"]["n_paths"] = 16
        config = write_config(tmp_path, cfg)
        code = ("from smtde import cli\n"
                f"assert cli.run({str(config)!r}, {str(tmp_path / 'out')!r}) == 0\n")
        assert loaded_in_fresh_process(code, "numpy.ma", "numpy.polynomial") == []

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures (and the logging it loads) is imported only
        # where a run starts a pool
        assert loaded_in_fresh_process("import smtde.cli\n", "concurrent.futures",
                                       "logging") == []

    @pytest.mark.parametrize("experiment", sorted(DROPPING_RUNS))
    def test_counts_dropped_paths(self, tmp_path, monkeypatch, experiment):
        # the drift is non-finite outside [-10, 10], so a few paths blow up
        monkeypatch.setitem(cli.DRIFT_REGISTRY, "flaky",
                            lambda t, x: np.where(np.abs(x) > 10.0, np.inf, 0.0))
        params, quantity, dropped = DROPPING_RUNS[experiment]
        cfg = base_config(experiment=experiment, params=params)
        cfg["problem"].update(a_mat=[[0.0, 0.0], [0.0, 0.0]],
                              b_mat=[[0.0, 0.0], [0.0, 0.0]],
                              drift="flaky", diffusion="one")
        cfg["grid"] = {"horizon": 5.0, "n_steps": 100}
        cfg["monte_carlo"] = {"n_paths": 200, "seed": 7}
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["counters"] == {"n_paths": 200, "dropped_paths": dropped}
        values = [float(r["value"]) for r in read_rows(out)
                  if r["quantity"] == quantity]
        # an exact fixed point logs -inf; a flagged path would give nan or inf
        assert values and all(v < math.inf for v in values)

    def test_runtime_error_removes_outputs(self, tmp_path, capsys):
        cfg = base_config(experiment="separation",
                          params={"eta": [3.0, 5.0], "gamma": [3.0, 5.0],
                                  "lambda": 1.0})
        cfg["grid"] = {"horizon": 5.0, "n_steps": 50}
        out = tmp_path / "out"
        status = run(str(write_config(tmp_path, cfg)), str(out))
        assert status == 3
        assert "runtime error" in capsys.readouterr().err
        assert not (out / "results.csv").exists()
        assert not (out / "report.json").exists()


class TestExperiments:
    def test_every_experiment_has_a_shipped_config(self):
        configs = sorted(CONFIG_DIR.glob("*.json"))
        experiments = {load_config(json.loads(path.read_text())).experiment
                       for path in configs}
        assert experiments == set(cli._EXPERIMENTS)

    @pytest.mark.parametrize("drift", ["sec6_drift", "flaky"])
    def test_simulate_rows_match_ms_norm(self, monkeypatch, drift):
        # the runner's one series reduction gives the per-time ms_norm bits
        monkeypatch.setitem(cli.DRIFT_REGISTRY, "flaky",
                            lambda t, x: np.where(np.abs(x) > 10.0, np.inf, 0.0))
        raw = base_config()
        if drift == "flaky":  # the problem of test_counts_dropped_paths
            raw["problem"].update(a_mat=[[0.0, 0.0], [0.0, 0.0]],
                                  b_mat=[[0.0, 0.0], [0.0, 0.0]],
                                  drift="flaky", diffusion="one")
        raw["grid"] = {"horizon": 5.0, "n_steps": 100}
        cfg = load_config(raw)
        rows, _, counters = cli._run_simulate(cfg, 1)
        drv, eta, scheme = cli._ensemble_inputs(cfg)
        ens = smtde.solvers.simulate(cfg.problem, eta, drv, cfg.n_paths,
                                     scheme=scheme)
        assert (counters["dropped_paths"] > 0) == (drift == "flaky")
        est, se = np.array([row[2:] for row in rows]).T
        per_time = np.array([smtde.ms_norm(ens, i) for i in range(len(rows))])
        series = smtde.ms_norm_series(ens)
        assert np.array_equal(est, per_time[:, 0])
        assert np.array_equal(se, per_time[:, 1])
        assert np.array_equal(est, series[0]) and np.array_equal(se, series[1])

    def test_shipped_example_config(self, tmp_path):
        out = tmp_path / "out"
        assert run(str(CONFIG_DIR / "example_sec6.json"), str(out)) == 0
        rows = read_rows(out)
        values = [float(r["value"]) for r in rows]
        assert all(np.isfinite(values))
        assert values[0] == 34.0

    def test_check_lemma_rows(self, tmp_path):
        cfg = base_config(experiment="check-lemma",
                          params={"omegas": [1.0], "alphas": [0.75],
                                  "times": [0.5, 1.0], "n_quad": 500})
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        rows = read_rows(out)
        holds = [r for r in rows if r["quantity"].startswith("holds")]
        assert len(holds) == 2
        assert all(float(r["value"]) == 1.0 for r in holds)

    def test_check_identity_row(self, tmp_path):
        cfg = base_config(experiment="check-identity",
                          params={"function": "t_squared"})
        cfg["grid"] = {"horizon": 1.0, "n_steps": 2000}
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        rows = read_rows(out)
        assert rows[0]["quantity"] == "residual"
        assert float(rows[0]["value"]) < 5e-3

    def test_ml_eval_zero_matrices(self, tmp_path):
        cfg = base_config(experiment="ml-eval",
                          params={"t_grid": [0.0, 0.5, 2.0], "delta": 1.0})
        cfg["problem"]["a_mat"] = [[0.0, 0.0], [0.0, 0.0]]
        cfg["problem"]["b_mat"] = [[0.0, 0.0], [0.0, 0.0]]
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        rows = read_rows(out)
        for r in rows:
            if r["quantity"].startswith("nonperm_"):
                i, j = r["quantity"][-2], r["quantity"][-1]
                assert float(r["value"]) == (1.0 if i == j else 0.0)

    def test_ml_eval_commuting_pair_emits_both_routes(self, tmp_path):
        cfg = base_config(experiment="ml-eval",
                          params={"t_grid": [0.5, 1.0], "delta": 0.75})
        # B = 0.2 I + A/2 commutes with A
        a = np.array(cfg["problem"]["a_mat"])
        b = 0.2 * np.eye(2) + 0.5 * a
        cfg["problem"]["b_mat"] = b.tolist()
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        rows = read_rows(out)
        by_key = {(r["quantity"], r["time"]): float(r["value"]) for r in rows}
        for t in ("0.5", "1.0"):
            for i in range(2):
                for j in range(2):
                    nonperm = by_key[(f"nonperm_{i}{j}", t)]
                    perm = by_key[(f"perm_{i}{j}", t)]
                    assert abs(nonperm - perm) < 1e-10

    def test_picard_experiment(self, tmp_path):
        cfg = base_config(experiment="picard",
                          params={"eta": [3.0, 5.0], "n_iter": 3})
        cfg["monte_carlo"]["n_paths"] = 50
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["zeta"] == pytest.approx(0.75, abs=1e-12)
        assert report["m_sup"] > 0
        assert report["c_const"] >= 1.0
        ratios = [float(r["value"]) for r in read_rows(out)
                  if r["quantity"] == "weighted_ratio"]
        assert ratios and max(ratios) <= 0.85

    def test_picard_config_near_half_order(self, tmp_path):
        # alpha = 0.6 puts the weight order 2 alpha - 1 at 0.2
        cfg = json.loads((CONFIG_DIR / "picard_sec6.json").read_text())
        cfg["problem"]["alpha"] = 0.6
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        logs = [float(r["value"]) for r in read_rows(out)
                if r["quantity"] == "log_weighted_diff_sq"]
        assert len(logs) == 4 and all(math.isfinite(v) for v in logs)

    def test_continuity_experiment(self, tmp_path):
        cfg = base_config(experiment="continuity",
                          params={"eta": [3.0, 5.0], "offsets": [0.1, 0.01]})
        cfg["monte_carlo"]["n_paths"] = 100
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        ratios = [float(r["value"]) for r in read_rows(out)
                  if r["quantity"] == "distance_ratio"]
        assert len(ratios) == 2
        assert all(v > 0 for v in ratios)

    def test_separation_experiment_report(self, tmp_path):
        cfg = base_config(experiment="separation",
                          params={"eta": [3.0, 5.0], "gamma": [3.5, 5.5],
                                  "lambda": 1.0})
        cfg["grid"] = {"horizon": 5.0, "n_steps": 100}
        cfg["monte_carlo"]["n_paths"] = 200
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fitted_exponent"] is not None
        assert report["fitted_ci_low"] <= report["fitted_exponent"] \
            <= report["fitted_ci_high"]
        assert report["kappa_hat"] > 0

    def test_separation_overflowing_scale_is_quiet(self, tmp_path, capsys):
        # t^lambda overflows for t > 1 at lambda = 1e308: the scaled distance
        # is inf there, without a numpy warning
        cfg = base_config(experiment="separation",
                          params={"eta": [3.0, 5.0], "gamma": [3.5, 5.5],
                                  "lambda": 1e308},
                          grid={"horizon": 4.0, "n_steps": 40})
        cfg["monte_carlo"]["n_paths"] = 50
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        assert capsys.readouterr().err == ""
        scaled = [float(r["value"]) for r in read_rows(out)
                  if r["quantity"] == "scaled_distance" and float(r["time"]) > 1.0]
        assert scaled and all(v == math.inf for v in scaled)

    @pytest.mark.parametrize("delta, converged", [(172.5, 1.0), (-200.5, 0.0),
                                                  (1e306, 1.0)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ml_eval_offsets_beyond_gamma_range(self, tmp_path, delta, converged):
        # every Gamma(k rho + m sigma + delta) of the shipped config's series
        # overflows at 172.5, and its lgamma too at 1e306; at -200.5 the first
        # ones underflow to a signed zero, so their reciprocals are infinite
        # and the series cannot converge. All are rows of a finished run,
        # not a crash or a numpy warning
        cfg = json.loads((CONFIG_DIR / "ml_eval_sec6.json").read_text())
        cfg["params"]["delta"] = delta
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        flags = {float(r["value"]) for r in read_rows(out)
                 if r["quantity"] == "converged"}
        assert flags == {converged}

    def test_ml_eval_flags_nonconverged_rows(self, tmp_path):
        # the default anti-diagonal cap cannot reach t = 80 for this pair
        cfg = base_config(experiment="ml-eval",
                          params={"t_grid": [0.5, 80.0], "delta": 0.75})
        out = tmp_path / "out"
        assert run(str(write_config(tmp_path, cfg)), str(out)) == 0
        rows = read_rows(out)
        flags = {r["time"]: float(r["value"]) for r in rows
                 if r["quantity"] == "converged"}
        assert flags["0.5"] == 1.0
        assert flags["80.0"] == 0.0
