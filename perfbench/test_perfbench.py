"""Smoke test of the benchmark, at the tiny workload size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import spans
from run import launch
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = (
    "solvers.stepping.self_s", "solvers.stepping.path_steps_per_s",
    "solvers.stepping.flagged_paths", "solvers.stepping.valid_frac",
    "analysis.bootstrap_s", "analysis.stats_s", "analysis.sup_norm_s",
    "specfun.ml_scalar_log.busy_s", "specfun.ml_scalar_log.calls",
    "solvers.kernels.busy_s", "mlmatrix.series.busy_s", "mlmatrix.series.evals",
    "mlmatrix.diagonals_used", "mlmatrix.q_coeff_calls", "solvers.rng.busy_s",
    "solvers.rng.paths", "cli.self_s", "cli.output_bytes", "trace.overhead_frac",
)


def bench(root: Path, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_metrics_are_the_benchmark_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert tuple(m["name"] for m in BENCHMARK["per_layer"]) == PER_LAYER
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    lines = proc.stdout.splitlines()
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"{name} ") and f" {metric['unit']}" in line
                   for line in lines), name
    assert any("failed_frac 0" in line for line in lines)
    record = json.loads(next(line for line in lines
                             if line.startswith("run_record "))[len("run_record "):])
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "threads",
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "seed", "n_paths",
                "n_steps", "horizon"):
        assert key in record, key
    assert record["OPENBLAS_NUM_THREADS"] == "1" and record["threads"] == 1


def test_traced_split_counts_the_work():
    metrics = {k: v["value"] for k, v in
               last_json(bench(ROOT, "mild-long-horizon", 1).stdout)["metrics"].items()}
    _, _, sizes = WORKLOADS["mild-long-horizon"]
    _, n_steps, n_paths = sizes["tiny"]
    assert metrics["solvers.rng.paths"] == n_paths
    assert metrics["mlmatrix.series.evals"] == 2 * (n_steps + 1)
    assert metrics["mlmatrix.q_coeff_calls"] > 0
    assert metrics["solvers.stepping.valid_frac"] == 1.0
    assert metrics["mlmatrix.series.busy_s"] <= metrics["solvers.kernels.busy_s"]


def test_layer_times_subtract_child_spans():
    trace = [
        ["cli.run", 0.0, 10.0, -1],
        ["solvers.coupled_pair", 1.0, 6.0, 0],
        ["solvers.em_kernel_tables", 1.0, 2.0, 1],
        ["solvers.BrownianDriver.increments_block", 2.0, 3.0, 1],
        ["mlmatrix.ml_nonperm_grid", 6.0, 8.0, 0],
        ["mlmatrix.ml_nonperm_info", 6.0, 7.0, 4],
    ]
    self_s, busy_s = spans.layer_times(trace)
    assert self_s["cli"] == 3.0
    assert self_s["solvers.stepping"] == 3.0
    assert busy_s["solvers.stepping"] == 5.0
    assert self_s["mlmatrix.series"] == 2.0 and busy_s["mlmatrix.series"] == 2.0


def _tiny_outputs(tmp_path: Path, cfg: dict) -> Path:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    result = launch(config, out, tmp_path / "result.json")
    assert result and result["rc"] == 0
    return out


def _set_value(row: int, factor: float = 1.0, text: str | None = None):
    def edit(rows):
        rows[row + 1][3] = text or repr(float(rows[row + 1][3]) * factor)
        return rows
    return edit


def _shift_value(row: int, delta: float):
    def edit(rows):
        rows[row + 1][3] = repr(float(rows[row + 1][3]) + delta)
        return rows
    return edit


@pytest.mark.parametrize("workload, edit", [
    ("separation-long", _set_value(18, 1.0 + 10 * check.RTOL)),  # ms_distance
    ("separation-long", _set_value(17, 1.0 + 1e-9)),  # derived scaled_distance
    ("separation-long", _set_value(40, text="nan")),
    ("separation-long", lambda rows: rows[:-1]),
    ("separation-long", lambda rows: rows[:3] + rows[5:]),
    # a log compares in absolute terms, whatever its size
    ("picard-contraction", _shift_value(3, 10 * check.RTOL)),
])
def test_corrupted_output_counts_as_failure(tmp_path, workload, edit):
    cfg = make_config(workload, "tiny", seed=3)
    out = _tiny_outputs(tmp_path, cfg)
    assert check.check_run(out, workload, "tiny", cfg) == []
    with open(out / "results.csv", newline="", encoding="utf-8") as fh:
        rows = edit(list(csv.reader(fh)))
    with open(out / "results.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    assert check.check_run(out, workload, "tiny", cfg)


def test_corrupted_report_counts_as_failure(tmp_path):
    workload = "separation-long"
    cfg = make_config(workload, "tiny", seed=3)
    out = _tiny_outputs(tmp_path, cfg)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report["fitted_ci_high"] *= 1.0 + 10 * check.RTOL
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    assert check.check_run(out, workload, "tiny", cfg)


def test_picard_invariants():
    cfg = make_config("picard-contraction", "full", seed=0)
    diffs = [-1.0, -2.5, -3.0, -4.0]
    rows = ([("picard", float(k), "log_weighted_diff_sq", d, None)
             for k, d in enumerate(diffs, start=1)]
            + [("picard", float(k), "weighted_ratio",
                math.exp(diffs[k - 1] - diffs[k - 2]), None) for k in range(2, 5)]
            + [("picard", 0.0, "immediate_convergence", 0.0, None)])
    assert check.invariant_problems(rows, {"zeta": 0.75}, cfg) == []
    assert check.invariant_problems(rows, {"zeta": 0.75 + 1e-9}, cfg)
    assert check.invariant_problems(rows[:-1], {"zeta": 0.75}, cfg)
    diffs[1] = -0.5  # iterate 2 -> 1 grows: a ratio above 0.85
    rows[1] = ("picard", 2.0, "log_weighted_diff_sq", diffs[1], None)
    rows[4] = ("picard", 2.0, "weighted_ratio", math.exp(diffs[1] - diffs[0]), None)
    rows[5] = ("picard", 3.0, "weighted_ratio", math.exp(diffs[2] - diffs[1]), None)
    assert check.invariant_problems(rows, {"zeta": 0.75}, cfg) == [
        f"picard ratio above 0.85: {math.exp(0.5)}"]


def _copy_tree(tmp_path: Path, with_src: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return root


def test_failed_check_exits_nonzero(tmp_path):
    root = _copy_tree(tmp_path, with_src=True)
    ref_path = root / "perfbench" / "reference" / "separation-long-tiny.json"
    ref = json.loads(ref_path.read_text(encoding="utf-8"))
    for entry in ref["seeds"].values():
        entry["value"] = [v * 1.001 for v in entry["value"]]
    ref_path.write_text(json.dumps(ref), encoding="utf-8")
    proc = bench(root, "separation-long", 0)
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "check failed" in proc.stderr


def test_fails_without_the_program(tmp_path):
    root = _copy_tree(tmp_path, with_src=False)
    proc = bench(root, "separation-long", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
