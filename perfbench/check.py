"""Output check of one benchmark run.

A run passes when the seed-independent invariants hold and its
``results.csv`` and ``report.json`` match the reference recorded for the
same workload, size and Monte Carlo seed within ``RTOL``.

The invariants: the rows are exactly those the config asks for (experiment,
grid time and quantity, in order), every value is finite, the derived rows
agree with the rows they come from (``scaled_distance = t^lambda *
sqrt(ms_distance)``, each Picard ratio is the exp of a log-difference step),
and for ``picard`` ``zeta == 0.75`` to 1e-12 and every ratio is at most 0.85.

``RTOL`` leaves room for a path-level relative error of ~1e-10 (a fast
history sum or a contour kernel may differ from the direct O(N^2) reference
that much). The separation distances subtract paths of size ~1e12 that
differ by ~1%, which amplifies such an error about 100-fold, so 1e-6 keeps
two orders of magnitude of margin and still catches any change of the
numbers themselves. Quantities that are logarithms (``log_*``) are compared
in absolute terms: an absolute error ``RTOL`` of a log is a relative error
``RTOL`` of the value, and the log of a value far from 1 would otherwise get
a loose tolerance. A reference stores the report and every row that is not
derived, exactly as written.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-6
DERIVED_RTOL = 1e-12
ZETA = 0.75
ZETA_TOL = 1e-12
MAX_PICARD_RATIO = 0.85
HEADER = ["experiment", "time", "quantity", "value", "std_error"]
DERIVED = {"scaled_distance", "weighted_ratio"}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{size}.json"


def _number(text: str) -> float | None:
    return None if text == "" else float(text)


def read_outputs(out_dir: Path) -> tuple[list[tuple], dict]:
    """Rows ``(experiment, time, quantity, value, std_error)`` and the report."""
    with open(out_dir / "results.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != HEADER:
            raise ValueError("results.csv header differs")
        rows = [(exp, float(t), quantity, float(value), _number(se))
                for exp, t, quantity, value, se in reader]
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    return rows, report


def expected_layout(cfg: dict) -> list[tuple[float, str]]:
    """``(time, quantity)`` of every row the config's experiment writes."""
    n_steps = cfg["grid"]["n_steps"]
    h = cfg["grid"]["horizon"] / n_steps
    times = [h * i for i in range(n_steps + 1)]
    experiment = cfg["experiment"]
    if experiment == "separation":
        flags = ("lambda_gt_alpha", "lambda_gt_alpha_over_1_minus_alpha",
                 "exponent_consistent")
        return ([(t, q) for t in times for q in ("ms_distance", "scaled_distance")]
                + [(times[-1], q) for q in flags])
    if experiment == "picard":
        n_iter = cfg["params"]["n_iter"]
        return ([(float(k), "log_weighted_diff_sq") for k in range(1, n_iter + 1)]
                + [(float(k), "weighted_ratio") for k in range(2, n_iter + 1)]
                + [(0.0, "immediate_convergence")])
    return [(t, "ms_norm") for t in times]


def _close(actual, expected, rtol: float = RTOL, scale: float | None = None) -> bool:
    if actual is None or expected is None:
        return actual is expected
    return abs(actual - expected) <= rtol * (abs(expected) if scale is None else scale)


def _derived_problems(rows, cfg: dict) -> list[str]:
    problems = []
    if cfg["experiment"] == "separation":
        lam = cfg["params"]["lambda"]
        for dist, scaled in zip(rows[0:-3:2], rows[1:-3:2]):
            want = dist[1] ** lam * math.sqrt(dist[3])
            if not _close(scaled[3], want, DERIVED_RTOL):
                problems.append(f"t={dist[1]} scaled_distance {scaled[3]!r}, "
                                f"t^lambda sqrt(ms_distance) = {want!r}")
                break
    elif cfg["experiment"] == "picard":
        diffs = [r[3] for r in rows if r[2] == "log_weighted_diff_sq"]
        ratios = [r[3] for r in rows if r[2] == "weighted_ratio"]
        for k, ratio in enumerate(ratios):
            want = math.exp(diffs[k + 1] - diffs[k])
            if not _close(ratio, want, DERIVED_RTOL):
                problems.append(f"picard ratio {k + 2} is {ratio!r}, not {want!r}")
    return problems


def invariant_problems(rows, report, cfg: dict) -> list[str]:
    """Seed-independent checks; each returned string names one violation."""
    layout = expected_layout(cfg)
    if len(rows) != len(layout):
        return [f"{len(rows)} result rows, expected {len(layout)}"]
    for (exp, t, quantity, value, se), (want_t, want_q) in zip(rows, layout):
        if (exp, quantity) != (cfg["experiment"], want_q) or \
                not _close(t, want_t, DERIVED_RTOL):
            return [f"row {(exp, t, quantity)} where {(want_t, want_q)} belongs"]
        if not all(math.isfinite(v) for v in (value, 0.0 if se is None else se)):
            return [f"non-finite value at t={t} {quantity}"]
    problems = [f"non-finite report value {key}" for key, value in report.items()
                if value is not None and not math.isfinite(value)]
    problems += _derived_problems(rows, cfg)
    if cfg["experiment"] == "picard":
        zeta = report.get("zeta")
        if zeta is None or abs(zeta - ZETA) > ZETA_TOL:
            problems.append(f"zeta {zeta!r} differs from {ZETA}")
        ratios = [r[3] for r in rows if r[2] == "weighted_ratio"]
        if any(r > MAX_PICARD_RATIO for r in ratios):
            problems.append(f"picard ratio above {MAX_PICARD_RATIO}: {max(ratios)}")
    return problems


def make_reference_entry(rows, report) -> dict:
    """The stored form of one run: its report and rows that are not derived."""
    stored = [r for r in rows if r[2] not in DERIVED]
    return {
        "value": [r[3] for r in stored],
        "std_error": [r[4] for r in stored],
        "report": dict(sorted(report.items())),
    }


def reference_problems(rows, report, ref: dict) -> list[str]:
    """Differences from a stored reference entry beyond ``RTOL``."""
    stored = [r for r in rows if r[2] not in DERIVED]
    if len(stored) != len(ref["value"]):
        return [f"{len(stored)} rows against {len(ref['value'])} in the reference"]
    problems = []
    for (_, t, quantity, value, se), ref_value, ref_se in zip(
            stored, ref["value"], ref["std_error"]):
        if not _close(value, ref_value,
                      scale=1.0 if quantity.startswith("log_") else None):
            problems.append(f"t={t} {quantity}: value {value!r}, reference {ref_value!r}")
        elif not _close(se, ref_se):
            problems.append(f"t={t} {quantity}: std_error {se!r}, reference {ref_se!r}")
        if len(problems) >= 5:
            break
    if sorted(report) != sorted(ref["report"]):
        problems.append(f"report keys {sorted(report)} differ from the reference")
    else:
        problems += [f"report {key}: {report[key]!r}, reference {value!r}"
                     for key, value in ref["report"].items()
                     if not _close(report[key], value)]
    return problems


def check_run(out_dir: Path, workload: str, size: str, cfg: dict) -> list[str]:
    """All problems with one run's outputs; an empty list means it passed."""
    try:
        rows, report = read_outputs(out_dir)
    except (OSError, ValueError) as exc:
        return [f"outputs unreadable: {exc}"]
    problems = invariant_problems(rows, report, cfg)
    if problems:
        return problems
    with open(reference_path(workload, size), encoding="utf-8") as fh:
        ref = json.load(fh)["seeds"].get(str(cfg["monte_carlo"]["seed"]))
    if ref is None:
        return [f"no reference for Monte Carlo seed {cfg['monte_carlo']['seed']}"]
    return reference_problems(rows, report, ref)
