"""Span tracing of smtde from outside the package, and the per-layer split.

``Tracer.install`` wraps the public callables of each layer in every smtde
module namespace that binds them (``analysis`` and ``cli`` bind many of
them by ``from``-import). A wrapped call appends one span
``[name, start, end, parent]`` to an in-memory list; the list is written
out once, when the run ends. ``layer_metrics`` turns the spans and counters
into the per-layer metrics of the benchmark.

A span's self time is its duration minus the time of its child spans; a
layer's busy time is the time covered by its outermost spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, layer). "Class.method" attributes are patched on the
# class, which every module sees. The "analysis.experiment" layer has no
# metric of its own; it is traced so that its self time is not counted as
# cli self time.
TRACED = (
    ("cli", "run", "cli"),
    ("cli", "load_config", "cli"),
    ("solvers", "BrownianDriver.increments_block", "solvers.rng"),
    ("solvers", "BrownianDriver.initial_normals", "solvers.rng"),
    ("solvers", "em_kernel_tables", "solvers.kernels"),
    ("solvers", "mild_kernel_tables", "solvers.kernels"),
    ("solvers", "simulate_em", "solvers.stepping"),
    ("solvers", "simulate_mild", "solvers.stepping"),
    ("solvers", "coupled_pair", "solvers.stepping"),
    ("solvers", "picard_apply", "solvers.stepping"),
    ("solvers", "constant_ensemble", "solvers.stepping"),
    ("mlmatrix", "ml_nonperm_info", "mlmatrix.series"),
    ("mlmatrix", "ml_nonperm_grid", "mlmatrix.series"),
    ("specfun", "ml_scalar_log", "specfun.ml_scalar_log"),
    ("analysis", "separation_experiment", "analysis.bootstrap"),
    ("analysis", "contraction_report", "analysis.experiment"),
    ("analysis", "continuity_experiment", "analysis.experiment"),
    ("analysis", "ms_norm", "analysis.stats"),
    ("analysis", "ms_distance_series", "analysis.stats"),
    ("analysis", "log_weighted_norm", "analysis.stats"),
    ("analysis", "ml_sup_norm", "analysis.sup_norm"),
    ("analysis", "init_term_sup_sq", "analysis.sup_norm"),
)

LAYER_OF = {f"{module}.{attr}": layer for module, attr, layer in TRACED}

# Stepping calls whose returned ensembles were stepped (constant_ensemble
# only copies the initial value).
_STEPPED = {"solvers.simulate_em", "solvers.simulate_mild",
            "solvers.coupled_pair", "solvers.picard_apply"}


def _resolve(module, attr: str):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span list and counters for one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        layer = LAYER_OF[name]
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            outermost = depth[layer] == 0
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            depth[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                depth[layer] -= 1
            if outermost:
                self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        c = self.counters
        if name == "solvers.BrownianDriver.increments_block":
            c["solvers.rng.paths"] += len(args[1])
        elif name in _STEPPED:
            ensembles = result if isinstance(result, tuple) else (result,)
            for ens in ensembles:
                c["solvers.stepping.path_steps"] += ens.n_paths * ens.n_steps
                c["solvers.stepping.paths"] += ens.n_paths
                c["solvers.stepping.flagged_paths"] += int(ens.flags.sum())
        elif name == "mlmatrix.ml_nonperm_info":
            c["mlmatrix.series.evals"] += 1
            c["mlmatrix.diagonals_used"] = max(c["mlmatrix.diagonals_used"],
                                               result[1].diagonals_used)
        elif name == "mlmatrix.ml_nonperm_grid":
            c["mlmatrix.series.evals"] += len(result[0])
            c["mlmatrix.diagonals_used"] = max(c["mlmatrix.diagonals_used"],
                                               result[1].diagonals_used)
        elif name == "specfun.ml_scalar_log":
            c["specfun.ml_scalar_log.calls"] += 1

    def install(self) -> None:
        """Wrap every traced callable in each loaded smtde module."""
        modules = [m for key, m in sys.modules.items()
                   if key == "smtde" or key.startswith("smtde.")]
        for module_name, attr, _ in TRACED:
            owner, name = _resolve(sys.modules[f"smtde.{module_name}"], attr)
            original = getattr(owner, name)
            wrapped = self._wrap(f"{module_name}.{attr}", original)
            if isinstance(owner, type):
                setattr(owner, name, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        self._count_q_coeff()

    def _count_q_coeff(self) -> None:
        qtable = sys.modules["smtde.mlmatrix"].QTable
        coeff = qtable.coeff
        counters = self.counters

        def counted(q, k, m):
            counters["mlmatrix.q_coeff_calls"] += 1
            return coeff(q, k, m)

        qtable.coeff = counted

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def layer_times(spans) -> tuple[dict, dict]:
    """Self and busy seconds per layer from ``[name, start, end, parent]`` spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    busy_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        layer = LAYER_OF[name]
        self_s[layer] += (end - start) - child[i]
        while parent >= 0 and LAYER_OF[spans[parent][0]] != layer:
            parent = spans[parent][3]
        if parent < 0:
            busy_s[layer] += end - start
    return self_s, busy_s


# name -> unit, in the order of printing
PER_LAYER = {
    "solvers.stepping.self_s": "s",
    "solvers.stepping.path_steps_per_s": "1/s",
    "solvers.stepping.flagged_paths": "count",
    "solvers.stepping.valid_frac": "fraction",
    "analysis.bootstrap_s": "s",
    "analysis.stats_s": "s",
    "analysis.sup_norm_s": "s",
    "specfun.ml_scalar_log.busy_s": "s",
    "specfun.ml_scalar_log.calls": "count",
    "solvers.kernels.busy_s": "s",
    "mlmatrix.series.busy_s": "s",
    "mlmatrix.series.evals": "count",
    "mlmatrix.diagonals_used": "count",
    "mlmatrix.q_coeff_calls": "count",
    "solvers.rng.busy_s": "s",
    "solvers.rng.paths": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, all but ``trace.overhead_frac``."""
    self_s, busy_s = layer_times(trace["spans"])
    c = defaultdict(float, trace["counters"])
    stepping_s = self_s["solvers.stepping"]
    paths = c["solvers.stepping.paths"]
    return {
        "solvers.stepping.self_s": stepping_s,
        "solvers.stepping.path_steps_per_s":
            c["solvers.stepping.path_steps"] / stepping_s if stepping_s > 0 else 0.0,
        "solvers.stepping.flagged_paths": c["solvers.stepping.flagged_paths"],
        "solvers.stepping.valid_frac":
            1.0 - c["solvers.stepping.flagged_paths"] / paths if paths else 1.0,
        "analysis.bootstrap_s": self_s["analysis.bootstrap"],
        "analysis.stats_s": self_s["analysis.stats"],
        "analysis.sup_norm_s": self_s["analysis.sup_norm"],
        "specfun.ml_scalar_log.busy_s": busy_s["specfun.ml_scalar_log"],
        "specfun.ml_scalar_log.calls": c["specfun.ml_scalar_log.calls"],
        "solvers.kernels.busy_s": busy_s["solvers.kernels"],
        "mlmatrix.series.busy_s": busy_s["mlmatrix.series"],
        "mlmatrix.series.evals": c["mlmatrix.series.evals"],
        "mlmatrix.diagonals_used": c["mlmatrix.diagonals_used"],
        "mlmatrix.q_coeff_calls": c["mlmatrix.q_coeff_calls"],
        "solvers.rng.busy_s": busy_s["solvers.rng"],
        "solvers.rng.paths": c["solvers.rng.paths"],
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": c["cli.output_bytes"],
    }
