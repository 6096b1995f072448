"""Workload definitions of the smtde benchmark.

Every workload is one experiment on the sec6 problem of the README
(alpha = 0.75, beta = 0.25, the README's A and B, ``sec6_drift`` and
``sec6_diffusion``), written out as a config that ``smtde.cli.run`` reads.
``full`` is the measured size; ``tiny`` is the size the smoke test runs.
"""

from __future__ import annotations

SEC6_PROBLEM = {
    "alpha": 0.75,
    "beta": 0.25,
    "a_mat": [[0.1, 0.2], [0.3, 0.4]],
    "b_mat": [[0.4, 0.1], [0.2, 0.3]],
    "drift": "sec6_drift",
    "diffusion": "sec6_diffusion",
    "lip_b": 1.0,
    "lip_sigma": 1.0,
    "dim": 2,
}

# (experiment, params, {size: (horizon, n_steps, n_paths)})
WORKLOADS = {
    "separation-long": (
        "separation",
        {"eta": [3.0, 5.0], "gamma": [3.5, 5.5], "lambda": 0.75, "scheme": "em"},
        {"full": (10.0, 1000, 768), "tiny": (10.0, 40, 16)},
    ),
    "picard-contraction": (
        "picard",
        {"eta": [3.0, 5.0], "n_iter": 4},
        {"full": (1.0, 300, 1000), "tiny": (1.0, 20, 16)},
    ),
    "mild-long-horizon": (
        "simulate",
        {"eta": [3.0, 5.0], "scheme": "mild"},
        {"full": (20.0, 200, 2048), "tiny": (5.0, 20, 16)},
    ),
}

SIZES = ("full", "tiny")

# References exist for these Monte Carlo seeds; a benchmark seed is folded
# onto them, so equal benchmark seeds always give equal inputs.
REFERENCE_SEEDS = 4


def mc_seed(seed: int) -> int:
    """Monte Carlo seed of the config for a benchmark seed."""
    return seed % REFERENCE_SEEDS


def make_config(workload: str, size: str, seed: int) -> dict:
    """The config that ``smtde.cli.run`` gets for one workload, size and seed."""
    experiment, params, sizes = WORKLOADS[workload]
    horizon, n_steps, n_paths = sizes[size]
    return {
        "problem": dict(SEC6_PROBLEM),
        "grid": {"horizon": horizon, "n_steps": n_steps},
        "monte_carlo": {"n_paths": n_paths, "seed": mc_seed(seed)},
        "experiment": experiment,
        "params": dict(params),
    }
