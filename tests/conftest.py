import math

import numpy as np
import pytest

from smtde.mlmatrix import QTable
from smtde.solvers import BrownianDriver, InitialState, ProblemSpec

SEC6_A = np.array([[0.1, 0.2], [0.3, 0.4]])
SEC6_B = np.array([[0.4, 0.1], [0.2, 0.3]])


def left_power(a, k):
    """a**k as the left-to-right product I @ a @ ... @ a, the order in which
    QTable builds its k-th power (np.linalg.matrix_power squares repeatedly
    and gives other bits)."""
    out = np.eye(a.shape[0])
    for _ in range(k):
        out = out @ a
    return out


def sec6_drift(t, x):
    return np.stack([np.sin(x[0]), x[1] + 5.0])


def sec6_diffusion(t, x):
    return np.stack([x[0] + 5.0, np.cos(x[1])])


def zero_fn(t, x):
    return np.zeros_like(x)


def one_fn(t, x):
    return np.ones_like(x)


def flaky_above(level):
    # non-finite once a coordinate exceeds level: with eta = (3, 5) and
    # gamma = (-5, -3), only eta's paths get there (at seed 7, 100 steps and
    # 256 paths: 3.9% of them for level 9, 13.7% for level 8)
    return lambda t, x: np.where(x > level, np.inf, 0.0)


def make_problem(alpha=0.75, beta=0.25, a_mat=None, b_mat=None, drift=None,
                 diffusion=None, lip_b=1.0, lip_sigma=1.0, horizon=1.0, dim=2):
    return ProblemSpec(
        alpha=alpha, beta=beta,
        a_mat=SEC6_A if a_mat is None else a_mat,
        b_mat=SEC6_B if b_mat is None else b_mat,
        drift=sec6_drift if drift is None else drift,
        diffusion=sec6_diffusion if diffusion is None else diffusion,
        lip_b=lip_b, lip_sigma=lip_sigma, horizon=horizon, dim=dim)


@pytest.fixture
def sec6_problem():
    return make_problem()


@pytest.fixture
def eta_state():
    return InitialState([3.0, 5.0])


@pytest.fixture
def q_fills(monkeypatch):
    """(table, anti-diagonals added) for every QTable fill, in call order."""
    fills = []
    original = QTable._fill

    def counting(table, top):
        fills.append((table, top - table._depth))
        original(table, top)

    monkeypatch.setattr(QTable, "_fill", counting)
    return fills


class PresetDriver(BrownianDriver):
    """Driver that serves externally supplied standard normals per path."""

    def __init__(self, normals):
        normals = np.asarray(normals, dtype=float)
        super().__init__(seed=0, n_steps=normals.shape[1])
        self._normals = normals

    def increments_block(self, path_ids, h, steps=slice(None), states=None):
        return self._normals[list(path_ids)].T[steps] * math.sqrt(h)


class CountingDriver(BrownianDriver):
    """Driver that counts the paths whose increments it draws (a path once
    per slab of steps) and keeps each draw as (path ids, steps, increments),
    the steps as a range of 0..n_steps-1."""

    def __init__(self, seed, n_steps):
        super().__init__(seed=seed, n_steps=n_steps)
        self.paths_drawn = 0
        self.draws = []

    def increments_block(self, path_ids, h, steps=slice(None), states=None):
        self.paths_drawn += len(path_ids)
        block = super().increments_block(path_ids, h, steps, states)
        self.draws.append((path_ids, range(self.n_steps)[steps], block))
        return block
