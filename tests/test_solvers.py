import concurrent.futures
import dataclasses
import math
import re
import sys
import threading

import numpy as np
import pytest

from smtde import solvers
from smtde.errors import EnsembleError, ValidationError
from smtde.solvers import (BrownianDriver, InitialState, ProblemSpec,
                           constant_ensemble, coupled_pair, picard_apply,
                           simulate_em, simulate_mild)
from smtde.specfun import gamma_fn, ml_scalar

from conftest import (CountingDriver, PresetDriver, make_problem, one_fn,
                      zero_fn)

ZERO2 = np.zeros((2, 2))


class TestProblemSpec:
    def test_validates_orders(self):
        with pytest.raises(ValidationError, match="alpha"):
            make_problem(alpha=0.4)
        with pytest.raises(ValidationError, match="beta must be < alpha"):
            make_problem(beta=0.8)
        with pytest.raises(ValidationError):
            make_problem(beta=0.0)
        with pytest.raises(ValidationError):
            make_problem(horizon=-1.0)

    def test_validates_matrices(self):
        with pytest.raises(ValidationError):
            make_problem(a_mat=np.zeros((3, 3)))

    def test_matrices_are_read_only(self, sec6_problem):
        # q_table is built from them once, so they must not change under it
        with pytest.raises(ValueError):
            sec6_problem.a_mat[0, 0] = 1.0
        with pytest.raises(ValueError):
            sec6_problem.b_mat[0, 0] = 1.0

    def test_compares_and_hashes_by_identity(self, sec6_problem):
        # the generated __eq__/__hash__ would read the matrices and raise
        p = sec6_problem
        assert p == p
        assert p != make_problem()
        assert {p: 1}[p] == 1

    @pytest.mark.parametrize("horizon, n_steps", [(1.0, 100), (20.0, 200), (0.3, 7)])
    def test_grid_is_the_ensemble_grid(self, eta_state, horizon, n_steps):
        p = make_problem(horizon=horizon)
        drv = BrownianDriver(seed=1, n_steps=n_steps)
        grid = p.grid(n_steps)
        assert grid.tobytes() == simulate_em(p, eta_state, drv, 3).grid.tobytes()
        y = constant_ensemble(p, eta_state, drv, 3)
        assert grid.tobytes() == picard_apply(p, eta_state, y).grid.tobytes()

    def test_mild_tables_fill_one_q_table_once(self, q_fills):
        # E_a and E_{a+1} at T = 20, N = 200 stop at anti-diagonals 100 and
        # 98, and the depth scan reads through the end of the batch that
        # holds them, 111: the problem's one table fills each of them once
        p = make_problem(horizon=20.0)
        solvers.mild_kernel_tables(p, 200)
        assert all(table is p.q_table for table, _ in q_fills)
        assert sum(added for _, added in q_fills) == 111


class TestBrownianDriver:
    def test_increments_deterministic_per_path(self):
        drv = BrownianDriver(seed=9, n_steps=32)
        a = drv.increments_block(range(0, 4), h=0.25)
        b = drv.increments_block(range(0, 8), h=0.25)
        assert np.array_equal(a, b[:, :4])
        # per-path streams differ
        assert not np.array_equal(b[:, 0], b[:, 1])

    def test_variance_matches_step(self):
        drv = BrownianDriver(seed=4, n_steps=200)
        inc = drv.increments_block(range(0, 400), h=0.01)
        assert inc.var() == pytest.approx(0.01, rel=0.05)

    def test_init_draws_do_not_shift_increments(self):
        drv = BrownianDriver(seed=9, n_steps=16)
        before = drv.increments_block([3], h=0.5)
        drv.initial_normals([3], 2)
        after = drv.increments_block([3], h=0.5)
        assert np.array_equal(before, after)

    @pytest.mark.parametrize("seed", [0, 29, 2 ** 63 - 1])
    def test_draws_pinned_to_fresh_philox_per_path(self, seed):
        # the definition of the streams: a fresh Philox keyed by
        # (seed, path_id), 2^96 draws in for the initial values
        def fresh(pid, init_region=False):
            bitgen = np.random.Philox(key=[seed, pid])
            if init_region:
                bitgen.advance(2 ** 96)
            return np.random.Generator(bitgen)

        pids = [5, 0, 1000, 3, 5, 2]
        drv = BrownianDriver(seed=seed, n_steps=40)
        inc = drv.increments_block(pids, h=0.25)
        init = drv.initial_normals(pids, 3)
        for i, pid in enumerate(pids):
            assert np.array_equal(inc[:, i], fresh(pid).standard_normal(40) * 0.5)
            assert np.array_equal(init[:, i], fresh(pid, True).standard_normal(3))

    @pytest.mark.parametrize("n_steps, edges, pids", [
        (600, [256, 512], range(7)),    # n_steps not a multiple of the slab
        (100, [], range(7)),            # fewer steps than one slab
        (300, [45, 77], range(7)),      # edges inside a HISTORY_BLOCK
        (300, [1, 299], [11]),          # one path, one-step slabs at both ends
    ])
    def test_slabs_equal_one_draw(self, n_steps, edges, pids):
        # slab by slab in step order, each path resumes its stream where the
        # slab before it stopped: the rows are those of one draw, bit for bit
        drv = BrownianDriver(seed=13, n_steps=n_steps)
        whole = drv.increments_block(pids, h=0.1)
        states = {}
        slabs = [drv.increments_block(pids, 0.1, slice(n0, n1), states)
                 for n0, n1 in zip([0, *edges], [*edges, n_steps])]
        assert np.array_equal(np.concatenate(slabs), whole)
        # one state per path, and none when one slab covers the grid
        assert sorted(states) == (sorted(set(pids)) if edges else [])

    def test_increments_are_a_view_of_path_major_rows(self):
        # each path's steps are one contiguous row, read as (steps, paths)
        inc = BrownianDriver(seed=2, n_steps=12).increments_block(range(5), h=0.1)
        assert inc.shape == (12, 5) and inc.T.flags.c_contiguous
        assert BrownianDriver(seed=2, n_steps=12).initial_normals(
            range(5), 3).T.flags.c_contiguous

    def test_slab_past_step_zero_needs_states(self):
        drv = BrownianDriver(seed=2, n_steps=40)
        with pytest.raises(ValidationError, match="from step 16 "):
            drv.increments_block(range(3), 0.1, slice(16, 32))

    def test_first_slab_without_states_keeps_none(self):
        # a slab from step 0 that ends before the grid does has a state to
        # leave, but no states to leave it in: it draws the first rows
        drv = BrownianDriver(seed=2, n_steps=40)
        rows = drv.increments_block(range(2), 0.1, slice(0, 16))
        assert np.array_equal(rows, drv.increments_block(range(2), 0.1)[:16])

    def test_slab_missing_a_path_state_names_it(self):
        # a path the slab before did not draw has no state to resume from
        drv = BrownianDriver(seed=2, n_steps=40)
        states = {}
        drv.increments_block(range(3), 0.1, slice(0, 16), states)
        with pytest.raises(ValidationError,
                           match=r"^increments from step 16 to 31 resume path 3's"):
            drv.increments_block(range(4), 0.1, slice(16, 32), states)
        with pytest.raises(ValidationError, match=r"resume path 0's"):
            drv.increments_block(range(3), 0.1, slice(16, 32), {})

    @pytest.mark.parametrize("steps", [slice(0, 10, 2), slice(5, 3)])
    def test_slab_must_be_consecutive_steps(self, steps):
        # a stride would be dropped (10 rows, not len(steps) = 5), and stop
        # below start would reach numpy as a negative dimension
        drv = BrownianDriver(seed=2, n_steps=40)
        with pytest.raises(ValidationError, match=re.escape(f"steps {steps!r} of 40")):
            drv.increments_block(range(3), 0.1, steps, {})

    def test_draws_equal_across_threads(self):
        # one driver shared by more threads than cores, switching often: a
        # generator shared between threads would mix their streams
        drv = BrownianDriver(seed=7, n_steps=50)
        expected = BrownianDriver(seed=7, n_steps=50).increments_block(range(128), h=0.1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                blocks = list(pool.map(lambda lo: drv.increments_block(range(lo, lo + 8), 0.1),
                                       range(0, 128, 8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(np.concatenate(blocks, axis=1), expected)

    def test_interleaved_slabs_equal_serial_draws_across_threads(self):
        # two threads draw overlapping paths slab by slab, in lockstep, from
        # one driver, each resuming from its own states: each gets the draws
        # of one serial call, bit for bit
        n_steps, edges = 300, [0, 7, 45, 256, 300]
        drv = BrownianDriver(seed=5, n_steps=n_steps)
        ids = [range(0, 16), range(8, 24)]
        lockstep = threading.Barrier(len(ids), timeout=60)

        def draw(pids):
            states, slabs = {}, []
            for n0, n1 in zip(edges, edges[1:]):
                lockstep.wait()
                slabs.append(drv.increments_block(pids, 0.1, slice(n0, n1), states))
            return np.concatenate(slabs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=len(ids)) as pool:
                got = list(pool.map(draw, ids, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        serial = BrownianDriver(seed=5, n_steps=n_steps)
        for pids, rows in zip(ids, got):
            assert np.array_equal(rows, serial.increments_block(pids, h=0.1))

    def test_seed_validation(self):
        with pytest.raises(ValidationError):
            BrownianDriver(seed=-1, n_steps=10)
        with pytest.raises(ValidationError):
            BrownianDriver(seed=1, n_steps=0)


    @pytest.mark.parametrize("seed, n_steps, name", [
        (2.9, 100, "seed"), (True, 100, "seed"), (np.float64(1.0), 100, "seed"),
        (1, 10.7, "n_steps"), (1, True, "n_steps"), (1, "10", "n_steps")])
    def test_integer_arguments_are_checked_not_truncated(self, seed, n_steps,
                                                         name):
        # int() ran seed 2 for 2.9 and 10 steps for 10.7; True passed as 1
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            BrownianDriver(seed=seed, n_steps=n_steps)

    def test_numpy_integers_accepted(self):
        drv = BrownianDriver(seed=np.int64(3), n_steps=np.int32(10))
        assert (drv.seed, drv.n_steps) == (3, 10) and type(drv.seed) is int
        assert np.array_equal(drv.increments_block(range(2), 0.1),
                              BrownianDriver(3, 10).increments_block(range(2), 0.1))


class TestSlabs:
    def test_reads_follow_step_order(self):
        # the stream's rows, in step order, equal the one draw: across slab
        # edges (600 steps: two full slabs and a short one) and on a grid
        # shorter than one slab
        for n_steps in (600, solvers.NOISE_SLAB - 56):
            drv = BrownianDriver(seed=3, n_steps=n_steps)
            noise = solvers._draw(make_problem(), drv, 4, InitialState([3.0, 5.0]))
            rows = list(solvers._slabs(noise, slice(1, 3), n_steps))
            assert len(rows) == n_steps
            assert np.array_equal(np.stack(rows), noise(slice(1, 3)))


class TestInitialState:
    def test_deterministic_block(self, sec6_problem):
        init = InitialState([3.0, 5.0])
        drv = BrownianDriver(seed=1, n_steps=4)
        block = constant_ensemble(sec6_problem, init, drv, 3).paths[0]
        assert block.shape == (2, 3)
        assert np.all(block[0] == 3.0) and np.all(block[1] == 5.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            InitialState([np.nan, 1.0])
        with pytest.raises(ValidationError):
            InitialState([[3.0, 5.0]])


class TestSimulateEm:
    def test_all_terms_vanish_gives_constant_paths(self):
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=zero_fn,
                         diffusion=zero_fn, lip_b=0.0, lip_sigma=0.0)
        drv = BrownianDriver(seed=3, n_steps=50)
        ens = simulate_em(p, InitialState([3.0, 5.0]), drv, 4)
        assert np.all(ens.paths[:, 0] == 3.0)
        assert np.all(ens.paths[:, 1] == 5.0)

    def test_constant_drift_closed_form(self):
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=one_fn,
                         diffusion=zero_fn, lip_b=0.0, lip_sigma=0.0)
        drv = BrownianDriver(seed=3, n_steps=100)
        ens = simulate_em(p, InitialState([3.0, 5.0]), drv, 2)
        expected = ens.grid ** p.alpha / gamma_fn(p.alpha + 1.0)
        for comp, eta_i in ((0, 3.0), (1, 5.0)):
            err = np.abs(ens.paths[:, comp, 0] - (eta_i + expected)).max()
            assert err < 1e-12

    def test_sec6_problem_is_finite(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=6, n_steps=100)
        ens = simulate_em(sec6_problem, eta_state, drv, 300)
        assert ens.flags.sum() == 0
        endpoint = np.sum(ens.paths[-1] ** 2, axis=0).mean()
        assert np.isfinite(endpoint)

    def test_pure_linear_term_matches_scalar_ml(self):
        # D^a X = b X has the one-parameter Mittag-Leffler solution
        b = 0.5
        p = ProblemSpec(alpha=0.75, beta=0.25, a_mat=np.zeros((1, 1)),
                        b_mat=np.array([[b]]), drift=zero_fn, diffusion=zero_fn,
                        lip_b=0.0, lip_sigma=0.0, horizon=2.0, dim=1)
        drv = BrownianDriver(seed=1, n_steps=2000)
        ens = simulate_em(p, InitialState([1.0]), drv, 1)
        exact = ml_scalar(0.75, b * 2.0 ** 0.75)
        assert ens.paths[-1, 0, 0] == pytest.approx(exact, rel=5e-3)

    def test_causality(self, sec6_problem, eta_state):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(3, 40))
        bumped = base.copy()
        bumped[:, 20:] += 1.5  # perturb only future increments
        e1 = simulate_em(sec6_problem, eta_state, PresetDriver(base), 3)
        e2 = simulate_em(sec6_problem, eta_state, PresetDriver(bumped), 3)
        assert np.array_equal(e1.paths[:21], e2.paths[:21])
        assert not np.array_equal(e1.paths[21:], e2.paths[21:])

    def test_paths_independent_of_ensemble_size(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=10, n_steps=25)
        small = simulate_em(sec6_problem, eta_state, drv, 5)
        large = simulate_em(sec6_problem, eta_state, drv, 9)
        assert np.array_equal(small.paths, large.paths[:, :, :5])

    def test_threads_do_not_change_results(self, sec6_problem, eta_state,
                                           monkeypatch):
        # chunks of 12 paths (6 of each copy for the coupled pair, stepped in
        # one pass): 40 paths make four chunks or more, so the pool runs
        monkeypatch.setattr(solvers, "CHUNK_PATHS", 12)
        pools = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        # the chunk loop imports the pool class when a pool runs
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        drv = BrownianDriver(seed=10, n_steps=25)
        gamma = InitialState([3.5, 5.5])

        def ensembles(threads):
            mild = simulate_mild(sec6_problem, eta_state, drv, 40, threads=threads)
            return [simulate_em(sec6_problem, eta_state, drv, 40, threads=threads),
                    mild,
                    *coupled_pair(sec6_problem, eta_state, gamma, drv, 40,
                                  threads=threads),
                    picard_apply(sec6_problem, eta_state, mild, threads=threads)]

        serial = ensembles(1)
        assert pools == []
        threaded = ensembles(3)
        assert pools == [3] * 4
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.paths, b.paths)

    def test_blowup_flags_and_ensemble_error(self, eta_state):
        def explosive(t, x):
            return 1e160 * (np.abs(x) + 1.0)

        p = make_problem(drift=explosive, diffusion=zero_fn, lip_b=1e160,
                         lip_sigma=0.0)
        drv = BrownianDriver(seed=5, n_steps=30)
        with pytest.raises(EnsembleError):
            simulate_em(p, eta_state, drv, 10)


class TestSimulateMild:
    def test_matches_em_when_matrices_vanish(self, eta_state):
        # with A = B = 0 both schemes have the same lag weights; em applies
        # them as scalars and mild as dense blocks, so the sums agree to the
        # stepping core's per-step bound 1e-12 * max|x_n|, not bit for bit
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2)
        drv = BrownianDriver(seed=8, n_steps=60)
        em = simulate_em(p, eta_state, drv, 30)
        mild = simulate_mild(p, eta_state, drv, 30)
        scale = np.abs(mild.paths).max(axis=(1, 2))
        err = np.abs(em.paths - mild.paths).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * scale), (err / scale).max()

    def test_deterministic_multi_term_cross_check(self, eta_state):
        # B = 0 removes the undifferentiated linear term; the remaining
        # two-order deterministic system has the constant solution, which the
        # mild form reproduces exactly and the Volterra scheme approaches.
        p = make_problem(b_mat=ZERO2, drift=zero_fn, diffusion=zero_fn,
                         lip_b=0.0, lip_sigma=0.0)
        drv = BrownianDriver(seed=8, n_steps=1000)
        em = simulate_em(p, eta_state, drv, 1)
        mild = simulate_mild(p, eta_state, drv, 1)
        scale = np.abs(mild.paths).max()
        assert np.abs(em.paths - mild.paths).max() / scale < 5e-2

    def test_linear_system_mild_is_exact(self, eta_state):
        # b = sigma = 0: the mild scheme evaluates the variation-of-constants
        # solution; the Volterra scheme must converge to it as h -> 0
        p = make_problem(drift=zero_fn, diffusion=zero_fn, lip_b=0.0,
                         lip_sigma=0.0)
        errs = []
        for n in (200, 400, 800):
            drv = BrownianDriver(seed=8, n_steps=n)
            em = simulate_em(p, eta_state, drv, 1)
            mild = simulate_mild(p, eta_state, drv, 1)
            errs.append(np.abs(em.paths[-1, :, 0] - mild.paths[-1, :, 0]).max())
        assert errs[1] < errs[0] and errs[2] < errs[1]

    def test_sec6_mean_square_endpoint_agreement(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=12, n_steps=400)
        n_paths = 1500
        em = simulate_em(sec6_problem, eta_state, drv, n_paths)
        mild = simulate_mild(sec6_problem, eta_state, drv, n_paths)
        sq_em = np.sum(em.paths[-1] ** 2, axis=0)
        sq_mild = np.sum(mild.paths[-1] ** 2, axis=0)
        diff = sq_em - sq_mild
        se = diff.std(ddof=1) / math.sqrt(n_paths)
        budget = 0.05 * max(sq_em.mean(), sq_mild.mean())  # h = 1/400 headroom
        assert abs(diff.mean()) <= 3.0 * se + budget


class TestPicard:
    def test_constant_map_when_everything_vanishes(self, eta_state):
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=zero_fn,
                         diffusion=zero_fn, lip_b=0.0, lip_sigma=0.0)
        drv = BrownianDriver(seed=2, n_steps=40)
        y = constant_ensemble(p, InitialState([-1.0, 2.0]), drv, 6)
        y.paths += np.linspace(0, 3, y.paths.size).reshape(y.paths.shape)
        y.paths[0, 0] = -1.0
        y.paths[0, 1] = 2.0
        out = picard_apply(p, InitialState([-1.0, 2.0]), y)
        assert np.all(out.paths[:, 0] == -1.0)
        assert np.all(out.paths[:, 1] == 2.0)

    def test_mild_solution_is_exact_fixed_point(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=14, n_steps=80)
        star = simulate_mild(sec6_problem, eta_state, drv, 12)
        image = picard_apply(sec6_problem, eta_state, star)
        assert np.array_equal(image.paths, star.paths)

    def test_grid_mismatch_rejected(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=14, n_steps=16)
        y = simulate_mild(sec6_problem, eta_state, drv, 3)
        other = make_problem(horizon=2.0)
        with pytest.raises(ValidationError):
            picard_apply(other, eta_state, y)

    def test_initial_value_mismatch_rejected(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=14, n_steps=16)
        y = simulate_mild(sec6_problem, eta_state, drv, 3)
        with pytest.raises(ValidationError):
            picard_apply(sec6_problem, InitialState([0.0, 0.0]), y)

    def test_increments_mismatch_rejected(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=14, n_steps=16)
        y = constant_ensemble(sec6_problem, eta_state, drv, 3)
        short = dataclasses.replace(y, increments=y.increments[:-1])
        with pytest.raises(ValidationError,
                           match="ensemble increments do not match its grid"):
            picard_apply(sec6_problem, eta_state, short)


class TestConstantEnsemble:
    def test_frozen_paths_carry_driver_increments(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=2, n_steps=10)
        y = constant_ensemble(sec6_problem, eta_state, drv, 3)
        assert np.all(y.paths == eta_state.eta[:, None])
        assert np.array_equal(y.increments,
                              drv.increments_block(range(3), sec6_problem.horizon / 10))
        assert not y.flags.any()

    def test_zero_paths_rejected(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=2, n_steps=10)
        with pytest.raises(ValidationError, match="n_paths must be >= 1"):
            constant_ensemble(sec6_problem, eta_state, drv, 0)


    @pytest.mark.parametrize("n_paths", [2.0, True, np.float64(3.0)])
    def test_n_paths_not_an_integer_rejected(self, sec6_problem, eta_state,
                                             n_paths):
        # every route checks n_paths where it draws (_draw): 2.0 ended in a
        # raw TypeError, and True ran one path
        drv = BrownianDriver(seed=2, n_steps=10)
        for route in (simulate_em, constant_ensemble):
            with pytest.raises(ValidationError,
                               match="^n_paths must be an integer, got "):
                route(sec6_problem, eta_state, drv, n_paths)
        with pytest.raises(ValidationError, match="^n_paths must be an integer"):
            coupled_pair(sec6_problem, eta_state, eta_state, drv, n_paths)

    def test_numpy_integer_n_paths_accepted(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=2, n_steps=10)
        assert np.array_equal(
            simulate_mild(sec6_problem, eta_state, drv, np.int64(3)).paths,
            simulate_mild(sec6_problem, eta_state, drv, 3).paths)


class TestCoupledPair:
    def test_equal_initial_data_bit_identical(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=21, n_steps=50)
        e1, e2 = coupled_pair(sec6_problem, eta_state, eta_state, drv, 8)
        assert np.array_equal(e1.paths, e2.paths)
        assert np.array_equal(e1.increments, e2.increments)

    def test_constant_distance_for_trivial_dynamics(self):
        p = make_problem(a_mat=ZERO2, b_mat=ZERO2, drift=zero_fn,
                         diffusion=zero_fn, lip_b=0.0, lip_sigma=0.0)
        eta = InitialState([3.0, 5.0])
        gamma = InitialState([3.5, 5.5])
        drv = BrownianDriver(seed=21, n_steps=30)
        e1, e2 = coupled_pair(p, eta, gamma, drv, 4)
        dist = np.sum((e1.paths - e2.paths) ** 2, axis=1)
        assert np.all(dist == 0.5)

    def test_sec6_distance_positive(self, sec6_problem, eta_state):
        gamma = InitialState([3.5, 5.5])
        drv = BrownianDriver(seed=21, n_steps=100)
        e1, e2 = coupled_pair(sec6_problem, eta_state, gamma, drv, 2000)
        sq = np.sum((e1.paths - e2.paths) ** 2, axis=1)
        mean = sq.mean(axis=1)
        se = sq.std(axis=1, ddof=1) / math.sqrt(sq.shape[1])
        assert np.all(mean[1:] - 3.0 * se[1:] > 0)

    def test_noise_drawn_once_and_shared(self, sec6_problem, eta_state):
        drv = CountingDriver(seed=21, n_steps=20)
        gamma = InitialState([3.5, 5.5])
        e1, e2 = coupled_pair(sec6_problem, eta_state, gamma, drv, 6)
        assert drv.paths_drawn == 6
        assert np.shares_memory(e1.increments, e2.increments)

    def test_unknown_scheme(self, sec6_problem, eta_state):
        drv = BrownianDriver(seed=21, n_steps=10)
        with pytest.raises(ValidationError):
            coupled_pair(sec6_problem, eta_state, eta_state, drv, 2,
                         scheme="magic")


class TestConvergenceOrder:
    def test_deterministic_error_shrinks_with_richardson_reference(self, eta_state):
        p = make_problem(diffusion=zero_fn, lip_sigma=0.0)

        def endpoint(n):
            drv = BrownianDriver(seed=1, n_steps=n)
            return simulate_em(p, eta_state, drv, 1).paths[-1, :, 0]

        x_h, x_h2, x_h4 = endpoint(200), endpoint(400), endpoint(800)
        rate = np.log2(np.abs(x_h - x_h2).max() / np.abs(x_h2 - x_h4).max())
        reference = x_h4 + (x_h4 - x_h2) / (2 ** rate - 1.0)
        errs = [np.abs(x - reference).max() for x in (x_h, x_h2, x_h4)]
        assert errs[0] / errs[1] >= 1.3
        assert errs[1] / errs[2] >= 1.3
