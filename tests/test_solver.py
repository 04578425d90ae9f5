import time
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp

import mvcca.regularizers as rg
import mvcca.solver as solver
from mvcca.errors import NumericError
from mvcca.linalg import (SparseView, narrow_columns, spectral_norm_sq,
                          spmm_right)
from mvcca.solver import (EmptyViewError, RegularityError, SolverConfig,
                          SolverState, StepSizeError, dual_or_penalty_step,
                          grad_q, init_random, lagrangian_value,
                          primal_residual, run_pdd, run_subsolver,
                          step_size, update_g, update_q, validate_dimensions)
from mvcca.synth import SynthSpec, gen_shared_factor

from oracles import (fd_gradient, g_subproblem_objective, lagrangian_scalar,
                     materialize, random_stiefel, smooth_block_objective)


def random_views(rng, n_views, l_rows, k, max_cols=15):
    return [SparseView(rng.standard_normal(
        (l_rows, int(rng.integers(k + 2, max_cols + 1)))))
        for _ in range(n_views)]


def random_state(rng, n_views=3, l_rows=10, k=2, seed=0):
    views = random_views(rng, n_views, l_rows, k)
    state = init_random(views, k, seed)
    for i in range(n_views):
        state.q[i] = rng.standard_normal(state.q[i].shape)
        state.p[i] = spmm_right(views[i], state.q[i])
        state.y[i] = rng.standard_normal((l_rows, k))
    state.sigma_sq = solver._sigma_squares(state.views, seed)
    return state


def aligned_state(l_rows=6, k=2, n_views=2, seed=0):
    """All views the identity, all iterates at the same orthonormal point."""
    rng = np.random.default_rng(seed)
    g0 = random_stiefel(rng, l_rows, k, 1)[0]
    views = [SparseView(np.eye(l_rows)) for _ in range(n_views)]
    state = SolverState(views, [g0.copy() for _ in range(n_views)],
                        [g0.copy() for _ in range(n_views)],
                        [np.zeros((l_rows, k)) for _ in range(n_views)])
    state.sigma_sq = solver._sigma_squares(state.views, seed)
    return state


class TestValidateDimensions:
    def test_roomy_problem_ok(self):
        views = [SparseView(np.ones((100, 50))), SparseView(np.ones((100, 50)))]
        validate_dimensions(views, 5)

    def test_too_few_rows(self):
        views = [SparseView(np.ones((2, 50)))] * 2
        with pytest.raises(RegularityError, match="row count"):
            validate_dimensions(views, 5)

    def test_too_few_features(self):
        views = [SparseView(np.ones((100, 1))), SparseView(np.ones((100, 1)))]
        with pytest.raises(RegularityError, match="feature count"):
            validate_dimensions(views, 5)

    @pytest.mark.parametrize("n_views", [0, 1])
    def test_fewer_than_two_views(self, n_views):
        views = [SparseView(np.ones((100, 50)))] * n_views
        with pytest.raises(RegularityError,
                           match=f"SUMCOR needs >= 2 views, got {n_views}"):
            validate_dimensions(views, 5)

    def test_row_mismatch(self):
        views = [SparseView(np.ones((10, 5))), SparseView(np.ones((11, 5)))]
        with pytest.raises(ValueError, match="disagree"):
            validate_dimensions(views, 2)


class TestGradQ:
    def test_identity_instantiation(self):
        eye = np.eye(2)
        views = [SparseView(eye), SparseView(eye)]
        state = SolverState(views, [np.zeros((2, 2))] * 2, [eye.copy()] * 2,
                            [np.zeros((2, 2))] * 2, rho=1.0)
        np.testing.assert_array_equal(grad_q(0, state, sum(state.g)),
                                      -2.0 * eye)

    def test_stationary_feasible_point(self):
        state = aligned_state()
        np.testing.assert_allclose(grad_q(0, state, sum(state.g)), 0.0,
                                   atol=1e-14)

    def test_matches_finite_differences(self):
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 5))
            l_rows = int(rng.integers(8, 21))
            k = int(rng.integers(1, 4))
            state = random_state(rng, n, l_rows, k, seed=trial)
            dense = [materialize(v) for v in state.views]
            rho = state.rho = float(rng.uniform(0.5, 4.0))
            i = int(rng.integers(0, n))
            grad = grad_q(i, state, sum(state.g))
            fun = lambda q: smooth_block_objective(
                i, dense, state.q, state.g, state.y, rho, q)
            ref = fd_gradient(fun, state.q[i], h=1e-6)
            rel = np.linalg.norm(grad - ref) / max(np.linalg.norm(ref), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-5


class TestStepSize:
    def _state_with_sigma(self, sigmas, rho=1.0):
        rng = np.random.default_rng(0)
        views = random_views(rng, len(sigmas), 8, 2)
        state = init_random(views, 2, 0)
        state.sigma_sq = list(sigmas)
        state.rho = rho
        return state

    def test_direct_formula(self):
        state = self._state_with_sigma([1.0, 1.0])
        assert step_size(0, state) == pytest.approx(0.45)

    def test_direct_formula_three_views(self):
        state = self._state_with_sigma([4.0, 4.0, 4.0], rho=2.0)
        assert step_size(0, state) == pytest.approx(0.05625)

    def test_decreasing_in_rho(self):
        state = self._state_with_sigma([2.0, 2.0], rho=2.0)
        larger_rho = step_size(0, state)
        state.rho = 1.0
        assert larger_rho < step_size(0, state)

    def test_empty_view(self):
        state = self._state_with_sigma([0.0, 1.0])
        with pytest.raises(EmptyViewError, match="empty view"):
            step_size(0, state)

    def test_subnormal_sigma_overflows_step(self):
        # 0.9 / (2 * 1e-310) is past the largest double
        state = self._state_with_sigma([1e-310, 1.0])
        with pytest.raises(NumericError,
                           match="step size of view 0 overflows.*too small"):
            step_size(0, state)
        assert step_size(1, state) == pytest.approx(0.45)

    def test_sigma_not_cached(self):
        state = self._state_with_sigma([1.0, 1.0])
        state.sigma_sq = None
        with pytest.raises(RuntimeError, match="spectral norms not cached"):
            step_size(0, state)


class TestUpdateQ:
    def test_zero_gradient_fixed_point(self):
        rng = np.random.default_rng(0)
        state = random_state(rng)
        rho = state.rho = 2.0
        # choose the dual so the gradient aggregate cancels bitwise; it is
        # built in grad_q's order: (I-1+rho) P_0 - sum G + (1-rho) G_0
        n = state.num_views
        sum_g = state.g[0].copy()
        for g_j in state.g[1:]:
            sum_g += g_j
        agg = (n - 1 + rho) * state.p[0]
        agg -= sum_g
        agg += (1.0 - rho) * state.g[0]
        state.y[0] = -agg
        np.testing.assert_array_equal(grad_q(0, state, sum_g), 0.0)
        before = state.q[0].copy()
        update_q(0, state, rg.NONE, step_size(0, state), sum_g)
        np.testing.assert_array_equal(state.q[0], before)

    def test_huge_lambda_zeroes_factor(self):
        rng = np.random.default_rng(1)
        state = random_state(rng)
        update_q(0, state, rg.Regularizer("l1", lam=1e12),
                 step_size(0, state), sum(state.g))
        np.testing.assert_array_equal(state.q[0], np.zeros_like(state.q[0]))
        np.testing.assert_array_equal(state.p[0], np.zeros_like(state.p[0]))

    def test_plain_gradient_step_exact(self):
        rng = np.random.default_rng(2)
        state = random_state(rng)
        state.rho = 1.7
        alpha, sum_g = step_size(0, state), sum(state.g)
        expected = state.q[0] - alpha * grad_q(0, state, sum_g)
        update_q(0, state, rg.NONE, alpha, sum_g)
        np.testing.assert_array_equal(state.q[0], expected)

    def test_nonfinite_dual_rejected(self):
        rng = np.random.default_rng(4)
        state = random_state(rng)
        state.y[0][1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            update_q(0, state, rg.NONE, step_size(0, state), sum(state.g))

    def test_refreshes_product_cache(self):
        rng = np.random.default_rng(3)
        state = random_state(rng)
        update_q(1, state, rg.NONE, step_size(1, state), sum(state.g))
        np.testing.assert_allclose(
            state.p[1], spmm_right(state.views[1], state.q[1]), atol=1e-14)


class TestUpdateG:
    def test_aligned_point_is_fixed(self):
        state = aligned_state()
        g0 = state.g[0].copy()
        state.rho = 1.0
        update_g(0, state, sum(state.p))
        np.testing.assert_allclose(state.g[0], g0, atol=1e-10)

    def test_diagonal_aggregate(self):
        rng = np.random.default_rng(4)
        views = [SparseView(rng.standard_normal((3, 4))) for _ in range(2)]
        state = SolverState(views, [np.zeros((4, 2))] * 2,
                            [random_stiefel(rng, 3, 2, 1)[0]] * 2,
                            [np.zeros((3, 2))] * 2, rho=1.0)
        state.p = [np.zeros((3, 2)), np.zeros((3, 2))]
        state.y[0] = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        update_g(0, state, sum(state.p))
        np.testing.assert_allclose(
            state.g[0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_beats_random_stiefel_candidates(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, n_views=3, l_rows=9, k=2)
        rho = state.rho = 2.0
        update_g(1, state, sum(state.p))
        ours = g_subproblem_objective(1, state.p, state.y, rho, state.g[1])
        candidates = random_stiefel(rng, 9, 2, 2000)
        for cand in candidates:
            assert ours <= g_subproblem_objective(
                1, state.p, state.y, rho, cand) + 1e-9

    def test_orthonormal_after_update(self):
        rng = np.random.default_rng(6)
        state = random_state(rng)
        update_g(0, state, sum(state.p))
        k = state.k
        assert np.linalg.norm(state.g[0].T @ state.g[0] - np.eye(k)) <= 1e-8
        # unit columns: the latent block never contains a zero column
        np.testing.assert_allclose(
            np.linalg.norm(state.g[0], axis=0), 1.0, atol=1e-8)


class TestPrimalResidual:
    def test_feasible_point(self):
        state = aligned_state()
        assert primal_residual(state) == 0.0

    def test_single_view_ones(self):
        rng = np.random.default_rng(7)
        views = [SparseView(rng.standard_normal((2, 3)))]
        state = SolverState(views, [np.zeros((3, 2))],
                            [np.zeros((2, 2))], [np.zeros((2, 2))])
        state.p = [np.ones((2, 2))]
        assert primal_residual(state) == pytest.approx(4.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        state = random_state(rng)
        ref = 0.0
        for p_i, g_i in zip(state.p, state.g):
            for a in range(p_i.shape[0]):
                for b in range(p_i.shape[1]):
                    ref += (p_i[a, b] - g_i[a, b]) ** 2
        assert abs(primal_residual(state) - ref) <= 1e-12 * max(1.0, ref)


class TestDualOrPenaltyStep:
    def test_dual_step_on_success(self):
        state = aligned_state()
        state.rho = 2.0
        bump = np.full_like(state.p[0], 0.25)
        state.p = [p + bump for p in state.p]
        res = primal_residual(state)
        took_dual = dual_or_penalty_step(state, res, eta_r=res + 1.0)
        assert took_dual
        assert state.rho == 2.0
        np.testing.assert_allclose(state.y[0], 2.0 * bump)

    def test_penalty_step_on_failure(self):
        state = aligned_state()
        state.rho = 2.0
        y_before = [y.copy() for y in state.y]
        took_dual = dual_or_penalty_step(state, 5.0, eta_r=1.0)
        assert not took_dual
        assert state.rho == pytest.approx(2.0 / solver.C)
        for y_old, y_new in zip(y_before, state.y):
            np.testing.assert_array_equal(y_old, y_new)

    def test_boundary_counts_as_success(self):
        state = aligned_state()
        state.rho = 3.0
        assert dual_or_penalty_step(state, 1.0, eta_r=1.0)
        assert state.rho == 3.0


class TestRunSubsolver:
    def test_fixed_point_terminates_first_sweep(self):
        state = aligned_state()
        q_before = [q.copy() for q in state.q]
        sweeps = run_subsolver(state, eps_r=1e-12, max_sweeps=10)
        assert sweeps == 1
        for q_old, q_new in zip(q_before, state.q):
            np.testing.assert_allclose(q_old, q_new, atol=1e-10)

    def test_sweep_cap_respected(self):
        rng = np.random.default_rng(9)
        state = random_state(rng)
        sweeps = run_subsolver(state, eps_r=1e-300, max_sweeps=5)
        assert sweeps == 5

    @pytest.mark.parametrize("regs", [
        None, rg.Regularizer("l1", lam=0.3), rg.Regularizer("l21", lam=0.3)],
        ids=["none", "l1", "l21"])
    def test_lagrangian_monotone_over_sweeps(self, regs):
        rng = np.random.default_rng(10)
        state = random_state(rng)
        prev = lagrangian_value(state, regs)
        for _ in range(50):
            run_subsolver(state, eps_r=1e-300, max_sweeps=1, regs=regs)
            cur = lagrangian_value(state, regs)
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))
            prev = cur

    @pytest.mark.parametrize("fresh", [False, True], ids=["random", "start"])
    def test_move_is_largest_block_change(self, fresh):
        # from a random state some Q_i moves most; from the seeded start,
        # where every Q_i is zero, some G_i does
        state = random_state(np.random.default_rng(16))
        if fresh:
            state = init_random(state.views, state.k, seed=1)
            state.sigma_sq = solver._sigma_squares(state.views, 0)
        before = [a.copy() for a in state.q + state.g]
        run_subsolver(state, eps_r=1e-300, max_sweeps=1)
        blocks = zip(state.q + state.g, before)
        assert state.moved == max(float(np.max(np.abs(new - old)))
                                  for new, old in blocks)

    def test_oversized_step_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "SAFETY", 100.0)
        rng = np.random.default_rng(11)
        state = random_state(rng)
        with pytest.raises(StepSizeError, match="step size violation"):
            run_subsolver(state, eps_r=1e-300, max_sweeps=10)

    def test_accuracy_must_be_positive(self):
        state = aligned_state()
        with pytest.raises(ValueError, match="eps_r must be > 0"):
            run_subsolver(state, eps_r=0.0, max_sweeps=1)


class TestRunPdd:
    def _aligned_views(self, seed=0, l_rows=12, m_cols=8):
        rng = np.random.default_rng(seed)
        x = np.linalg.qr(rng.standard_normal((l_rows, m_cols)))[0]
        return [SparseView(x), SparseView(x)]

    def test_aligned_views_reach_ideal(self):
        views = self._aligned_views()
        cfg = SolverConfig(k=3, outer_max=50, seed=1)
        state, trace = run_pdd(views, cfg)
        raw = trace.rows[-1].total_correlation
        assert abs(raw - 2 * 3) <= 1e-4
        assert len(trace) <= 51

    def test_rho_nondecreasing(self):
        views = self._aligned_views(seed=2)
        cfg = SolverConfig(k=2, outer_max=40, seed=3)
        _, trace = run_pdd(views, cfg)
        rho = trace.column("rho")
        assert np.all(np.diff(rho) >= 0)

    def test_deterministic_given_seed(self):
        views = self._aligned_views(seed=4)
        cfg = SolverConfig(k=2, outer_max=15, seed=5, virtual_clock=True)
        state1, trace1 = run_pdd(views, cfg)
        state2, trace2 = run_pdd(views, cfg)
        for name in ("rho", "primal_residual", "lagrangian",
                     "total_correlation", "seconds"):
            np.testing.assert_array_equal(trace1.column(name),
                                          trace2.column(name))
        for a, b in zip(state1.q, state2.q):
            np.testing.assert_array_equal(a, b)

    def test_trace_clock_covers_spectral_norms(self, monkeypatch):
        def slow_norm(*args):
            time.sleep(0.05)
            return spectral_norm_sq(*args)

        monkeypatch.setattr("mvcca.solver.spectral_norm_sq", slow_norm)
        views = self._aligned_views(seed=12)
        _, trace = run_pdd(views, SolverConfig(k=2, outer_max=1, seed=0))
        assert trace.rows[0].seconds >= 0.05 * len(views)

    def test_long_solve_outlives_eps_underflow(self, monkeypatch):
        # TOL_CHANGE = 0 keeps the solve going past r = 108, where
        # 1e-2 * 1e-3**r underflows to 0.0
        monkeypatch.setattr(solver, "EPS_DECAY", 1e-3)
        monkeypatch.setattr(solver, "TOL_CHANGE", 0.0)
        views = self._aligned_views(seed=13)
        cfg = SolverConfig(k=2, outer_max=200, seed=1)
        _, trace = run_pdd(views, cfg)
        assert len(trace) == 201

    def test_one_objective_per_row_and_sweep(self, monkeypatch):
        calls = {"objective": 0, "sweeps": 0}

        def counted_objective(*args, **kwargs):
            calls["objective"] += 1
            return lagrangian_value(*args, **kwargs)

        def counted_subsolver(*args, **kwargs):
            sweeps = run_subsolver(*args, **kwargs)
            calls["sweeps"] += sweeps
            return sweeps

        monkeypatch.setattr("mvcca.solver.lagrangian_value",
                            counted_objective)
        monkeypatch.setattr("mvcca.solver.run_subsolver", counted_subsolver)
        views = self._aligned_views(seed=14)
        _, trace = run_pdd(views, SolverConfig(k=2, outer_max=12, seed=1),
                           regs=rg.Regularizer("l1", lam=0.1))
        assert calls["sweeps"] > len(trace) - 1
        assert calls["objective"] == len(trace) + calls["sweeps"]

    @staticmethod
    def _record_subsolves(monkeypatch):
        """Log (sweeps, move) of every sub-solve run_pdd makes."""
        calls = []

        def recorded(state, *args, **kwargs):
            sweeps = run_subsolver(state, *args, **kwargs)
            calls.append((sweeps, state.moved))
            return sweeps

        monkeypatch.setattr("mvcca.solver.run_subsolver", recorded)
        return calls

    def test_stops_after_one_sweep_move(self, monkeypatch):
        calls = self._record_subsolves(monkeypatch)
        views = self._aligned_views()
        cfg = SolverConfig(k=3, outer_max=50, seed=1)
        _, trace = run_pdd(views, cfg)
        assert len(trace) - 1 == len(calls) < cfg.outer_max
        sweeps, moved = calls[-1]
        assert sweeps == 1 and moved <= solver.TOL_CHANGE
        assert trace.rows[-1].primal_residual <= solver.TOL_FEAS * 12 * 3

    def test_multi_sweep_subsolves_never_stop(self, monkeypatch):
        # EPS0 = 1e-300 holds every sub-solve to its cap, so the stop
        # test, which needs a one-sweep sub-solve, fails even with both
        # tolerances infinite
        monkeypatch.setattr(solver, "EPS0", 1e-300)
        monkeypatch.setattr(solver, "TOL_FEAS", np.inf)
        monkeypatch.setattr(solver, "TOL_CHANGE", np.inf)
        calls = self._record_subsolves(monkeypatch)
        rng = np.random.default_rng(17)
        views = random_views(rng, 3, 12, 2)
        cfg = SolverConfig(k=2, sub_max_sweeps=2, outer_max=6, seed=1)
        _, trace = run_pdd(views, cfg)
        assert [sweeps for sweeps, _ in calls] == [2] * 6
        assert len(trace) == 7

    def test_orthonormal_latents_throughout(self):
        views = self._aligned_views(seed=10)
        state, _ = run_pdd(views, SolverConfig(k=3, outer_max=10, seed=11))
        for g in state.g:
            assert np.linalg.norm(g.T @ g - np.eye(3)) <= 1e-8


def gappy_views(seed, n_views=3, l_rows=40, m_cols=25, n_empty=6):
    """Sparse Gaussian views, each with a few columns that store nothing."""
    rng = np.random.default_rng(seed)
    views = []
    for _ in range(n_views):
        x = rng.standard_normal((l_rows, m_cols))
        x[rng.random(x.shape) > 0.2] = 0.0
        x[:, rng.choice(m_cols, n_empty, replace=False)] = 0.0
        views.append(SparseView(x))
    return views


def data_less_columns(view):
    return np.flatnonzero(np.bincount(view.raw.indices,
                                      minlength=view.shape[1]) == 0)


def with_explicit_zeros(view):
    """The view with an explicit 0.0 stored in every column that held
    nothing, so narrowing keeps every column of it."""
    empty = data_less_columns(view)
    coo = view.raw.tocoo()
    full = SparseView(sp.coo_matrix(
        (np.append(coo.data, np.zeros(empty.size)),
         (np.append(coo.row, np.zeros(empty.size, dtype=int)),
          np.append(coo.col, empty))), shape=view.shape))
    assert full.nnz == view.nnz + empty.size
    return full


def assert_same_solve(got, want):
    """Bitwise equal iterates and trace, apart from round-off in the
    penalty sums of the trace's objective."""
    (state, trace), (ref_state, ref_trace) = got, want
    for name in ("q", "g", "y", "p"):
        for a, b in zip(getattr(state, name), getattr(ref_state, name)):
            np.testing.assert_array_equal(a, b)
    for name in ("rho", "primal_residual", "total_correlation"):
        np.testing.assert_array_equal(trace.column(name),
                                      ref_trace.column(name))
    np.testing.assert_allclose(trace.column("lagrangian"),
                               ref_trace.column("lagrangian"),
                               rtol=1e-12, atol=0.0)


class TestDataLessColumns:
    """run_pdd sweeps only the columns whose Q_i rows can move."""

    CFG = SolverConfig(k=2, outer_max=12, seed=3, virtual_clock=True)

    @staticmethod
    def _reg(kind):
        return rg.Regularizer(kind, lam=0.05, mu=0.1)

    # the tall views stay tall; the wide views narrow to fewer columns
    # than rows, and the wider ones keep more columns than rows
    @pytest.mark.parametrize("shape", [(40, 25, 6), (20, 30, 12),
                                       (20, 60, 20)],
                             ids=["tall", "wide", "wide_after_narrowing"])
    @pytest.mark.parametrize("kind", rg.KINDS)
    def test_matches_full_width_solve(self, kind, shape):
        # both solves narrow their views; the oracle stores an entry in
        # every column, so it keeps them all and sweeps at full width
        views = gappy_views(20, 3, *shape)
        oracle = [with_explicit_zeros(v) for v in views]
        assert_same_solve(run_pdd(views, self.CFG, self._reg(kind)),
                          run_pdd(oracle, self.CFG, self._reg(kind)))

    def test_sweeps_see_only_data_columns(self, monkeypatch):
        widths = []

        def recorded(state, *args, **kwargs):
            widths.append([v.shape[1] for v in state.views])
            return run_subsolver(state, *args, **kwargs)

        monkeypatch.setattr("mvcca.solver.run_subsolver", recorded)
        views = gappy_views(23)
        run_pdd(views, self.CFG)
        data_cols = [v.shape[1] - data_less_columns(v).size for v in views]
        assert widths == [data_cols] * self.CFG.outer_max

    def test_no_product_with_a_full_width_factor(self, monkeypatch):
        # the start state, P_i = X_i Q_i included, is built on the
        # narrowed views
        widths = []

        def recorded(view, dense):
            widths.append(dense.shape[0])
            return spmm_right(view, dense)

        monkeypatch.setattr("mvcca.solver.spmm_right", recorded)
        views = gappy_views(27)
        run_pdd(views, self.CFG)
        data_cols = {v.shape[1] - data_less_columns(v).size for v in views}
        assert widths and set(widths) <= data_cols

    def test_sigma_once_per_caller_view(self, monkeypatch):
        # views that stay wide after narrowing and views that do not both
        # go to Lanczos as the caller passed them, once each
        views = gappy_views(28, 2, 20, 60, 20) + gappy_views(29, 1, 20, 30,
                                                             12)
        want = solver._sigma_squares(views, self.CFG.seed)
        seen = []

        def recorded(view, seed=0):
            seen.append(view)
            return spectral_norm_sq(view, seed)

        monkeypatch.setattr("mvcca.solver.spectral_norm_sq", recorded)
        state, _ = run_pdd(views, self.CFG)
        data_cols = [v.shape[1] - data_less_columns(v).size for v in views]
        assert data_cols[0] > 20 and data_cols[2] < 20
        assert len(seen) == len(views)
        assert all(got is view for got, view in zip(seen, views))
        assert state.sigma_sq == want

    def test_views_with_data_in_every_column_narrowed(self, monkeypatch):
        calls = []

        def counted(view):
            narrowed, cols = narrow_columns(view)
            calls.append(cols.size == view.shape[1])
            return narrowed, cols

        monkeypatch.setattr("mvcca.solver.narrow_columns", counted)
        rng = np.random.default_rng(26)
        views = random_views(rng, 3, 12, 2)
        state, _ = run_pdd(views, self.CFG)
        assert calls == [True] * len(views)
        for view, q in zip(views, state.q):
            assert q.shape == (view.shape[1], 2)

    def test_returned_state_on_callers_views(self):
        views = gappy_views(24)
        state, _ = run_pdd(views, self.CFG, self._reg("l21"))
        for i, view in enumerate(views):
            assert state.views[i] is view
            assert state.q[i].shape == (view.shape[1], 2)
            dropped = state.q[i][data_less_columns(view)]
            assert np.all(dropped == 0.0) and not np.any(np.signbit(dropped))
            np.testing.assert_array_equal(state.p[i],
                                          spmm_right(view, state.q[i]))

    @pytest.mark.parametrize("stored", [0, 3], ids=["none", "zeros"])
    def test_empty_view_still_rejected(self, stored):
        views = gappy_views(25)
        empty = sp.coo_matrix((np.zeros(stored), (np.arange(stored),
                                                   np.arange(stored))),
                              shape=views[0].shape)
        views[1] = SparseView(empty)
        with pytest.raises(EmptyViewError, match="empty view"):
            run_pdd(views, self.CFG)

    def test_no_data_in_any_view(self):
        # every view narrows to no column, so the mean feature count is 0
        views = [SparseView(sp.csr_matrix((40, 25))) for _ in range(2)]
        with pytest.raises(RegularityError, match="mean feature count 0 "):
            run_pdd(views, self.CFG)

    def test_regularity_counts_data_columns(self):
        # 100 columns each, but the sweeps see only the 2 that hold data
        rng = np.random.default_rng(30)
        views = []
        for _ in range(2):
            x = np.zeros((30, 100))
            x[:, [7, 42]] = rng.standard_normal((30, 2))
            views.append(SparseView(x))
        with pytest.raises(RegularityError,
                           match=r"mean feature count 2 < \(K\+1\)/2 = 3"):
            run_pdd(views, replace(self.CFG, k=5))


class TestViewScale:
    # three 400 x 30 views scaled by s: the extremes of scale that still
    # solve; past them test_cli.DEGENERATE_SOLVES pins the exit 3 messages
    @pytest.mark.parametrize("s", [1e-155, 1e150])
    def test_solves(self, s):
        views = gen_shared_factor(SynthSpec(rows=400, features=30, views=3,
                                            components=3, density=0.1,
                                            seed=1))
        state, _ = run_pdd([SparseView(v.raw * s) for v in views],
                           SolverConfig(k=3, outer_max=5, seed=1))
        assert all(np.all(np.isfinite(q)) for q in state.q)


# the fixed-penalty ADMM baseline: one sweep and a dual step per cycle
ADMM = dict(sub_max_sweeps=1, eta0=np.inf)


class TestRunAdmm:
    def test_aligned_views_converge(self):
        rng = np.random.default_rng(12)
        x = np.linalg.qr(rng.standard_normal((12, 8)))[0]
        views = [SparseView(x), SparseView(x)]
        cfg = SolverConfig(k=3, outer_max=120, seed=13, **ADMM)
        state, trace = run_pdd(views, cfg)
        assert trace.rows[-1].total_correlation >= 2 * 3 * 0.999

    def test_first_iteration_matches_pdd(self):
        rng = np.random.default_rng(14)
        views = [SparseView(rng.standard_normal((10, 7))) for _ in range(3)]
        cfg = SolverConfig(k=2, outer_max=1, sub_max_sweeps=1, seed=15)
        state_p, _ = run_pdd(views, cfg)
        state_a, _ = run_pdd(views, replace(cfg, **ADMM))
        for a, b in zip(state_p.q, state_a.q):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(state_p.g, state_a.g):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(state_p.y, state_a.y):
            np.testing.assert_array_equal(a, b)

    def test_descent_checked(self, monkeypatch):
        monkeypatch.setattr(solver, "SAFETY", 200.0)
        rng = np.random.default_rng(14)
        views = [SparseView(rng.standard_normal((10, 7))) for _ in range(3)]
        cfg = SolverConfig(k=2, outer_max=5, seed=15, **ADMM)
        with pytest.raises(StepSizeError, match="step size violation"):
            run_pdd(views, cfg)

    def test_trace_recorded(self):
        rng = np.random.default_rng(16)
        views = [SparseView(rng.standard_normal((10, 7))) for _ in range(2)]
        cfg = SolverConfig(k=2, outer_max=8, seed=17, **ADMM)
        _, trace = run_pdd(views, cfg)
        assert len(trace) == 9
        rho = trace.column("rho")
        np.testing.assert_array_equal(rho, np.full(9, solver.RHO0))


class TestLagrangianValue:
    def test_feasible_aligned_is_zero(self):
        state = aligned_state()
        # a new state's rho is RHO0, never the 0 that y / rho would
        # divide by
        assert state.rho == solver.RHO0
        assert lagrangian_value(state, None) == pytest.approx(0.0)

    def test_single_nonzero_coupling(self):
        # slacks zero, X1 Q1 - G2 = ones; the mirror term G1 - X2 Q2 is
        # then forced to -ones, so both ordered pairs contribute 1/2 * 4
        rng = np.random.default_rng(18)
        views = [SparseView(rng.standard_normal((2, 3))) for _ in range(2)]
        a = rng.standard_normal((2, 2))
        state = SolverState(views, [np.zeros((3, 2))] * 2,
                            [a, a - 1.0], [np.zeros((2, 2))] * 2)
        state.p = [a.copy(), a.copy() - 1.0]
        assert lagrangian_value(state, None) == pytest.approx(4.0)

    @pytest.mark.parametrize("n_views", [2, 3, 10])
    def test_matches_scalar_oracle(self, n_views):
        rng = np.random.default_rng(19)
        state = random_state(rng, n_views=n_views)
        # the Gram identities must not lean on orthonormal latents
        state.g = [rng.standard_normal(g.shape) for g in state.g]
        regs = [rg.Regularizer("l1" if i % 2 else "l21", lam=0.4)
                for i in range(n_views)]

        # the descended functional carries the penalties at half weight
        def penalty(i, q):
            if regs[i].kind == "l1":
                return 0.5 * regs[i].lam * float(np.abs(q).sum())
            return 0.5 * regs[i].lam * float(
                np.sqrt((q * q).sum(axis=1)).sum())

        ref = lagrangian_scalar(state.p, state.g, state.q, state.y, 2.0,
                                penalty)
        assert abs(lagrangian_value(state, regs) - ref) \
            <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("n_views", [2, 3, 10])
    @pytest.mark.parametrize("kind", rg.KINDS)
    def test_sweep_coupling_matches_standalone(self, monkeypatch, kind,
                                               n_views):
        # a sweep's value takes sum_i <G_i, A_i> from the G updates; the
        # standalone value forms it from the blocks of the same state
        state = random_state(np.random.default_rng(21), n_views=n_views)
        state.rho = 1.7
        reg = rg.Regularizer(kind, lam=0.3, mu=0.2)
        values = []

        def recorded(*args, **kwargs):
            values.append((args, lagrangian_value(*args, **kwargs)))
            return values[-1][1]

        monkeypatch.setattr(solver, "lagrangian_value", recorded)
        run_subsolver(state, eps_r=1e-300, max_sweeps=1, regs=reg)
        (entry_args, _), (sweep_args, sweep) = values
        assert len(entry_args) == 2 and sweep_args[2] is not None
        ref = lagrangian_value(state, reg)
        assert abs(sweep - ref) <= 1e-12 * abs(ref)

    def test_regularizer_count_checked(self):
        state = random_state(np.random.default_rng(19), n_views=3)
        with pytest.raises(ValueError,
                           match="got 2 regularizers for 3 views"):
            lagrangian_value(state, [rg.NONE] * 2)


class TestInitRandom:
    def test_orthonormal_latents(self):
        rng = np.random.default_rng(20)
        views = random_views(rng, 3, 9, 2)
        state = init_random(views, 2, seed=21)
        for g in state.g:
            assert np.linalg.norm(g.T @ g - np.eye(2)) <= 1e-10

    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(22)
        views = random_views(rng, 2, 8, 2)
        s1 = init_random(views, 2, seed=23)
        s2 = init_random(views, 2, seed=23)
        for a, b in zip(s1.g, s2.g):
            np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(24)
        views = random_views(rng, 2, 8, 2)
        s1 = init_random(views, 2, seed=25)
        s2 = init_random(views, 2, seed=26)
        assert not np.array_equal(s1.g[0], s2.g[0])

    def test_factors_and_duals_zero(self):
        rng = np.random.default_rng(27)
        views = random_views(rng, 2, 8, 2)
        state = init_random(views, 2, seed=28)
        for q in state.q:
            np.testing.assert_array_equal(q, np.zeros_like(q))
        for y in state.y:
            np.testing.assert_array_equal(y, np.zeros_like(y))


class TestSolverConfig:
    def test_schedules(self):
        cfg = SolverConfig(k=2)
        assert cfg.eta(4) == pytest.approx(25.0)
        assert cfg.eps(2) == pytest.approx(1e-2 * 0.81)

    def test_fields(self):
        # the PDD constants and stop tolerances are module constants
        assert [f.name for f in fields(SolverConfig)] == [
            "k", "eta0", "sub_max_sweeps", "outer_max", "seed",
            "virtual_clock"]

    def test_eps_never_underflows(self):
        assert SolverConfig(k=2).eps(7100) > 0.0

    def test_validation(self):
        nan, inf = float("nan"), float("inf")
        bad = [dict(k=0), dict(eta0=0.0), dict(eta0=nan), dict(seed=-1),
               dict(sub_max_sweeps=0), dict(outer_max=0)]
        for kwargs in bad:
            with pytest.raises(ValueError):
                SolverConfig(**{"k": 2, **kwargs})
        # the ADMM baseline's infinite feasibility schedule stays valid
        assert SolverConfig(k=2, eta0=inf).eta(3) == inf
