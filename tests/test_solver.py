import time
from dataclasses import replace

import numpy as np
import pytest

import mvcca.regularizers as rg
from mvcca.linalg import SparseView, spectral_norm_sq, spmm_right
from mvcca.solver import (EmptyViewError, RegularityError, SolverConfig,
                          SolverState, StepSizeError, dual_or_penalty_step,
                          grad_q, init_random, lagrangian_value,
                          primal_residual, run_pdd, run_subsolver,
                          step_size, update_g, update_q, validate_dimensions)

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
    state.ensure_sigma(seed)
    return state


def aligned_state(l_rows=6, k=2, n_views=2, seed=0):
    """All views the identity, all iterates at the same orthonormal point."""
    rng = np.random.default_rng(seed)
    g0 = random_stiefel(rng, l_rows, k, 1)[0]
    views = [SparseView(np.eye(l_rows)) for _ in range(n_views)]
    state = SolverState(views, [g0.copy() for _ in range(n_views)],
                        [g0.copy() for _ in range(n_views)],
                        [np.zeros((l_rows, k)) for _ in range(n_views)])
    state.ensure_sigma(seed)
    return state


class TestValidateDimensions:
    def test_roomy_problem_ok(self):
        views = [SparseView(np.ones((100, 50))), SparseView(np.ones((100, 50)))]
        validate_dimensions(views, 5)

    def test_too_few_rows(self):
        views = [SparseView(np.ones((2, 50)))]
        with pytest.raises(RegularityError, match="row count"):
            validate_dimensions(views, 5)

    def test_too_few_features(self):
        views = [SparseView(np.ones((100, 1))), SparseView(np.ones((100, 1)))]
        with pytest.raises(RegularityError, match="feature count"):
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
                            [np.zeros((2, 2))] * 2)
        np.testing.assert_array_equal(grad_q(0, state, 1.0), -2.0 * eye)

    def test_stationary_feasible_point(self):
        state = aligned_state()
        np.testing.assert_allclose(grad_q(0, state, 2.0), 0.0, atol=1e-14)

    def test_matches_finite_differences(self):
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 5))
            l_rows = int(rng.integers(8, 21))
            k = int(rng.integers(1, 4))
            state = random_state(rng, n, l_rows, k, seed=trial)
            dense = [materialize(v) for v in state.views]
            rho = float(rng.uniform(0.5, 4.0))
            i = int(rng.integers(0, n))
            grad = grad_q(i, state, rho)
            fun = lambda q: smooth_block_objective(
                i, dense, state.q, state.g, state.y, rho, q)
            ref = fd_gradient(fun, state.q[i], h=1e-6)
            rel = np.linalg.norm(grad - ref) / max(np.linalg.norm(ref), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-5


class TestStepSize:
    def _state_with_sigma(self, sigmas):
        rng = np.random.default_rng(0)
        views = random_views(rng, len(sigmas), 8, 2)
        state = init_random(views, 2, 0)
        state.sigma_sq = list(sigmas)
        return state

    def test_direct_formula(self):
        state = self._state_with_sigma([1.0, 1.0])
        assert step_size(0, state, rho=1.0) == pytest.approx(0.45)

    def test_direct_formula_three_views(self):
        state = self._state_with_sigma([4.0, 4.0, 4.0])
        assert step_size(0, state, rho=2.0) == pytest.approx(0.05625)

    def test_decreasing_in_rho(self):
        state = self._state_with_sigma([2.0, 2.0])
        assert step_size(0, state, 2.0) < step_size(0, state, 1.0)

    def test_empty_view(self):
        state = self._state_with_sigma([0.0, 1.0])
        with pytest.raises(EmptyViewError, match="empty view"):
            step_size(0, state, 1.0)


class TestUpdateQ:
    def test_zero_gradient_fixed_point(self):
        rng = np.random.default_rng(0)
        state = random_state(rng)
        rho = 2.0
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
        np.testing.assert_array_equal(grad_q(0, state, rho), 0.0)
        before = state.q[0].copy()
        update_q(0, state, rho=rho, reg=rg.NONE)
        np.testing.assert_array_equal(state.q[0], before)

    def test_huge_lambda_zeroes_factor(self):
        rng = np.random.default_rng(1)
        state = random_state(rng)
        update_q(0, state, rho=2.0, reg=rg.Regularizer("l1", lam=1e12))
        np.testing.assert_array_equal(state.q[0], np.zeros_like(state.q[0]))
        np.testing.assert_array_equal(state.p[0], np.zeros_like(state.p[0]))

    def test_plain_gradient_step_exact(self):
        rng = np.random.default_rng(2)
        state = random_state(rng)
        rho = 1.7
        alpha = step_size(0, state, rho)
        expected = state.q[0] - alpha * grad_q(0, state, rho)
        update_q(0, state, rho, rg.NONE)
        np.testing.assert_array_equal(state.q[0], expected)

    def test_refreshes_product_cache(self):
        rng = np.random.default_rng(3)
        state = random_state(rng)
        update_q(1, state, 2.0, rg.NONE)
        np.testing.assert_allclose(
            state.p[1], spmm_right(state.views[1], state.q[1]), atol=1e-14)


class TestUpdateG:
    def test_aligned_point_is_fixed(self):
        state = aligned_state()
        g0 = state.g[0].copy()
        update_g(0, state, rho=1.0)
        np.testing.assert_allclose(state.g[0], g0, atol=1e-10)

    def test_diagonal_aggregate(self):
        rng = np.random.default_rng(4)
        views = [SparseView(rng.standard_normal((3, 4))) for _ in range(2)]
        state = SolverState(views, [np.zeros((4, 2))] * 2,
                            [random_stiefel(rng, 3, 2, 1)[0]] * 2,
                            [np.zeros((3, 2))] * 2)
        state.p = [np.zeros((3, 2)), np.zeros((3, 2))]
        state.y[0] = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        update_g(0, state, rho=1.0)
        np.testing.assert_allclose(
            state.g[0], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_beats_random_stiefel_candidates(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, n_views=3, l_rows=9, k=2)
        rho = 2.0
        update_g(1, state, rho)
        ours = g_subproblem_objective(1, state.p, state.y, rho, state.g[1])
        candidates = random_stiefel(rng, 9, 2, 2000)
        for cand in candidates:
            assert ours <= g_subproblem_objective(
                1, state.p, state.y, rho, cand) + 1e-9

    def test_orthonormal_after_update(self):
        rng = np.random.default_rng(6)
        state = random_state(rng)
        update_g(0, state, 2.0)
        k = state.k
        assert np.linalg.norm(state.g[0].T @ state.g[0] - np.eye(k)) <= 1e-8
        # unit columns: the latent block never contains a zero column
        np.testing.assert_allclose(
            np.linalg.norm(state.g[0], axis=0), 1.0, atol=1e-8)


class TestPassTotals:
    def test_given_totals_match_formed_ones(self):
        rng = np.random.default_rng(29)
        state = random_state(rng, n_views=4, l_rows=12, k=3)
        rho = 1.3
        sum_g = state.g[0] + state.g[1] + state.g[2] + state.g[3]
        sum_p = state.p[0] + state.p[1] + state.p[2] + state.p[3]
        for i in range(state.num_views):
            np.testing.assert_allclose(grad_q(i, state, rho, sum_g),
                                       grad_q(i, state, rho),
                                       rtol=0, atol=1e-12)
        for i in range(state.num_views):
            with_total = update_g(i, state.copy(), rho, sum_p)
            np.testing.assert_allclose(with_total, update_g(i, state, rho),
                                       rtol=0, atol=1e-12)


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
        took_dual = dual_or_penalty_step(state, res, eta_r=res + 1.0, c=0.9)
        assert took_dual
        assert state.rho == 2.0
        np.testing.assert_allclose(state.y[0], 2.0 * bump)

    def test_penalty_step_on_failure(self):
        state = aligned_state()
        state.rho = 2.0
        y_before = [y.copy() for y in state.y]
        took_dual = dual_or_penalty_step(state, 5.0, eta_r=1.0, c=0.9)
        assert not took_dual
        assert state.rho == pytest.approx(2.0 / 0.9)
        for y_old, y_new in zip(y_before, state.y):
            np.testing.assert_array_equal(y_old, y_new)

    def test_boundary_counts_as_success(self):
        state = aligned_state()
        state.rho = 3.0
        assert dual_or_penalty_step(state, 1.0, eta_r=1.0, c=0.9)
        assert state.rho == 3.0


class TestRunSubsolver:
    def test_fixed_point_terminates_first_sweep(self):
        state = aligned_state()
        q_before = [q.copy() for q in state.q]
        sweeps = run_subsolver(state, rho=2.0, eps_r=1e-12, max_sweeps=10)
        assert sweeps == 1
        for q_old, q_new in zip(q_before, state.q):
            np.testing.assert_allclose(q_old, q_new, atol=1e-10)

    def test_sweep_cap_respected(self):
        rng = np.random.default_rng(9)
        state = random_state(rng)
        sweeps = run_subsolver(state, rho=2.0, eps_r=1e-300, max_sweeps=5)
        assert sweeps == 5

    @pytest.mark.parametrize("regs", [
        None, rg.Regularizer("l1", lam=0.3), rg.Regularizer("l21", lam=0.3)],
        ids=["none", "l1", "l21"])
    def test_lagrangian_monotone_over_sweeps(self, regs):
        rng = np.random.default_rng(10)
        state = random_state(rng)
        rho = 2.0
        prev = lagrangian_value(state, rho, regs)
        for _ in range(50):
            run_subsolver(state, rho, eps_r=1e-300, max_sweeps=1, regs=regs)
            cur = lagrangian_value(state, rho, regs)
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))
            prev = cur

    def test_oversized_step_raises(self):
        rng = np.random.default_rng(11)
        state = random_state(rng)
        with pytest.raises(StepSizeError, match="step size violation"):
            run_subsolver(state, rho=2.0, eps_r=1e-300, max_sweeps=10,
                          safety=100.0)


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

    def test_init_not_mutated_and_respected(self):
        views = self._aligned_views(seed=8)
        init = init_random(views, 2, seed=9)
        snapshot = [q.copy() for q in init.q] + [g.copy() for g in init.g]
        state, _ = run_pdd(views, SolverConfig(k=2, outer_max=5, seed=0),
                           init=init)
        for old, new in zip(snapshot, init.q + init.g):
            np.testing.assert_array_equal(old, new)
        assert state is not init

    def test_long_solve_outlives_eps_underflow(self):
        # tol_change = 0 keeps the solve going past r = 108, where
        # 1e-2 * 1e-3**r underflows to 0.0
        views = self._aligned_views(seed=13)
        cfg = SolverConfig(k=2, eps_decay=1e-3, outer_max=200, seed=1,
                           tol_change=0.0)
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

    def test_orthonormal_latents_throughout(self):
        views = self._aligned_views(seed=10)
        state, _ = run_pdd(views, SolverConfig(k=3, outer_max=10, seed=11))
        for g in state.g:
            assert np.linalg.norm(g.T @ g - np.eye(3)) <= 1e-8


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
        init = init_random(views, 2, seed=15)
        cfg = SolverConfig(k=2, outer_max=1, sub_max_sweeps=1, seed=15)
        state_p, _ = run_pdd(views, cfg, init=init)
        state_a, _ = run_pdd(views, replace(cfg, **ADMM), init=init)
        for a, b in zip(state_p.q, state_a.q):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(state_p.g, state_a.g):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(state_p.y, state_a.y):
            np.testing.assert_array_equal(a, b)

    def test_descent_checked(self):
        rng = np.random.default_rng(14)
        views = [SparseView(rng.standard_normal((10, 7))) for _ in range(3)]
        cfg = SolverConfig(k=2, outer_max=5, seed=15, safety=200.0, **ADMM)
        with pytest.raises(StepSizeError, match="step size violation"):
            run_pdd(views, cfg)

    def test_trace_recorded(self):
        rng = np.random.default_rng(16)
        views = [SparseView(rng.standard_normal((10, 7))) for _ in range(2)]
        cfg = SolverConfig(k=2, outer_max=8, seed=17, **ADMM)
        _, trace = run_pdd(views, cfg)
        assert len(trace) == 9
        rho = trace.column("rho")
        np.testing.assert_array_equal(rho, np.full(9, cfg.rho0))


class TestLagrangianValue:
    def test_feasible_aligned_is_zero(self):
        state = aligned_state()
        assert lagrangian_value(state, 2.0, None) == pytest.approx(0.0)

    def test_single_nonzero_coupling(self):
        # slacks zero, X1 Q1 - G2 = ones; the mirror term G1 - X2 Q2 is
        # then forced to -ones, so both ordered pairs contribute 1/2 * 4
        rng = np.random.default_rng(18)
        views = [SparseView(rng.standard_normal((2, 3))) for _ in range(2)]
        a = rng.standard_normal((2, 2))
        state = SolverState(views, [np.zeros((3, 2))] * 2,
                            [a, a - 1.0], [np.zeros((2, 2))] * 2)
        state.p = [a.copy(), a.copy() - 1.0]
        assert lagrangian_value(state, 2.0, None) == pytest.approx(4.0)

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
        assert abs(lagrangian_value(state, 2.0, regs) - ref) \
            <= 1e-10 * max(1.0, abs(ref))


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

    def test_eps_never_underflows(self):
        assert SolverConfig(k=2).eps(7100) > 0.0

    def test_validation(self):
        nan, inf = float("nan"), float("inf")
        bad = [dict(k=0), dict(c=1.0), dict(c=nan), dict(rho0=0.0),
               dict(rho0=nan), dict(rho0=inf), dict(eps0=0.0),
               dict(eps0=nan), dict(eps0=inf), dict(safety=0.0),
               dict(safety=-1.0), dict(safety=nan), dict(safety=inf),
               dict(eta0=0.0), dict(eta0=nan), dict(tol_feas=-1.0),
               dict(tol_feas=nan), dict(tol_change=-5.0),
               dict(tol_change=nan),
               dict(sub_max_sweeps=0), dict(outer_max=0)]
        for kwargs in bad:
            with pytest.raises(ValueError):
                SolverConfig(**{"k": 2, **kwargs})
        # the ADMM baseline's infinite feasibility schedule stays valid
        assert SolverConfig(k=2, eta0=inf).eta(3) == inf
