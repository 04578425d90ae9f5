import math

import numpy as np
import pytest

from mvcca.errors import NumericError
from mvcca.regularizers import KINDS, Regularizer, penalty_value, prox

from oracles import prox_bruteforce, prox_objective


class TestPenaltyValue:
    def test_l1(self):
        assert penalty_value(Regularizer("l1", lam=2.0), [[1.0, -1.0]]) == 4.0

    def test_l21(self):
        assert penalty_value(Regularizer("l21", lam=1.0), [[3.0, 4.0]]) \
            == pytest.approx(5.0)

    def test_elastic_l1(self):
        reg = Regularizer("elastic_l1", lam=1.0, mu=1.0)
        assert penalty_value(reg, [[2.0]]) == pytest.approx(6.0)

    def test_none_is_zero(self):
        assert penalty_value(Regularizer("none", lam=7.0),
                             [[1.0, 2.0], [3.0, 4.0]]) == 0.0

    def test_nonneg_indicator(self):
        reg = Regularizer("nonneg")
        assert penalty_value(reg, [[0.0, 2.0]]) == 0.0
        assert penalty_value(reg, [[-1e-9, 2.0]]) == math.inf

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(0)
        for kind in KINDS:
            if kind == "nonneg":
                continue
            reg = Regularizer(kind, lam=0.3, mu=0.7)
            assert penalty_value(reg, rng.standard_normal((4, 3))) >= 0.0

    def test_bad_weights(self):
        for name in ("lam", "mu"):
            for value in (-0.1, math.nan, math.inf):
                with pytest.raises(ValueError,
                                   match=f"{name} must be finite and >= 0"):
                    Regularizer("elastic_l21", **{name: value})
        with pytest.raises(ValueError):
            Regularizer("huber")


class TestProx:
    def test_l1_soft_threshold(self):
        reg = Regularizer("l1", lam=1.0)
        out = prox(reg, np.array([[0.7]]), tau=1.0)
        assert out[0, 0] == pytest.approx(0.2)

    def test_l21_group_shrink(self):
        reg = Regularizer("l21", lam=2.0)
        out = prox(reg, np.array([[3.0, 4.0]]), tau=1.0)
        np.testing.assert_allclose(out, [[2.4, 3.2]])

    def test_nonneg_projection(self):
        out = prox(Regularizer("nonneg"), np.array([[-1.0, 2.0]]), tau=0.5)
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError, match="tau"):
            prox(Regularizer("l1", lam=1.0), np.zeros((2, 2)), tau=0.0)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError, match="prox input contains "
                           "non-finite values"):
            prox(Regularizer("l1", lam=1.0), np.array([[np.nan, 0.0]]),
                 tau=1.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_bruteforce_minimizer(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(25):
            v = 3.0 * rng.standard_normal((5, 3))
            tau = float(rng.uniform(0.05, 3.0))
            lam = float(rng.uniform(0.0, 2.0))
            mu = float(rng.uniform(0.0, 2.0))
            reg = Regularizer(kind, lam=lam, mu=mu)
            got = prox(reg, v, tau)
            ref = prox_bruteforce(kind, v, tau, lam, mu)
            assert np.abs(got - ref).max() <= 1e-6

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonexpansive(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            reg = Regularizer(kind, lam=float(rng.uniform(0, 3)),
                              mu=float(rng.uniform(0, 3)))
            tau = float(rng.uniform(0.01, 5.0))
            v1 = rng.standard_normal((3, 2)) * 2.0
            v2 = rng.standard_normal((3, 2)) * 2.0
            d_out = np.linalg.norm(prox(reg, v1, tau) - prox(reg, v2, tau))
            d_in = np.linalg.norm(v1 - v2)
            assert d_out <= d_in + 1e-12

    def test_nonneg_idempotent(self):
        rng = np.random.default_rng(1)
        reg = Regularizer("nonneg")
        v = rng.standard_normal((6, 4))
        once = prox(reg, v, tau=1.0)
        np.testing.assert_array_equal(prox(reg, once, tau=1.0), once)

    @pytest.mark.parametrize("kind", ["none", "l1", "l21"])
    def test_zero_lambda_is_identity(self, kind):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((4, 3))
        out = prox(Regularizer(kind, lam=0.0), v, tau=2.0)
        np.testing.assert_array_equal(out, v)

    def test_zero_lambda_elastic_still_shrinks(self):
        v = np.array([[2.0]])
        out = prox(Regularizer("elastic_l1", lam=0.0, mu=1.0), v, tau=1.0)
        np.testing.assert_allclose(out, [[1.0]])

    @pytest.mark.parametrize("kind", KINDS)
    def test_local_optimality_sampling(self, kind):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 2))
        tau, lam, mu = 0.7, 1.3, 0.4
        reg = Regularizer(kind, lam=lam, mu=mu)
        out = prox(reg, v, tau)
        base = prox_objective(kind, out, v, tau, lam, mu)
        assert base <= prox_objective(kind, v, v, tau, lam, mu) + 1e-12
        for _ in range(100):
            trial = out + 0.1 * rng.standard_normal(out.shape)
            assert base <= prox_objective(kind, trial, v, tau, lam, mu) + 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_independent_and_zero_fixed(self, kind):
        # the solver skips a zero row of Q where the view stores nothing;
        # that is sound only while the prox acts row by row and keeps a
        # zero row at exactly +0.0
        rng = np.random.default_rng(5)
        reg = Regularizer(kind, lam=0.8, mu=0.3)
        v = rng.standard_normal((6, 3))
        v[[1, 4]] = 0.0
        stacked = prox(reg, v, tau=0.9)
        np.testing.assert_array_equal(
            stacked, np.vstack([prox(reg, row[None, :], tau=0.9)
                                for row in v]))
        zero = prox(reg, np.zeros((1, 3)), tau=0.9)
        assert np.all(zero == 0.0) and not np.any(np.signbit(zero))

    @pytest.mark.parametrize("kind", ["l21", "elastic_l21"])
    def test_row_group_edge_rows(self, kind):
        # a row on the threshold (||(3, 4)|| = 5 = tau * lam / 2) and an
        # all-zero row come out exactly zero, with no divide or invalid
        # warning (warnings are errors here); the rows beside them match
        # the scan oracle
        v = np.array([[3.0, 4.0], [0.0, 0.0], [-6.0, 8.0], [0.5, -0.2]])
        for lam in (10.0, 0.0):
            reg = Regularizer(kind, lam=lam, mu=0.5)
            out = prox(reg, v, tau=1.0)
            ref = prox_bruteforce(kind, v, 1.0, lam, 0.5)
            assert np.abs(out - ref).max() <= 1e-6
            assert np.all(out[1] == 0.0) and not np.any(np.signbit(out[1]))
            if lam:
                assert np.all(out[[0, 3]] == 0.0)
