import dataclasses

import numpy as np
import pytest

from mvcca import synth
from mvcca.errors import InputError, RegularityError
from mvcca.linalg import SparseView, save_matrix_market
from mvcca.regularizers import Regularizer
from mvcca.solver import SolverConfig, Trace, TraceRow, run_pdd
from mvcca.synth import (SynthSpec, _shared_draw, _signal_block,
                         gen_shared_factor, gen_with_outliers, metric1,
                         metric2, time_to_fraction, total_correlation)

from oracles import materialize, random_stiefel, stack_views


class TestSpecValidation:
    def test_bad_density(self):
        with pytest.raises(ValueError):
            SynthSpec(rows=10, features=5, views=2, density=0.0)
        with pytest.raises(ValueError):
            SynthSpec(rows=10, features=5, views=2, density=1.5)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            SynthSpec(rows=0, features=5, views=2)

    @pytest.mark.parametrize("views", [0, 1])
    def test_fewer_than_two_views(self, views):
        with pytest.raises(ValueError, match="views must be >= 2"):
            SynthSpec(rows=10, features=5, views=views)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SynthSpec(rows=10, features=5, views=2, seed=-1)

    def test_negative_outliers(self):
        with pytest.raises(ValueError, match="outliers must be >= 0"):
            SynthSpec(rows=10, features=5, views=2, outliers=-1)

    @pytest.mark.parametrize("value", [-0.1, np.nan, np.inf])
    def test_bad_noise_var(self, value):
        with pytest.raises(ValueError, match="noise_var must be finite"):
            SynthSpec(rows=10, features=5, views=2, outliers=3,
                      noise_var=value)


class TestSharedFactorGenerator:
    def test_rejects_outlier_spec(self):
        spec = SynthSpec(rows=20, features=10, views=2, density=0.5,
                         outliers=3)
        with pytest.raises(ValueError, match="outliers == 0"):
            gen_shared_factor(spec)

    def test_density_within_band(self):
        spec = SynthSpec(rows=200, features=80, views=3, density=5e-2, seed=1)
        for view in gen_shared_factor(spec):
            realized = view.nnz / (200 * 80)
            assert abs(realized - 5e-2) <= 0.2 * 5e-2

    def test_dense_case_matches_explicit_product(self):
        spec = SynthSpec(rows=12, features=6, views=2, density=1.0, seed=2)
        shared, streams = _shared_draw(spec, 1)
        for view, (stream,) in zip(gen_shared_factor(spec), streams):
            block, mix = _signal_block(shared, spec, stream)
            ref = np.asarray(shared.todense()) @ np.asarray(mix.todense())
            np.testing.assert_allclose(materialize(view), ref, atol=1e-12)
            assert (view.raw != block).nnz == 0

    def test_same_seed_identical_bytes(self, tmp_path):
        spec = SynthSpec(rows=50, features=20, views=2, density=0.1, seed=3)
        for run in range(2):
            for i, view in enumerate(gen_shared_factor(spec)):
                save_matrix_market(tmp_path / f"{run}_{i}.mtx", view)
        for i in range(2):
            assert (tmp_path / f"0_{i}.mtx").read_bytes() \
                == (tmp_path / f"1_{i}.mtx").read_bytes()

    def test_views_share_row_space(self):
        spec = SynthSpec(rows=30, features=10, views=3, density=0.4, seed=4)
        views = gen_shared_factor(spec)
        shared, _ = _shared_draw(spec, 1)
        stacked = np.asarray(stack_views(views).todense())
        rank_shared = np.linalg.matrix_rank(np.asarray(shared.todense()))
        assert np.linalg.matrix_rank(stacked) <= rank_shared

    def test_missed_density_is_resolved(self, monkeypatch):
        # the first mix of view 0 misses the 20% band; a re-solved fill
        # lands inside it
        calls = []
        sparse_gaussian = synth._sparse_gaussian

        def counted(*args, **kwargs):
            calls.append(args)
            return sparse_gaussian(*args, **kwargs)

        monkeypatch.setattr(synth, "_sparse_gaussian", counted)
        spec = SynthSpec(rows=10, features=5, views=3, density=0.1, seed=1)
        views = gen_shared_factor(spec)
        # the shared factor and one mix per view, had every first try hit
        assert len(calls) > 1 + spec.views
        for view in views:
            assert abs(view.nnz / 50 - 0.1) <= 0.2 * 0.1

    def test_density_attempts_exhausted(self):
        spec = SynthSpec(rows=10, features=20, views=3, density=0.02, seed=0)
        with pytest.raises(ValueError, match="could not hit density 0.02 "
                           "within 20% after 12 attempts"):
            gen_shared_factor(spec)

    def test_infeasible_density_errors(self):
        spec = SynthSpec(rows=5, features=4, views=2, density=1e-9, seed=5)
        with pytest.raises(ValueError, match="infeasib"):
            gen_shared_factor(spec)


class TestOutlierGenerator:
    def test_rejects_clean_spec(self):
        spec = SynthSpec(rows=20, features=10, views=2, density=0.5)
        with pytest.raises(ValueError, match="outliers > 0"):
            gen_with_outliers(spec)

    def test_energy_ratio_and_partition(self):
        spec = SynthSpec(rows=100, features=40, views=3, density=0.1,
                         outliers=25, seed=6)
        views = gen_with_outliers(spec)
        assert len(views) == 3
        for view in views:
            assert view.shape == (100, 65)
        # without noise, view 0's first 40 columns are the clean
        # generator's view 0: both draw it from the same stream
        quiet = gen_with_outliers(dataclasses.replace(spec, noise_var=0.0))
        clean = gen_shared_factor(dataclasses.replace(spec, outliers=0))
        assert (quiet[0].raw[:, :40] != clean[0].raw).nnz == 0

    def test_energy_match_without_noise(self):
        spec = SynthSpec(rows=120, features=50, views=2, density=0.1,
                         outliers=50, noise_var=0.0, seed=7)
        views = gen_with_outliers(spec)
        for view in views:
            dense = materialize(view)
            sig = np.linalg.norm(dense[:, :50])
            out = np.linalg.norm(dense[:, 50:])
            assert 0.95 <= out / sig <= 1.05

    def test_deterministic(self):
        spec = SynthSpec(rows=60, features=20, views=2, density=0.2,
                         outliers=10, seed=8)
        v1 = gen_with_outliers(spec)
        v2 = gen_with_outliers(spec)
        for a, b in zip(v1, v2):
            assert (a.raw != b.raw).nnz == 0


class TestTotalCorrelation:
    def test_aligned_reaches_ideal(self):
        rng = np.random.default_rng(9)
        g0 = random_stiefel(rng, 10, 3, 1)[0]
        views = [SparseView(np.eye(10)) for _ in range(3)]
        factors = [g0.copy() for _ in range(3)]
        raw, percent = total_correlation(views, factors)
        assert raw == pytest.approx(3 * 3 * 2)
        assert percent == pytest.approx(100.0)

    def test_zero_factors(self):
        views = [SparseView(np.eye(4)) for _ in range(2)]
        factors = [np.zeros((4, 2)) for _ in range(2)]
        raw, percent = total_correlation(views, factors)
        assert raw == 0.0
        assert percent == 0.0

    def test_one_view_rejected(self):
        # the ideal K * I * (I-1) is zero for a single view
        with pytest.raises(ValueError, match="needs >= 2 views"):
            total_correlation([SparseView(np.eye(4))], [np.eye(4, 2)])

    def test_percent_bounded_at_feasible_points(self):
        # any set of orthonormal latents caps the sum of pairwise traces
        rng = np.random.default_rng(21)
        views = [SparseView(np.eye(12)) for _ in range(4)]
        for _ in range(50):
            factors = list(random_stiefel(rng, 12, 3, 4))
            _, percent = total_correlation(views, factors)
            assert percent <= 100.0 + 1e-6

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        views = [SparseView(rng.standard_normal((8, 5))) for _ in range(3)]
        factors = [rng.standard_normal((5, 2)) for _ in range(3)]
        raw, _ = total_correlation(views, factors)
        dense = [materialize(v) for v in views]
        ref = 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    ref += np.trace(factors[i].T @ dense[i].T
                                    @ dense[j] @ factors[j])
        assert abs(raw - ref) <= 1e-10 * max(1.0, abs(ref))


# both scores pass their views and factors through the one view-set check
SCORES = {"total_correlation": lambda views, factors:
          total_correlation(views, factors)[1],
          "metric1": lambda views, factors:
          metric1(views, factors, np.arange(4))}


@pytest.mark.parametrize("score", SCORES.values(), ids=SCORES.keys())
class TestScoredViewSet:
    def test_fewer_factors_than_views(self, score):
        # zip would pair off the first two views, scored against their
        # own two-view ideal
        rng = np.random.default_rng(24)
        views = [SparseView(rng.standard_normal((6, 4))) for _ in range(3)]
        factors = [rng.standard_normal((4, 2)) for _ in range(2)]
        with pytest.raises(ValueError, match="got 2 factors for 3 views"):
            score(views, factors)

    def test_row_counts_disagree(self, score):
        rng = np.random.default_rng(25)
        views = [SparseView(rng.standard_normal((n, 4))) for n in (6, 7)]
        factors = [rng.standard_normal((4, 2)) for _ in range(2)]
        with pytest.raises(InputError,
                           match="views disagree on row count: 6, 7"):
            score(views, factors)

    def test_lone_view(self, score):
        view = SparseView(np.random.default_rng(26).standard_normal((6, 4)))
        with pytest.raises(RegularityError,
                           match="SUMCOR needs >= 2 views, got 1"):
            score([view], [np.eye(4, 2)])

    def test_factor_widths_disagree(self, score):
        # numpy's broadcast error would name shapes but no factor
        rng = np.random.default_rng(27)
        views = [SparseView(rng.standard_normal((6, 4))) for _ in range(3)]
        factors = [rng.standard_normal((4, k)) for k in (2, 2, 3)]
        with pytest.raises(ValueError,
                           match="factors disagree on width: 2, 2, 3"):
            score(views, factors)


class TestMetric1:
    def test_reduces_to_total_correlation_without_outliers(self):
        rng = np.random.default_rng(11)
        g0 = random_stiefel(rng, 10, 3, 1)[0]
        views = [SparseView(np.eye(10)) for _ in range(3)]
        factors = [g0.copy() for _ in range(3)]
        assert metric1(views, factors, np.arange(10)) == pytest.approx(100.0)

    def test_zero_signal_rows(self):
        rng = np.random.default_rng(12)
        views = [SparseView(rng.standard_normal((6, 4))) for _ in range(2)]
        factors = [np.vstack([np.zeros((2, 2)),
                              rng.standard_normal((2, 2))]) for _ in range(2)]
        assert metric1(views, factors, np.array([0, 1])) == 0.0

    def test_empty_signal_set_rejected(self):
        views = [SparseView(np.eye(4)) for _ in range(2)]
        factors = [np.zeros((4, 2)) for _ in range(2)]
        with pytest.raises(ValueError, match="empty"):
            metric1(views, factors, np.array([], dtype=np.int64))

    def test_matches_submatrix_oracle(self):
        rng = np.random.default_rng(13)
        views = [SparseView(rng.standard_normal((9, 6))) for _ in range(3)]
        factors = [rng.standard_normal((6, 2)) for _ in range(3)]
        sig = np.array([0, 2, 5])
        got = metric1(views, factors, sig)
        dense = [materialize(v)[:, sig] for v in views]
        subq = [f[sig, :] for f in factors]
        ref = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                ref += np.trace(subq[i].T @ dense[i].T @ dense[j] @ subq[j])
        ref = 2.0 * ref * 100.0 / (2 * 3 * 2)
        assert got == pytest.approx(ref, abs=1e-10)


class TestMetric2:
    def test_zero_outlier_rows(self):
        factors = [np.vstack([np.ones((3, 2)), np.zeros((2, 2))])]
        assert metric2(factors, np.array([3, 4])) == 0.0

    def test_single_row(self):
        factors = [np.array([[1.0, 1.0], [3.0, 4.0]])]
        assert metric2(factors, np.array([1])) == pytest.approx(5.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(14)
        factors = [rng.standard_normal((7, 3)) for _ in range(3)]
        out = np.array([1, 4, 6])
        ref = 0.0
        for f in factors:
            acc = 0.0
            for r in out:
                for c in range(3):
                    acc += f[r, c] ** 2
            ref += np.sqrt(acc)
        assert abs(metric2(factors, out) - ref) <= 1e-12 * max(1.0, ref)


class TestTimeToFraction:
    def _trace(self, percents, ideal=10.0):
        trace = Trace(ideal)
        for i, pct in enumerate(percents):
            trace.append(TraceRow(i, float(i) * 0.5, 2.0, 0.0, 0.0,
                                  pct / 100.0 * ideal))
        return trace

    def test_first_crossing(self):
        trace = self._trace([0.0, 50.0, 90.0, 96.0, 99.0])
        assert time_to_fraction(trace, 0.95) == pytest.approx(1.5)

    def test_never_reached(self):
        trace = self._trace([0.0, 50.0, 90.0])
        assert time_to_fraction(trace, 0.95) is None

    def test_tiny_fraction_hits_first_entry(self):
        trace = self._trace([1.0, 50.0])
        assert time_to_fraction(trace, 1e-9) == 0.0

    def test_validation(self):
        trace = self._trace([1.0])
        with pytest.raises(ValueError):
            time_to_fraction(trace, 0.0)
        with pytest.raises(ValueError):
            time_to_fraction(Trace(10.0), 0.5)


class TestRegularizedOutlierSuppression:
    def test_group_penalty_shrinks_outlier_mass(self):
        spec = SynthSpec(rows=600, features=200, views=3, density=2e-2,
                         outliers=200, seed=15)
        views = gen_with_outliers(spec)
        cfg = SolverConfig(k=3, outer_max=120, seed=16)
        plain, _ = run_pdd(views, cfg)
        reg, _ = run_pdd(views, cfg, regs=Regularizer("l21", lam=0.1))
        outlier = np.arange(200, 400)
        m2_plain = metric2(plain.q, outlier)
        m2_reg = metric2(reg.q, outlier)
        assert m2_reg <= 0.5 * m2_plain
