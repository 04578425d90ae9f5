import itertools
import math
import re

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh

from mvcca import linalg, solver
from mvcca.errors import NumericError
from mvcca.linalg import (RankDeficiencyError, SparseView, inner,
                          load_dense_csv, load_matrix_market, narrow_columns,
                          pairwise_inner_sum, polar_factor, save_dense_csv,
                          save_matrix_market, spectral_norm_sq, spmm_left_t,
                          spmm_right)
from mvcca.retrieval import HashSpec, evaluate_pairs, hash_corpus
from mvcca.solver import (EmptyViewError, SolverConfig, init_random, run_pdd,
                          step_size)
from mvcca.synth import SynthSpec, gen_shared_factor, metric1, \
    total_correlation

from oracles import materialize, pairwise_inner_loop, random_stiefel


def coo_view(rows, cols, values, shape):
    return SparseView(sp.coo_matrix((values, (rows, cols)), shape=shape))


def random_sparse_view(rng, rows, cols, density):
    nnz = max(1, int(round(density * rows * cols)))
    flat = rng.choice(rows * cols, size=nnz, replace=False)
    r, c = np.divmod(flat, cols)
    return coo_view(r, c, rng.standard_normal(nnz), (rows, cols))


class TestSparseView:
    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            coo_view([0, 0], [1, 1], [1.0, 2.0], (2, 2))

    def test_non_adjacent_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            coo_view([0, 1, 0], [0, 1, 0], [1.0, 2.0, 3.0], (2, 2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            SparseView(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_dimensions_rejected(self, shape):
        with pytest.raises(ValueError,
                           match="view dimensions must be positive"):
            SparseView(sp.csr_matrix(shape))

    def test_view_owns_its_arrays(self):
        # one row with unsorted column indices
        given = sp.csr_matrix((np.array([5.0, 2.0, 7.0]), np.array([2, 0, 1]),
                               np.array([0, 2, 3])), shape=(2, 3))
        view = SparseView(given)
        expected = view.raw.toarray()
        np.testing.assert_array_equal(given.indices, [2, 0, 1])
        given.data[:] = 0.0
        given.indices[:] = 0
        np.testing.assert_array_equal(view.raw.toarray(), expected)
        np.testing.assert_array_equal(expected, [[2.0, 0.0, 5.0],
                                                 [0.0, 7.0, 0.0]])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="exceeds matrix dimension"):
            coo_view([0], [5], [1.0], (2, 2))
        with pytest.raises(ValueError, match="negative"):
            coo_view([-1], [0], [1.0], (2, 2))


def _shares_arrays(a, b):
    return all(np.shares_memory(getattr(a, name), getattr(b, name))
               for name in ("data", "indices", "indptr"))


class TestNarrowColumns:
    @staticmethod
    def _gappy_view(rng):
        # columns 1, 4 and 6 store nothing; column 3 only an explicit zero
        x = rng.standard_normal((9, 7))
        x[:, [1, 3, 4, 6]] = 0.0
        rows, cols = np.nonzero(x)
        rows, cols = np.append(rows, 5), np.append(cols, 3)
        return coo_view(rows, cols, x[rows, cols], (9, 7))

    def test_transpose_cached_without_copy(self):
        view = SparseView(np.eye(3))
        assert view.raw_t is view.raw_t
        assert _shares_arrays(view.raw_t, view.raw)

    def test_shares_entries_and_keeps_products(self):
        rng = np.random.default_rng(30)
        given = self._gappy_view(rng).raw
        right = rng.standard_normal((7, 3))
        left = rng.standard_normal((9, 3))
        for cls, index_dtype in itertools.product(
                (sp.csr_matrix, sp.csr_array), (np.int32, np.int64)):
            view = SparseView(cls((given.data,
                                   given.indices.astype(index_dtype),
                                   given.indptr.astype(index_dtype)),
                                  shape=given.shape))
            # one index dtype for every view, whatever the input class
            assert view.raw.indices.dtype == np.int32
            assert view.raw.indptr.dtype == np.int32
            narrow, cols = narrow_columns(view)
            # column 3 holds only an explicit zero, and it counts
            np.testing.assert_array_equal(cols, [0, 2, 3, 5])
            assert narrow.shape == (9, 4) and narrow.nnz == view.nnz
            assert np.shares_memory(narrow.raw.data, view.raw.data)
            assert np.shares_memory(narrow.raw.indptr, view.raw.indptr)
            assert not np.shares_memory(narrow.raw.indices,
                                        view.raw.indices)
            assert _shares_arrays(narrow.raw_t, narrow.raw)
            # bitwise: the same terms summed in the same order
            np.testing.assert_array_equal(spmm_right(narrow, right[cols]),
                                          spmm_right(view, right))
            np.testing.assert_array_equal(spmm_left_t(narrow, left),
                                          spmm_left_t(view, left)[cols])


class TestSpmm:
    def test_right_identity(self):
        view = SparseView(np.eye(2))
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(spmm_right(view, d), d)

    def test_right_single_entry(self):
        view = coo_view([0], [1], [5.0], (2, 2))
        d = np.array([[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(spmm_right(view, d),
                                      [[5.0, 0.0], [0.0, 0.0]])

    def test_left_t_identity(self):
        view = SparseView(np.eye(2))
        d = np.array([[7.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(spmm_left_t(view, d), d)

    def test_left_t_single_entry(self):
        view = coo_view([0], [1], [5.0], (2, 2))
        d = np.array([[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(spmm_left_t(view, d),
                                      [[0.0, 0.0], [10.0, 0.0]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        view = random_sparse_view(rng, 20, 10, 0.2)
        dense = materialize(view)
        d_right = rng.standard_normal((10, 3))
        d_left = rng.standard_normal((20, 3))
        ref_r = dense @ d_right
        ref_l = dense.T @ d_left
        assert np.linalg.norm(spmm_right(view, d_right) - ref_r) \
            <= 1e-12 * max(1.0, np.linalg.norm(ref_r))
        assert np.linalg.norm(spmm_left_t(view, d_left) - ref_l) \
            <= 1e-12 * max(1.0, np.linalg.norm(ref_l))

    def test_dimension_mismatch(self):
        view = SparseView(np.eye(3))
        with pytest.raises(ValueError, match="rows"):
            spmm_right(view, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="rows"):
            spmm_left_t(view, np.zeros((2, 2)))

    def test_nonfinite_operand(self):
        view = SparseView(np.eye(2))
        with pytest.raises(ValueError, match="non-finite"):
            spmm_right(view, np.array([[np.inf, 0.0], [0.0, 0.0]]))

    # a vector is not promoted to a one-column block
    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1)],
                             ids=["vector", "stack"])
    def test_operand_must_be_a_matrix(self, shape):
        view = SparseView(np.eye(3))
        with pytest.raises(ValueError, match="right operand must be a matrix"):
            spmm_right(view, np.ones(shape))
        with pytest.raises(ValueError, match="left operand must be a matrix"):
            spmm_left_t(view, np.ones(shape))


class TestPolarFactor:
    def test_diagonal_singular_values(self):
        m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        np.testing.assert_allclose(
            polar_factor(m), [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_orthonormal_fixed_point(self):
        rng = np.random.default_rng(2)
        g0 = random_stiefel(rng, 9, 4, 1)[0]
        np.testing.assert_allclose(polar_factor(g0), g0, atol=1e-10)

    def test_maximizes_trace_and_psd(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 3))
        g = polar_factor(m)
        candidates = random_stiefel(rng, 8, 3, 10_000)
        best = np.einsum("nij,ij->n", candidates, m).max()
        assert np.trace(g.T @ m) >= best
        sym = g.T @ m
        assert np.linalg.norm(sym - sym.T) <= 1e-8
        assert np.linalg.eigvalsh(0.5 * (sym + sym.T)).min() >= -1e-8

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rows = int(rng.integers(3, 40))
            cols = int(rng.integers(1, min(rows, 6) + 1))
            g = polar_factor(rng.standard_normal((rows, cols)))
            assert np.linalg.norm(g.T @ g - np.eye(cols)) <= 1e-10
            # every column has unit norm, so none is the zero column
            np.testing.assert_allclose(np.linalg.norm(g, axis=0), 1.0,
                                       atol=1e-10)

    @pytest.mark.parametrize("s", [1e-7, 1e-9])
    def test_ill_conditioned_diagonal(self, s):
        # Gram condition number 1e18 or 1e22, yet eigh folds an exactly
        # diagonal Gram without error, so the polar factor is accurate
        m = np.eye(200, 4) * [1e2, 1.0, 1.0, s]
        u, _, vt = np.linalg.svd(m, full_matrices=False)
        np.testing.assert_allclose(polar_factor(m), u @ vt, rtol=0,
                                   atol=1e-10)

    @staticmethod
    def rotated(singular):
        # U diag(singular) V^T, whose polar factor is U V^T
        rng = np.random.default_rng(0)
        u = np.linalg.qr(rng.standard_normal((50, len(singular))))[0]
        v = np.linalg.qr(rng.standard_normal((len(singular),) * 2))[0]
        return u @ np.diag(singular) @ v.T, u @ v.T

    def test_newton_schulz_sweep_recovers_orthonormality(self):
        m, want = self.rotated([1.0, 1.0, 1e-4])
        # the Gram fold alone misses the 1e-12 check ...
        evals, vecs = np.linalg.eigh(m.T @ m)
        fold = m @ ((vecs / np.sqrt(evals)) @ vecs.T)
        assert np.linalg.norm(fold.T @ fold - np.eye(3)) > 1e-12
        # ... and the sweep brings the result within 1e-10
        g = polar_factor(m)
        assert np.linalg.norm(g.T @ g - np.eye(3)) <= 1e-10
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-10)

    def test_newton_schulz_sweep_not_enough(self):
        m, _ = self.rotated([1.0, 1.0, 1e-6])
        with pytest.raises(RankDeficiencyError, match="rank-deficient"):
            polar_factor(m)

    @pytest.mark.parametrize("case", ["one_column_zero", "rotated_1e-7",
                                      "duplicate_column"])
    def test_rank_deficient_errors(self, case):
        rng = np.random.default_rng(11)
        if case == "one_column_zero":
            m = np.zeros((5, 2))
            m[:, 0] = 1.0
        elif case == "rotated_1e-7":
            q = np.linalg.qr(rng.standard_normal((200, 4)))[0]
            v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            m = q @ np.diag([1e2, 1.0, 1.0, 1e-7]) @ v.T
        else:
            m = rng.standard_normal((30, 3))
            m = np.column_stack([m, m[:, 1]])
        with pytest.raises(RankDeficiencyError, match="rank-deficient"):
            polar_factor(m)

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError, match="tall"):
            polar_factor(np.ones((2, 3)))

    # the check reads the K x K Gram: a non-finite entry, or a finite one
    # whose square overflows, leaves a non-finite diagonal entry there
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200],
                             ids=["inf", "nan", "square_overflows"])
    def test_non_finite_gram_rejected(self, bad):
        m = np.random.default_rng(12).standard_normal((6, 2))
        m[3, 1] = bad
        with pytest.raises(NumericError, match="not finite"):
            polar_factor(m)


class TestPairwiseInnerSum:
    @pytest.mark.parametrize("n_mats", [2, 10])
    def test_matches_pair_loop(self, n_mats):
        rng = np.random.default_rng(n_mats)
        mats = [rng.standard_normal((7, 3)) for _ in range(n_mats)]
        ref = pairwise_inner_loop(mats)
        assert abs(pairwise_inner_sum(mats) - ref) \
            <= 1e-10 * max(1.0, abs(ref))


class TestInner:
    # every shape pairwise_inner_sum takes: any array, also a scalar, an
    # empty block, a stacked array and a transposed (non-contiguous) one
    @pytest.mark.parametrize("shape, transpose", [
        ((), False), ((7,), False), ((0, 5), False), ((7, 3), False),
        ((3000, 5), False), ((5, 3000), True), ((2, 3, 4), False)])
    def test_matches_exact_sum(self, shape, transpose):
        rng = np.random.default_rng(len(shape) + sum(shape))
        a, b = rng.standard_normal((2, *shape))
        if transpose:
            a, b = a.T, b.T
        for x, y in ((a, b), (a, a)):
            products = (x * y).ravel().tolist()
            ref = math.fsum(products)
            scale = math.fsum(abs(v) for v in products)
            got = inner(x, y)
            assert isinstance(got, float)
            assert abs(got - ref) <= 1e-12 * scale

    def test_solve_and_scoring_never_call_blas_dot(self, monkeypatch):
        # OpenBLAS threads its dot product past 10 000 entries, and a
        # woken worker spins on into whatever runs next
        def refuse(*args, **kwargs):
            raise AssertionError("BLAS dot product called")

        monkeypatch.setattr(np, "vdot", refuse)
        monkeypatch.setattr(np, "dot", refuse)
        views = gen_shared_factor(SynthSpec(rows=150, features=20, views=3,
                                            density=0.1, seed=3))
        state, trace = run_pdd(views, SolverConfig(k=3, outer_max=5, seed=4))
        assert len(trace) == 6
        assert total_correlation(views, state.q)[1] > 0.0
        assert metric1(views, state.q, np.arange(10)) > 0.0
        assert evaluate_pairs(views, state.q).mean_aroc > 50.0


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm_sq(SparseView(np.eye(4))) == pytest.approx(1.0)

    def test_diagonal(self):
        view = SparseView(np.diag([3.0, 1.0]))
        assert spectral_norm_sq(view, seed=0) == pytest.approx(9.0, abs=1e-6)

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(5)
        view = random_sparse_view(rng, 50, 30, 0.15)
        exact = np.linalg.svd(materialize(view), compute_uv=False)[0] ** 2
        est = spectral_norm_sq(view, seed=1)
        assert abs(est - exact) <= 1e-12 * exact

    def test_near_degenerate_top_pair(self):
        view = SparseView(np.diag([1.0, 1.0 - 1e-12, 0.5]))
        assert abs(spectral_norm_sq(view, seed=2) - 1.0) <= 1e-12

    def test_seeds_agree(self):
        rng = np.random.default_rng(7)
        view = random_sparse_view(rng, 80, 40, 0.1)
        a, b = spectral_norm_sq(view, seed=3), spectral_norm_sq(view, seed=4)
        assert abs(a - b) <= 1e-12 * a

    def test_wide_view_matches_dense_svd(self):
        # fewer rows than columns: Lanczos runs on X X^T
        rng = np.random.default_rng(6)
        view = random_sparse_view(rng, 20, 70, 0.2)
        exact = np.linalg.svd(materialize(view), compute_uv=False)[0] ** 2
        assert abs(spectral_norm_sq(view, seed=1) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("rows", [[[3.0], [4.0], [0.0]],
                                      [[3.0, 4.0, 0.0]]])
    def test_one_row_or_column(self, rows):
        view = SparseView(np.array(rows))
        exact = float(np.sum(materialize(view) ** 2))
        assert spectral_norm_sq(view) == pytest.approx(exact, rel=1e-15)

    def test_zero_view(self):
        zero = SparseView(sp.csr_matrix((4, 3)))
        assert spectral_norm_sq(zero) == 0.0
        state = init_random([zero, SparseView(np.eye(4))], 1, seed=0)
        state.sigma_sq = solver._sigma_squares(state.views, 0)
        assert state.sigma_sq[0] == 0.0
        with pytest.raises(EmptyViewError):
            step_size(0, state)

    def test_explicit_zeros_skip_lanczos(self, monkeypatch):
        def no_lanczos(*args, **kwargs):
            raise AssertionError("eigsh called on a zero view")

        monkeypatch.setattr("mvcca.linalg.eigsh", no_lanczos)
        zeros = coo_view([0, 1, 3], [0, 2, 1], [0.0, 0.0, 0.0], (4, 3))
        assert zeros.nnz == 3
        assert spectral_norm_sq(zeros) == 0.0

    def test_centered_constant_columns(self):
        # views are used as given, so the caller centers: constant columns
        # minus their means cancel every entry and X^T X is the zero operator
        dense = np.tile([1.0, 2.0, -3.0], (4, 1))
        flat = SparseView(dense - dense.mean(axis=0))
        assert flat.nnz == 0
        assert spectral_norm_sq(flat) == 0.0
        state = init_random([flat, SparseView(np.eye(4))], 1, seed=0)
        state.sigma_sq = solver._sigma_squares(state.views, 0)
        assert state.sigma_sq[0] == 0.0
        with pytest.raises(EmptyViewError):
            step_size(0, state)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        view = random_sparse_view(rng, 25, 12, 0.3)
        assert spectral_norm_sq(view, seed=9) == spectral_norm_sq(view, seed=9)

    @pytest.mark.parametrize("shape", [(300, 100), (100, 600)],
                             ids=["tall", "wide"])
    def test_tolerance_within_round_off_of_converged(self, monkeypatch,
                                                     shape):
        for seed in range(3):
            view = random_sparse_view(np.random.default_rng(seed), *shape,
                                      0.05)
            est = spectral_norm_sq(view, seed=1)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_LANCZOS_TOL", 0.0)
                converged = spectral_norm_sq(view, seed=1)
            assert abs(est - converged) <= 1e-12 * converged

    def test_tall_view_products(self, monkeypatch):
        # converged to machine precision this view takes 41 Gram
        # products with ARPACK's default 20-vector basis; at the
        # tolerance a few cycles of the 10-vector basis do
        products = []

        def counted(op, **kwargs):
            def matvec(v):
                products.append(v.size)
                return op.matvec(v)
            return eigsh(LinearOperator(op.shape, matvec, dtype=op.dtype),
                         **kwargs)

        monkeypatch.setattr(linalg, "eigsh", counted)
        view = random_sparse_view(np.random.default_rng(0), 300, 100, 0.05)
        spectral_norm_sq(view, seed=1)
        assert 0 < len(products) <= 25
        assert set(products) == {100}

    def test_wide_hashed_view_products(self, monkeypatch):
        # 200 hashed documents over 4 096 slots: Lanczos runs on X X^T,
        # where ARPACK's default 20-vector basis takes 21 products and
        # the 10-vector basis reaches the tolerance in its first cycle
        products = []

        def counted(op, **kwargs):
            def matvec(v):
                products.append(v.size)
                return op.matvec(v)
            return eigsh(LinearOperator(op.shape, matvec, dtype=op.dtype),
                         **kwargs)

        monkeypatch.setattr(linalg, "eigsh", counted)
        rng = np.random.default_rng(0)
        weights = 1.0 / np.arange(1, 2001)
        docs = [[f"w{t}" for t in rng.choice(2000, size=30,
                                              p=weights / weights.sum())]
                for _ in range(200)]
        view = hash_corpus(docs, HashSpec(bits=12, seed=3))
        spectral_norm_sq(view, seed=1)
        assert 0 < len(products) <= 15
        assert set(products) == {200}

    @pytest.mark.parametrize("shape, gram", [((20, 6), "X^T X"),
                                             ((6, 20), "X X^T")])
    def test_overflowing_gram_product(self, shape, gram):
        x = 1e200 * np.random.default_rng(13).standard_normal(shape)
        with pytest.raises(NumericError, match=re.escape(gram) + " v"):
            spectral_norm_sq(SparseView(x))


MM_HEADER = "%%MatrixMarket matrix coordinate real general"
_MM_BANNER = MM_HEADER + "\n"

# malformed or unsupported Matrix Market files; each must raise ValueError
MALFORMED_MTX = {
    "count_short": _MM_BANNER + "2 3 2\n1 1 1.5\n",
    "count_long": _MM_BANNER + "2 3 1\n1 1 1.5\n2 3 2.5\n",
    "row_zero": _MM_BANNER + "2 3 1\n0 1 1.5\n",
    "col_zero": _MM_BANNER + "2 3 1\n1 0 1.5\n",
    "row_past": _MM_BANNER + "2 3 1\n3 1 1.5\n",
    "col_past": _MM_BANNER + "2 3 1\n1 4 1.5\n",
    "duplicate": _MM_BANNER + "2 3 2\n1 1 1.5\n1 1 2.5\n",
    "nan": _MM_BANNER + "2 3 1\n1 1 nan\n",
    "symmetric": "%%MatrixMarket matrix coordinate real symmetric\n"
                 "2 2 1\n1 1 1.5\n",
    "integer": "%%MatrixMarket matrix coordinate integer general\n"
               "2 2 1\n1 1 1\n",
    "pattern": "%%MatrixMarket matrix coordinate pattern general\n"
               "2 2 1\n1 1\n",
    "array": "%%MatrixMarket matrix array real general\n1 1\n0\n",
    "all_caps_banner": _MM_BANNER.upper() + "2 2 1\n1 1 1.5\n",
    "empty": "",
    "junk_banner": "not a matrix\n2 2 1\n1 1 1.5\n",
}


class TestMatrixMarketIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        view = random_sparse_view(rng, 12, 7, 0.25)
        path = tmp_path / "v.mtx"
        save_matrix_market(path, view)
        back = load_matrix_market(path)
        assert back.shape == view.shape
        assert (back.raw != view.raw).nnz == 0

    def test_header_and_one_based_indices(self, tmp_path):
        view = coo_view([0], [2], [1.5], (2, 3))
        path = tmp_path / "v.mtx"
        save_matrix_market(path, view)
        lines = path.read_text().splitlines()
        assert lines[0] == MM_HEADER
        body = [ln for ln in lines[1:] if not ln.startswith("%")]
        assert body[0] == "2 3 1"
        assert body[1].split()[:2] == ["1", "3"]

    @pytest.mark.parametrize("mat", [
        SparseView(np.array([[1.0, 2.0], [2.0, 0.0]])),
        SparseView(sp.csr_matrix((np.array([1.0, 0.0, 0.0, 3.0]),
                                  np.array([0, 1, 0, 1]),
                                  np.array([0, 2, 4])), shape=(2, 2))),
        sp.csr_matrix(np.array([[1, 0], [2, 5]])),
    ], ids=["symmetric", "symmetric_explicit_zeros", "integer"])
    def test_written_kind_is_real_general(self, tmp_path, mat):
        # scipy's writer would call these "symmetric" or "integer", kinds
        # the loader rejects
        path = tmp_path / "v.mtx"
        save_matrix_market(path, mat)
        assert path.read_text().splitlines()[0] == MM_HEADER
        back = load_matrix_market(path).raw
        ref = (mat if isinstance(mat, SparseView) else SparseView(mat)).raw
        for name in ("data", "indices", "indptr"):
            got, want = getattr(back, name), getattr(ref, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_scipy_reads_our_files(self, tmp_path):
        rng = np.random.default_rng(11)
        view = random_sparse_view(rng, 9, 9, 0.3)
        path = tmp_path / "v.mtx"
        save_matrix_market(path, view)
        ref = sp.csr_matrix(scipy.io.mmread(path))
        assert (ref != view.raw).nnz == 0

    def test_we_read_scipy_files(self, tmp_path):
        rng = np.random.default_rng(12)
        mat = sp.random(8, 5, density=0.4, random_state=42, format="coo")
        path = tmp_path / "v.mtx"
        scipy.io.mmwrite(path, mat)
        back = load_matrix_market(path)
        assert np.abs(back.raw - mat.tocsr()).max() <= 1e-12

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "v.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1\n0\n")
        with pytest.raises(ValueError, match="header"):
            load_matrix_market(path)

    @pytest.mark.parametrize("name", sorted(MALFORMED_MTX))
    def test_malformed_rejected(self, tmp_path, name):
        path = tmp_path / "v.mtx"
        path.write_text(MALFORMED_MTX[name], encoding="ascii")
        with pytest.raises(ValueError):
            load_matrix_market(path)

    def test_comments_skipped_and_zeros_kept(self, tmp_path):
        path = tmp_path / "v.mtx"
        path.write_text(_MM_BANNER + "% a comment\n%\n2 3 2\n"
                        "1 2 1.5\n2 3 0\n", encoding="ascii")
        view = load_matrix_market(path)
        assert view.shape == (2, 3)
        assert view.nnz == 2
        np.testing.assert_array_equal(view.raw.indptr, [0, 1, 2])
        np.testing.assert_array_equal(view.raw.indices, [1, 2])
        np.testing.assert_array_equal(view.raw.data, [1.5, 0.0])

    def test_identical_bytes_for_identical_views(self, tmp_path):
        rng = np.random.default_rng(13)
        view = random_sparse_view(rng, 10, 10, 0.2)
        p1, p2 = tmp_path / "a.mtx", tmp_path / "b.mtx"
        save_matrix_market(p1, view)
        save_matrix_market(p2, view)
        assert p1.read_bytes() == p2.read_bytes()


class TestDenseCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(14)
        mat = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-8, 8, (6, 4))
        path = tmp_path / "m.csv"
        save_dense_csv(path, mat)
        np.testing.assert_array_equal(load_dense_csv(path), mat)

    def test_single_row(self, tmp_path):
        path = tmp_path / "m.csv"
        save_dense_csv(path, np.array([[1.0, 2.0, 3.0]]))
        assert load_dense_csv(path).shape == (1, 3)

    @staticmethod
    def _edge_matrix():
        # the awkward values, an all-zero row and wide exponents
        rng = np.random.default_rng(15)
        mat = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300,
                                                                 (7, 3))
        mat[0] = [-0.0, 5e-324, -2.2250738585072014e-308]
        mat[1] = [1e308, 0.1, 1.0]
        mat[2] = 0.0
        return mat

    @pytest.mark.parametrize("shape", ["edge", "1x1", "one_column"])
    def test_round_trip_bitwise(self, tmp_path, monkeypatch, shape):
        # blocks of 3, 3 and 1 rows; the sign bit of -0.0 must survive
        monkeypatch.setattr(linalg, "_CSV_BLOCK_ROWS", 3)
        mat = {"edge": self._edge_matrix(), "1x1": np.array([[-0.0]]),
               "one_column": self._edge_matrix()[:, :1]}[shape]
        path = tmp_path / "m.csv"
        save_dense_csv(path, mat)
        np.testing.assert_array_equal(load_dense_csv(path).view(np.uint64),
                                      mat.view(np.uint64))

    def test_text_is_shortest_and_one_row_per_line(self, tmp_path,
                                                    monkeypatch):
        # pinned by property, not spelling: the writer's spelling (1E-1,
        # 0.1, 1e-01) differs across scipy versions
        monkeypatch.setattr(linalg, "_CSV_BLOCK_ROWS", 3)
        mat = self._edge_matrix()
        path = tmp_path / "m.csv"
        save_dense_csv(path, mat)
        text = path.read_text(encoding="ascii")
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == mat.shape[0]

        def significant(number: str) -> str:
            mantissa = number.lower().split("e")[0]
            return mantissa.lstrip("+-").replace(".", "").strip("0")

        for line, row in zip(lines, mat):
            fields = line.split(",")
            assert len(fields) == mat.shape[1]
            for field, x in zip(fields, row):
                assert significant(field) == significant(repr(float(x)))
