import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from mvcca.linalg import (MM_HEADER, RankDeficiencyError, SparseView,
                          load_dense_csv, load_matrix_market,
                          pairwise_inner_sum, polar_factor, save_dense_csv,
                          save_matrix_market, spectral_norm_sq, spmm_left_t,
                          spmm_right)
from mvcca.solver import EmptyViewError, init_random, step_size

from oracles import materialize, pairwise_inner_loop, random_stiefel


def random_sparse_view(rng, rows, cols, density, **kwargs):
    nnz = max(1, int(round(density * rows * cols)))
    flat = rng.choice(rows * cols, size=nnz, replace=False)
    r, c = np.divmod(flat, cols)
    return SparseView.from_triplets(r, c, rng.standard_normal(nnz),
                                    (rows, cols), **kwargs)


class TestSparseView:
    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseView.from_triplets([0, 0], [1, 1], [1.0, 2.0], (2, 2))

    def test_non_adjacent_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseView.from_triplets([0, 1, 0], [0, 1, 0], [1.0, 2.0, 3.0],
                                     (2, 2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            SparseView(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseView.from_triplets([0], [5], [1.0], (2, 2))

    def test_mean_row_checked(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        SparseView(x, center=True, mean_row=[2.0, 3.0])
        with pytest.raises(ValueError, match="does not match"):
            SparseView(x, center=True, mean_row=[0.0, 0.0])
        with pytest.raises(ValueError, match="centering disabled"):
            SparseView(x, mean_row=[2.0, 3.0])

    def test_centered_columns_sum_to_zero(self):
        rng = np.random.default_rng(0)
        view = random_sparse_view(rng, 15, 6, 0.4, center=True, scale=True)
        dense = materialize(view)
        assert np.abs(dense.sum(axis=0)).max() <= 1e-10

    def test_select_columns(self):
        rng = np.random.default_rng(1)
        view = random_sparse_view(rng, 10, 8, 0.3, center=True)
        sub = view.select_columns([1, 4, 6])
        assert sub.shape == (10, 3)
        np.testing.assert_allclose(materialize(sub),
                                   materialize(view)[:, [1, 4, 6]],
                                   atol=1e-14)


class TestSpmm:
    def test_right_identity(self):
        view = SparseView(np.eye(2))
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(spmm_right(view, d), d)

    def test_right_single_entry(self):
        view = SparseView.from_triplets([0], [1], [5.0], (2, 2))
        d = np.array([[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(spmm_right(view, d),
                                      [[5.0, 0.0], [0.0, 0.0]])

    def test_left_t_identity(self):
        view = SparseView(np.eye(2))
        d = np.array([[7.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(spmm_left_t(view, d), d)

    def test_left_t_single_entry(self):
        view = SparseView.from_triplets([0], [1], [5.0], (2, 2))
        d = np.array([[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(spmm_left_t(view, d),
                                      [[0.0, 0.0], [10.0, 0.0]])

    @pytest.mark.parametrize("center,scale", [(False, False), (True, False),
                                              (True, True), (False, True)])
    def test_matches_dense_oracle(self, center, scale):
        rng = np.random.default_rng(7)
        view = random_sparse_view(rng, 20, 10, 0.2, center=center, scale=scale)
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

    def test_rank_deficient_errors(self):
        m = np.zeros((5, 2))
        m[:, 0] = 1.0
        with pytest.raises(RankDeficiencyError, match="rank-deficient"):
            polar_factor(m)
        with pytest.raises(RankDeficiencyError):
            polar_factor(m, gram_jitter=1e-12)

    def test_wide_input_rejected(self):
        with pytest.raises(ValueError, match="tall"):
            polar_factor(np.ones((2, 3)))


class TestPairwiseInnerSum:
    @pytest.mark.parametrize("n_mats", [2, 10])
    def test_matches_pair_loop(self, n_mats):
        rng = np.random.default_rng(n_mats)
        mats = [rng.standard_normal((7, 3)) for _ in range(n_mats)]
        ref = pairwise_inner_loop(mats)
        assert abs(pairwise_inner_sum(mats) - ref) \
            <= 1e-10 * max(1.0, abs(ref))


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
        view = random_sparse_view(rng, 80, 40, 0.1, center=True)
        a, b = spectral_norm_sq(view, seed=3), spectral_norm_sq(view, seed=4)
        assert abs(a - b) <= 1e-12 * a

    def test_wide_view_matches_dense_svd(self):
        # fewer rows than columns: Lanczos runs on X X^T
        rng = np.random.default_rng(6)
        view = random_sparse_view(rng, 20, 70, 0.2, center=True)
        exact = np.linalg.svd(materialize(view), compute_uv=False)[0] ** 2
        assert abs(spectral_norm_sq(view, seed=1) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("rows", [[[3.0], [4.0], [0.0]],
                                      [[3.0, 4.0, 0.0]]])
    def test_one_row_or_column(self, rows, center):
        view = SparseView(np.array(rows), center=center)
        exact = float(np.sum(materialize(view) ** 2))
        assert spectral_norm_sq(view) == pytest.approx(exact, rel=1e-15)

    def test_zero_view(self):
        view = SparseView(sp.csr_matrix((4, 3)))
        assert spectral_norm_sq(view) == 0.0

    def test_centered_constant_columns(self):
        # centering cancels every entry: X^T X is the zero operator
        flat = SparseView(np.tile([1.0, 2.0, -3.0], (4, 1)), center=True)
        assert spectral_norm_sq(flat) == 0.0
        state = init_random([flat, SparseView(np.eye(4))], 1, seed=0)
        state.ensure_sigma(seed=0)
        assert state.sigma_sq[0] == 0.0
        with pytest.raises(EmptyViewError):
            step_size(0, state, 1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        view = random_sparse_view(rng, 25, 12, 0.3)
        assert spectral_norm_sq(view, seed=9) == spectral_norm_sq(view, seed=9)


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
        view = SparseView.from_triplets([0], [2], [1.5], (2, 3))
        path = tmp_path / "v.mtx"
        save_matrix_market(path, view)
        lines = path.read_text().splitlines()
        assert lines[0] == MM_HEADER
        assert lines[1] == "2 3 1"
        assert lines[2].split()[:2] == ["1", "3"]

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
