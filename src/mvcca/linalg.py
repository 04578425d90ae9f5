"""Sparse views and the thin dense kernels the solvers are built on.

A view is a large, very sparse L x M matrix.  Mean removal and the
1/sqrt(L) sample scaling are never materialized: a ``SparseView`` keeps
the raw sparse matrix plus the mean row, and the multiplication kernels
apply the rank-one correction on the fly.  Everything downstream (solver
updates, metrics, retrieval projections) goes through ``spmm_right`` /
``spmm_left_t``, so the O(nnz * K) cost model holds end to end, also in
the Lanczos runs for sigma_max^2.  Matrix Market files are read by scipy.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

logger = logging.getLogger(__name__)

MM_HEADER = "%%MatrixMarket matrix coordinate real general"

_ORTHO_TOL = 1e-10
_EIG_FLOOR = 1e-14


class RankDeficiencyError(ValueError):
    """Raised when a polar factorization input has rank < K."""


class SparseView:
    """One data view: an immutable L x M sparse matrix in CSR layout.

    Parameters
    ----------
    matrix : scipy sparse matrix or dense array
        Raw data, one row per entity.  Duplicate (row, col) entries and
        non-finite values are rejected.
    center : bool
        If True, the view behaves as ``raw - 1 d^T`` with ``d`` the
        column-mean row.  The correction is applied inside the
        multiplication kernels; the stored matrix stays sparse.
    scale : bool
        If True, results carry an extra 1/sqrt(L) factor.
    mean_row : array, optional
        Precomputed column means.  Only allowed with ``center=True`` and
        checked against the actual column means of ``matrix``.
    """

    __slots__ = ("raw", "mean", "scale_flag", "_scale")

    def __init__(self, matrix, center: bool = False, scale: bool = False,
                 mean_row=None):
        coo = sp.coo_matrix(matrix)
        if coo.shape[0] < 1 or coo.shape[1] < 1:
            raise ValueError("view dimensions must be positive")
        if not np.all(np.isfinite(coo.data)):
            raise ValueError("view contains non-finite values")
        if coo.nnz:
            # a sort plus an adjacent test: np.unique on int64 keys takes a
            # hash path that costs tens of times more
            keys = np.sort(coo.row.astype(np.int64) * coo.shape[1] + coo.col)
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate (row, col) entries in view")
        self.raw = coo.tocsr()
        self.raw.sort_indices()
        self.raw.data = self.raw.data.astype(np.float64, copy=False)

        if mean_row is not None and not center:
            raise ValueError("mean_row given but centering disabled")
        if center:
            col_means = np.asarray(self.raw.mean(axis=0)).ravel()
            if mean_row is not None:
                mean_row = np.asarray(mean_row, dtype=np.float64).ravel()
                if mean_row.shape != col_means.shape:
                    raise ValueError("mean_row has wrong length")
                if not np.allclose(mean_row, col_means, atol=1e-12, rtol=1e-9):
                    raise ValueError("mean_row does not match column means")
                self.mean = mean_row
            else:
                self.mean = col_means
        else:
            self.mean = None
        self.scale_flag = bool(scale)
        self._scale = 1.0 / np.sqrt(self.raw.shape[0]) if scale else 1.0

    @classmethod
    def from_triplets(cls, rows, cols, values, shape, **kwargs) -> "SparseView":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if rows.size and (rows.min() < 0 or rows.max() >= shape[0]
                          or cols.min() < 0 or cols.max() >= shape[1]):
            raise ValueError("triplet index out of range")
        mat = sp.coo_matrix((values, (rows, cols)), shape=shape)
        return cls(mat, **kwargs)

    @property
    def shape(self) -> tuple[int, int]:
        return self.raw.shape

    @property
    def nnz(self) -> int:
        return self.raw.nnz

    @property
    def centered(self) -> bool:
        return self.mean is not None

    @property
    def scale(self) -> float:
        return self._scale

    def select_columns(self, idx) -> "SparseView":
        """Sub-view on a column subset; centering metadata carries over."""
        idx = np.asarray(idx, dtype=np.int64)
        sub = SparseView.__new__(SparseView)
        sub.raw = self.raw[:, idx].tocsr()
        sub.raw.sort_indices()
        sub.mean = self.mean[idx].copy() if self.centered else None
        sub.scale_flag = self.scale_flag
        sub._scale = self._scale
        return sub

    def __repr__(self) -> str:
        l_rows, m_cols = self.shape
        tags = []
        if self.centered:
            tags.append("centered")
        if self.scale_flag:
            tags.append("scaled")
        extra = " " + ",".join(tags) if tags else ""
        return f"<SparseView {l_rows}x{m_cols} nnz={self.nnz}{extra}>"


def _as_dense(d, rows_needed: int, what: str) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.ndim == 1:
        d = d[:, None]
    if d.ndim != 2:
        raise ValueError(f"{what} must be a matrix")
    if d.shape[0] != rows_needed:
        raise ValueError(
            f"{what} has {d.shape[0]} rows, expected {rows_needed}")
    if not np.all(np.isfinite(d)):
        raise ValueError(f"{what} contains non-finite values")
    return d


def spmm_right(view: SparseView, dense) -> np.ndarray:
    """Compute ``X @ D`` for an M x K dense block, centering implied.

    The centered product is ``scale * (raw @ D - 1 (d^T D))``: one sparse
    product plus a rank-one correction, O(nnz * K + (L + M) * K).
    """
    d = _as_dense(dense, view.shape[1], "right operand")
    out = view.raw @ d
    if view.centered:
        out -= view.mean @ d
    if view.scale_flag:
        out *= view._scale
    return out


def spmm_left_t(view: SparseView, dense) -> np.ndarray:
    """Compute ``X.T @ D`` for an L x K dense block, centering implied."""
    d = _as_dense(dense, view.shape[0], "left operand")
    out = view.raw.T @ d
    if view.centered:
        out -= np.outer(view.mean, d.sum(axis=0))
    if view.scale_flag:
        out *= view._scale
    return out


def polar_factor(m, gram_jitter: float = 0.0) -> np.ndarray:
    """Orthonormal polar factor of a tall L x K matrix.

    Returns the U V^T factor of the economy SVD M = U S V^T, computed
    through the K x K Gram matrix M^T M so the cost is O(L K^2 + K^3).
    The result has exactly orthonormal columns (checked to 1e-10) and
    maximizes trace(G^T M) over all matrices with orthonormal columns.

    ``gram_jitter`` > 0 lets a caller regularize a Gram matrix whose
    smallest eigenvalue falls below 1e-14 instead of failing outright;
    the jitter is logged and the orthonormality check still applies, so
    genuinely rank-deficient inputs raise either way.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("polar input must be a matrix")
    l_rows, k = m.shape
    if l_rows < k:
        raise ValueError("polar input must be square or tall")
    if not np.all(np.isfinite(m)):
        raise ValueError("polar input contains non-finite values")

    gram = m.T @ m
    evals, vecs = np.linalg.eigh(gram)
    floor = _EIG_FLOOR * max(1.0, float(evals[-1]))
    if evals[0] < floor:
        if gram_jitter > 0.0:
            logger.warning(
                "polar Gram eigenvalue %.3e below %.3e; adding %.1e jitter",
                evals[0], floor, gram_jitter)
            evals = evals + gram_jitter
        else:
            raise RankDeficiencyError("rank-deficient polar input")
    if evals[0] <= 0.0:
        raise RankDeficiencyError("rank-deficient polar input")

    inv_sigma = 1.0 / np.sqrt(evals)
    # fold V diag(1/sigma) V^T at K x K size: one L x K x K product
    g = m @ ((vecs * inv_sigma) @ vecs.T)

    err = np.linalg.norm(g.T @ g - np.eye(k))
    if err > 1e-12:
        # one Newton-Schulz sweep squares the orthonormality error
        g = 0.5 * g @ (3.0 * np.eye(k) - g.T @ g)
        err = np.linalg.norm(g.T @ g - np.eye(k))
    if err > _ORTHO_TOL:
        raise RankDeficiencyError("rank-deficient polar input")
    return g


def spectral_norm_sq(view: SparseView, seed: int = 0) -> float:
    """Largest squared singular value of a view, by Lanczos on its Gram.

    ARPACK runs to machine precision on X^T X, or on X X^T when the view
    has fewer rows than columns, so its Krylov basis holds min(L, M)-long
    vectors.  The start is seeded Gaussian and the value converged, so it
    does not depend on the seed beyond round-off.  A one-row or
    one-column view takes one product, and a zero view yields 0.
    """
    l_rows, m_cols = view.shape
    if m_cols <= l_rows:
        n, inner, outer = m_cols, spmm_right, spmm_left_t
    else:
        n, inner, outer = l_rows, spmm_left_t, spmm_right

    def matvec(v):
        return outer(view, inner(view, v)).ravel()

    if n == 1:
        return float(matvec(np.ones(1))[0])
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        (value,) = eigsh(LinearOperator((n, n), matvec, dtype=np.float64),
                         k=1, which="LA", tol=0, v0=v0,
                         return_eigenvectors=False)
    except ArpackError:
        # ARPACK stops with "starting vector is zero" on the zero operator
        if np.any(matvec(v0)):
            raise
        return 0.0
    return float(value)


# ---------------------------------------------------------------------------
# on-disk formats: Matrix Market for sparse views, headerless CSV for dense


def save_matrix_market(path, view) -> None:
    """Write a view (or scipy sparse matrix) in coordinate format.

    Entries are 1-based on disk, emitted in row-major order with %.17g
    values, so identical matrices produce identical bytes.
    """
    mat = view.raw if isinstance(view, SparseView) else sp.csr_matrix(view)
    mat = mat.tocsr()
    mat.sort_indices()
    coo = mat.tocoo()
    lines = [MM_HEADER, f"{mat.shape[0]} {mat.shape[1]} {mat.nnz}"]
    lines.extend(
        f"{i + 1} {j + 1} {v:.17g}"
        for i, j, v in zip(coo.row, coo.col, coo.data))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix_market(path) -> SparseView:
    """Read a "matrix coordinate real general" file with 1-based indices.

    The header is checked first; other Matrix Market kinds (array,
    integer, pattern, symmetric, ...) are rejected.  Comment lines are
    skipped, explicit zeros are kept, and a wrong entry count, an
    out-of-range index, a duplicate entry or a non-finite value raises
    ``ValueError``.
    """
    kind = scipy.io.mminfo(path)[3:]
    if kind != ("coordinate", "real", "general"):
        raise ValueError(
            "unsupported Matrix Market header: " + " ".join(kind))
    return SparseView(scipy.io.mmread(path))


def save_dense_csv(path, arr) -> None:
    """Write a dense matrix as headerless CSV at full double precision."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a matrix")
    np.savetxt(path, arr, fmt="%.17g", delimiter=",")


def load_dense_csv(path) -> np.ndarray:
    arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {path}")
    return arr


def pairwise_inner_sum(mats) -> float:
    """Sum of <A_i, A_j> over unordered pairs i < j.

    Uses sum_{i<j} <A_i, A_j> = (||sum_i A_i||^2 - sum_i ||A_i||^2) / 2,
    so one pass over the matrices replaces the loop over pairs.
    """
    total = np.zeros_like(mats[0], dtype=np.float64)
    squares = 0.0
    for a in mats:
        total += a
        squares += float(np.vdot(a, a))
    return 0.5 * (float(np.vdot(total, total)) - squares)
