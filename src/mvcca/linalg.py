"""Sparse views and the thin dense kernels the solvers are built on.

A view is a large, very sparse L x M matrix, held in CSR layout exactly
as given.  Everything downstream (solver updates, metrics, retrieval
projections) multiplies by it through ``spmm_right`` / ``spmm_left_t``,
one sparse product each, so the O(nnz * K) cost model holds end to end;
the Lanczos runs for sigma_max^2 multiply single vectors through the
view's CSR and CSC arrays directly.  Matrix Market files are read and
written by scipy.
"""

from __future__ import annotations

import io
import re
import warnings

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import (InputError, NumericError, RankDeficiencyError,
                     RegularityError)

_ORTHO_TOL = 1e-10
# ARPACK's relative residual tolerance and Lanczos basis size for
# sigma_max^2 (see spectral_norm_sq)
_LANCZOS_TOL = 1e-7
_LANCZOS_NCV = 10


class SparseView:
    """One data view: an immutable L x M sparse matrix in CSR layout.

    ``matrix`` is any scipy sparse matrix or dense array, one row per
    entity.  Duplicate (row, col) entries and non-finite values are
    rejected.  The view is used as given: callers who want centered or
    scaled data transform it before building the view.  Its index arrays
    are int32 unless the matrix is too large for them, whatever the
    input class.  ``raw_t`` is ``raw.T``, built once: a CSC view of the
    same arrays.
    """

    __slots__ = ("raw", "raw_t")

    def __init__(self, matrix):
        # a copy, so the view never shares or sorts the caller's arrays
        raw = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        if raw.shape[0] < 1 or raw.shape[1] < 1:
            raise ValueError("view dimensions must be positive")
        if not np.all(np.isfinite(raw.data)):
            raise ValueError("view contains non-finite values")
        # sums duplicates (COO input already lost them in the conversion)
        # and sorts the indices, but keeps explicit zeros
        raw.sum_duplicates()
        if sp.issparse(matrix) and raw.nnz < matrix.nnz:
            raise ValueError("duplicate (row, col) entries in view")
        # rebuilt from its own arrays, the view gets scipy's index dtype
        # for them (int32 unless it is too large), whatever the input
        # class; narrow_columns rebuilds the same way, so it shares indptr
        self.raw = raw = sp.csr_matrix((raw.data, raw.indices, raw.indptr),
                                       shape=raw.shape)
        self.raw_t = raw.T

    @property
    def shape(self) -> tuple[int, int]:
        return self.raw.shape

    @property
    def nnz(self) -> int:
        return self.raw.nnz

    def __repr__(self) -> str:
        l_rows, m_cols = self.shape
        return f"<SparseView {l_rows}x{m_cols} nnz={self.nnz}>"


def row_count(views, factors=None) -> int:
    """The row count all ``views`` share, the one check of a view set:
    SUMCOR pairs views, so fewer than two raise a :class:`RegularityError`,
    differing row counts an :class:`InputError` listing each, and a count
    of ``factors``, when given, other than the view count a ValueError."""
    rows = [v.shape[0] for v in views]
    if len(rows) < 2:
        raise RegularityError(f"SUMCOR needs >= 2 views, got {len(rows)}")
    if any(r != rows[0] for r in rows):
        raise InputError("views disagree on row count: "
                         + ", ".join(map(str, rows)))
    if factors is not None and len(factors) != len(rows):
        raise ValueError(f"got {len(factors)} factors for {len(rows)} views")
    return rows[0]


def narrow_columns(view: SparseView) -> tuple[SparseView, np.ndarray]:
    """The view restricted to its columns that store an entry, and those
    columns' sorted indices.

    An explicit zero counts as an entry, so no entry is dropped: the
    narrowed view shares ``data`` and ``indptr`` with ``view`` and
    copies only the renumbered column indices.  Products with it sum the
    same terms in the same order as products with ``view`` on the
    matching rows, so they are bitwise equal.
    """
    raw = view.raw
    keep = np.zeros(raw.shape[1], dtype=bool)
    keep[raw.indices] = True
    cols = np.flatnonzero(keep)
    # only kept columns are looked up, so the others need no value
    renumber = np.empty(raw.shape[1], dtype=raw.indices.dtype)
    renumber[cols] = np.arange(cols.size)
    narrowed = SparseView.__new__(SparseView)
    # built without the constructor's copy and checks: the entries are
    # the view's own, already validated
    narrowed.raw = sp.csr_matrix((raw.data, renumber[raw.indices],
                                  raw.indptr),
                                 shape=(raw.shape[0], cols.size), copy=False)
    narrowed.raw_t = narrowed.raw.T
    return narrowed, cols


def _as_dense(d, rows_needed: int, what: str) -> np.ndarray:
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2:
        raise ValueError(f"{what} must be a matrix")
    if d.shape[0] != rows_needed:
        raise ValueError(
            f"{what} has {d.shape[0]} rows, expected {rows_needed}")
    if not np.all(np.isfinite(d)):
        raise NumericError(f"{what} contains non-finite values")
    return d


def spmm_right(view: SparseView, dense) -> np.ndarray:
    """Compute ``X @ D`` for an M x K dense block: O(nnz * K)."""
    return view.raw @ _as_dense(dense, view.shape[1], "right operand")


def spmm_left_t(view: SparseView, dense) -> np.ndarray:
    """Compute ``X.T @ D`` for an L x K dense block: O(nnz * K)."""
    return view.raw_t @ _as_dense(dense, view.shape[0], "left operand")


def polar_factor(m) -> np.ndarray:
    """Orthonormal polar factor of a tall L x K matrix.

    Returns the U V^T factor of the economy SVD M = U S V^T, computed
    through the K x K Gram matrix M^T M so the cost is O(L K^2 + K^3).
    The result maximizes trace(G^T M) over all matrices with
    orthonormal columns.

    A :class:`NumericError` is raised when the Gram matrix is not finite:
    a non-finite entry of M, or a finite column whose squares overflow,
    leaves a non-finite diagonal entry, so M itself is never scanned.
    :class:`RankDeficiencyError` is raised when the smallest computed
    Gram eigenvalue is not positive, or when the result still misses
    orthonormality by more than 1e-10 after at most one Newton-Schulz
    sweep.  There is no eigenvalue floor: an ill-conditioned input of
    full rank passes whenever its fold meets that tolerance.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("polar input must be a matrix")
    l_rows, k = m.shape
    if l_rows < k:
        raise ValueError("polar input must be square or tall")
    # an overflow is caught by the check that follows, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m.T @ m
    if not np.all(np.isfinite(gram)):
        raise NumericError("polar input is not finite or its Gram "
                           "matrix overflows")

    evals, vecs = np.linalg.eigh(gram)
    # comparisons are written so that NaN fails them
    if not evals[0] > 0.0:
        raise RankDeficiencyError("rank-deficient polar input")

    inv_sigma = 1.0 / np.sqrt(evals)
    # fold V diag(1/sigma) V^T at K x K size: one L x K x K product
    g = m @ ((vecs * inv_sigma) @ vecs.T)

    err = np.linalg.norm(g.T @ g - np.eye(k))
    if not err <= 1e-12:
        # one Newton-Schulz sweep squares the orthonormality error
        g = 0.5 * g @ (3.0 * np.eye(k) - g.T @ g)
        err = np.linalg.norm(g.T @ g - np.eye(k))
    if not err <= _ORTHO_TOL:
        raise RankDeficiencyError("rank-deficient polar input")
    return g


def spectral_norm_sq(view: SparseView, seed: int = 0) -> float:
    """Largest squared singular value of a view, by Lanczos on its Gram.

    A view that stores no nonzero value gives exactly 0, since X = 0 if
    and only if X^T X = 0.  Otherwise ARPACK runs on X^T X, or on X X^T
    when the view has fewer rows than columns, so its Krylov basis holds
    min(L, M)-long vectors, ``_LANCZOS_NCV`` = 10 of them.  ARPACK's
    default basis of 20 builds 21 products before its first convergence
    test; the basis of 10 tests after 11, and on a hashed text view
    that is already enough.  It stops once the Ritz estimate of the
    residual is at most ``_LANCZOS_TOL`` = 1e-7 times the Ritz value,
    tighter than the step needs, so that the short basis still lands
    within round-off of the converged value.  That value is a Rayleigh
    quotient of the Gram, so it never exceeds sigma_max^2 and falls
    short by at most 1e-7 * sigma^2; the solver's steps, scaled by
    ``SAFETY`` = 0.9, stay below the inverse Lipschitz bound for any
    estimate less than 10% short.  Each product takes two single-vector
    sparse products through ``raw`` and ``raw_t``, and only its result
    is checked: a Gram product that overflows, or an ARPACK error,
    raises a :class:`NumericError`.  The start is seeded Gaussian, so
    the value depends on the seed only within the tolerance.  A one-row
    or one-column view takes one product.
    """
    if not view.raw.data.any():
        return 0.0
    l_rows, m_cols = view.shape
    if m_cols <= l_rows:
        n, inner, outer, gram = m_cols, view.raw, view.raw_t, "X^T X"
    else:
        n, inner, outer, gram = l_rows, view.raw_t, view.raw, "X X^T"

    def matvec(v):
        out = outer @ (inner @ v)
        # ARPACK's own vectors stay finite while every product it gets does
        if not np.all(np.isfinite(out)):
            raise NumericError(f"Gram product {gram} v for sigma_max^2 "
                               "overflowed: the view's entries are too "
                               "large")
        return out

    if n == 1:
        return float(matvec(np.ones(1))[0])
    try:
        (value,) = eigsh(LinearOperator((n, n), matvec, dtype=np.float64),
                         k=1, which="LA", tol=_LANCZOS_TOL,
                         ncv=min(n, _LANCZOS_NCV),
                         v0=np.random.default_rng(seed).standard_normal(n),
                         return_eigenvectors=False)
    except ArpackError as exc:
        raise NumericError(f"Lanczos for sigma_max^2 failed: {exc}") from exc
    return float(value)


# ---------------------------------------------------------------------------
# on-disk formats: Matrix Market for sparse views, headerless CSV for dense,
# and the ASCII number rules of the text files (config, trace, index sets)


def parse_int(text: str) -> int:
    """An optionally signed run of ASCII digits; int() alone would also
    take digit-group underscores such as "1_0" and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def parse_float(text: str) -> float:
    """An ASCII decimal or exponent form, optionally signed, or ``inf``,
    as ``%.17g`` writes infinity; float() alone would also take "1_0",
    non-ASCII digits, "nan" and other spellings of infinity."""
    if not re.fullmatch(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"
                        r"|inf)", text):
        raise ValueError(f"{text!r} is not a decimal number")
    return float(text)


def save_matrix_market(path, view) -> None:
    """Write a view (or scipy sparse matrix) through scipy's writer.

    Entries are 1-based in CSR order with shortest round-trip values, so
    identical matrices give identical bytes.  The kind is pinned to the
    "real general" the loader accepts, also for symmetric or integer input.
    """
    mat = view.raw if isinstance(view, SparseView) else sp.csr_matrix(view)
    scipy.io.mmwrite(path, mat, field="real", symmetry="general")


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


# rows formatted per write: the text of one block is held at once
_CSV_BLOCK_ROWS = 4096


def save_dense_csv(path, arr) -> None:
    """Write a dense matrix as headerless CSV, one line per row.

    Each value is the shortest text that parses back to the same
    float64, sign of zero included, as written by scipy's Matrix Market
    writer, the one :func:`save_matrix_market` uses: each block of
    ``_CSV_BLOCK_ROWS`` rows goes out as an in-memory "array" file of
    the block's transpose, one value per line, whose header is dropped
    and whose line breaks within a row become commas.  The spelling
    (such as ``1E-1`` for 0.1) may vary with the scipy version; the
    values do not.
    """
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a matrix")
    k = arr.shape[1]
    with open(path, "wb") as fh:
        for start in range(0, arr.shape[0], _CSV_BLOCK_ROWS):
            buf = io.BytesIO()
            # column-major "array" order of the transpose is row order
            scipy.io.mmwrite(buf, arr[start:start + _CSV_BLOCK_ROWS].T)
            text = bytearray(buf.getbuffer())
            # the banner and comment lines start with "%", then the size
            pos = 0
            while text.startswith(b"%", pos):
                pos = text.index(b"\n", pos) + 1
            body = np.frombuffer(text, dtype=np.uint8)[
                text.index(b"\n", pos) + 1:]
            breaks = np.flatnonzero(body == ord("\n"))
            body[breaks.reshape(-1, k)[:, :-1]] = ord(",")
            fh.write(body)


def load_dense_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix; a file without a row of numbers (empty
    or blank lines only) or with a non-finite value raises ``ValueError``."""
    with warnings.catch_warnings():
        # an empty input is rejected below, not warned about
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if arr.size == 0:
        raise ValueError(f"no rows in {path}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {path}")
    return arr


def inner(a, b) -> float:
    """Frobenius inner product <A, B>, the sum of A * B entrywise.

    Summed by ``np.einsum``, which never calls BLAS.  ``np.vdot`` calls
    BLAS ``ddot``, and OpenBLAS runs that on worker threads past 10 000
    entries.  A woken worker spins on after the sum and takes a core
    from what runs next, such as the retrieval distances' own threads;
    only on much larger blocks (50 000 x 5) does it pay for itself.
    The sums taken here (objective, trace and reported correlation,
    O(L K) each) move no iterate.
    """
    return float(np.einsum("i,i->", np.ravel(a), np.ravel(b)))


def sum_blocks(mats) -> np.ndarray:
    """Sum of equally shaped blocks, accumulated in list order."""
    acc = mats[0].copy()
    for m in mats[1:]:
        acc += m
    return acc


def pairwise_inner_sum(mats) -> float:
    """Sum of <A_i, A_j> over unordered pairs i < j.

    Uses sum_{i<j} <A_i, A_j> = (||sum_i A_i||^2 - sum_i ||A_i||^2) / 2,
    so one pass over the matrices replaces the loop over pairs.
    """
    squares = 0.0
    for a in mats:
        squares += inner(a, a)
    total = sum_blocks(mats)
    return 0.5 * (inner(total, total) - squares)
