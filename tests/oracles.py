"""Independent reference computations the tests check the library against.

Everything here recomputes results by a different route than the
library: explicit densification, scalar loops, grid/ternary scans, and
finite differences.  Keep these free of calls into the code paths they
verify.
"""

from hashlib import blake2b
from itertools import permutations

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist


def materialize(view):
    """Densify a view by hand."""
    return np.asarray(view.raw.todense())


def stack_views(views):
    """Horizontally concatenate the raw view matrices."""
    return sp.hstack([v.raw for v in views]).tocsr()


def hashed_rows(docs, bits, seed):
    """Signed feature hashing by hand: one {slot: value} dict per document.

    Follows the ``HashSpec`` contract: BLAKE2b with a 9-byte digest, keyed
    by the seed's eight little-endian bytes; the first eight digest bytes,
    read little-endian, pick the slot modulo 2**bits, and the low bit of
    the ninth picks the sign (+1 when set).  Every occurrence adds its
    sign, so cancelled slots stay in the dict with value 0.
    """
    key = seed.to_bytes(8, "little")
    rows = []
    for doc in docs:
        row = {}
        for tok in doc:
            digest = blake2b(tok.encode("utf-8"), digest_size=9,
                             key=key).digest()
            slot = int.from_bytes(digest[:8], "little") % 2 ** bits
            row[slot] = row.get(slot, 0.0) + (1.0 if digest[8] % 2 else -1.0)
        rows.append(row)
    return rows


def random_stiefel(rng, rows, cols, count):
    """Batch of matrices with orthonormal columns from Gaussian QR."""
    q, _ = np.linalg.qr(rng.standard_normal((count, rows, cols)))
    return q


def ternary_min(fun, lo, hi, iters=150):
    """Vectorized ternary search for elementwise-unimodal objectives."""
    lo = np.array(lo, dtype=np.float64)
    hi = np.array(hi, dtype=np.float64)
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        take_left = fun(m1) < fun(m2)
        hi = np.where(take_left, m2, hi)
        lo = np.where(take_left, lo, m1)
    return 0.5 * (lo + hi)


def prox_bruteforce(kind, v, tau, lam, mu):
    """1-D scan minimizer of ||q - v||^2 + tau*(lam*sparse + mu*frob2)."""
    v = np.asarray(v, dtype=np.float64)
    if kind == "none":
        return v.copy()
    if kind == "nonneg":
        obj = lambda q: (q - v) ** 2
        return ternary_min(obj, np.zeros_like(v), np.maximum(v, 0.0) + 1.0)
    if kind in ("l1", "elastic_l1"):
        mu_eff = mu if kind == "elastic_l1" else 0.0
        obj = lambda q: (q - v) ** 2 + tau * lam * np.abs(q) \
            + tau * mu_eff * q ** 2
        span = np.abs(v) + 1.0
        return ternary_min(obj, -span, span)
    # row-group kinds reduce to a radial magnitude per row; the last axis
    # is the row, so this also covers batched (n, rows, cols) input
    mu_eff = mu if kind == "elastic_l21" else 0.0
    norms = np.linalg.norm(v, axis=-1)
    obj = lambda mval: (mval - norms) ** 2 + tau * lam * mval \
        + tau * mu_eff * mval ** 2
    mags = ternary_min(obj, np.zeros_like(norms), norms + 1.0)
    safe = np.where(norms > 0, norms, 1.0)
    return v * (mags / safe)[..., None]


def prox_objective(kind, q, v, tau, lam, mu):
    """Objective the prox is supposed to minimize, evaluated directly."""
    q = np.asarray(q, dtype=np.float64)
    val = float(np.sum((q - v) ** 2))
    if kind == "l1":
        val += tau * lam * float(np.abs(q).sum())
    elif kind == "l21":
        val += tau * lam * float(np.linalg.norm(q, axis=1).sum())
    elif kind == "elastic_l1":
        val += tau * (lam * float(np.abs(q).sum()) + mu * float((q * q).sum()))
    elif kind == "elastic_l21":
        val += tau * (lam * float(np.linalg.norm(q, axis=1).sum())
                      + mu * float((q * q).sum()))
    elif kind == "nonneg":
        if q.size and q.min() < 0:
            return np.inf
    return val


def smooth_block_objective(i, views_dense, qs, gs, ys, rho, q_i):
    """Smooth part of the block-i objective from densified views."""
    p = views_dense[i] @ q_i
    val = 0.0
    for j in range(len(views_dense)):
        if j != i:
            val += 0.5 * np.sum((p - gs[j]) ** 2)
    val += 0.5 * rho * np.sum((p - gs[i] + ys[i] / rho) ** 2)
    return float(val)


def fd_gradient(fun, q, h=1e-6):
    """Central finite differences, entry by entry."""
    grad = np.zeros_like(q)
    for a in range(q.shape[0]):
        for b in range(q.shape[1]):
            qp = q.copy()
            qp[a, b] += h
            qm = q.copy()
            qm[a, b] -= h
            grad[a, b] = (fun(qp) - fun(qm)) / (2.0 * h)
    return grad


def g_subproblem_objective(i, ps, ys, rho, g):
    """Objective of the orthonormal-latent subproblem for view i."""
    val = 0.0
    for j in range(len(ps)):
        if j != i:
            val += 0.5 * np.sum((ps[j] - g) ** 2)
    val += 0.5 * rho * np.sum((ps[i] - g + ys[i] / rho) ** 2)
    return float(val)


def lagrangian_scalar(ps, gs, qs, ys, rho, penalty_fn):
    """Term-by-term scalar-loop evaluation of the ordered-pair Lagrangian."""
    n = len(ps)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            d = ps[i] - gs[j]
            for a in range(d.shape[0]):
                for b in range(d.shape[1]):
                    total += 0.5 * d[a, b] * d[a, b]
    for i in range(n):
        total += penalty_fn(i, qs[i])
        s = ps[i] - gs[i] + ys[i] / rho
        for a in range(s.shape[0]):
            for b in range(s.shape[1]):
                total += 0.5 * rho * s[a, b] * s[a, b]
    return total


def pairwise_inner_loop(mats):
    """Sum of <A_i, A_j> over unordered pairs i < j, entry by entry."""
    total = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            a, b = mats[i], mats[j]
            for r in range(a.shape[0]):
                for c in range(a.shape[1]):
                    total += a[r, c] * b[r, c]
    return total


def match_ranks(query, gallery):
    """1-based rank of each query row's true match, the gallery row of
    the same index, over the full n x n distance matrix.

    Each row counts, one candidate at a time, the gallery rows strictly
    closer than its true match, so one at an equal distance ranks behind
    it.
    """
    d = cdist(query, gallery)
    n = d.shape[0]
    return np.array([1 + sum(d[r, c] < d[r, r] for c in range(n))
                     for r in range(n)])


def retrieval_scores(projections):
    """(AROC, NN frequency) percent for every ordered pair of row-aligned
    projections: the rank maps linearly from 1 (100%) to n (0%)."""
    n = projections[0].shape[0]
    scores = {}
    for i, j in permutations(range(len(projections)), 2):
        ranks = match_ranks(projections[i], projections[j])
        scores[i, j] = (100.0 * float(np.sum(n - ranks)) / (n * (n - 1)),
                        100.0 * float(np.sum(ranks == 1)) / n)
    return scores
