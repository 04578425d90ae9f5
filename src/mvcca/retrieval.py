"""Cross-view retrieval evaluation: hashing, projection, rank metrics.

Documents are bags of tokens turned into fixed-width sparse rows by
signed feature hashing, which preserves inner products in expectation.
Held-out rows are projected through the learned factors and scored by
how well each row's true counterpart in another view ranks among all
candidates by Euclidean distance.
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .errors import InputError
from .linalg import SparseView, row_count, spmm_right


@dataclass(frozen=True)
class HashSpec:
    """Signed-hash configuration: 2**bits slots, seeded hash family.

    The token hash is pinned to BLAKE2b keyed by the seed: the first
    eight digest bytes pick the slot, the ninth picks the sign.  Hashed
    corpora are therefore reproducible byte for byte across runs.  The
    seed is the eight-byte key, so it lies in [0, 2**64).
    """

    bits: int = 19
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.bits <= 30:
            raise ValueError("bits must be in [1, 30]")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be in [0, 2**64)")

    @property
    def slots(self) -> int:
        return 1 << self.bits


@functools.lru_cache(maxsize=16)
def _keyed_blake2b(seed: int):
    # keying runs a full BLAKE2b compression; a copy of the keyed state
    # skips it, so each seed is keyed once
    return blake2b(digest_size=9, key=seed.to_bytes(8, "little"))


def _token_slot_sign(token: str, spec: HashSpec) -> tuple[int, float]:
    state = _keyed_blake2b(spec.seed).copy()
    state.update(token.encode("utf-8"))
    digest = state.digest()
    slot = int.from_bytes(digest[:8], "little") & (spec.slots - 1)
    sign = 1.0 if digest[8] & 1 else -1.0
    return slot, sign


def hash_corpus(documents, spec: HashSpec) -> SparseView:
    """Hash an iterable of token iterables into one view, one row each.

    Documents may be any iterables, generators included.  Each
    occurrence adds +/-1 at its token's slot, so hashing a concatenation
    of two documents equals the sum of their hashed rows exactly, and
    the expected inner product of two hashed rows equals the
    bag-of-words inner product; an empty document gives the zero row.

    The occurrences go into one flat list, each distinct token is hashed
    once from a copy of the seed's keyed BLAKE2b state, and every
    occurrence is mapped to its token's slot and sign by one array
    lookup.  The CSR is built in one step, and one ``sum_duplicates``
    then sorts each row's slots and sums them, so a sum that cancels
    stays an explicit zero.
    """
    flat: list = []
    indptr = [0]
    for doc in documents:
        flat.extend(doc)
        indptr.append(len(flat))
    if len(indptr) == 1:
        raise ValueError("empty corpus")
    # distinct tokens in first-seen order, each with its position
    position = {tok: i for i, tok in enumerate(dict.fromkeys(flat))}
    hashed = [_token_slot_sign(tok, spec) for tok in position]
    slot = np.fromiter((s for s, _ in hashed), np.int32, len(hashed))
    sign = np.fromiter((g for _, g in hashed), np.float64, len(hashed))
    ids = np.fromiter(map(position.__getitem__, flat), np.intp, len(flat))
    matrix = sp.csr_matrix((sign[ids], slot[ids], np.array(indptr)),
                           shape=(len(indptr) - 1, spec.slots))
    matrix.sum_duplicates()
    return SparseView(matrix)


def split_rows(n_rows: int, seed: int,
               fractions: tuple[float, float, float] = (0.7, 0.2, 0.1)):
    """Seeded shuffle split into train/test/validation index arrays.

    The validation slice is returned but typically unused.
    """
    # written so that NaN fails
    if not all(0.0 <= f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in [0, 1]")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    perm = np.random.default_rng(seed).permutation(n_rows)
    # the cut points are rounded, not the slice sizes, so a zero
    # fraction never gets a row that its neighbours both rounded away
    n_train = int(round(fractions[0] * n_rows))
    n_kept = int(round((fractions[0] + fractions[1]) * n_rows))
    return (np.sort(perm[:n_train]), np.sort(perm[n_train:n_kept]),
            np.sort(perm[n_kept:]))


def project(view: SparseView, factor) -> np.ndarray:
    """Map held-out rows into the shared latent space: X_hat @ Q."""
    return spmm_right(view, factor)


def cross_distances(proj_a, proj_b) -> np.ndarray:
    """All Euclidean distances between two projected row sets."""
    proj_a = np.asarray(proj_a, dtype=np.float64)
    proj_b = np.asarray(proj_b, dtype=np.float64)
    if proj_a.shape[1] != proj_b.shape[1]:
        raise ValueError("projections have different widths")
    return cdist(proj_a, proj_b)


# each task ranks one slab of query rows against a whole gallery; a slab
# holds about this many distances, so a worker's scratch stays near 1 MB
_SLAB_ENTRIES = 1 << 17


def _worker_count() -> int:
    """Threads that rank distance slabs: one per core this process may
    run on (cdist and the comparisons release the interpreter lock)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _ordered_ranks(projections) -> dict[tuple[int, int], np.ndarray]:
    """Match ranks for every ordered pair of row-aligned projections.

    Each unordered pair (i, j) is ranked in one pass over row slabs of
    its distances d(P_i[r], P_j[c]): a slab's row counts rank the queries
    of view i against gallery j, and its column counts, summed over the
    slabs, rank the queries of view j against gallery i.  The true-match
    distances come from the same kernel on the diagonal blocks, so equal
    distances compare exactly as in the full matrix.
    """
    n_rows = projections[0].shape[0]
    step = max(1, _SLAB_ENTRIES // n_rows)
    slabs = [(s, min(s + step, n_rows)) for s in range(0, n_rows, step)]
    pairs = list(itertools.combinations(range(len(projections)), 2))

    def true_distances(pair) -> np.ndarray:
        a, b = (projections[v] for v in pair)
        return np.concatenate([np.diagonal(cross_distances(a[s:e], b[s:e]))
                               for s, e in slabs])

    ranks = {pair: np.ones(n_rows, dtype=np.int64) for pair in
             itertools.permutations(range(len(projections)), 2)}
    with ThreadPoolExecutor(_worker_count()) as pool:
        true = list(pool.map(true_distances, pairs))

        def closer_counts(task):
            p, (s, e) = task
            i, j = pairs[p]
            d = cross_distances(projections[i][s:e], projections[j])
            # counts summed in int32, the cheaper reduction: no count
            # reaches 2**31, since each is at most n_rows
            return (p, s, e,
                    np.add.reduce(d < true[p][s:e, None], axis=1,
                                  dtype=np.int32),
                    np.add.reduce(d < true[p], axis=0, dtype=np.int32))

        # fold each slab's counts as it arrives, so no slab's column
        # counts outlive it
        for p, s, e, row_counts, col_counts in pool.map(
                closer_counts, itertools.product(range(len(pairs)), slabs)):
            i, j = pairs[p]
            ranks[i, j][s:e] += row_counts
            ranks[j, i] += col_counts
    return ranks


def _aroc_percent(ranks, n_rows: int):
    return (1.0 - (ranks - 1) / (n_rows - 1)) * 100.0


def _nn_percent(ranks) -> float:
    return float(100.0 * np.mean(ranks == 1))


@dataclass(frozen=True)
class PairScore:
    query_view: int
    gallery_view: int
    aroc: float
    nn_freq: float


@dataclass(frozen=True)
class RetrievalResult:
    """Scores for every ordered view pair plus their means."""

    pairs: list[PairScore]
    mean_aroc: float
    mean_nn_freq: float


def evaluate_pairs(test_views, factors) -> RetrievalResult:
    """Score cross-view retrieval for every ordered pair of views.

    All test views must list the same entities in the same row order.
    For each pair (i, j) the rows of view i query the gallery of view j.
    A query's rank is 1 plus the number of gallery rows strictly closer
    than its true match (the gallery row of the same index), so a tie
    goes to the true match.  Its AROC is 100 * (1 - (rank - 1) / (n - 1))
    percent: 100 when the true match is nearest, 0 when it ranks last.
    The pair's AROC is the mean over queries, and its NN frequency the
    percent of queries of rank 1.  Each unordered pair is
    scored in one pass over row slabs of about 2**17 distances, run on a
    thread pool with one worker per usable core, so memory is
    O(workers * slab), not n x n.

    The views and factors pass :func:`.linalg.row_count`, and fewer
    than two rows raise an :class:`InputError`; factors of different
    widths fail in a worker, when their distances are taken.
    """
    views = list(test_views)
    n_rows = row_count(views, factors)
    if n_rows < 2:
        raise InputError("need at least two aligned rows")
    ranks = _ordered_ranks([project(v, q) for v, q in zip(views, factors)])

    pairs = [PairScore(i, j,
                       float(np.mean(_aroc_percent(ranks[i, j], n_rows))),
                       _nn_percent(ranks[i, j]))
             for i, j in itertools.permutations(range(len(views)), 2)]
    return RetrievalResult(
        pairs=pairs,
        mean_aroc=float(np.mean([p.aroc for p in pairs])),
        mean_nn_freq=float(np.mean([p.nn_freq for p in pairs])))
