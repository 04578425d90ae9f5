"""Cross-view retrieval evaluation: hashing, projection, rank metrics.

Documents are bags of tokens turned into fixed-width sparse rows by
signed feature hashing, which preserves inner products in expectation.
Held-out rows are projected through the learned factors and scored by
how well each row's true counterpart in another view ranks among all
candidates by Euclidean distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .linalg import SparseView, spmm_right


@dataclass(frozen=True)
class HashSpec:
    """Signed-hash configuration: 2**bits slots, seeded hash family.

    The token hash is pinned to BLAKE2b keyed by the seed: the first
    eight digest bytes pick the slot, the ninth picks the sign.  Hashed
    corpora are therefore reproducible byte for byte across runs.
    """

    bits: int = 19
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.bits <= 30:
            raise ValueError("bits must be in [1, 30]")

    @property
    def slots(self) -> int:
        return 1 << self.bits


def _token_slot_sign(token: str, spec: HashSpec) -> tuple[int, float]:
    key = (spec.seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = blake2b(token.encode("utf-8"), digest_size=9, key=key).digest()
    slot = int.from_bytes(digest[:8], "little") & (spec.slots - 1)
    sign = 1.0 if digest[8] & 1 else -1.0
    return slot, sign


def hash_featurize(tokens, spec: HashSpec) -> sp.csr_matrix:
    """Hash one token sequence into a signed 1 x 2**bits sparse row.

    Each occurrence adds +/-1 at its slot, so hashing a concatenation of
    two sequences equals the sum of their hashed rows exactly, and the
    expected inner product of two hashed rows equals the bag-of-words
    inner product.  An empty sequence gives the zero row.
    """
    return hash_corpus([tokens], spec).raw


def hash_corpus(documents, spec: HashSpec) -> SparseView:
    """Hash a sequence of token lists into one view, one row per document.

    Each distinct token is hashed once.  A document's occurrences in one
    slot are summed, and a sum that cancels stays an explicit zero.
    """
    memo: dict[str, tuple[int, float]] = {}
    rows, slots, signs = [], [], []
    row = -1
    for row, doc in enumerate(documents):
        for tok in doc:
            if tok not in memo:
                memo[tok] = _token_slot_sign(tok, spec)
            slot, sign = memo[tok]
            rows.append(row)
            slots.append(slot)
            signs.append(sign)
    if row < 0:
        raise ValueError("empty corpus")
    # converting the triplets to CSR sums the (row, slot) duplicates
    return SparseView(sp.csr_matrix((signs, (rows, slots)),
                                    shape=(row + 1, spec.slots)))


def split_rows(n_rows: int, seed: int,
               fractions: tuple[float, float, float] = (0.7, 0.2, 0.1)):
    """Seeded shuffle split into train/test/validation index arrays.

    The validation slice is returned but typically unused.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    perm = np.random.default_rng(seed).permutation(n_rows)
    n_train = int(round(fractions[0] * n_rows))
    n_test = int(round(fractions[1] * n_rows))
    return (np.sort(perm[:n_train]),
            np.sort(perm[n_train:n_train + n_test]),
            np.sort(perm[n_train + n_test:]))


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


# query rows are ranked this many at a time, so evaluating a view pair
# holds a block x n slice of distances instead of the n x n matrix
_RANK_BLOCK = 256


def _match_ranks(distances: np.ndarray, first: int = 0) -> np.ndarray:
    # 1-based rank of each row's true match, the candidate in column
    # first + row; it is placed before equal-distance competitors
    rows = np.arange(distances.shape[0])
    true = distances[rows, first + rows]
    return 1 + (distances < true[:, None]).sum(axis=1)


def _pair_ranks(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Match ranks of row-aligned query and gallery sets, blockwise."""
    return np.concatenate([
        _match_ranks(cross_distances(queries[s:s + _RANK_BLOCK], gallery), s)
        for s in range(0, queries.shape[0], _RANK_BLOCK)])


def _square(distances) -> np.ndarray:
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square and row-aligned")
    return d


def _aroc_percent(ranks, n_rows: int):
    return (1.0 - (ranks - 1) / (n_rows - 1)) * 100.0


def _nn_percent(ranks) -> float:
    return float(100.0 * np.mean(ranks == 1))


def aroc(distances, query: int) -> float:
    """Rank-based retrieval accuracy for one query row, in percent.

    100 when the true match is nearest, 0 when it ranks last; linear in
    the rank in between.  Requires at least two candidates.
    """
    d = _square(distances)
    if d.shape[0] < 2:
        raise ValueError("need at least two rows for a rank percentage")
    return float(_aroc_percent(_match_ranks(d)[query], d.shape[0]))


def nn_freq(distances) -> float:
    """Percent of query rows whose true match ranks first."""
    return _nn_percent(_match_ranks(_square(distances)))


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
    For each pair (i, j) the rows of view i query the gallery of view j;
    the pair's AROC is the mean over queries.
    """
    views = list(test_views)
    if len(views) < 2:
        raise ValueError("need at least two views")
    n_rows = views[0].shape[0]
    if any(v.shape[0] != n_rows for v in views):
        raise ValueError("test views disagree on row count")
    if n_rows < 2:
        raise ValueError("need at least two aligned rows")
    if len(factors) != len(views):
        raise ValueError(f"got {len(factors)} factors for {len(views)} views")
    projections = [project(v, q) for v, q in zip(views, factors)]

    pairs = []
    for i in range(len(views)):
        for j in range(len(views)):
            if i == j:
                continue
            ranks = _pair_ranks(projections[i], projections[j])
            pairs.append(PairScore(
                i, j, float(np.mean(_aroc_percent(ranks, n_rows))),
                _nn_percent(ranks)))
    return RetrievalResult(
        pairs=pairs,
        mean_aroc=float(np.mean([p.aroc for p in pairs])),
        mean_nn_freq=float(np.mean([p.nn_freq for p in pairs])))
