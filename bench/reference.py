"""Reference computations that the benchmark checks program output against.

Each routine is written from the documented definition (README and
docstrings of the library), not from the library's code, and uses only
numpy, scipy and hashlib.  Distances come from scipy's ``cdist``, so a
rank can differ from the program's only through the ranking itself.
``test_reference.py`` pins each one on small hand-checked cases.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist


def products(mats, factors) -> list[np.ndarray]:
    """X_i @ Q_i for raw (uncentered, unscaled) sparse views."""
    return [sp.csr_matrix(x) @ np.asarray(q, dtype=np.float64)
            for x, q in zip(mats, factors)]


def pair_trace_sum(blocks) -> float:
    """Sum over ordered pairs i != j of trace(B_i^T B_j)."""
    total = 0.0
    for i, a in enumerate(blocks):
        for j, b in enumerate(blocks):
            if i != j:
                total += float(np.einsum("ij,ij->", a, b))
    return total


def correlation_percent(mats, factors) -> float:
    """Total correlation sum_{i!=j} tr(Q_i^T X_i^T X_j Q_j), in percent of
    the ideal K * I * (I - 1)."""
    n = len(factors)
    k = np.asarray(factors[0]).shape[1]
    return 100.0 * pair_trace_sum(products(mats, factors)) / (k * n * (n - 1))


def latent_correlation_percent(latents) -> float:
    """sum_{i!=j} tr(G_i^T G_j) in percent of K * I * (I - 1).

    With orthonormal G_i each trace is at most K, so this never exceeds
    100, unlike the X_i Q_i form while the slack constraints are violated.
    """
    n = len(latents)
    k = np.asarray(latents[0]).shape[1]
    return 100.0 * pair_trace_sum(latents) / (k * n * (n - 1))


def orthonormality_error(g) -> float:
    """Frobenius norm of G^T G - I."""
    g = np.asarray(g, dtype=np.float64)
    return float(np.linalg.norm(g.T @ g - np.eye(g.shape[1])))


def slack(mats, factors, latents) -> float:
    """Total squared slack sum_i ||X_i Q_i - G_i||_F^2."""
    return float(sum(np.sum((p - g) ** 2) for p, g in
                     zip(products(mats, factors), latents)))


def hash_slot_sign(token: str, bits: int, seed: int) -> tuple[int, int]:
    """Slot and sign of one token under the documented signed hash.

    BLAKE2b keyed by the seed, nine-byte digest: the first eight bytes
    pick the slot, the ninth picks the sign.  The docstring leaves byte
    order and the sign bit open; this takes the seed key and the slot
    bytes as little-endian and an odd ninth byte as +1.
    """
    key = seed.to_bytes(8, "little")
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=9,
                             key=key).digest()
    slot = int.from_bytes(digest[:8], "little") % (1 << bits)
    return slot, (1 if digest[8] % 2 else -1)


def hash_row(tokens, bits: int, seed: int) -> dict[int, float]:
    """Signed bag of slots of one document: slot -> summed signs, zeros
    dropped."""
    row: dict[int, float] = {}
    for tok in tokens:
        slot, sign = hash_slot_sign(tok, bits, seed)
        row[slot] = row.get(slot, 0.0) + sign
    return {s: v for s, v in row.items() if v != 0.0}


def match_ranks(query, gallery, block: int = 512) -> np.ndarray:
    """1-based rank of each query row's true match (the gallery row with
    the same index) among all gallery rows by Euclidean distance.

    The true match is placed before equal-distance competitors, so the
    rank is one plus the number of strictly closer gallery rows.  Rows
    are ranked a block at a time, so memory stays O(block * n).
    """
    query = np.asarray(query, dtype=np.float64)
    gallery = np.asarray(gallery, dtype=np.float64)
    n = query.shape[0]
    ranks = np.empty(n, dtype=np.int64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        dist = cdist(query[start:stop], gallery)
        own = dist[np.arange(stop - start), np.arange(start, stop)]
        ranks[start:stop] = 1 + (dist < own[:, None]).sum(axis=1)
    return ranks


def aroc_nn(ranks: np.ndarray) -> tuple[float, float]:
    """Mean AROC (100 at rank 1, 0 at rank n, linear between) and the
    percent of queries whose true match ranks first."""
    n = ranks.size
    aroc = float(np.mean(100.0 * (1.0 - (ranks - 1) / (n - 1))))
    return aroc, float(100.0 * np.mean(ranks == 1))
