"""Small hand-checked cases for the benchmark's reference routines.

Run with ``python -m pytest bench/test_reference.py``.
"""

import hashlib

import numpy as np
import scipy.sparse as sp

import reference as ref


def test_correlation_matches_dense_brute_force():
    rng = np.random.default_rng(0)
    mats = [sp.random(30, m, density=0.3, random_state=s, format="csr")
            for s, m in enumerate((7, 9, 5))]
    qs = [rng.standard_normal((m.shape[1], 2)) for m in mats]
    brute = sum(np.trace(qs[i].T @ mats[i].toarray().T
                         @ mats[j].toarray() @ qs[j])
                for i in range(3) for j in range(3) if i != j)
    assert np.isclose(ref.correlation_percent(mats, qs),
                      100.0 * brute / (2 * 3 * 2), rtol=1e-12)


def test_identical_orthonormal_latents_reach_the_ideal():
    g, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((20, 3)))
    assert np.isclose(ref.latent_correlation_percent([g, g, g, g]), 100.0)
    assert ref.orthonormality_error(g) < 1e-12
    # X_i = I_L and Q_i = G make the products equal the latents exactly
    eye = sp.identity(20, format="csr")
    assert np.isclose(ref.correlation_percent([eye, eye], [g, g]), 100.0)
    assert ref.slack([eye, eye], [g, g], [g, g]) == 0.0


def test_hash_slot_sign_follows_the_documented_digest_layout():
    digest = hashlib.blake2b(b"token", digest_size=9,
                             key=(7).to_bytes(8, "little")).digest()
    slot, sign = ref.hash_slot_sign("token", 10, 7)
    assert slot == int.from_bytes(digest[:8], "little") % 1024
    assert sign == (1 if digest[8] & 1 else -1)


def test_hash_row_sums_signed_occurrences():
    slot, sign = ref.hash_slot_sign("a", 12, 3)
    assert ref.hash_row(["a", "a", "a"], 12, 3) == {slot: 3.0 * sign}
    assert ref.hash_row([], 12, 3) == {}
    both = ref.hash_row(["a", "b"], 12, 3)
    merged = {}
    for part in (ref.hash_row(["a"], 12, 3), ref.hash_row(["b"], 12, 3)):
        for s, v in part.items():
            merged[s] = merged.get(s, 0.0) + v
    assert both == {s: v for s, v in merged.items() if v != 0.0}


def test_match_ranks_places_true_match_before_ties():
    query = np.array([[0.0], [1.0], [5.0]])
    gallery = np.array([[1.0], [2.0], [6.0]])
    # row 0: true match at distance 1 ties gallery row 0 itself and
    # beats none -> rank 1; row 1: gallery 0 (d=0) is closer -> rank 2;
    # row 2: true match at d=1, gallery 1 at d=3 -> rank 1
    ranks = ref.match_ranks(query, gallery, block=2)
    assert ranks.tolist() == [1, 2, 1]
    aroc, nn = ref.aroc_nn(ranks)
    assert np.isclose(aroc, 100.0 * (1 + 0.5 + 1) / 3)
    assert np.isclose(nn, 200.0 / 3)


def test_match_ranks_worst_case_is_rank_n():
    query = np.array([[0.0], [0.0], [0.0]])
    gallery = np.array([[3.0], [1.0], [2.0]])
    assert ref.match_ranks(query, gallery).tolist() == [3, 1, 2]
    assert ref.aroc_nn(np.array([3, 3, 3]))[0] == 0.0
