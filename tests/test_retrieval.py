import sys

import numpy as np
import pytest
import scipy.sparse as sp

from mvcca import retrieval
from mvcca.linalg import SparseView
from mvcca.errors import InputError
from mvcca.retrieval import (HashSpec, cross_distances, evaluate_pairs,
                             hash_corpus, project, split_rows)

from oracles import hashed_rows, match_ranks, materialize, retrieval_scores


def hash_row(tokens, spec):
    """One document hashed as a one-row corpus."""
    return hash_corpus([tokens], spec).raw


def bow_vector(doc, vocab):
    vec = np.zeros(len(vocab))
    lookup = {tok: i for i, tok in enumerate(vocab)}
    for tok in doc:
        vec[lookup[tok]] += 1
    return vec


class TestHashFeaturize:
    def test_repeated_token_single_slot(self):
        row = hash_row(["a", "a"], HashSpec(bits=10, seed=0))
        assert row.nnz == 1
        assert abs(row.data[0]) == 2.0

    def test_empty_tokens_zero_row(self):
        row = hash_row([], HashSpec(bits=10, seed=0))
        assert row.nnz == 0
        assert row.shape == (1, 1024)

    def test_linearity_exact(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(30)]
        spec = HashSpec(bits=8, seed=3)
        for _ in range(20):
            d1 = list(rng.choice(vocab, size=rng.integers(0, 25)))
            d2 = list(rng.choice(vocab, size=rng.integers(0, 25)))
            combined = hash_row(d1 + d2, spec).toarray()
            separate = (hash_row(d1, spec) + hash_row(d2, spec)).toarray()
            np.testing.assert_array_equal(combined, separate)

    def test_deterministic_across_calls(self):
        spec = HashSpec(bits=12, seed=9)
        doc = ["alpha", "beta", "gamma", "alpha"]
        a = hash_row(doc, spec).toarray()
        b = hash_row(doc, spec).toarray()
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_layout(self):
        doc = ["alpha", "beta", "gamma"]
        a = hash_row(doc, HashSpec(bits=12, seed=0)).toarray()
        b = hash_row(doc, HashSpec(bits=12, seed=1)).toarray()
        assert not np.array_equal(a, b)

    def test_inner_product_unbiased(self):
        rng = np.random.default_rng(1)
        vocab = [f"w{i}" for i in range(40)]
        docs = [list(rng.choice(vocab, size=rng.integers(10, 40)))
                for _ in range(8)]
        bows = np.array([bow_vector(d, vocab) for d in docs])
        exact = bows @ bows.T
        acc = np.zeros_like(exact)
        n_seeds = 300
        for seed in range(n_seeds):
            spec = HashSpec(bits=10, seed=seed)
            hashed = hash_corpus(docs, spec).raw.toarray()
            acc += hashed @ hashed.T
        mean = acc / n_seeds
        for i in range(8):
            for j in range(i + 1, 8):
                if exact[i, j] > 0:
                    assert abs(mean[i, j] - exact[i, j]) <= 0.05 * exact[i, j]

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            HashSpec(bits=0)
        with pytest.raises(ValueError):
            HashSpec(bits=31)

    def test_seed_validated(self):
        # the seed is the eight-byte hash key, so it must fit in 64 bits
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match=r"seed must be in"):
                HashSpec(seed=seed)
        assert HashSpec(seed=(1 << 64) - 1).seed == (1 << 64) - 1


class TestHashCorpus:
    def test_shape_and_rows(self):
        spec = HashSpec(bits=9, seed=2)
        view = hash_corpus([["a", "b"], [], ["c"]], spec)
        assert view.shape == (3, 512)
        row1 = hash_row(["a", "b"], spec).toarray()
        np.testing.assert_array_equal(materialize(view)[0], row1.ravel())
        assert np.all(materialize(view)[1] == 0.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            hash_corpus([], HashSpec(bits=9))

    def test_rows_match_per_document_hashing(self):
        spec = HashSpec(bits=6, seed=3)
        docs = [["a", "b", "a"], [], ["c", "b"], ["b", "d", "e", "a"]]
        got = hash_corpus(docs, spec).raw
        ref = sp.vstack([hash_row(d, spec) for d in docs]).tocsr()
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_matches_hand_hashed_rows(self):
        # 8 slots for 12 tokens: slots collide, signs cancel to explicit
        # zeros, and some documents are empty
        rng = np.random.default_rng(4)
        vocab = [f"tok{i}" for i in range(12)]
        docs = [list(rng.choice(vocab, size=rng.integers(0, 9)))
                for _ in range(40)] + [[]]
        ref = hashed_rows(docs, bits=3, seed=5)
        want = {
            "data": np.array([row[s] for row in ref for s in sorted(row)]),
            "indices": np.array([s for row in ref for s in sorted(row)],
                                dtype=np.int32),
            "indptr": np.cumsum([0] + [len(row) for row in ref],
                                dtype=np.int32),
        }
        assert 0.0 in want["data"] and {} in ref
        got = hash_corpus(docs, HashSpec(bits=3, seed=5)).raw
        for name, arr in want.items():
            assert getattr(got, name).dtype == arr.dtype, name
            assert getattr(got, name).tobytes() == arr.tobytes(), name

    def test_each_distinct_token_hashed_once(self, monkeypatch):
        calls = []
        real = retrieval._token_slot_sign

        def counted(token, spec):
            calls.append(token)
            return real(token, spec)

        monkeypatch.setattr(retrieval, "_token_slot_sign", counted)
        hash_corpus([["a", "b", "a"], ["b", "c"], ["a"]], HashSpec(bits=8))
        assert sorted(calls) == ["a", "b", "c"]


def signed_sums(docs, spec):
    """Reference rows: one {slot: summed sign} dict per document, from
    the per-token hash."""
    rows = []
    for doc in docs:
        row = {}
        for tok in doc:
            slot, sign = retrieval._token_slot_sign(tok, spec)
            row[slot] = row.get(slot, 0.0) + sign
        rows.append(row)
    return rows


def assert_hashed_rows(matrix, rows, spec):
    """``matrix`` is the canonical int32-index CSR of the reference rows,
    cancelled slots kept as explicit zeros."""
    assert type(matrix) is sp.csr_matrix
    assert matrix.shape == (len(rows), spec.slots)
    assert matrix.has_canonical_format
    assert matrix.data.dtype == np.float64
    assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
    np.testing.assert_array_equal(
        matrix.indptr, np.cumsum([0] + [len(row) for row in rows]))
    for i, row in enumerate(rows):
        start, end = matrix.indptr[i:i + 2]
        assert matrix.indices[start:end].tolist() == sorted(row)
        assert matrix.data[start:end].tolist() == [row[s] for s in sorted(row)]


def random_docs(rng, n_docs, vocab, max_len):
    return [[str(t) for t in rng.choice(vocab, size=rng.integers(0, max_len))]
            for _ in range(n_docs)]


class TestArrayBuiltHashing:
    """``hash_corpus`` of a corpus and of each document alone against
    per-document sums of ``_token_slot_sign``."""

    CORPORA = {
        # tokens repeat within and across documents, and 16 slots for 40
        # tokens make slots collide and cancel
        "cancelling": (random_docs(np.random.default_rng(40), 60,
                                   [f"w{i}" for i in range(40)], 12), 4),
        "empty first and last": ([[], ["a", "b"], [], ["b", "a", "c"], []],
                                 8),
        "all empty": ([[], [], []], 8),
        "repeated across documents": ([["x", "y"], ["y", "x", "x"], ["x"],
                                       ["z", "y"]], 10),
        "non-ascii": ([["café", "naïve", "日本語"], ["🙂", "straße", "café"],
                       ["Ωmega", "日本語", "🙂", "🙂"]], 12),
        "one bit": (random_docs(np.random.default_rng(41), 20,
                                [f"t{i}" for i in range(9)], 7), 1),
    }

    @pytest.mark.parametrize("name", CORPORA)
    def test_matches_signed_sums(self, name):
        docs, bits = self.CORPORA[name]
        spec = HashSpec(bits=bits, seed=7)
        rows = signed_sums(docs, spec)
        view = hash_corpus(docs, spec)
        assert_hashed_rows(view.raw, rows, spec)
        for i, doc in enumerate(docs):
            one = hash_row(doc, spec)
            assert_hashed_rows(one, rows[i:i + 1], spec)
            assert (one != view.raw[i]).nnz == 0

    def test_random_corpora_keep_cancelled_slots(self):
        rng = np.random.default_rng(42)
        zeros = 0
        for trial in range(10):
            docs = random_docs(rng, 50, [f"v{i}" for i in range(25)], 15)
            spec = HashSpec(bits=3, seed=trial)
            raw = hash_corpus(docs, spec).raw
            assert_hashed_rows(raw, signed_sums(docs, spec), spec)
            zeros += int(np.sum(raw.data == 0.0))
        assert zeros > 0

    def test_generator_corpus_of_generator_documents(self):
        docs = [["a", "b", "a"], [], ["c", "é", "b"], ["a"]]
        spec = HashSpec(bits=5, seed=3)
        got = hash_corpus(((tok for tok in doc) for doc in docs), spec)
        assert_hashed_rows(got.raw, signed_sums(docs, spec), spec)
        one = hash_row((tok for tok in docs[2]), spec)
        assert_hashed_rows(one, signed_sums(docs[2:3], spec), spec)


class TestSplitRows:
    def test_partition_and_sizes(self):
        train, test, val = split_rows(100, seed=4)
        assert len(train) == 70 and len(test) == 20 and len(val) == 10
        combined = np.sort(np.concatenate([train, test, val]))
        np.testing.assert_array_equal(combined, np.arange(100))

    @pytest.mark.parametrize("n_rows", [5, 9])
    def test_zero_fraction_gets_no_row(self, n_rows):
        # half of an odd count is x.5 on both sides of the cut
        train, test, val = split_rows(n_rows, seed=0,
                                      fractions=(0.5, 0.5, 0.0))
        assert val.size == 0
        assert train.size + test.size == n_rows

    def test_deterministic(self):
        a = split_rows(50, seed=5)
        b = split_rows(50, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            split_rows(10, seed=0, fractions=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("fractions", [(1.5, -0.5, 0.0),
                                           (0.5, 0.5, float("nan"))],
                             ids=["outside", "nan"])
    def test_fraction_outside_unit_interval(self, fractions):
        # both sets pass the sum test: 1.0, and NaN compares false
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            split_rows(10, seed=0, fractions=fractions)


class TestProject:
    def test_identity(self):
        view = SparseView(np.eye(3))
        q = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(project(view, q), q)

    def test_single_entry(self):
        view = SparseView(np.array([[0.0, 5.0], [0.0, 0.0]]))
        q = np.array([[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(project(view, q),
                                      [[5.0, 0.0], [0.0, 0.0]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((10, 6)) * (rng.random((10, 6)) < 0.3)
        view = SparseView(data)
        q = rng.standard_normal((6, 2))
        np.testing.assert_allclose(project(view, q),
                                   materialize(view) @ q, atol=1e-12)


class TestCrossDistances:
    def test_identical_sets_zero_diagonal(self):
        rng = np.random.default_rng(7)
        p = rng.standard_normal((5, 3))
        d = cross_distances(p, p)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)

    def test_one_dimensional_points(self):
        d = cross_distances(np.array([[0.0]]), np.array([[3.0]]))
        assert d[0, 0] == pytest.approx(3.0)

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((6, 4))
        d = cross_distances(a, b)
        for i in range(6):
            for j in range(6):
                ref = np.sqrt(np.sum((a[i] - b[j]) ** 2))
                assert abs(d[i, j] - ref) <= 1e-10

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            cross_distances(np.zeros((2, 3)), np.zeros((2, 2)))


def scores_of(points):
    """``evaluate_pairs`` on views that hold the given projections
    themselves: each view is its points and each factor the identity."""
    width = points[0].shape[1]
    return evaluate_pairs([SparseView(p) for p in points],
                          [np.eye(width)] * len(points))


def circle(n, turn=0.0):
    """n points evenly spaced on the unit circle, rotated by ``turn``
    of the spacing."""
    angle = 2.0 * np.pi * (np.arange(n) + turn) / n
    return np.column_stack([np.cos(angle), np.sin(angle)])


def small_integer_points(rng, views=3, rows=30, width=3):
    """Projections with entries in {-2, ..., 2}, so that many distances
    are equal."""
    return [rng.integers(-2, 3, (rows, width)).astype(float)
            for _ in range(views)]


def score_table(result):
    return {(p.query_view, p.gallery_view): (p.aroc, p.nn_freq)
            for p in result.pairs}


class TestAroc:
    def test_best_rank(self):
        ring = circle(100)
        result = scores_of([ring, ring])
        assert set(score_table(result).values()) == {(100.0, 100.0)}

    def test_worst_rank(self):
        # every other point is closer to a point than its antipode
        ring = circle(100)
        result = scores_of([ring, -ring])
        assert set(score_table(result).values()) == {(0.0, 0.0)}

    def test_midpoint(self):
        # x_r = r against y_r = -r: the true match lies at 2r and the r
        # candidates c < r lie closer, so the ranks run through 1 .. n
        line = np.arange(101.0)[:, None]
        result = scores_of([line, -line])
        for aroc, nn in score_table(result).values():
            assert aroc == pytest.approx(50.0)
            assert nn == pytest.approx(100.0 / 101)

    def test_tie_goes_to_true_match(self):
        # every point twice: each true match ties with its duplicate
        rng = np.random.default_rng(9)
        twice = np.tile(rng.standard_normal((10, 3)), (2, 1))
        result = scores_of([twice, twice, twice])
        assert set(score_table(result).values()) == {(100.0, 100.0)}

    def test_requires_two_rows(self):
        with pytest.raises(InputError, match="two aligned rows"):
            scores_of([np.ones((1, 2)), np.ones((1, 2))])

    def test_invariant_under_monotone_transform(self):
        # scaling every projection by s maps each distance d to s * d
        rng = np.random.default_rng(12)
        points = [rng.standard_normal((20, 3)) for _ in range(3)]
        base = scores_of(points)
        for s in (2.0 ** -30, 7.0, 1e3):
            assert scores_of([s * p for p in points]) == base


class TestNnFreq:
    def test_all_diagonals_smallest(self):
        # grid points at unit spacing against copies moved by 0.1
        grid = np.array([(a, b) for a in range(5) for b in range(5)], float)
        result = scores_of([grid, grid + 0.1])
        assert set(score_table(result).values()) == {(100.0, 100.0)}

    def test_no_diagonal_smallest(self):
        # turned by 0.6 of the spacing, each point's neighbour on one
        # side lies 0.4 away and its true match 0.6: every rank is 2
        result = scores_of([circle(100), circle(100, turn=0.6)])
        for aroc, nn in score_table(result).values():
            assert nn == 0.0
            assert aroc == pytest.approx(100.0 * 98 / 99)

    def test_matches_bruteforce_count(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            points = small_integer_points(rng)
            want = retrieval_scores(points)
            got = score_table(scores_of(points))
            assert got.keys() == want.keys()
            for pair, (aroc, nn) in want.items():
                assert got[pair][0] == pytest.approx(aroc, rel=1e-12)
                assert got[pair][1] == pytest.approx(nn, rel=1e-12)

    def test_perfect_rank_subset_of_aroc_perfect(self):
        # a query of rank 1 scores AROC 100, so a pair's AROC is at
        # least its NN frequency, and all queries are of rank 1 exactly
        # when the AROC is 100
        rng = np.random.default_rng(16)
        twice = np.tile(rng.standard_normal((8, 2)), (2, 1))
        cases = [small_integer_points(rng) for _ in range(10)]
        cases += [[twice, twice], [twice, twice + 1e-3]]
        for points in cases:
            for aroc, nn in score_table(scores_of(points)).values():
                assert aroc >= nn
                assert (nn == 100.0) == (aroc == 100.0)


class TestEvaluatePairs:
    def test_identical_projections_perfect(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((8, 5))
        views = [SparseView(x), SparseView(x)]
        factors = [rng.standard_normal((5, 3))] * 2
        result = evaluate_pairs(views, factors)
        assert result.mean_aroc == pytest.approx(100.0)
        assert result.mean_nn_freq == pytest.approx(100.0)

    def test_random_projections_near_chance(self):
        rng = np.random.default_rng(18)
        views = [SparseView(rng.standard_normal((200, 40)))
                 for _ in range(2)]
        factors = [rng.standard_normal((40, 3)) * 0.1 for _ in range(2)]
        result = evaluate_pairs(views, factors)
        assert abs(result.mean_aroc - 50.0) <= 5.0

    def test_pair_count(self):
        rng = np.random.default_rng(19)
        views = [SparseView(rng.standard_normal((6, 4))) for _ in range(4)]
        factors = [rng.standard_normal((4, 2)) for _ in range(4)]
        result = evaluate_pairs(views, factors)
        assert len(result.pairs) == 4 * 3

    def test_misaligned_rows_rejected(self):
        rng = np.random.default_rng(20)
        views = [SparseView(rng.standard_normal((6, 4))),
                 SparseView(rng.standard_normal((7, 4)))]
        factors = [rng.standard_normal((4, 2))] * 2
        with pytest.raises(ValueError, match="disagree"):
            evaluate_pairs(views, factors)

    @pytest.mark.parametrize("n_factors", [2, 4])
    def test_factor_count_must_match(self, n_factors):
        rng = np.random.default_rng(22)
        views = [SparseView(rng.standard_normal((6, 4))) for _ in range(3)]
        factors = [rng.standard_normal((4, 2)) for _ in range(n_factors)]
        with pytest.raises(ValueError,
                           match=f"got {n_factors} factors for 3 views"):
            evaluate_pairs(views, factors)


class TestBlockedRanks:
    def test_blocks_match_full_matrix(self, monkeypatch):
        rng = np.random.default_rng(21)
        # small integer coordinates make equal distances common
        a = rng.integers(0, 3, (11, 2)).astype(float)
        b = rng.integers(0, 3, (11, 2)).astype(float)
        full = cross_distances(a, b)
        true = np.diag(full)
        assert np.any((full == true[:, None]).sum(axis=1) > 1)
        assert np.any((full == true[None, :]).sum(axis=0) > 1)
        # slabs of 4, 4 and 3 rows
        monkeypatch.setattr(retrieval, "_SLAB_ENTRIES", 4 * 11)
        ranks = retrieval._ordered_ranks([a, b])
        np.testing.assert_array_equal(ranks[0, 1], match_ranks(a, b))
        np.testing.assert_array_equal(ranks[1, 0], match_ranks(b, a))

    @staticmethod
    def tie_heavy_problem():
        rng = np.random.default_rng(22)
        views = [SparseView(rng.integers(0, 2, (11, 4)).astype(float))
                 for _ in range(3)]
        factors = [rng.integers(-1, 2, (4, 2)).astype(float)
                   for _ in range(3)]
        return views, factors

    def test_scores_independent_of_block_size(self, monkeypatch):
        views, factors = self.tie_heavy_problem()
        whole = evaluate_pairs(views, factors)
        monkeypatch.setattr(retrieval, "_SLAB_ENTRIES", 4 * 11)
        assert evaluate_pairs(views, factors) == whole

    def test_scores_independent_of_worker_count(self, monkeypatch):
        views, factors = self.tie_heavy_problem()
        # one-row slabs give every worker many tasks
        monkeypatch.setattr(retrieval, "_SLAB_ENTRIES", 1)
        default = evaluate_pairs(views, factors)
        interval = sys.getswitchinterval()
        # frequent thread switches, and more workers than cores, would
        # expose a count folded twice or lost
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 8):
                monkeypatch.setattr(retrieval, "_worker_count",
                                    lambda: workers)
                assert evaluate_pairs(views, factors) == default
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_reaches_caller(self):
        rng = np.random.default_rng(23)
        views = [SparseView(rng.standard_normal((6, 4))) for _ in range(2)]
        factors = [rng.standard_normal((4, 2)), rng.standard_normal((4, 3))]
        with pytest.raises(ValueError, match="different widths"):
            evaluate_pairs(views, factors)
