import math
from unittest import mock

import numpy as np
import pytest

from conftest import assert_within_bound, write_model_file
from pbmf import model as model_module
from pbmf.baselines import RandomScorer, ZipfScorer
from pbmf.model import (
    CHUNK_BYTES,
    NORM_EPSILON,
    FactorModel,
    Scorer,
    cosine,
    init_model,
    load_model,
    save_model,
    top_k,
)


class TestInitModel:
    def test_deterministic(self):
        a = init_model(2, 3, 4, seed=1, scale=0.1)
        b = init_model(2, 3, 4, seed=1, scale=0.1)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.V, b.V)

    def test_entries_in_half_open_interval(self):
        m = init_model(20, 30, 8, seed=9, scale=0.5)
        for arr in (m.U, m.V):
            assert np.all(arr > 0)
            assert np.all(arr <= 0.5)

    def test_no_zero_norm_rows(self):
        m = init_model(50, 60, 4, seed=2, scale=0.1)
        assert np.linalg.norm(m.U, axis=1).min() > 0
        assert np.linalg.norm(m.V, axis=1).min() > 0

    def test_golden_entries(self):
        # Frozen once from a reference run.
        m = init_model(1, 1, 2, seed=5, scale=1.0)
        np.testing.assert_allclose(
            m.U.ravel(), [0.19499707625461982, 0.19205921026350625], rtol=0, atol=0
        )
        np.testing.assert_allclose(
            m.V.ravel(), [0.484674438957858, 0.7141986199118584], rtol=0, atol=0
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            init_model(0, 1, 1, seed=0)
        for scale in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                init_model(1, 1, 1, seed=0, scale=scale)


def _unblocked_pair_scores(model, users, items):
    """Every pair scored from one gather of all N rows of U and of V."""
    us, vs = model.U[users], model.V[items]
    dots = np.einsum("ij,ij->i", us, vs)
    if model.mode == "dot":
        return dots
    norms = np.sqrt(np.einsum("ij,ij->i", us, us)) * np.sqrt(np.einsum("ij,ij->i", vs, vs))
    return dots / np.maximum(norms, NORM_EPSILON)


# k = 1, 8, 32 and a k whose single row of U is larger than CHUNK_BYTES.
BLOCK_KS = [1, 8, 32, CHUNK_BYTES // 8 + 1]


def _block_sizes(k):
    """N = 0, 1, an exact multiple of the block rows and one row past that."""
    rows = max(2, CHUNK_BYTES // (8 * k))
    return [0, 1, 2 * rows, 2 * rows + 1]


class TestPairScoreBlocks:
    @pytest.mark.parametrize("mode", ["dot", "cosine"])
    @pytest.mark.parametrize("k, n_pairs", [(k, n_pairs) for k in BLOCK_KS
                                            for n_pairs in _block_sizes(k)])
    def test_equals_unblocked_gather_bit_for_bit(self, mode, k, n_pairs):
        rng = np.random.default_rng(k * 31 + n_pairs)
        U = rng.normal(size=(6, k))
        V = rng.normal(size=(5, k))
        U[0] = 0.0  # a zero-norm row meets the NORM_EPSILON floor
        model = FactorModel(U=U, V=V, mode=mode)
        users = rng.integers(0, 6, n_pairs)
        items = rng.integers(0, 5, n_pairs)
        got = model.pair_scores(users, items)
        assert got.dtype == np.float64 and got.shape == (n_pairs,)
        assert np.array_equal(got, _unblocked_pair_scores(model, users, items))

    def test_rejects_unequal_lengths(self):
        model = init_model(3, 4, 2, seed=0)
        with pytest.raises(ValueError, match="3 users but 2 items"):
            model.pair_scores(np.array([0, 1, 2]), np.array([0, 1]))


def _model_from_rows(u_row, v_row, mode="cosine", r_max=5.0):
    return FactorModel(
        U=np.asarray([u_row], dtype=float),
        V=np.asarray([v_row], dtype=float),
        mode=mode,
        r_max=r_max,
    )


def _pair_score(model):
    return float(model.pair_scores(np.array([0]), np.array([0]))[0])


def _predicted_rating(model):
    return float(model.predicted_ratings(np.array([0]), np.array([0]))[0])


def _cosine_oracle(u, v):
    """Plain-Python cosine with the clamped denominator."""
    denom = max(math.sqrt(float(u @ u)) * math.sqrt(float(v @ v)), NORM_EPSILON)
    return float(u @ v) / denom


class TestPredictions:
    def test_cosine_parallel(self):
        m = _model_from_rows([1.0, 0.0], [1.0, 0.0])
        assert _pair_score(m) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        m = _model_from_rows([1.0, 0.0], [0.0, 1.0])
        assert _pair_score(m) == pytest.approx(0.0)

    def test_cosine_arithmetic(self):
        # (1,2).(3,4) = 11, |u| = sqrt(5), |v| = 5.
        m = _model_from_rows([1.0, 2.0], [3.0, 4.0])
        expected = 11.0 / (math.sqrt(5.0) * 5.0)
        assert _pair_score(m) == pytest.approx(expected, abs=1e-12)
        assert m.scores_for_user(0)[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.98387, abs=1e-5)

    def test_dot(self):
        for u_row, v_row, want in (([1.0, 0.0], [1.0, 0.0], 1.0),
                                   ([0.0, 0.0], [3.0, 4.0], 0.0),
                                   ([1.0, 2.0], [3.0, 4.0], 11.0)):
            m = _model_from_rows(u_row, v_row, mode="dot")
            assert _pair_score(m) == want
            assert m.scores_for_user(0)[0] == want

    def test_predicted_rating_cosine(self):
        m = _model_from_rows([1.0, 0.0], [1.0, 0.0], r_max=5.0)
        assert _predicted_rating(m) == pytest.approx(5.0)
        down = _model_from_rows([1.0, 0.0], [-0.2, 0.98], r_max=5.0)
        assert _pair_score(down) < 0
        assert _predicted_rating(down) == 0.0
        close = _model_from_rows([1.0, 2.0], [3.0, 4.0], r_max=5.0)
        assert _predicted_rating(close) == pytest.approx(4.91935, abs=1e-4)

    def test_predicted_rating_dot_clamped(self):
        m = _model_from_rows([2.0, 0.0], [4.0, 0.0], mode="dot", r_max=5.0)
        assert _predicted_rating(m) == 5.0

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(4)
        U = rng.uniform(-1, 1, (100, 6))
        V = rng.uniform(-1, 1, (100, 6))
        s = rng.uniform(1e-3, 1e3, (100, 1))
        pairs = np.arange(100)
        base = FactorModel(U=U, V=V).pair_scores(pairs, pairs)
        scaled = FactorModel(U=s * U, V=V).pair_scores(pairs, pairs)
        np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-12)

    def test_cosine_bounded(self):
        rng = np.random.default_rng(5)
        model = FactorModel(U=rng.normal(size=(200, 5)), V=rng.normal(size=(200, 5)))
        pairs = np.arange(200)
        assert np.all(np.abs(model.pair_scores(pairs, pairs)) <= 1.0 + 1e-12)
        assert np.all(np.abs(model.scores_for_user(0)) <= 1.0 + 1e-12)

    def test_degenerate_norm_is_clamped(self):
        m = _model_from_rows(np.zeros(3), np.ones(3))
        assert _pair_score(m) == 0.0
        assert m.scores_for_user(0)[0] == 0.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(6)
        model = init_model(7, 9, 5, seed=1, mode="cosine", r_max=4.0)
        users = rng.integers(0, 7, 30)
        items = rng.integers(0, 9, 30)
        pair = model.predicted_ratings(users, items)
        for got, (i, j) in zip(pair, zip(users, items)):
            c = _cosine_oracle(model.U[i], model.V[j])
            assert got == pytest.approx(min(max(c, 0.0), 1.0) * 4.0, abs=1e-12)
        rows = model.scores_for_user(3)
        for j in range(9):
            assert rows[j] == pytest.approx(_cosine_oracle(model.U[3], model.V[j]), abs=1e-12)


def _rating_map_scorer(name):
    """A 9-user, 13-item scorer of each kind the CLI evaluates; the factor
    models score some pairs below 0 and, in dot mode, above r_max."""
    rng = np.random.default_rng(12)
    U, V = rng.uniform(-1.5, 1.5, (9, 4)), rng.uniform(-1.5, 1.5, (13, 4))
    return {
        "dot": FactorModel(U=U, V=V, mode="dot", r_max=1.7),
        "cosine": FactorModel(U=U, V=V, mode="cosine", r_max=4.3),
        "random": RandomScorer(seed=5, n_items=13, r_max=4.3, n_users=9),
        "zipf": ZipfScorer(popularity_rank=rng.permutation(13) + 1, r_max=4.3, n_users=9),
    }[name]


class TestRatingMap:
    """Every scorer maps its normalized score to a rating the same way, bit for bit."""

    @pytest.mark.parametrize("name", ["dot", "cosine", "random", "zipf"])
    def test_predicted_is_clipped_normalized_times_r_max(self, name):
        scorer = _rating_map_scorer(name)
        users = np.repeat(np.arange(9), 13)
        items = np.tile(np.arange(13), 9)
        want = np.clip(scorer.normalized_scores(users, items), 0, 1) * scorer.r_max
        assert np.array_equal(scorer.predicted_ratings(users, items), want)

    @pytest.mark.parametrize("name", ["random", "zipf"])
    def test_baseline_row_is_normalized_scores(self, name):
        scorer = _rating_map_scorer(name)
        for i in (0, 4, 8):
            want = scorer.normalized_scores(np.full(13, i), np.arange(13))
            assert np.array_equal(scorer.scores_for_user(i), want)


class _StubScorer:
    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self.n, self.m = self.rows.shape

    def scores_for_user(self, i):
        return self.rows[i]


class _SpyScorer(_StubScorer):
    """A stub that records the users it is asked to score."""

    def __init__(self, rows):
        super().__init__(rows)
        self.calls = []

    def scores_for_user(self, i):
        self.calls.append(i)
        return self.rows[i]


class TestTopK:
    def test_basic(self):
        lists = top_k(_StubScorer([[0.9, 0.1, 0.5]]), k_top=2)
        assert lists.items[0].tolist() == [0, 2]
        assert lists.scores[0].tolist() == [0.9, 0.5]

    def test_tie_break_ascending_index(self):
        lists = top_k(_StubScorer([[0.5, 0.5, 0.5]]), k_top=2)
        assert lists.items[0].tolist() == [0, 1]

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(12)
        rows = rng.random((3, 4))
        lists = top_k(_StubScorer(rows), k_top=2)
        for i in range(3):
            oracle = sorted(range(4), key=lambda j: (-rows[i, j], j))[:2]
            assert lists.items[i].tolist() == oracle

    def test_excludes_training_items(self):
        rows = [[0.9, 0.8, 0.7, 0.1]]
        exclude = [np.array([0, 2])]
        lists = top_k(_StubScorer(rows), k_top=3, exclude=exclude)
        assert lists.items[0].tolist() == [1, 3]

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        rows = rng.random((4, 6))
        base = top_k(_StubScorer(rows), k_top=3)
        warped = top_k(_StubScorer(np.exp(3.0 * rows)), k_top=3)
        for a, b in zip(base.items, warped.items):
            assert a.tolist() == b.tolist()

    def test_lists_keep_only_their_own_entries(self):
        # Each returned array must own (or share) at most k_top entries per
        # user, not the user's whole sorted row of m indices.
        rng = np.random.default_rng(14)
        n, m, k_top = 20, 50, 3
        exclude = [rng.choice(m, 5, replace=False) for _ in range(n)]
        lists = top_k(_StubScorer(rng.random((n, m))), k_top=k_top,
                      exclude=exclude)
        for arrays in (lists.items, lists.scores):
            bases = {id(a.base if a.base is not None else a):
                     (a.base if a.base is not None else a).size for a in arrays}
            assert sum(bases.values()) <= n * k_top

    def test_never_writes_into_scorer_rows(self):
        rows = np.random.default_rng(17).random((4, 9))
        rows[1, 3] = np.nan
        rows.setflags(write=False)
        stub = _StubScorer(rows)
        assert stub.rows is rows  # each row handed out is a read-only view
        exclude = [np.array([0, 8]), np.array([], dtype=np.int64), np.arange(9), np.array([3])]
        lists = top_k(stub, k_top=3, exclude=exclude)
        for i in range(4):
            order = np.argsort(-rows[i], kind="stable")
            want = order[~np.isin(order, exclude[i])][:3]
            assert lists.items[i].tolist() == want.tolist()

    def test_exclusions_may_be_lists(self):
        rows = np.tile(np.arange(6.0), (3, 1))
        lists = top_k(_StubScorer(rows), k_top=2, exclude=[[], [5, 4], []])
        assert [items.tolist() for items in lists.items] == [[5, 4], [3, 2], [5, 4]]

    def test_rejects_bad_k_top(self):
        with pytest.raises(ValueError):
            top_k(_StubScorer([[1.0]]), k_top=0)

    @pytest.mark.parametrize("m", [12, model_module.BLOCK_RANK_MAX_M + 1])
    def test_scores_each_user_once_in_order(self, monkeypatch, m):
        # Blocks of 2 rows at m = 12; wider rows go one at a time.
        monkeypatch.setattr(model_module, "RANK_BLOCK_BYTES", 2 * 8 * 12)
        spy = _SpyScorer(np.random.default_rng(18).random((7, m)))
        top_k(spy, k_top=3)
        assert spy.calls == list(range(7))

    @pytest.mark.parametrize("m", [12, model_module.BLOCK_RANK_MAX_M + 1])
    @pytest.mark.parametrize("length", [2, 4])
    def test_exclude_of_another_length_is_rejected(self, m, length):
        with pytest.raises(ValueError, match=f"exclude holds {length} entries for 3 users"):
            top_k(_StubScorer(np.zeros((3, m))), k_top=2, exclude=[[]] * length)

    @pytest.mark.parametrize("m", [7, model_module.BLOCK_RANK_MAX_M + 1])
    def test_ranks_every_user_of_the_scorer(self, m):
        # The user count is the scorer's own, and the pass over its users
        # ends at the last one, which releases the served block.
        model = init_model(5, m, 3, seed=0)
        lists = top_k(model, 3, exclude=[[]] * 5)
        assert len(lists) == 5 and model._block is None
        assert [items.tolist() for items in lists.items] == [
            np.argsort(-model.scores_for_user(i), kind="stable")[:3].tolist() for i in range(5)]

    @pytest.mark.parametrize("mode", ["cosine", "dot"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_factors_of_another_type_rank_from_their_exact_rows(self, mode, dtype):
        # Only float64 factors are scored by one product per block: these
        # lists, scores too, are those of the exact rows, and an integer
        # model's cosines are floats.
        rng = np.random.default_rng(23)
        U, V = rng.integers(-9, 10, (30, 4)), rng.integers(-9, 10, (50, 4))
        model = FactorModel(U=U.astype(dtype), V=V.astype(dtype), mode=mode)
        lists = top_k(model, 5)
        want = top_k(_StubScorer(model._exact_rows(0, 30)), 5)
        assert [a.tobytes() for a in lists.items + lists.scores] == [
            a.tobytes() for a in want.items + want.scores]

    @pytest.mark.parametrize("m", [7, model_module.BLOCK_RANK_MAX_M + 1])
    @pytest.mark.parametrize("last", [False, True])
    def test_exclusion_outside_the_items_raises_index_error(self, m, last):
        # Neither counted from the end (-1 would drop item m - 1) nor left
        # to numpy's own message.
        item = m if last else -1
        with pytest.raises(IndexError, match=f"item index {item} is out of bounds for {m} items"):
            top_k(_StubScorer(np.zeros((3, m))), 2, exclude=[[2], [], [1, item]])

    @pytest.mark.parametrize("m", [40, model_module.BLOCK_RANK_MAX_M + 1])
    @pytest.mark.parametrize("kind", ["cosine", "random", "zipf"])
    def test_lists_do_not_depend_on_the_block_size(self, monkeypatch, m, kind):
        # 23 users: blocks of 1 and 3 rows, and one block of every user at the
        # default.  A model's one product per block may round a score in
        # another way at another height: its list scores stay within the
        # bound of the exact row's, and its lists do not change.
        n, rng = 23, np.random.default_rng(20)
        U, V = rng.normal(size=(n, 8)), rng.normal(size=(m, 8))
        ranks = rng.permutation(m) + 1
        exclude = [rng.choice(m, size, replace=False) for size in rng.integers(0, 30, n)]

        def lists():
            scorer = {"cosine": lambda: FactorModel(U=U, V=V),
                      "random": lambda: RandomScorer(seed=3, n_items=m, r_max=5.0, n_users=n),
                      "zipf": lambda: ZipfScorer(ranks, r_max=5.0, n_users=n)}[kind]()
            got = top_k(scorer, k_top=10, exclude=exclude)
            if kind == "cosine":
                for i, (items, scores) in enumerate(zip(got.items, got.scores)):
                    assert_within_bound(scores, scorer, i, items)
                return [a.tobytes() for a in got.items]
            return [a.tobytes() for a in got.items + got.scores]

        want = lists()
        for rows in (1, 3):
            monkeypatch.setattr(model_module, "RANK_BLOCK_BYTES", rows * 8 * m)
            assert lists() == want

    @pytest.mark.parametrize("m", [12, model_module.BLOCK_RANK_MAX_M + 1])
    @pytest.mark.parametrize("block_rows", [2, None])
    def test_custom_scorer_over_per_user_rows(self, monkeypatch, m, block_rows):
        # _pair_scores, r_max, n and m alone, as the README's custom scorer:
        # it is served blocks that stop at the last user.
        class ArrayScorer(Scorer):
            def __init__(self, rows):
                (self.n, self.m), self.rows, self.r_max = rows.shape, rows, 5.0

            def _pair_scores(self, users, items):
                return self.rows[users, items]

        if block_rows is not None:
            monkeypatch.setattr(model_module, "RANK_BLOCK_BYTES", block_rows * 8 * m)
        rng = np.random.default_rng(21)
        scorer = ArrayScorer(rng.random((5, m)))
        for _ in range(2):  # new rows between two passes are ranked, not stale ones
            lists = top_k(scorer, k_top=3)
            for i, row in enumerate(scorer.rows):
                assert lists.items[i].tolist() == np.argsort(-row, kind="stable")[:3].tolist()
            scorer.rows = rng.random((5, m))

    def test_no_users_scores_nobody(self):
        spy = _SpyScorer(np.zeros((0, 4)))
        assert len(top_k(spy, k_top=2)) == 0
        assert spy.calls == []

    def test_wide_rows_ranked_one_at_a_time(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a row wider than BLOCK_RANK_MAX_M went to _rank_block")

        monkeypatch.setattr(model_module, "_rank_block", no_blocks)
        rng = np.random.default_rng(19)
        n, m = 6, model_module.BLOCK_RANK_MAX_M + 1
        rows = rng.integers(0, 50, size=(n, m)).astype(float)  # many ties
        rows[1, :5] = np.nan
        rows[2, 7] = np.inf
        exclude = [rng.choice(m, size, replace=False) for size in (0, 3, 10, m - 2, m, 40)]
        lists = top_k(_StubScorer(rows), k_top=5, exclude=exclude)
        for i in range(n):
            order = np.argsort(-rows[i], kind="stable")
            want = order[~np.isin(order, exclude[i])][:5]
            assert lists.items[i].tolist() == want.tolist()
            np.testing.assert_array_equal(lists.scores[i], rows[i, want])


def _cosine_model_with_zero_rows():
    rng = np.random.default_rng(15)
    U, V = rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
    U[2] = 0.0
    V[3] = 0.0
    return FactorModel(U=U, V=V, mode="cosine")


class TestItemNormCache:
    """A cosine model computes the row norms of U and V once and guards them."""

    def test_rows_equal_uncached_expression_bit_for_bit(self):
        model = _cosine_model_with_zero_rows()
        U, V = model.U, model.V
        want = [cosine(V @ U[i], np.sqrt(np.einsum("j,j", U[i], U[i])),
                       np.sqrt(np.einsum("ij,ij->i", V, V)))[0] for i in range(5)]
        for _ in range(2):  # the first call fills the cache, the second reads it
            for i in range(5):
                assert np.array_equal(model.scores_for_user(i), want[i])

    def test_repeated_top_k_is_identical(self):
        model = _cosine_model_with_zero_rows()
        first = top_k(model, k_top=3)
        second = top_k(model, k_top=3)
        for a, b in zip(first.items + first.scores, second.items + second.scores):
            assert np.array_equal(a, b)

    def test_ranked_cosine_model_rejects_in_place_writes(self):
        model = _cosine_model_with_zero_rows()
        top_k(model, k_top=3)
        with pytest.raises(ValueError):
            model.V[0, 0] = 1.0

    def test_assigned_v_recomputes_the_norms(self):
        model = _cosine_model_with_zero_rows()
        model.scores_for_user(0)
        other = np.random.default_rng(16).normal(size=(7, 4))
        fresh = FactorModel(U=model.U, V=other, mode="cosine")
        model.V = other
        for i in range(5):
            assert np.array_equal(model.scores_for_user(i), fresh.scores_for_user(i))

    def test_ranked_cosine_model_rejects_in_place_user_writes(self):
        model = _cosine_model_with_zero_rows()
        model.scores_for_user(0)
        with pytest.raises(ValueError):
            model.U[0, 0] = 1.0

    def test_assigned_u_recomputes_the_norms(self):
        model = _cosine_model_with_zero_rows()
        model.scores_for_user(0)
        other = np.random.default_rng(17).normal(size=(5, 4))
        fresh = FactorModel(U=other, V=model.V, mode="cosine")
        model.U = other
        for i in range(5):
            assert np.array_equal(model.scores_for_user(i), fresh.scores_for_user(i))

    def test_rows_equal_per_user_expression_on_drawn_models(self):
        # The cached user norms come from one einsum over U; up to k = 8,192
        # they equal the per-user einsum("j,j") bit for bit.  A row is the
        # per-user expression's, or within the bound of it where its block
        # is scored by one product (no zero row in the block or in V).
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(n=st.integers(1, 6), m=st.integers(1, 9),
                          k=st.integers(1, 64) | st.just(8192), seed=st.integers(0, 2**32 - 1),
                          zero_user=st.integers(0, 6), zero_item=st.integers(0, 9))
        @hypothesis.example(n=3, m=4, k=8192, seed=0, zero_user=1, zero_item=2)
        def check(n, m, k, seed, zero_user, zero_item):
            rng = np.random.default_rng(seed)
            U, V = rng.normal(size=(n, k)), rng.normal(size=(m, k))
            U[zero_user:zero_user + 1] = 0.0  # past the last row: no zero row
            V[zero_item:zero_item + 1] = 0.0
            model = FactorModel(U=U, V=V, mode="cosine")
            for i in range(n):
                assert_within_bound(model.scores_for_user(i), model, i)

        check()

    @pytest.mark.parametrize("zero_item", [False, True])
    def test_rows_equal_floored_cosine_on_both_sides_of_the_floor(self, zero_item):
        # |U_i| near 1e-7 and |V_j| near 1e-5, so the products straddle
        # NORM_EPSILON.  In blocks of two users, the first block's smallest
        # product reaches the floor and skips cosine() (it is scored by one
        # product, within the bound of the floored cosine); the second's does
        # not (though its largest does), nor does the third's, with a zero
        # user, nor any block once V holds a zero row.
        rng = np.random.default_rng(19)
        U, V = rng.normal(size=(6, 3)), rng.normal(size=(5, 3))
        U *= np.array([[1.2], [1.15], [0.95], [1.3], [0.0], [1.0]]) * 1e-7 / np.linalg.norm(
            U, axis=1, keepdims=True)
        V *= np.array([[0.9], [1.0], [1.1], [1.2], [1.3]]) * 1e-5 / np.linalg.norm(
            V, axis=1, keepdims=True)
        if zero_item:
            V[2] = 0.0
        model = FactorModel(U=U, V=V, mode="cosine")
        v_norm = np.sqrt(np.einsum("ij,ij->i", V, V))
        products = np.sqrt(np.einsum("ij,ij->i", U, U))[:, None] * v_norm[v_norm > 0]
        assert products[:2].min() >= NORM_EPSILON > products[2:4].min()
        assert products[2:4].max() >= NORM_EPSILON
        with mock.patch.object(model_module, "RANK_BLOCK_BYTES", 2 * 8 * 5), \
                mock.patch.object(model_module, "cosine", wraps=cosine) as spy:
            for i in range(6):
                assert_within_bound(model.scores_for_user(i), model, i)
        assert spy.call_count == (3 if zero_item else 2)  # the blocks that reach no floor

    @pytest.mark.parametrize("m", [4, model_module.BLOCK_RANK_MAX_M + 1])
    @pytest.mark.parametrize("make", [
        lambda m: init_model(5, m, 3, seed=0),
        lambda m: init_model(5, m, 3, seed=0, mode="dot"),
        lambda m: RandomScorer(1, m, 5.0, 5),
    ], ids=["cosine", "dot", "random"])
    def test_user_outside_the_users_raises_index_error(self, make, m):
        # A negative user raises as one past the last does, and the scorer
        # still serves its rows after each error.
        scorer = make(m)
        for i in (-6, -100, -5, -1, 5, 9):
            with pytest.raises(IndexError, match=rf"user index {i} is out of bounds for 5 users"):
                scorer.scores_for_user(i)
            assert scorer.scores_for_user(4).shape == (m,)

    @pytest.mark.parametrize("m", [4, model_module.BLOCK_RANK_MAX_M + 1])
    @pytest.mark.parametrize("kind", ["cosine", "dot", "random"])
    def test_rows_are_served_from_blocks(self, kind, m):
        # Either mode and either side of BLOCK_RANK_MAX_M: every user's row is
        # a read-only row of one score_rows call per block, bit-equal to the
        # user's own row (a model's within the bound of it).
        n = 70  # one block at m = 4, three at m = 1,001
        rng = np.random.default_rng(22)
        U, V = rng.normal(size=(n, 4)), rng.normal(size=(m, 4))
        if kind == "random":
            scorer = RandomScorer(seed=1, n_items=m, r_max=5.0, n_users=n)
            own = [scorer.pair_scores(i, np.arange(m)) for i in range(n)]
        else:
            scorer = FactorModel(U=U, V=V, mode=kind)
        calls = []
        score_rows = scorer.score_rows
        scorer.score_rows = lambda lo, hi: calls.append((lo, hi)) or score_rows(lo, hi)
        for i in range(n):
            row = scorer.scores_for_user(i)
            assert not row.flags.writeable
            if kind == "random":
                assert row.tobytes() == own[i].tobytes()
            else:
                assert_within_bound(row, scorer, i)
        height = model_module._block_rows(m)
        assert calls == [(lo, min(lo + height, n)) for lo in range(0, n, height)]
        if kind != "random":  # a kept block cannot go stale through the factors
            with pytest.raises(ValueError):
                scorer.V[0, 0] = 1.0


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(4, 6, 3, seed=8, scale=0.2, mode="cosine", r_max=4.5)
        path = tmp_path / "model.pbmf"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.U, model.U)
        assert np.array_equal(loaded.V, model.V)
        assert loaded.mode == model.mode
        assert loaded.r_max == model.r_max
        assert (loaded.n, loaded.m, loaded.k) == (model.n, model.m, model.k)
        write_model_file(model, tmp_path / "unchecked.pbmf")  # the tests' writer: same bytes
        assert (tmp_path / "unchecked.pbmf").read_bytes() == path.read_bytes()

    def test_round_trip_dot_mode(self, tmp_path):
        model = init_model(2, 2, 2, seed=1, mode="dot", r_max=5.0)
        path = tmp_path / "dot.pbmf"
        save_model(model, path)
        assert load_model(path).mode == "dot"

    def test_truncated_file_is_corruption(self, tmp_path):
        model = init_model(3, 3, 2, seed=0)
        path = tmp_path / "model.pbmf"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(ValueError, match=r"payload does not match header dimensions"):
            load_model(path)

    def test_trailing_garbage_is_corruption(self, tmp_path):
        model = init_model(3, 3, 2, seed=0)
        path = tmp_path / "model.pbmf"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match=r"payload does not match header dimensions"):
            load_model(path)

    @pytest.mark.parametrize("spoil", ["nan_factor", "inf_factor", "zero_r_max", "nan_r_max"])
    def test_non_finite_or_bad_scale_is_corruption(self, tmp_path, spoil):
        model = init_model(3, 4, 2, seed=0, r_max=5.0)
        if spoil == "nan_factor":
            model.U[1, 0] = np.nan
        elif spoil == "inf_factor":
            model.V[2, 1] = np.inf
        else:
            model.r_max = 0.0 if spoil == "zero_r_max" else np.nan
        path = tmp_path / "model.pbmf"
        message = ("r_max must be finite and > 0" if spoil.endswith("r_max")
                   else "factor matrices hold non-finite values")
        with pytest.raises(ValueError, match=message):
            save_model(model, path)
        assert not path.exists()  # refused before the file is opened
        write_model_file(model, path)
        with pytest.raises(ValueError, match=message):
            load_model(path)

    @pytest.mark.parametrize("mode", ["cosine", "dot"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_factor_magnitude_above_2_pow_400_is_corruption(self, tmp_path, mode, sign):
        rng = np.random.default_rng(0)
        U, V = rng.random((30, 4)), rng.random((20, 4))
        path = tmp_path / "model.pbmf"
        U[0] = V[0] = sign * 2.0**400
        save_model(FactorModel(U=U, V=V, mode=mode, r_max=5.0), path)
        edge_bytes = path.read_bytes()
        edge = load_model(path)  # at the bound: every score is finite, without a warning
        assert np.isfinite(edge.pair_scores(np.arange(30).repeat(20), np.tile(np.arange(20), 30))).all()
        top_k(edge, 5)
        save_model(edge, path)  # an entry of exactly 2**400 round-trips
        assert path.read_bytes() == edge_bytes
        V[19, 3] = sign * np.nextafter(2.0**400, np.inf)
        message = r"model\.pbmf: factor matrices hold values of magnitude above 2\*\*400$"
        path.unlink()
        with pytest.raises(ValueError, match=message):
            save_model(FactorModel(U=U, V=V, mode=mode, r_max=5.0), path)
        assert not path.exists()
        write_model_file(FactorModel(U=U, V=V, mode=mode, r_max=5.0), path)
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_huge_finite_factors_are_corruption(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "model.pbmf"
        huge = FactorModel(U=rng.random((30, 4)) * 1e160, V=rng.random((20, 4)) * 1e160, r_max=5.0)
        with pytest.raises(ValueError, match="magnitude above 2"):
            save_model(huge, path)
        write_model_file(huge, path)
        with pytest.raises(ValueError, match="magnitude above 2"):
            load_model(path)

    def test_wrong_magic_is_format_error(self, tmp_path):
        model = init_model(2, 2, 2, seed=0)
        path = tmp_path / "model.pbmf"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"not a factor-model file \(bad magic\)"):
            load_model(path)

    def test_unknown_version_is_format_error(self, tmp_path):
        model = init_model(2, 2, 2, seed=0)
        path = tmp_path / "model.pbmf"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"unsupported format version 99"):
            load_model(path)
