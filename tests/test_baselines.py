import numpy as np
import pytest

from pbmf.baselines import RandomScorer, ZipfScorer

from conftest import make_dataset


class TestRandomScorer:
    def test_deterministic_per_key(self):
        scorer = RandomScorer(seed=11, n_items=50, r_max=5.0, n_users=4)
        assert scorer.scores_for_user(3)[7] == scorer.scores_for_user(3)[7]

    def test_order_independent(self):
        # Counter-based: interleaving other queries cannot change a value.
        a = RandomScorer(seed=4, n_items=10, r_max=5.0, n_users=10)
        b = RandomScorer(seed=4, n_items=10, r_max=5.0, n_users=10)
        first = a.scores_for_user(2)[5]
        for i in range(10):
            b.scores_for_user(i)
        assert b.scores_for_user(2)[5] == first

    def test_range(self):
        scorer = RandomScorer(seed=0, n_items=1000, r_max=5.0, n_users=20)
        rows = np.concatenate([scorer.scores_for_user(i) for i in range(20)])
        assert np.all(rows >= 0.0)
        assert np.all(rows <= 1.0)

    def test_empirical_mean(self):
        scorer = RandomScorer(seed=123, n_items=200, r_max=5.0, n_users=500)
        users = np.repeat(np.arange(500), 200)
        items = np.tile(np.arange(200), 500)
        values = scorer.normalized_scores(users, items)
        assert values.size == 100_000
        assert abs(values.mean() - 0.5) <= 0.01

    def test_decile_uniformity(self):
        scorer = RandomScorer(seed=77, n_items=200, r_max=5.0, n_users=500)
        users = np.repeat(np.arange(500), 200)
        items = np.tile(np.arange(200), 500)
        values = scorer.normalized_scores(users, items)
        counts, _ = np.histogram(values, bins=10, range=(0.0, 1.0))
        freqs = counts / values.size
        assert np.all(np.abs(freqs - 0.1) <= 0.01)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_row_equals_pair_scores_of_the_full_user_column(self, seed):
        # scores_for_user hands pair_scores one user index to broadcast.
        scorer = RandomScorer(seed=seed, n_items=37, r_max=5.0, n_users=2**40 + 1)
        for i in (0, 1, 5, 36, 2**40):
            want = scorer.pair_scores(np.full(37, i), np.arange(37))
            assert np.array_equal(scorer.scores_for_user(i), want)

    def test_seeds_decorrelate(self):
        a = RandomScorer(seed=1, n_items=100, r_max=5.0, n_users=1).scores_for_user(0)
        b = RandomScorer(seed=2, n_items=100, r_max=5.0, n_users=1).scores_for_user(0)
        assert not np.array_equal(a, b)

    def test_rating_scaling(self):
        scorer = RandomScorer(seed=5, n_items=10, r_max=4.0, n_users=1)
        users = np.zeros(10, dtype=int)
        items = np.arange(10)
        np.testing.assert_allclose(
            scorer.predicted_ratings(users, items),
            scorer.normalized_scores(users, items) * 4.0,
        )

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RandomScorer(seed=-1, n_items=5, r_max=5.0, n_users=1)

    def test_seed_range_is_64_bits(self):
        top = RandomScorer(seed=2**64 - 1, n_items=5, r_max=5.0, n_users=1).scores_for_user(0)
        assert np.all((top >= 0.0) & (top < 1.0))
        with pytest.raises(ValueError):
            RandomScorer(seed=2**64, n_items=5, r_max=5.0, n_users=1)

    @pytest.mark.parametrize("users, items, message", [
        (-1, 2, "user index -1 is out of bounds for 3 users"),
        (1, -2, "item index -2 is out of bounds for 4 items"),
        (np.array([-1]), np.array([2]), "user index -1 is out of bounds for 3 users"),
        (np.array([0, 1]), np.array([3, -1]), "item index -1 is out of bounds for 4 items"),
        (0, 10, "item index 10 is out of bounds for 4 items"),
        (0, 4, "item index 4 is out of bounds for 4 items"),
        (np.array([0, 7]), np.array([1, 2]), "user index 7 is out of bounds for 3 users"),
        (3, np.arange(4), "user index 3 is out of bounds for 3 users"),
    ])
    def test_out_of_range_index_raises_index_error(self, users, items, message):
        # As a uint64, -1 would be the draw of user or item 2**64 - 1; an
        # index past the end would be the draw of a user or item that does
        # not exist.
        with pytest.raises(IndexError, match=message):
            RandomScorer(1, 4, 5.0, n_users=3).pair_scores(users, items)

    @pytest.mark.parametrize("user", [-1, 3])
    def test_row_of_a_user_out_of_range_raises_index_error(self, user):
        with pytest.raises(IndexError, match=f"user index {user} is out of bounds for 3 users"):
            RandomScorer(1, 4, 5.0, n_users=3).scores_for_user(user)


def zipf_from_counts(counts):
    """`ZipfScorer.from_dataset` on a dataset whose item j is rated counts[j] times."""
    items = np.repeat(np.arange(len(counts)), counts)
    return ZipfScorer.from_dataset(
        make_dataset(np.arange(items.size), items, np.full(items.size, 5.0), m=len(counts)))


def popularity_ranks(counts):
    return np.rint(1.0 / zipf_from_counts(counts).scores_for_user(0)).astype(int)


class TestPopularityRanks:
    def test_sort_by_count_then_index(self):
        ranks = popularity_ranks([7, 7, 3, 1, 0])
        assert ranks.tolist() == [1, 2, 3, 4, 5]

    def test_bijection(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 20, 30)
        ranks = popularity_ranks(counts)
        assert sorted(ranks.tolist()) == list(range(1, 31))

    def test_more_rated_gets_smaller_rank(self):
        counts = np.array([2, 9, 9, 0, 5])
        ranks = popularity_ranks(counts)
        assert ranks[1] < ranks[0] < ranks[3]
        assert ranks[1] < ranks[2]  # tie broken by index


class TestZipfScorer:
    def test_scores_follow_rank(self):
        scorer = ZipfScorer(popularity_rank=np.array([1, 2, 3]), r_max=5.0, n_users=10)
        assert scorer.scores_for_user(0)[0] == 1.0
        assert scorer.scores_for_user(0)[1] == 0.5
        assert scorer.scores_for_user(9)[2] == pytest.approx(1.0 / 3.0)

    def test_counts_example(self):
        # Items rated (7, 7, 3, 1, 0) times -> ranks 1..5 -> scores 1, 1/2, ...
        users = [0] * 7 + [1] * 7 + [2] * 3 + [3]
        items = [0] * 7 + [1] * 7 + [2] * 3 + [3]
        ds = make_dataset(users, items, np.ones(18) * 5.0, n=4, m=5)
        scorer = ZipfScorer.from_dataset(ds)
        np.testing.assert_allclose(
            scorer.scores_for_user(0), [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2]
        )

    def test_row_equals_pair_scores_of_the_full_user_column(self):
        scorer = ZipfScorer(np.array([3, 1, 4, 2, 5]), r_max=5.0, n_users=2**40 + 1)
        for i in (0, 1, 4, 2**40):
            row = scorer.scores_for_user(i)
            assert np.array_equal(row, scorer.pair_scores(np.full(5, i), np.arange(5)))
            with pytest.raises(ValueError):
                row[0] = 1.0

    def test_from_dataset_takes_the_user_count(self):
        ds = make_dataset([0, 1, 2], [0, 1, 1], np.full(3, 5.0), n=4, m=2)
        scorer = ZipfScorer.from_dataset(ds)
        assert (scorer.n, scorer.m) == (4, 2)
        with pytest.raises(IndexError, match="user index 4 is out of bounds for 4 users"):
            scorer.scores_for_user(4)
        with pytest.raises(IndexError, match="user index 10000000000 is out of bounds"):
            scorer.scores_for_user(10**10)
        with pytest.raises(TypeError):  # as every scorer's scores_for_user
            scorer.scores_for_user(1.5)

    def test_user_independent(self):
        scorer = ZipfScorer(popularity_rank=np.array([2, 1, 3, 4]), r_max=5.0, n_users=100)
        assert np.array_equal(scorer.scores_for_user(0), scorer.scores_for_user(99))

    def test_score_multiset(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 50, 25)
        got = sorted(zipf_from_counts(counts).scores_for_user(0).tolist())
        want = sorted(1.0 / r for r in range(1, 26))
        assert got == want

    def test_predicted_rating_scaling(self):
        scorer = ZipfScorer(popularity_rank=np.array([1, 2]), r_max=4.0, n_users=1)
        np.testing.assert_allclose(
            scorer.predicted_ratings(np.array([0, 0]), np.array([0, 1])), [4.0, 2.0]
        )
