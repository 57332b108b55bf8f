import math

import numpy as np
import pytest

from pbmf.baselines import ZipfScorer
from pbmf.metrics import (
    MetricsReport,
    REPORT_COLUMNS,
    evaluate_all,
    format_value,
    mae,
    matthew_degree,
    position_bias_metric,
    report_row,
)
from pbmf.model import TopKLists, top_k

from conftest import make_dataset


class ConstantScorer:
    """Emits one fixed normalized score everywhere (rating = score * r_max)."""

    def __init__(self, value, r_max=5.0, n_users=1, n_items=5):
        self.value = float(value)
        self.r_max = float(r_max)
        self.n, self.m = int(n_users), int(n_items)

    def scores_for_user(self, i):
        return np.full(self.m, self.value)

    def predicted_ratings(self, users, items):
        return np.full(len(np.asarray(users)), self.value * self.r_max)

    def normalized_scores(self, users, items):
        return np.full(len(np.asarray(users)), self.value)


class TableScorer:
    """Scores looked up from a dense (n x m) table of normalized values."""

    def __init__(self, table, r_max=5.0):
        self.table = np.asarray(table, dtype=float)
        self.r_max = float(r_max)
        self.n, self.m = self.table.shape

    def scores_for_user(self, i):
        return self.table[i]

    def normalized_scores(self, users, items):
        return self.table[np.asarray(users), np.asarray(items)]

    def predicted_ratings(self, users, items):
        return np.clip(self.normalized_scores(users, items), 0.0, 1.0) * self.r_max


def lists_from_frequencies(freqs):
    """TopKLists whose item-frequency multiset equals `freqs` (oracle helper)."""
    items = []
    for item_index, count in enumerate(freqs):
        for _ in range(count):
            items.append(item_index)
    # one single-item list per appearance keeps frequencies exact
    per_user = [np.array([j]) for j in items]
    return TopKLists(items=per_user, scores=[np.array([1.0]) for _ in per_user])


class TestMae:
    def test_perfect_predictor(self, toy_dataset):
        class Perfect:
            def predicted_ratings(self, users, items):
                return toy_dataset.ratings.copy()

        assert mae(Perfect(), toy_dataset) == 0.0

    def test_constant_predictor(self):
        test = make_dataset([0, 1, 2], [0, 1, 2], [3.0, 3.0, 3.0])
        assert mae(ConstantScorer(1.0, r_max=5.0), test) == pytest.approx(2.0)

    def test_hand_arithmetic(self):
        test = make_dataset([0, 1, 2, 3], [0, 1, 2, 3], [5.0, 2.0, 5.0, 3.0])

        class Fixed:
            def predicted_ratings(self, users, items):
                return np.array([4.0, 2.5, 5.0, 1.0])

        assert mae(Fixed(), test) == pytest.approx(0.875)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        users = rng.integers(0, 10, 40)
        items = rng.integers(0, 10, 40)
        ratings = rng.uniform(1, 5, 40)
        perm = rng.permutation(40)
        a = make_dataset(users, items, ratings, n=10, m=10)
        b = make_dataset(users[perm], items[perm], ratings[perm], n=10, m=10)
        scorer = ConstantScorer(0.6, r_max=5.0)
        assert mae(scorer, a) == pytest.approx(mae(scorer, b), abs=1e-12)

    def test_empty_test_rejected(self):
        empty = make_dataset([], [], [], n=1, m=1)
        with pytest.raises(ValueError, match=r"cannot compute MAE on an empty test set"):
            mae(ConstantScorer(0.5), empty)


class TestPositionBias:
    def test_uniform_target_is_exact_zero(self):
        m = 10
        test = make_dataset([0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0], n=3, m=m)
        assert position_bias_metric(ConstantScorer(1.0 / m), test, m) == 0.0

    def test_all_ones(self):
        test = make_dataset([0, 1], [0, 1], [1.0, 2.0], n=2, m=10)
        assert position_bias_metric(ConstantScorer(1.0), test, 10) == pytest.approx(
            0.81, abs=1e-12
        )

    def test_hand_arithmetic(self):
        test = make_dataset([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0], n=3, m=10)

        class Three:
            def normalized_scores(self, users, items):
                return np.array([0.2, 0.5, 0.1])

        got = position_bias_metric(Three(), test, 10)
        assert got == pytest.approx((0.1**2 + 0.4**2 + 0.0**2) / 3.0, abs=1e-12)
        assert got == pytest.approx(0.056667, abs=1e-6)

    def test_nonnegative_and_zero_only_at_target(self):
        rng = np.random.default_rng(1)
        test = make_dataset(np.arange(20), np.arange(20) % 5, rng.uniform(1, 5, 20), n=20, m=5)
        for value in (0.0, 0.1, 0.2, 0.9):
            got = position_bias_metric(ConstantScorer(value), test, 5)
            assert got >= 0.0
            assert (got == 0.0) == (value == 1.0 / 5)


class TestMatthewDegree:
    def test_equal_frequencies_is_inf(self):
        lists = lists_from_frequencies([3, 3, 3])
        assert matthew_degree(lists, "literal") == math.inf
        assert matthew_degree(lists, "pareto") == math.inf

    def test_literal_variant_value(self):
        lists = lists_from_frequencies([4, 2, 1])
        got = matthew_degree(lists, "literal")
        want = 1.0 + 3.0 / (math.log(4 / 4) + math.log(2 / 4) + math.log(1 / 4))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(-0.44270, abs=1e-4)

    def test_pareto_variant_value(self):
        lists = lists_from_frequencies([4, 2, 1])
        got = matthew_degree(lists, "pareto")
        want = 1.0 + 3.0 / (math.log(4.0) + math.log(2.0) + math.log(1.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(2.44270, abs=1e-4)

    def test_depends_only_on_frequency_multiset(self):
        rng = np.random.default_rng(2)
        freqs = [5, 3, 2, 2, 1]
        base = matthew_degree(lists_from_frequencies(freqs))
        shuffled = list(freqs)
        rng.shuffle(shuffled)
        assert matthew_degree(lists_from_frequencies(shuffled)) == pytest.approx(base)

    def test_variant_sign_ranges(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            freqs = rng.integers(1, 30, size=rng.integers(2, 12)).tolist()
            lists = lists_from_frequencies(freqs)
            literal = matthew_degree(lists, "literal")
            pareto = matthew_degree(lists, "pareto")
            if math.isfinite(literal):
                assert literal <= 1.0
            if math.isfinite(pareto):
                assert pareto >= 1.0

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            matthew_degree(lists_from_frequencies([2, 1]), "bogus")


class TestEvaluateAll:
    def test_uniform_scorer_composition(self, toy_dataset):
        report = evaluate_all(
            ConstantScorer(1.0 / toy_dataset.m, r_max=5.0, n_users=toy_dataset.n,
                           n_items=toy_dataset.m),
            toy_dataset,
            toy_dataset,
            k_top=2,
            algorithm="uniform",
        )
        assert report.position_bias == 0.0
        assert report.mae == pytest.approx(
            float(np.abs(toy_dataset.ratings - 1.0).mean())
        )
        assert report.test_size == len(toy_dataset)

    def test_monotone_transform_same_matthew(self, toy_dataset):
        rng = np.random.default_rng(4)
        table = rng.random((toy_dataset.n, toy_dataset.m))
        a = evaluate_all(TableScorer(table), toy_dataset, toy_dataset, k_top=2,
                         algorithm="table")
        b = evaluate_all(TableScorer(table * 7.0), toy_dataset, toy_dataset, k_top=2,
                         algorithm="table")
        assert a.matthew_degree == pytest.approx(b.matthew_degree)

    def test_zipf_composition_matches_constituents(self, toy_dataset):
        scorer = ZipfScorer.from_dataset(toy_dataset)
        report = evaluate_all(scorer, toy_dataset, toy_dataset, k_top=2, algorithm="zipf")
        lists = top_k(scorer, 2, exclude=toy_dataset.items_by_user())
        assert report.mae == pytest.approx(mae(scorer, toy_dataset))
        assert report.position_bias == pytest.approx(
            position_bias_metric(scorer, toy_dataset, toy_dataset.m)
        )
        assert report.matthew_degree == pytest.approx(matthew_degree(lists))
        assert report.algorithm == "zipf"

    def test_scorer_of_another_user_count_is_rejected(self, toy_dataset):
        # The lists rank the scorer's own users, one exclusion list each.
        scorer = ZipfScorer(np.arange(1, toy_dataset.m + 1), 5.0, n_users=toy_dataset.n + 1)
        with pytest.raises(ValueError, match="exclude holds 4 entries for 5 users"):
            evaluate_all(scorer, toy_dataset, toy_dataset, k_top=2, algorithm="zipf")

    def test_excludes_training_items_from_lists(self, toy_dataset):
        scorer = ZipfScorer.from_dataset(toy_dataset)
        lists = top_k(scorer, 3, exclude=toy_dataset.items_by_user())
        for user, rated in enumerate(toy_dataset.items_by_user()):
            assert not set(lists.items[user]) & set(rated.tolist())


class TestReportCsvRoundTrip:
    def test_format_value(self):
        assert format_value(math.inf) == "inf"
        assert format_value(0.8123456789) == "0.812346"
        assert format_value(2.0) == "2"

    def test_row_round_trip(self):
        report = MetricsReport(
            algorithm="position_bias_mf",
            beta=0.1,
            k=32,
            epochs=20,
            seed=42,
            mae=0.875,
            matthew_degree=math.inf,
            position_bias=0.056667,
            k_top=10,
            test_size=123,
        )
        row = report_row(report)
        assert len(row) == len(REPORT_COLUMNS)
        assert dict(zip(REPORT_COLUMNS, row)) == {
            "algorithm": "position_bias_mf",
            "beta": "0.1",
            "k": "32",
            "epochs": "20",
            "seed": "42",
            "k_top": "10",
            "mae": "0.875",
            "matthew_degree": "inf",
            "position_bias": "0.056667",
            "test_size": "123",
        }
