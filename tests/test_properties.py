"""Property tests against plain-Python oracles: the wave-batched trainer
against one SGD step at a time, and `top_k` against a plain `sorted`."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from pbmf.model import top_k  # noqa: E402
from pbmf.training import ALGORITHMS, TrainConfig, train  # noqa: E402

from conftest import make_dataset  # noqa: E402
from test_training import sequential_sgd_oracle  # noqa: E402


@st.composite
def rating_files(draw):
    """n users x m items (1-8 each) with distinct (user, item) pairs, integer ratings."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                          min_size=1, max_size=n * m, unique=True))
    ratings = draw(st.lists(st.integers(1, 5), min_size=len(pairs), max_size=len(pairs)))
    users, items = zip(*pairs)
    return make_dataset(users, items, ratings, n=n, m=m)


# Every step of a one-user file waits for the one before it: one wave per step.
ONE_USER = make_dataset([0] * 8, [3, 1, 7, 0, 5, 2, 6, 4], [5, 1, 4, 2, 3, 5, 1, 4], n=1, m=8)
# No two steps share a user or an item: the whole epoch is a single wave.
ALL_DISTINCT = make_dataset(range(8), [2, 5, 0, 7, 1, 6, 3, 4], [1, 2, 3, 4, 5, 4, 3, 2],
                            n=8, m=8)


@settings(max_examples=200, deadline=None)
@given(dataset=rating_files(), algorithm=st.sampled_from(ALGORITHMS),
       beta=st.sampled_from([0.0, 0.5]), epochs=st.integers(1, 2))
@example(dataset=ONE_USER, algorithm="position_bias_mf", beta=0.5, epochs=2)
@example(dataset=ONE_USER, algorithm="classic_mf", beta=0.0, epochs=2)
@example(dataset=ALL_DISTINCT, algorithm="position_bias_mf", beta=0.5, epochs=2)
@example(dataset=ALL_DISTINCT, algorithm="classic_mf", beta=0.0, epochs=2)
def test_train_matches_sequential_oracle(dataset, algorithm, beta, epochs):
    config = TrainConfig(algorithm=algorithm, beta=beta, k=3, learning_rate=0.05,
                         epochs=epochs, seed=7)
    model, _ = train(dataset, config)
    U, V = sequential_sgd_oracle(dataset, config)
    assert np.abs(model.U - U).max() <= 1e-12
    assert np.abs(model.V - V).max() <= 1e-12


class RowScorer:
    """Scorer stub whose score rows are given outright."""

    def __init__(self, rows):
        self.rows = rows

    def scores_for_user(self, i):
        return np.array(self.rows[i])


@st.composite
def tied_scores(draw):
    """Score rows over m items drawn from at most 3 distinct values, so ties are
    common, plus either no exclusions or a set of excluded items per user."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 10))
    values = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=3))
    rows = draw(st.lists(st.lists(st.sampled_from(values), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    exclude = draw(st.none() | st.lists(st.sets(st.integers(0, m - 1)), min_size=n, max_size=n))
    return rows, exclude


@settings(max_examples=200, deadline=None)
@given(case=tied_scores(), k_top=st.integers(1, 11))
def test_top_k_matches_plain_sort(case, k_top):
    rows, exclude = case
    lists = top_k(RowScorer(rows), len(rows), k_top, exclude=None if exclude is None else
                  [np.array(sorted(skip), dtype=np.int64) for skip in exclude])
    assert len(lists) == len(rows)
    for score, skip, items, scores in zip(rows, exclude or [set()] * len(rows),
                                          lists.items, lists.scores):
        want = [j for j in sorted(range(len(score)), key=lambda j: (-score[j], j))
                if j not in skip][:k_top]
        assert items.tolist() == want
        assert scores.tolist() == [score[j] for j in want]
