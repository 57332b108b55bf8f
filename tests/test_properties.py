"""Property tests against plain-Python oracles: the wave-batched trainer
against one SGD step at a time, `items_by_user` against a grouping in file
order, `split` against a set-based filter of the held-out rows, `top_k`
against a plain `sorted` and a full stable `argsort`, also across many
blocks and with exclusions of mixed integer types, the score rows the
scorers serve from blocks against one user's row at a time (a model's
within its bound), a model's top-k lists against those of its exact rows,
also under any rows within the bound, every scorer's index checks against
the one index rule and its unchecked hook, the Matthew degree against its
formula, the rating-file writer against the loader, both loaders against a
row-by-row reference, the MovieLens loader against a line-by-line one on
drawn raw lines and on drawn digit-only files, on both sides of its numpy
step's guard, the two loaders against each other on the `::` and `,`
spellings of one drawn file, and the CLI against drawn rating and config
files and drawn argv lists."""

import contextlib
import functools
import io
import logging
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from pbmf import cli, data, model as model_module  # noqa: E402
from pbmf.baselines import RandomScorer, ZipfScorer  # noqa: E402
from pbmf.data import SplitSpec, load_csv, load_movielens, split  # noqa: E402
from pbmf.metrics import MATTHEW_VARIANTS, matthew_degree  # noqa: E402
from pbmf.model import Scorer, TopKLists, top_k  # noqa: E402
from pbmf.synthetic import write_movielens_file  # noqa: E402
from pbmf.training import ALGORITHMS, TrainConfig, train  # noqa: E402

from conftest import assert_within_bound, exact_row, make_dataset, score_bound  # noqa: E402
from test_readme import python_blocks, run_block  # noqa: E402
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
    beta = beta if algorithm == "position_bias_mf" else 0.0  # only it takes a beta
    config = TrainConfig(algorithm=algorithm, beta=beta, k=3, learning_rate=0.05,
                         epochs=epochs, seed=7)
    model, _ = train(dataset, config)
    U, V = sequential_sgd_oracle(dataset, config)
    assert np.abs(model.U - U).max() <= 1e-12
    assert np.abs(model.V - V).max() <= 1e-12


# Users 0..7 with some left out, then 1-3 users past the largest one: every
# draw has users with no rows.
@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)), min_size=1, max_size=30),
       empty_tail=st.integers(1, 3))
@example(rows=[(2, 5), (0, 3), (2, 1), (0, 3), (2, 0)], empty_tail=1)
def test_items_by_user_matches_file_order_grouping(rows, empty_tail):
    users, items = zip(*rows)
    n = max(users) + 1 + empty_tail
    dataset = make_dataset(users, items, [1.0] * len(rows), n=n)
    want = [[j for user, j in rows if user == i] for i in range(n)]
    assert [group.tolist() for group in dataset.items_by_user()] == want


@settings(max_examples=200, deadline=None)
@given(dataset=rating_files(), fraction=st.sampled_from([0.2, 0.5, 0.8]),
       seed=st.integers(0, 2**32 - 1))
def test_split_keeps_held_out_rows_seen_in_train(dataset, fraction, seed):
    rows = list(zip(dataset.users.tolist(), dataset.items.tolist(), dataset.ratings.tolist()))
    held = (np.random.default_rng(seed).random(len(rows)) < fraction).tolist()
    kept = [row for row, out in zip(rows, held) if not out]
    users, items = {u for u, _, _ in kept}, {j for _, j, _ in kept}
    want = [row for row, out in zip(rows, held) if out and row[0] in users and row[1] in items]
    spec = SplitSpec(test_fraction=fraction, seed=seed)
    if not kept or len(kept) == len(rows) or not want:
        with pytest.raises(ValueError):
            split(dataset, spec)
        return
    train, test = split(dataset, spec)
    for part, rows_want in ((train, kept), (test, want)):
        assert list(zip(part.users.tolist(), part.items.tolist(),
                        part.ratings.tolist())) == rows_want
        assert (part.n, part.m, part.r_max) == (dataset.n, dataset.m, dataset.r_max)


class RowScorer:
    """Scorer stub whose score rows are given outright."""

    def __init__(self, rows):
        self.rows = rows
        self.n, self.m = np.shape(rows)

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
    lists = top_k(RowScorer(rows), k_top, exclude=None if exclude is None else
                  [np.array(sorted(skip), dtype=np.int64) for skip in exclude])
    assert len(lists) == len(rows)
    for score, skip, items, scores in zip(rows, exclude or [set()] * len(rows),
                                          lists.items, lists.scores):
        want = [j for j in sorted(range(len(score)), key=lambda j: (-score[j], j))
                if j not in skip][:k_top]
        assert items.tolist() == want
        assert scores.tolist() == [score[j] for j in want]


# Scores on which a partial and a full sort could disagree: NaN, both
# infinities, both zeros and a few finite values.
RANK_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.5, 0.2, -1.0]


@st.composite
def ranking_cases(draw):
    """One score row, a list length, and no exclusions or a set of them that may
    leave fewer than k_top items, or none.  Copies of the k-th best remaining
    score are planted on other items, so that ties straddle the cut."""
    m = draw(st.integers(1, 12))
    row = draw(st.lists(st.sampled_from(RANK_VALUES), min_size=m, max_size=m))
    k_top = draw(st.integers(1, m + 2))
    skip = draw(st.none() | st.sets(st.integers(0, m - 1)).map(sorted)
                | st.just(list(range(m))))
    left = [j for j in np.argsort(-np.array(row), kind="stable") if j not in (skip or [])]
    if len(left) >= k_top:
        for j in draw(st.sets(st.integers(0, m - 1), max_size=3)):
            row[j] = row[left[k_top - 1]]
    return row, skip, k_top


@settings(max_examples=300, deadline=None)
@given(case=ranking_cases())
@example(case=([0.5, -math.inf, 0.2], None, 3))
@example(case=([math.nan] * 5, None, 2))
def test_top_k_matches_stable_argsort(case):
    row, skip, k_top = case
    lists = top_k(RowScorer([row]), k_top,
                  exclude=None if skip is None else [np.array(skip, dtype=np.int64)])
    order = np.argsort(-np.array(row), kind="stable")
    want = order[~np.isin(order, skip or [])][:k_top]
    assert lists.items[0].tolist() == want.tolist()
    np.testing.assert_array_equal(lists.scores[0], np.array(row)[want])


@st.composite
def multi_user_ranking_cases(draw):
    """1-6 score rows over the same m items, drawn from RANK_VALUES, with no
    exclusions or a set per user that may be empty or every item."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.sampled_from(RANK_VALUES), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    skip = st.sets(st.integers(0, m - 1)).map(sorted) | st.just([]) | st.just(list(range(m)))
    exclude = draw(st.none() | st.lists(skip, min_size=n, max_size=n))
    return rows, exclude, draw(st.integers(1, m + 2))


@settings(max_examples=300, deadline=None)
@given(case=multi_user_ranking_cases())
@example(case=([[0.5, math.nan, math.inf], [-0.0, 0.0, -math.inf]], [[2], [0, 1, 2]], 1))
@example(case=([[math.nan, -1.0, math.nan, -math.inf]] * 3, [[], [1], [3, 0]], 2))
def test_top_k_of_many_users_matches_stable_argsort(case):
    rows, exclude, k_top = case
    lists = top_k(RowScorer(rows), k_top, exclude=None if exclude is None else
                  [np.array(skip, dtype=np.int64) for skip in exclude])
    assert len(lists) == len(rows)
    for i, row in enumerate(rows):
        order = np.argsort(-np.array(row), kind="stable")
        want = order[~np.isin(order, [] if exclude is None else exclude[i])][:k_top]
        assert lists.items[i].tolist() == want.tolist()
        np.testing.assert_array_equal(lists.scores[i], np.array(row)[want])


@st.composite
def ranking_blocks(draw):
    """Up to 200 users' score rows over m <= 40 items, from a seeded draw.
    Each row holds distinct values, three tied values or RANK_VALUES; each
    user excludes no item, a few, half or every item, or nobody excludes
    any.  The block holds 1-16 rows, so the users span many blocks."""
    n, m = draw(st.integers(1, 200)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = rng.integers(0, 3, (n, 1))
    rows = np.where(kinds == 0, rng.random((n, m)),
                    np.where(kinds == 1, rng.integers(0, 3, (n, m)) / 2,
                             rng.choice(RANK_VALUES, (n, m))))
    exclude = None
    if draw(st.booleans()):
        exclude = [np.flatnonzero(rng.random(m) < share)
                   for share in rng.choice([0.0, 0.1, 0.5, 1.0], n)]
    return rows, exclude, draw(st.integers(1, m + 2)), draw(st.integers(1, 16))


def assert_stable_argsort_lists(lists, rows, exclude, k_top):
    assert len(lists) == len(rows)
    for i, row in enumerate(rows):
        order = np.argsort(-row, kind="stable")
        want = order[~np.isin(order, [] if exclude is None else exclude[i])][:k_top]
        assert lists.items[i].tolist() == want.tolist()
        np.testing.assert_array_equal(lists.scores[i], row[want])


@settings(max_examples=150, deadline=None)
@given(case=ranking_blocks())
def test_top_k_in_blocks_matches_stable_argsort(case):
    rows, exclude, k_top, block_rows = case
    with mock.patch.object(model_module, "RANK_BLOCK_BYTES", block_rows * 8 * rows.shape[1]):
        lists = top_k(RowScorer(rows), k_top, exclude=exclude)
    assert_stable_argsort_lists(lists, rows, exclude, k_top)


EXCLUSION_TYPES = [np.int64, np.uint64, np.int32, np.uint8, list]


@st.composite
def mixed_exclusion_cases(draw):
    """A `ranking_blocks` case whose users' exclusions each take a type of
    EXCLUSION_TYPES, mixed within the call, and a few calls with one
    exclusion of -1 (not for the unsigned types), m or m + 1; whether the
    rows are ranked in blocks or one at a time."""
    rows, _, k_top, block_rows = draw(ranking_blocks())
    n, m = rows.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = rng.integers(0, len(EXCLUSION_TYPES), n)
    exclude = [np.flatnonzero(rng.random(m) < share).tolist()
               for share in rng.choice([0.0, 0.1, 0.5, 1.0], n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        signed = EXCLUSION_TYPES[kinds[i]] in (np.int64, np.int32, list)
        exclude[i].append(draw(st.sampled_from([m, m + 1] + [-1] * signed)))
    exclude = [e if EXCLUSION_TYPES[kind] is list else np.array(e, EXCLUSION_TYPES[kind])
               for e, kind in zip(exclude, kinds)]
    return rows, exclude, k_top, block_rows, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(case=mixed_exclusion_cases())
@example(case=(np.arange(36.0).reshape(3, 12), [np.array([1]), np.array([], np.int64),
                                                 np.array([2], np.uint64)], 2, 1, True))
@example(case=(np.arange(36.0).reshape(3, 12), [np.array([1]), np.array([], np.int64),
                                                 np.array([12], np.uint64)], 2, 1, True))
@example(case=(np.arange(36.0).reshape(3, 12), [[-1], np.array([], np.int64),
                                                 np.array([3], np.uint64)], 2, 3, False))
@example(case=(np.arange(36.0).reshape(3, 12), [np.array([4], np.int32), [5],
                                                 np.array([6], np.uint8)], 3, 2, True))
@example(case=(np.arange(36.0).reshape(3, 12), [np.array([1]), np.array([2**63 + 5], np.uint64),
                                                 [2]], 2, 3, True))
def test_top_k_takes_exclusions_of_mixed_integer_types(case):
    # int64, uint64, int32, uint8 and Python lists within one call, signed
    # next to unsigned, which numpy joins into float64: the lists of a stable
    # argsort, and an exclusion outside [0, m) named as an integer, also one
    # past 2**63 that a cast to intp would wrap.
    rows, exclude, k_top, block_rows, in_blocks = case
    m = rows.shape[1]
    with mock.patch.object(model_module, "RANK_BLOCK_BYTES", block_rows * 8 * m), \
            mock.patch.object(model_module, "BLOCK_RANK_MAX_M", m if in_blocks else 0):
        flat = np.array([j for e in exclude for j in np.ravel(e).tolist()], dtype=object)
        if out_of_range(flat, m):
            assert_index_error(lambda: top_k(RowScorer(rows), k_top, exclude=exclude), "item",
                               flat, m)
            return
        lists = top_k(RowScorer(rows), k_top, exclude=exclude)
    assert_stable_argsort_lists(lists, rows, exclude, k_top)


def test_top_k_row_by_row_matches_stable_argsort():
    # The rows wider than BLOCK_RANK_MAX_M go to _rank_row one at a time;
    # here the drawn rows do: ties at the k-th score, NaN, infinities, and
    # users who exclude half or all of the items.  A row of m >= 4 * k_top
    # is cut at the k-th best of every fourth item (one partition of the
    # sample), unless that cut is +inf or NaN (a partition of the full row).
    paths = set()  # how _rank_row found a row's k-th best: "cut" or "full"
    lengths = []  # of the arrays partitioned while one row is ranked
    rank_row, partition = model_module._rank_row, np.partition

    def rank_row_spy(row, k_top, exclude, gap=None):
        lengths.clear()
        ranked = rank_row(row, k_top, exclude, gap)
        paths.add("cut" if len(lengths) == 1 and lengths[0] < len(row) else "full")
        return ranked

    def partition_spy(a, *args, **kwargs):
        lengths.append(len(a))
        return partition(a, *args, **kwargs)

    def one_row(*values):
        return np.array([values], dtype=np.float64)

    nan, inf = math.nan, math.inf

    @settings(max_examples=150, deadline=None)
    @given(case=ranking_blocks())
    # The 2nd best ties a sampled item (4) and an unsampled one (2), which wins.
    @example(case=(one_row(0.9, 0.1, 0.5, 0.1, 0.5, 0.1, 0.1, 0.1), None, 2, 1))
    # Both sampled items are excluded: the cut is +inf and the full row ranks.
    @example(case=(one_row(0.9, 0.1, 0.2, 0.3, 0.8, 0.4, 0.5, 0.6), [np.array([0, 4])], 2, 1))
    # NaN in the sample: a NaN cut, and a finite one.
    @example(case=(np.array([[nan, 0.1, 0.2, 0.3, nan, 0.4, 0.5, 0.6, 0.3, 0.9, 0.1, 0.2],
                             [nan, 0.1, 0.2, 0.3, 0.2, 0.4, 0.5, 0.6, 0.7, 0.9, 0.1, 0.2]]),
                   None, 2, 1))
    @example(case=(one_row(*[inf] * 8), None, 2, 1))  # a cut of -inf
    @example(case=(one_row(*np.arange(11.0) % 4), None, 3, 1))  # m = 4 * k_top - 1
    @example(case=(one_row(*np.arange(12.0) % 4), None, 3, 1))  # m = 4 * k_top
    def check(case):
        rows, exclude, k_top, _ = case
        with mock.patch.object(model_module, "BLOCK_RANK_MAX_M", 0), \
                mock.patch.object(model_module, "_rank_row", rank_row_spy), \
                mock.patch.object(np, "partition", partition_spy):
            lists = top_k(RowScorer(rows), k_top, exclude=exclude)
        assert_stable_argsort_lists(lists, rows, exclude, k_top)

    check()
    assert paths == {"cut", "full"}


@st.composite
def served_row_cases(draw):
    """A cosine model, a dot model or a RandomScorer (with its seed and
    user count) over n users and m items, zero factor rows included, a block of 1-3 rows, and
    the users asked for: forward, backward or drawn, each asked once or
    twice in a row.  A model gets a new U, V or mode, by assignment, at a
    drawn call."""
    kind = draw(st.sampled_from(["cosine", "dot", "random"]))
    n, m, k = draw(st.integers(1, 8)), draw(st.integers(1, 9)), draw(st.integers(1, 8) | st.just(64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, V = rng.normal(size=(n, k)), rng.normal(size=(m, k))
    zero_user, zero_item = draw(st.integers(0, n)), draw(st.integers(0, m))
    U[zero_user:zero_user + 1] = 0.0  # past the last row: no zero row
    V[zero_item:zero_item + 1] = 0.0
    direction = draw(st.sampled_from(["forward", "backward", "drawn"]))
    if direction == "drawn":
        users = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))
    else:
        users = range(n) if direction == "forward" else range(n - 1, -1, -1)
    order = [i for i in users for _ in range(draw(st.integers(1, 2)))]
    change = None
    if kind != "random" and draw(st.booleans()):
        name = draw(st.sampled_from(["U", "V", "mode"]))
        value = ({"dot": "cosine", "cosine": "dot"}[kind] if name == "mode"
                 else rng.normal(size=(n if name == "U" else m, k)))
        change = (draw(st.integers(0, len(order) - 1)), name, value)
    return kind, U, V, draw(st.integers(0, 2**64 - 1)), order, draw(st.integers(1, 3)), change


@settings(max_examples=300, deadline=None)
@given(case=served_row_cases())
@example(case=("cosine", np.ones((7, 2)), np.eye(2), 0, [6, 5, 4, 3, 2, 1, 0], 3,
               (3, "U", np.arange(14.0).reshape(7, 2))))
@example(case=("dot", np.ones((2, 2)), np.eye(2), 0, [0, 1], 3, (1, "mode", "cosine")))
def test_served_rows_equal_per_user_rows(case):
    kind, U, V, seed, order, block_rows, change = case
    m = len(V)
    scorer = (RandomScorer(seed=seed, n_items=m, r_max=5.0, n_users=len(U))
              if kind == "random" else model_module.FactorModel(U=U, V=V, mode=kind))
    calls = []
    score_rows = scorer.score_rows
    scorer.score_rows = lambda lo, hi: calls.append((lo, hi)) or score_rows(lo, hi)
    scored = 0  # calls that must score a block: a new block, new factors, or after the last user
    with mock.patch.object(model_module, "RANK_BLOCK_BYTES", block_rows * 8 * m):
        for t, i in enumerate(order):
            if change is not None and t == change[0]:
                setattr(scorer, change[1], change[2])
            row = scorer.scores_for_user(i)  # from the current factors
            if kind == "random":
                assert row.tobytes() == scorer.pair_scores(i, np.arange(m)).tobytes()
            else:
                assert_within_bound(row, scorer, i)
            assert not row.flags.writeable
            scored += (t == 0 or i // block_rows != order[t - 1] // block_rows
                       or (change is not None and t == change[0])
                       or order[t - 1] == len(U) - 1)
    assert len(calls) == scored
    for lo, hi in calls:
        assert lo % block_rows == 0
        assert hi == min(lo + block_rows, len(U))


@st.composite
def certified_ranking_cases(draw, spoils=(None, "zero", "tiny", "huge", "nan", "inf"),
                            dtypes=(np.float64, np.float32)):
    """A dot or cosine model, of float64 or float32 factors where `dtypes`
    allows, whose items hold planted near-ties among one user's k_top + 1
    best: copied rows, rows scaled by a power of 2 or by 1 + r eps (2**-52
    in float64), rows a few ulps apart in each entry and permuted rows.
    The factors are normal or, as `init_model` draws them, positive, and
    that user's row may be flat, so that its scores of permuted rows tie
    in exact arithmetic and part only by rounding.  m is drawn below
    4 * k_top, in the blocks of top_k or past BLOCK_RANK_MAX_M.  A factor
    row may be zero, tiny or huge (norms the products skip) or hold a NaN
    or an infinity, where `spoils` allows.  Exclusions, k_top and the
    block height are drawn too."""
    mode = draw(st.sampled_from(["dot", "cosine"]))
    wide = model_module.BLOCK_RANK_MAX_M + 1
    m = draw(st.integers(1, 12) | st.integers(13, 80) | st.integers(wide, wide + 40))
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 8) | st.sampled_from([64, 256, 1024]))
    k_top = draw(st.integers(1, 12) | st.just(m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = rng.normal if draw(st.booleans()) else lambda size: 1.0 - rng.random(size)
    dtype = draw(st.sampled_from(dtypes))
    U, V = factors(size=(n, k)).astype(dtype), factors(size=(m, k)).astype(dtype)
    user = rng.integers(n)
    if draw(st.booleans()):
        U[user] = U[user, 0]
    best = np.argsort(-(V @ U[user]), kind="stable")[:k_top + 1]
    ties = st.sampled_from(["copy", "scaled", "nudged", "ulps", "permuted"])
    for tie in draw(st.lists(ties, max_size=16)):
        j, source = rng.integers(m), V[rng.choice(best)]
        V[j] = source * {"scaled": 2.0 ** rng.integers(-3, 4),
                         "nudged": 1.0 + rng.integers(1, 9) * np.finfo(dtype).eps}.get(tie, 1.0)
        if tie == "ulps":
            V[j] += rng.integers(-3, 4, k) * np.spacing(source)
        elif tie == "permuted":
            V[j] = rng.permutation(source)
    spoil = draw(st.sampled_from(spoils))
    if spoil is not None:
        factors = draw(st.sampled_from([U, V]))
        row = rng.integers(len(factors))
        if spoil in ("nan", "inf"):
            factors[row, rng.integers(k)] = np.nan if spoil == "nan" else -np.inf
        else:
            with np.errstate(over="ignore"):  # float32 factors turn infinite
                factors[row] *= {"zero": 0.0, "tiny": 2.0**-500, "huge": 2.0**500}[spoil]
    exclude = None
    if draw(st.booleans()):
        exclude = [np.flatnonzero(rng.random(m) < share)
                   for share in rng.choice([0.0, 0.1, 0.5, 1.0], n)]
    return model_module.FactorModel(U=U, V=V, mode=mode), k_top, exclude, draw(st.integers(1, 4))


def exact_rows(model):
    """A scorer stub serving a model's exact rows."""
    return RowScorer([exact_row(model, i) for i in range(model.n)])


def near_twins_float32(mode):
    """A float32 model over 400 items of which every odd one is the item
    before it times 1 + 2**-20: in cosine mode they tie in exact arithmetic
    and part only by rounding, so a product of blocks ranks some pairs of
    them in another order than the exact rows."""
    rng = np.random.default_rng(2)
    U = rng.normal(size=(10, 64)).astype(np.float32)
    V = rng.normal(size=(400, 64)).astype(np.float32)
    V[1::2] = V[0::2] * np.float32(1 + 2**-20)
    return model_module.FactorModel(U=U, V=V, mode=mode)


def test_top_k_of_a_model_equals_top_k_of_its_exact_rows():
    # A model's lists, items and order, are those of its exact rows bit for
    # bit, and its list scores are within the bound of the exact ones.
    # A spy sees both ways a list is settled: a row of a block scored by one
    # product is certified, or it is ranked again from its exact row.  A
    # float32 model, which the float64 bound does not cover, is ranked from
    # its exact rows alone, scores and all.
    paths = set()
    score_rows = model_module.FactorModel.score_rows
    model_rows = model_module.FactorModel._exact_rows
    fallback, rescored, inside = set(), set(), []

    def score_rows_spy(self, lo, hi):
        inside.append((lo, hi))
        try:
            return score_rows(self, lo, hi)
        finally:
            inside.pop()

    def exact_rows_spy(self, lo, hi):
        (fallback if inside else rescored).update(range(lo, hi))
        return model_rows(self, lo, hi)

    @settings(max_examples=300, deadline=None)
    @given(case=certified_ranking_cases())
    # Two copies of the best item of a one-user cosine model: a tie, rescored.
    @example(case=(model_module.FactorModel(U=np.array([[1.0, 0.5]]),
                                            V=np.array([[0.3, 0.2], [1.0, 0.4], [1.0, 0.4],
                                                        [0.1, 0.9], [0.2, 0.2]])), 2, None, 1))
    @example(case=(near_twins_float32("cosine"), 10, None, 81))
    @example(case=(near_twins_float32("dot"), 10, None, 81))
    def check(case):
        model, k_top, exclude, block_rows = case
        n, m = model.n, model.m
        fallback.clear()
        rescored.clear()
        finite = np.isfinite(model.U).all() and np.isfinite(model.V).all()
        with np.errstate(all="ignore") if not finite else contextlib.nullcontext(), \
                mock.patch.object(model_module, "RANK_BLOCK_BYTES", block_rows * 8 * m), \
                mock.patch.object(model_module.FactorModel, "score_rows", score_rows_spy), \
                mock.patch.object(model_module.FactorModel, "_exact_rows", exact_rows_spy):
            lists = top_k(model, k_top, exclude=exclude)
            want = top_k(exact_rows(model), k_top, exclude=exclude)
            for i in range(n):
                assert lists.items[i].dtype == want.items[i].dtype
                assert lists.items[i].tobytes() == want.items[i].tobytes()
                if model.U.dtype == np.float64:
                    assert_within_bound(lists.scores[i], model, i, lists.items[i])
                else:
                    assert lists.scores[i].tobytes() == want.scores[i].tobytes()
        product = set(range(n)) - fallback  # the users scored by one product
        if product - rescored:
            paths.add("certified")
        if product & rescored:
            paths.add("rescored")

    check()
    assert paths == {"certified", "rescored"}


def nudged_pair(m):
    """A one-user dot model over m items whose best two, items 1 and 0, are
    2**-51 of a score apart, far ahead of the others."""
    V = np.vstack([[1.0, 1.0], [1.0 + 2.0**-51] * 2, np.full((m - 2, 2), 0.1)])
    return model_module.FactorModel(U=np.ones((1, 2)), V=V, mode="dot")


@settings(max_examples=200, deadline=None)
@given(case=certified_ranking_cases(spoils=[None], dtypes=[np.float64]),
       seed=st.integers(0, 2**32 - 1))
# Seed 2 moves item 0 up and item 1 down: item 0 leads in the served row by
# less than 2 D.  Item 1 is not sampled (1 % 4), so only the widened cut of a
# wide row sees it.
@example(case=(nudged_pair(model_module.BLOCK_RANK_MAX_M + 1), 1, None, 1), seed=2)
@example(case=(nudged_pair(40), 1, None, 1), seed=2)
def test_top_k_ranks_any_rows_within_the_bound_as_the_exact_rows(case, seed):
    # Whatever rows within D_i of the exact ones a model serves, its lists are
    # the exact rows': here each score moves by 0.9 D_i (or stays) in a
    # drawn direction, so that tied items part by up to 1.8 D_i.
    model, k_top, exclude, block_rows = case
    rng = np.random.default_rng(seed)

    def moved_rows(self, lo, hi):
        return np.array([exact_row(self, i) + 0.9 * score_bound(self, i)
                         * rng.choice([-1.0, 0.0, 1.0], self.m) for i in range(lo, hi)])

    with mock.patch.object(model_module, "RANK_BLOCK_BYTES", block_rows * 8 * model.m), \
            mock.patch.object(model_module.FactorModel, "score_rows", moved_rows):
        lists = top_k(model, k_top, exclude=exclude)
    want = top_k(exact_rows(model), k_top, exclude=exclude)
    assert [a.tobytes() for a in lists.items] == [a.tobytes() for a in want.items]


SCORER_KINDS = ["dot", "cosine", "random", "zipf", "readme"]


@functools.cache
def readme_scorer_class():
    """The custom scorer class that README.md defines."""
    return next(value for source in python_blocks() for value in run_block(source).values()
                if isinstance(value, type) and issubclass(value, Scorer) and value is not Scorer)


def index_rule_scorer(kind, n, m, seed):
    """A scorer of `kind` over n users and m items."""
    if kind in ("dot", "cosine"):
        return model_module.init_model(n, m, 3, seed=seed, mode=kind)
    if kind == "random":
        return RandomScorer(seed, m, 5.0, n_users=n)
    if kind == "zipf":
        return ZipfScorer(np.random.default_rng(seed).permutation(m) + 1, 5.0, n_users=n)
    rows = np.arange(max(n, m))
    return readme_scorer_class()(make_dataset(rows % n, rows % m, np.ones(len(rows)), n=n, m=m))


INDEX_DTYPES = [np.int64, np.int32, np.int8, np.uint64, np.uint16, np.uint8]


@st.composite
def drawn_index(draw, size, length=None, dtypes=INDEX_DTYPES):
    """A Python or numpy int (`length` None) or an array of `length` indices
    of a dtype drawn from `dtypes`, from below 0 to past `size`; unsigned
    ones from 0."""
    dtype = draw(st.sampled_from(dtypes + [int] * (length is None)))
    low = -size - 2 if dtype is int or np.issubdtype(dtype, np.signedinteger) else 0
    values = st.integers(low, size + 2)
    if length is None:
        return dtype(draw(values))
    return np.array(draw(st.lists(values, min_size=length, max_size=length)), dtype=dtype)


@st.composite
def index_rule_cases(draw):
    """A scorer, the (users, items) of one pair_scores call (two arrays of one
    length, empty ones included, an int user against an item array, two
    ints where the scorer takes them, or a user array against items of
    another shape), the users of a few scores_for_user calls and a top_k
    call's per-user exclusions, of one dtype, or None."""
    kind = draw(st.sampled_from(SCORER_KINDS))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shapes = ["pairs", "row", "mismatched"] + ["ints"] * (kind not in ("dot", "cosine"))
    shape = draw(st.sampled_from(shapes))
    length = draw(st.integers(0, 4))
    users = draw(drawn_index(n, None if shape not in ("pairs", "mismatched") else length))
    if shape == "mismatched":  # an int, or an array of another length
        length = draw(st.sampled_from([None] + [size for size in range(5) if size != length]))
    items = draw(drawn_index(m, None if shape == "ints" else length))
    # Users as top_k passes them, as an int64 array holds them, or narrow.
    rows = draw(st.lists(drawn_index(n, dtypes=[np.int64, np.int8, np.uint64]),
                         min_size=1, max_size=4))
    exclude = None
    if draw(st.booleans()):
        dtype = draw(st.sampled_from(INDEX_DTYPES))
        exclude = [draw(drawn_index(m, draw(st.integers(0, 3)), dtypes=[dtype]))
                   for _ in range(n)]
    return kind, n, m, draw(st.integers(0, 2**32 - 1)), users, items, rows, exclude


def assert_index_error(call, kind, index, size):
    """`call()` raises the rule's IndexError, naming a `kind` index of `index`
    outside [0, size)."""
    with pytest.raises(IndexError) as raised:
        call()
    named = re.fullmatch(rf"{kind} index (-?\d+) is out of bounds for {size} {kind}s",
                         str(raised.value))
    assert named, str(raised.value)
    assert int(named[1]) in np.ravel(index).tolist()
    assert not 0 <= int(named[1]) < size


def out_of_range(index, size):
    return any(not 0 <= v < size for v in np.ravel(index).tolist())


def bits(scores):
    """The dtype, shape and bytes of an array or a numpy scalar."""
    scores = np.asarray(scores)
    return scores.dtype, scores.shape, scores.tobytes()


@settings(max_examples=400, deadline=None)
@given(case=index_rule_cases())
@example(case=("random", 3, 4, 1, np.array([-1]), np.array([0]), [-1], None))
@example(case=("cosine", 3, 4, 1, np.array([-1]), np.array([0]), [2, -1], None))
@example(case=("dot", 3, 4, 1, np.array([0]), np.array([-1]), [0, 3], None))
@example(case=("zipf", 3, 4, 1, np.array([-1]), np.array([-1]), [-1, 10**9], None))
@example(case=("random", 3, 4, 1, np.array([7, -2], dtype=np.int8),
               np.array([0, 4], dtype=np.uint64), [9, -5], None))
@example(case=("readme", 3, 4, 1, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
               [0, 3, 2], None))
@example(case=("cosine", 3, 4, 1, np.int8(2), np.arange(4), [np.int8(1), np.uint64(0)], None))
@example(case=("dot", 40, 4000, 1, np.uint64(0), np.arange(4), [np.uint64(20), np.uint64(1)],
               None))
# Unequal shapes: 2 scores from zipf, numpy's broadcast error from random.
@example(case=("zipf", 3, 2, 1, np.array([0, 1, 2]), np.array([0, 1]), [0], None))
@example(case=("random", 3, 3, 1, np.array([0]), np.arange(3), [0], None))
# An exclusion of -1 would drop user 0's item m - 1; one of m is numpy's error.
@example(case=("cosine", 3, 7, 0, 0, np.arange(7), [0], [[-1], [], []]))
@example(case=("random", 3, 7, 0, 0, np.arange(7), [0], [[], [], np.array([7], np.uint64)]))
def test_every_scorer_keeps_one_index_rule(case):
    # A user outside [0, n) and an item outside [0, m), of a pair, a row or
    # a top_k exclusion, raise IndexError naming the index, ints and arrays
    # alike; a user array of another shape than the items raises ValueError.
    # Every other call returns the unchecked hook's values bit for bit, and
    # top_k a list of every item that is not excluded.
    kind, n, m, seed, users, items, rows, exclude = case
    scorer = index_rule_scorer(kind, n, m, seed)
    if np.ndim(users) and np.shape(users) != np.shape(items):
        message = f"^{np.size(users)} users but {np.size(items)} items$"
        with pytest.raises(ValueError, match=message):
            scorer.pair_scores(users, items)
    elif out_of_range(users, scorer.n):
        assert_index_error(lambda: scorer.pair_scores(users, items), "user", users, scorer.n)
    elif out_of_range(items, m):
        assert_index_error(lambda: scorer.pair_scores(users, items), "item", items, m)
    else:
        assert bits(scorer.pair_scores(users, items)) == bits(scorer._pair_scores(users, items))
    for i in rows:
        if out_of_range(i, scorer.n):
            assert_index_error(lambda: scorer.scores_for_user(i), "user", i, scorer.n)
        else:
            # Row i - lo of the block of users lo.. that top_k would be served.
            height = model_module._block_rows(m)
            lo = int(i) - int(i) % height
            block = scorer.score_rows(lo, min(lo + height, scorer.n))
            assert bits(scorer.scores_for_user(i)) == bits(block[int(i) - lo])
    if exclude is not None:
        flat = [j for e in exclude for j in np.ravel(e).tolist()]
        if out_of_range(flat, m):
            assert_index_error(lambda: top_k(scorer, m, exclude=exclude), "item", flat, m)
        else:
            lists = top_k(scorer, m, exclude=exclude)
            assert [sorted(items.tolist()) for items in lists.items] == [
                sorted(set(range(m)) - set(np.ravel(e).tolist())) for e in exclude]


@settings(max_examples=100, deadline=None)
@given(lists=st.lists(st.lists(st.integers(0, 9), max_size=5, unique=True), max_size=8),
       variant=st.sampled_from(MATTHEW_VARIANTS))
@example(lists=[], variant="literal")
@example(lists=[[0, 1], [1, 0], []], variant="literal")
@example(lists=[[2], [2], [2]], variant="pareto")
def test_matthew_degree_matches_formula(lists, variant):
    got = matthew_degree(TopKLists(items=[np.array(items, dtype=np.int64) for items in lists],
                                   scores=[np.zeros(len(items)) for items in lists]), variant)
    counts = {}
    for items in lists:
        for j in items:
            counts[j] = counts.get(j, 0) + 1
    x = list(counts.values())
    if len(set(x)) <= 1:  # no list items, or every frequency equal
        assert got == math.inf
        return
    ref = max(x) if variant == "literal" else min(x)
    assert math.isclose(got, 1 + len(x) / math.fsum(math.log(c / ref) for c in x),
                        rel_tol=1e-12)
    assert got < 1 if variant == "literal" else got > 1


@settings(max_examples=100, deadline=None)
@given(dataset=rating_files())
def test_movielens_file_round_trips(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("round_trip") / "ratings.dat"
    write_movielens_file(dataset, path)
    loaded = load_movielens(path)
    # The writer shifts ids to 1-based; the loader numbers them by first appearance.
    user_id = {index: int(key) - 1 for key, index in loaded.user_map.items()}
    item_id = {index: int(key) - 1 for key, index in loaded.item_map.items()}
    assert [user_id[u] for u in loaded.users.tolist()] == dataset.users.tolist()
    assert [item_id[j] for j in loaded.items.tolist()] == dataset.items.tolist()
    assert loaded.ratings.tolist() == dataset.ratings.tolist()
    assert (loaded.n, loaded.m) == (len(set(dataset.users.tolist())),
                                    len(set(dataset.items.tolist())))
    assert loaded.r_max == dataset.r_max


def reference_load(rows):
    """Number ids, stripped of spaces, row by row in first-appearance order; a
    repeated pair keeps its first position and takes its last rating."""
    user_map, item_map, position, pairs = {}, {}, {}, []
    for user_id, item_id, rating in rows:
        user_id, item_id = user_id.strip(), item_id.strip()
        pair = (user_map.setdefault(user_id, len(user_map)),
                item_map.setdefault(item_id, len(item_map)))
        if pair in position:
            pairs[position[pair]] = (*pair, rating)
        else:
            position[pair] = len(pairs)
            pairs.append((*pair, rating))
    users, items, ratings = (list(column) for column in zip(*pairs))
    return users, items, ratings, user_map, item_map, len(rows) - len(pairs)


class DuplicateCounts(logging.Handler):
    def __init__(self):
        super().__init__()
        self.counts = []

    def emit(self, record):
        if "duplicated" in record.msg:
            self.counts.append(record.args[1])


# At most 5 user ids and 5 item ids, some also written with spaces, over up
# to 40 rows: pairs repeat often.
@settings(max_examples=100, deadline=None)
@given(fmt=st.sampled_from(["movielens", "csv"]),
       rows=st.lists(st.tuples(st.sampled_from(["1", "2", "10", "a", "x7", "1 ", " a"]),
                               st.sampled_from(["1", "3", "30", "b", "y", " 3", "y "]),
                               st.sampled_from(["1", "2", "3.5", "4", "5"])),
                     min_size=1, max_size=40))
@example(fmt="movielens", rows=[("1 ", "3", "4"), ("1", " 3", "5"), ("2", "3", "1")])
def test_loaders_match_row_by_row_reference(fmt, rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("dedup") / "ratings"
    sep, load = ("::", load_movielens) if fmt == "movielens" else (",", load_csv)
    path.write_text("".join(sep.join((*row, "0")) + "\n" for row in rows), encoding="utf-8")
    handler = DuplicateCounts()
    logger = logging.getLogger("pbmf.data")
    logger.addHandler(handler)
    try:
        loaded = load(path)
    finally:
        logger.removeHandler(handler)
    users, items, ratings, user_map, item_map, duplicates = reference_load(
        [(u, j, float(r)) for u, j, r in rows])
    assert loaded.users.tolist() == users
    assert loaded.items.tolist() == items
    assert loaded.ratings.tolist() == ratings
    assert (loaded.user_map, loaded.item_map) == (user_map, item_map)
    assert handler.counts == ([duplicates] if duplicates else [])


def line_by_line_load_movielens(path):
    """`load_movielens` as it parsed before it read blocks: line by line."""
    source = str(Path(path))
    user_map, item_map, users, items, ratings = data._empty_rows()
    malformed = 0
    try:
        with open(source, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                fields = line.split("::")
                ids = (fields[0].strip(), fields[1].strip()) if len(fields) == 4 else ("", "")
                if not all(ids):  # not four fields, or an empty id
                    malformed += 1
                    continue
                ratings.append(data._checked_rating(fields[2], source, lineno))
                users.append(user_map.setdefault(ids[0], len(user_map)))
                items.append(item_map.setdefault(ids[1], len(item_map)))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: not UTF-8 text ({exc.reason})") from None
    if malformed:
        data.logger.warning("%s: skipped %d malformed line(s)", source, malformed)
    return data._build_dataset(users, items, ratings, user_map, item_map, source)


class WarningMessages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def load_outcome(load, path):
    """What a loader returns, or the message it raises, and what it logs."""
    handler = WarningMessages()
    data.logger.addHandler(handler)
    try:
        loaded = load(path)
        outcome = (loaded.users.tolist(), loaded.items.tolist(), loaded.ratings.tolist(),
                   list(loaded.user_map.items()), list(loaded.item_map.items()),
                   loaded.n, loaded.m, loaded.r_max)
    except ValueError as exc:
        outcome = str(exc)
    finally:
        data.logger.removeHandler(handler)
    return outcome, handler.messages


RAW_IDS = ["1", "2", "10", "a", " 3", "4 ", "\x851"] * 3 + ["", " ", ":", "1:", ":2", "\x85"]
RAW_RATINGS = ["1", "2", "4", "3.5", " 5 ", "2\x85"]
BAD_RAW_RATINGS = ["4_5", "nan", "0", "-1", "1e400", "x", ""]


@st.composite
def raw_rating_lines(draw, ratings):
    """One line of a rating file: blank or whitespace-only, or 1-6 fields
    (mostly 4) joined by "::", some by ":::" or ":", maybe starting or
    ending with ":", and ended by "\n", "\r\n", "\r" or "\x85\n"."""
    if draw(st.integers(0, 9)) == 0:
        body = draw(st.sampled_from(["", " ", "\t", "\x85", " \x85 "]))
    else:
        fields = [draw(st.sampled_from(ratings if at == 2 else RAW_IDS))
                  for at in range(draw(st.sampled_from([4] * 6 + [1, 2, 3, 5, 6])))]
        body = fields[0]
        for field in fields[1:]:
            body += draw(st.sampled_from(["::"] * 8 + [":::", ":"])) + field
        body = draw(st.sampled_from(["", "", ":"])) + body + draw(st.sampled_from(["", "", ":"]))
    return body + draw(st.sampled_from(["\n"] * 5 + ["\r\n", "\r", "\x85\n"]))


@st.composite
def raw_rating_files(draw):
    """Up to 80 drawn lines, with bad ratings or without, and maybe no final
    newline."""
    ratings = RAW_RATINGS + (BAD_RAW_RATINGS if draw(st.booleans()) else [])
    text = "".join(draw(st.lists(raw_rating_lines(ratings), max_size=80)))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(text=raw_rating_files(), block_chars=st.integers(1, 64))
@example(text="1::2::3::0\n" * 30 + "1::2::x::0\n", block_chars=16)
@example(text="1::2::3::0\n1::2::3::0::5\n2::3::4::0", block_chars=1)
# Blocks of four lines; only the second holds a malformed one.
@example(text="".join("5::1::4\n" if u == 5 else f"{u}::{u % 3}::4::0\n" for u in range(12)),
         block_chars=40)
def test_movielens_blocks_match_line_by_line_loader(text, block_chars, tmp_path_factory):
    path = tmp_path_factory.mktemp("blocks") / "ratings.dat"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(data, "LOAD_BLOCK_CHARS", block_chars):
        got = load_outcome(load_movielens, path)
    assert got == load_outcome(line_by_line_load_movielens, path)


BOM = b"\xef\xbb\xbf"
DIGIT_IDS = ["0", "1", "2", "10", "3" * 18, "1" + "0" * 17]
OFF_DIGIT_IDS = ["01", "00", "1" + "0" * 18]  # read by the general path only
DIGIT_RATINGS = ["1", "3", "5", "05", "9" * 18, "9007199254740993"]  # 2**53 + 1 rounds
OFF_DIGIT_RATINGS = ["0", "00", "1" * 19]
TIMESTAMPS = ["", "0", "978300760", "9" * 25]
MALFORMED_LINES = ["1::2::3", "1::2::3::4::5", "1:2::3::4", "::2::3::4", "1:2:3:4:5:6:7",
                   "1:::2::3:4", "1::2::x::0", "1::2::3.5::0", "1::2::3::0\r", " 1::2::3::0",
                   "1::2::0::0"]


@st.composite
def digit_rating_files(draw):
    """Up to 60 lines of digit fields, a few of them blank; a third of the
    files in the digit layout, the others with user ids, item ids or ratings
    that it leaves to the general path, or with one or two malformed or bad
    lines, most often last.  Maybe a BOM, maybe no final newline."""
    off = draw(st.sampled_from([None, None, "user", "item", "rating", "line"]))
    user_ids = DIGIT_IDS + (OFF_DIGIT_IDS if off == "user" else [])
    item_ids = DIGIT_IDS + (OFF_DIGIT_IDS if off == "item" else [])
    ratings = DIGIT_RATINGS + (OFF_DIGIT_RATINGS if off == "rating" else [])
    line = st.one_of(
        st.tuples(st.sampled_from(user_ids), st.sampled_from(item_ids),
                  st.sampled_from(ratings), st.sampled_from(TIMESTAMPS)).map("::".join),
        st.just(""))
    lines = draw(st.lists(line, max_size=60))
    if off == "line":
        for bad in draw(st.lists(st.sampled_from(MALFORMED_LINES), min_size=1, max_size=2)):
            lines.insert(draw(st.just(len(lines)) | st.integers(0, len(lines))), bad)
    text = "".join(f"{body}\n" for body in lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return (BOM if draw(st.booleans()) else b"") + text.encode()


def test_digit_files_match_line_by_line_loader(tmp_path_factory):
    took_numpy = {}  # file bytes -> whether load_movielens parsed them with numpy
    parse_digits = data._parse_digits

    def spy(source):
        rows = parse_digits(source)
        took_numpy[Path(source).read_bytes()] = rows is not None
        return rows

    numpy_side = BOM + b"0::" + b"3" * 18 + b"::05::\n\n1::0::9007199254740993::978300760"
    # Largest item ids numbered as uint16, uint32 and uint64.
    wide_ids = [b"1::300::4::0\n2::65535::3::0\n",
                b"1::65535::4::0\n2::65536::3::0\n1::65536::5::0\n",
                b"1::65535::4::0\n2::4294967296::3::0\n"]
    general_side = [
        b"1::2::3::0\n" * 10 + b"1::2::3",  # a malformed last line: parsed twice
        b"1::01::4::0\n",
        b"1::2::3\n4::5::6::7::8\n",  # twelve colons, but not six a line
        b"1:2:3:4:5:6:7\n",  # six colons, but no "::"
        b"3::4::5::6\n::2::3::4\n",  # an empty user id
    ]

    @settings(max_examples=300, deadline=None)
    @given(raw=digit_rating_files(), block_chars=st.integers(1, 64))
    @example(raw=numpy_side, block_chars=7)
    @example(raw=general_side[0], block_chars=16)
    @example(raw=general_side[1], block_chars=64)
    @example(raw=general_side[2], block_chars=64)
    @example(raw=general_side[3], block_chars=64)
    @example(raw=general_side[4], block_chars=64)
    @example(raw=wide_ids[0], block_chars=64)
    @example(raw=wide_ids[1], block_chars=5)
    @example(raw=wide_ids[2], block_chars=64)
    def check(raw, block_chars):
        path = tmp_path_factory.mktemp("digits") / "ratings.dat"
        path.write_bytes(raw)
        with mock.patch.object(data, "LOAD_BLOCK_CHARS", block_chars), \
                mock.patch.object(data, "_parse_digits", spy):
            got = load_outcome(load_movielens, path)
        assert got == load_outcome(line_by_line_load_movielens, path)

    check()
    assert took_numpy[numpy_side] and not any(map(took_numpy.get, general_side))
    assert all(map(took_numpy.get, wide_ids))
    assert sum(took_numpy.values()) >= 20, f"{sum(took_numpy.values())} of {len(took_numpy)}"


# Ids and ratings that read the same in a `::` file and a `,` file: no ":",
# "," or '"', and no spaces around a rating, which csv strips and "::" keeps.
SPELLED_IDS = ["1", "2", "10", "a", " 3", "4 ", "\x851", "\u00e9"]
SPELLED_RATINGS = ["1", "2", "4", "3.5", "05"]


@st.composite
def spelled_rows(draw):
    """Up to 40 rows of a user id, an item id and a rating, or None for a
    blank line; with bad ratings or without."""
    ratings = SPELLED_RATINGS + (BAD_RAW_RATINGS if draw(st.booleans()) else [])
    row = st.tuples(st.sampled_from(SPELLED_IDS), st.sampled_from(SPELLED_IDS),
                    st.sampled_from(ratings))
    return draw(st.lists(st.none() | row, max_size=40))


@settings(max_examples=200, deadline=None)
@given(rows=spelled_rows(), newline=st.sampled_from(["\n", "\r\n"]), last_newline=st.booleans())
@example(rows=[("1", "2", "4"), None, ("a", "b", "x")], newline="\n", last_newline=True)
@example(rows=[("1", "2", "4"), (" 1", "2 ", "3.5")], newline="\r\n", last_newline=False)
def test_movielens_and_csv_spellings_load_alike(rows, newline, last_newline, tmp_path_factory):
    path = tmp_path_factory.mktemp("spellings") / "ratings"
    outcomes = []
    for sep, load in (("::", load_movielens), (",", load_csv)):
        text = newline.join(sep.join((*row, "0")) if row else "" for row in rows)
        path.write_text(text + newline if last_newline else text, encoding="utf-8", newline="")
        outcomes.append(load_outcome(load, path))
    assert outcomes[0] == outcomes[1]


GOOD_IDS = ["1", "2", "3", "4"]
GOOD_RATINGS = ["1", "2", "3", "4", "5", "3.5", " 4 "]
ODD_IDS = GOOD_IDS + ["a", "", " 2 ", "\ufeff1", "\u00e9"]
ODD_RATINGS = GOOD_RATINGS + ["0", "-1", "nan", "inf", "1e308", "1e-300", "4_5", "", "x"]
GOOD_CONFIG = ["k = 3", "epochs = 2", "seed = 7", "test-fraction = 0.4", "beta = 0.1",
               "algorithms = cosine_mf,zipf", "matthew_variant = pareto", "k-top = 3",
               "lr = 0.05", "init-scale = 0.5", "# a comment", ""]
ODD_CONFIG_LINES = st.one_of(
    st.sampled_from(GOOD_CONFIG),
    st.tuples(st.sampled_from(["k", "epochs", "lr", "beta", "test-fraction", "algorithms",
                               "header", "delimiter", "rating-col", "format", "label",
                               "epoch", ""]),
              st.sampled_from(["0", "-1", "1.5", "nan", "inf", "x", "", "yes", "dlrm",
                               "csv", ":", "\\t"])).map(" = ".join),
    st.text(max_size=12),
)


@st.composite
def cli_runs(draw):
    """A rating file in either format, a config file and a command.  Half the
    files and configs are clean, so that runs also get past loading and parsing."""
    fmt = draw(st.sampled_from(["movielens", "csv"]))
    sep = "::" if fmt == "movielens" else ","
    if draw(st.booleans()):
        ids, ratings, junk, prefixes = GOOD_IDS, GOOD_RATINGS, st.nothing(), [b"", BOM]
    else:
        ids, ratings, prefixes = ODD_IDS, ODD_RATINGS, [b"", BOM, b"\xe9"]
        junk = st.text(max_size=12).map(lambda text: (text,))
    line = st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(ratings),
                     st.sampled_from(["0", "978300760"]))
    lines = draw(st.lists(line | line.map(lambda fields: fields[:3]) | junk,
                          min_size=8, max_size=24))
    text = "".join(sep.join(fields) + "\n" for fields in lines)
    prefix = draw(st.sampled_from(prefixes))
    config_lines = st.sampled_from(GOOD_CONFIG) if draw(st.booleans()) else ODD_CONFIG_LINES
    config = "".join(line + "\n" for line in draw(st.lists(config_lines, max_size=4)))
    command = draw(st.sampled_from([
        ["train", "--algorithm", "position_bias_mf", "--beta", "0.5"],
        ["benchmark", "--algorithms", "cosine_mf,classic_mf,random,zipf"],
    ]))
    return fmt, prefix + text.encode("utf-8"), config, command


@settings(max_examples=100, deadline=None)
@given(run=cli_runs())
def test_cli_survives_drawn_files(run, tmp_path_factory):
    fmt, rating_bytes, config, command = run
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "ratings").write_bytes(rating_bytes)
    (directory / "run.cfg").write_text(config, encoding="utf-8")
    argv = [*command, "--input", str(directory / "ratings"), "--format", fmt,
            "--config", str(directory / "run.cfg"), "--k", "2", "--epochs", "1",
            "--output", str(directory / "out")]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert sum("error:" in line for line in stderr.getvalue().splitlines()) <= 1


SAMPLE = Path(__file__).parent / "data" / "ml1m_sample.dat"
# Values a flag could be given: half the time a plain one that many flags
# accept, so that runs also get past parsing, else one argparse alone would
# take for an option string, a number out of range or a word some flags take.
FLAG_VALUES = (st.sampled_from(["1", "3", "0.5"])
               | st.sampled_from(["-1", "-1e-3", "-inf", "-0", "nan", "1e5", "cosine_mf",
                                  "pareto", "csv"]))
# Flags the run always sets: the files it reads and writes, and a small model.
FIXED_FLAGS = {"-h", "--input", "--output", "--model", "--config", "--k", "--epochs"}
SUBS = cli.build_parser()[1]


@pytest.fixture(scope="module")
def sample_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.pbmf"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--input", str(SAMPLE), "--algorithm", "cosine_mf",
                         "--k", "2", "--epochs", "1", "--output", str(path)]) == 0
    return path


@st.composite
def argv_runs(draw):
    """A subcommand, its drawn flags in a shuffled order, each given as one
    `flag=value` token or two tokens, and config lines whose keys overlap them."""
    command = draw(st.sampled_from(sorted(SUBS)))
    flags = [action for action in SUBS[command]._actions
             if not FIXED_FLAGS.intersection(action.option_strings)]
    groups = []
    for action in draw(st.lists(st.sampled_from(flags), max_size=4)):
        flag = action.option_strings[0]
        if action.nargs == 0:
            groups.append([flag])
        else:
            value = draw(FLAG_VALUES)
            groups.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    if command == "train":
        groups.append(["--algorithm", draw(st.sampled_from(ALGORITHMS))])
    config = draw(st.lists(st.tuples(
        st.sampled_from([action.dest for action in flags] + ["k", "epochs"]),
        FLAG_VALUES), max_size=2))
    return command, draw(st.permutations(groups)), config


@settings(max_examples=50, deadline=None)
@given(run=argv_runs())
def test_cli_survives_drawn_argv(run, sample_model, tmp_path_factory):
    command, groups, config = run
    directory = tmp_path_factory.mktemp("argv")
    (directory / "run.cfg").write_text("".join(f"{key} = {value}\n" for key, value in config),
                                       encoding="utf-8")
    argv = [command, "--input", str(SAMPLE), "--config", str(directory / "run.cfg"),
            "--output", str(directory / "out")]
    argv += (["--model", str(sample_model)] if command == "evaluate"
             else ["--k", "2", "--epochs", "1"])
    argv += [token for group in groups for token in group]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    assert sum("error:" in line for line in stderr.getvalue().splitlines()) <= 1
