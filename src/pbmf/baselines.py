"""Non-learned scoring baselines: uniform-random and Zipf placement."""

from __future__ import annotations

import operator

import numpy as np

from .data import RatingsDataset
from .model import Scorer

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix64(x):
    """splitmix64 finalizer (vectorized over uint64), in place on an array."""
    x ^= x >> _U64(30)
    x *= _MIX1
    x ^= x >> _U64(27)
    x *= _MIX2
    x ^= x >> _U64(31)
    return x


class RandomScorer(Scorer):
    """Scores every (user, item) pair with an i.i.d.-style uniform value.

    The seed keys a 64-bit hash, so it must lie in [0, 2**64).  The draws
    are counter-based: a value depends only on (seed, user, item), never on
    how many draws happened before, so evaluation order cannot change it.
    It scores ranking rows a block of users at a time; a user outside
    [0, n_users) raises IndexError (the index rule of `model.Scorer`).
    """

    def __init__(self, seed: int, n_items: int, r_max: float, n_users: int):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
        self.seed = int(seed)
        self.m = int(n_items)
        self.n = int(n_users)
        self.r_max = float(r_max)
        with np.errstate(over="ignore"):
            self._seed_hash = _mix64(_U64(seed) ^ _GOLDEN)  # the same for every draw
        self._items = np.arange(self.m, dtype=np.uint64)

    def _pair_scores(self, users, items) -> np.ndarray:
        """Uniform [0, 1) draws keyed on (seed, user, item), the indices as
        64-bit words (a negative one never gets here; see `model.Scorer`)."""
        users, items = np.asarray(users), np.asarray(items)
        with np.errstate(over="ignore"):
            h = _mix64(self._seed_hash ^ users.astype(np.uint64))
            h = _mix64(h ^ items.astype(np.uint64))
        return (h >> _U64(11)) * 2.0**-53

    def score_rows(self, lo: int, hi: int) -> np.ndarray:
        """_pair_scores of users lo..hi-1 against every item: the users' hashes
        are mixed once, as a column, then the grid against the items."""
        users = np.arange(hi - lo, dtype=np.uint64) + _U64(lo)
        return self._pair_scores(users[:, None], self._items)


class ZipfScorer(Scorer):
    """Scores item j as 1 / popularity_rank(j), independent of the user.

    Rank 1 is the most-rated training item, so the score sequence over the
    ranked items is 1, 1/2, 1/3, ... — the Zipf click profile.  Every one of
    the `n_users` users gets that row.
    """

    def __init__(self, popularity_rank: np.ndarray, r_max: float, n_users: int):
        self.n = int(n_users)
        self.r_max = float(r_max)
        self._inv_rank = 1.0 / np.asarray(popularity_rank, dtype=np.int64)
        self._inv_rank.setflags(write=False)
        self.m = len(self._inv_rank)

    @classmethod
    def from_dataset(cls, dataset: RatingsDataset) -> "ZipfScorer":
        """Rank the items 1..m by their rating count in a (training) dataset,
        most-rated first; the stable sort breaks ties by ascending index."""
        order = np.argsort(-np.bincount(dataset.items, minlength=dataset.m), kind="stable")
        ranks = np.empty(dataset.m, dtype=np.int64)
        ranks[order] = np.arange(1, dataset.m + 1)
        return cls(ranks, dataset.r_max, dataset.n)

    def _pair_scores(self, users, items) -> np.ndarray:
        return self._inv_rank[np.asarray(items)]

    def scores_for_user(self, i: int) -> np.ndarray:
        """The read-only 1 / rank row itself: every user's row is the same."""
        self._check_index(operator.index(i), self.n, "user")
        return self._inv_rank
