"""Non-learned scoring baselines: uniform-random and Zipf placement."""

from __future__ import annotations

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
    Given the user count `n_users`, it scores ranking rows a block of users
    at a time (see `model.Scorer`).
    """

    def __init__(self, seed: int, n_items: int, r_max: float, n_users: int | None = None):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
        self.seed = int(seed)
        self.m = int(n_items)
        self.n = None if n_users is None else int(n_users)
        self.r_max = float(r_max)
        with np.errstate(over="ignore"):
            self._seed_hash = _mix64(_U64(seed) ^ _GOLDEN)  # the same for every draw
        self._items: np.ndarray | None = None  # arange(m) as uint64, made at the first row

    def pair_scores(self, users, items) -> np.ndarray:
        """Uniform [0, 1) draws keyed on (seed, user, item).  A negative user
        or item raises IndexError (as a 64-bit word it would be another
        index), and so do an item at or past m and, given n, a user at or past n."""
        users, items = np.asarray(users), np.asarray(items)
        for name, indices, size in (("user", users, self.n), ("item", items, self.m)):
            if indices.dtype.kind != "u" and (indices < 0).any():
                raise IndexError(f"negative {name} index {indices[indices < 0].flat[0]}")
            if size is not None and (indices >= size).any():
                raise IndexError(f"{name} index {indices[indices >= size].flat[0]} "
                                 f"is out of bounds for {size} {name}s")
        with np.errstate(over="ignore"):
            h = _mix64(self._seed_hash ^ users.astype(np.uint64))
            h = _mix64(h ^ items.astype(np.uint64))
        return (h >> _U64(11)) * 2.0**-53

    def score_rows(self, lo: int, hi: int) -> np.ndarray:
        """pair_scores of users lo..hi-1 against every item: the users' hashes
        are mixed once, as a column, then the grid against the items."""
        if lo < 0:
            raise IndexError(f"negative user index {lo}")
        if self._items is None:
            self._items = np.arange(self.m, dtype=np.uint64)
        users = np.arange(hi - lo, dtype=np.uint64) + _U64(lo)
        return self.pair_scores(users[:, None], self._items)


class ZipfScorer(Scorer):
    """Scores item j as 1 / popularity_rank(j), independent of the user.

    Rank 1 is the most-rated training item, so the score sequence over the
    ranked items is 1, 1/2, 1/3, ... — the Zipf click profile.
    """

    def __init__(self, popularity_rank: np.ndarray, r_max: float):
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
        return cls(ranks, dataset.r_max)

    def pair_scores(self, users, items) -> np.ndarray:
        return self._inv_rank[np.asarray(items)]

    def scores_for_user(self, i: int) -> np.ndarray:
        """The read-only 1 / rank row itself: every user's row is the same."""
        return self._inv_rank
