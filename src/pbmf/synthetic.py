"""Synthetic rating data with Zipf-skewed item popularity.

Item j is both sampled and rated according to a power-law click propensity
(1 / (j + 1))^exponent, mimicking traffic where a handful of head items
soak up most of the clicks.  Useful for experiments that need a dataset
with a known, strong popularity skew.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .data import RatingsDataset

# Rating lines formatted and written at a time.  Blocks of 1,024 rows wrote a
# 100,000-row file ~5 ms faster than 256, but left the writing process (perfbench's
# harness) 0.5-0.9 MB more resident afterwards, from freeing a block's 4,096 ints.
WRITE_BLOCK_ROWS = 256
_LINE = "%d::%d::%d::%d\n"


def zipf_popularity_dataset(
    n_users: int = 200,
    n_items: int = 100,
    interactions_per_user: int = 25,
    seed: int = 0,
    *,
    popularity_exponent: float = 1.0,
    rating_scale: float = 1.0,
    integer_ratings: bool = False,
) -> RatingsDataset:
    """Generate a dataset whose item popularity follows a Zipf profile.

    Each user rates `interactions_per_user` distinct items drawn with
    probability proportional to 1/(j+1)^popularity_exponent.  Ratings track
    the item's click propensity (head items score near `rating_scale`, tail
    items near the bottom) plus a little per-interaction noise.  With
    `integer_ratings` the values are rounded half to even onto
    1..rating_scale, matching rating-file conventions.

    The draws are those of a loop over users, in user order, of
    `rng.choice(n_items, interactions_per_user, replace=False, p=weights)`
    and then `rng.normal(0.0, 0.1, interactions_per_user)`, with `rng =
    np.random.default_rng(seed)`.  `choice` itself is not called: its
    rounds are replayed below, so one seed gives the same dataset, bit for
    bit, as that loop.

    Raises `ValueError` naming the argument for fewer than one user or
    item, an `interactions_per_user` outside 1..n_items, a non-finite
    exponent, and an exponent that leaves fewer than
    `interactions_per_user` items a nonzero weight.
    """
    for name, value in (("n_users", n_users), ("n_items", n_items)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if not 1 <= interactions_per_user <= n_items:
        raise ValueError(f"interactions_per_user must be in 1..n_items={n_items}, "
                         f"got {interactions_per_user}")
    if not math.isfinite(popularity_exponent):
        raise ValueError(f"popularity_exponent must be finite, got {popularity_exponent}")
    # A steep negative exponent overflows the propensities or their sum; the
    # weights then hold zeros and NaN, which the check below counts as zero.
    with np.errstate(over="ignore", invalid="ignore"):
        propensity = (1.0 / np.arange(1, n_items + 1)) ** popularity_exponent
        weights = propensity / propensity.sum()
    if np.count_nonzero(weights > 0) < interactions_per_user:
        raise ValueError(
            f"popularity_exponent={popularity_exponent} leaves fewer than "
            f"interactions_per_user={interactions_per_user} items a nonzero weight"
        )

    # Generator.choice(p=..., replace=False) draws in rounds: random() for
    # each item still missing, looked up with searchsorted(side="right") in
    # the normalised cumsum of p with the items found so far zeroed, keeping
    # each new item at its first occurrence.  The first round's cdf is the
    # same for every user; only a user whose round drew a repeat pays more.
    # A zeroed item cannot be drawn again, so each round finds a new item,
    # and the weight check above leaves enough of them for the loop to end.
    rng = np.random.default_rng(seed)
    first_cdf = np.cumsum(weights)
    first_cdf /= first_cdf[-1]
    per_user = interactions_per_user
    items = np.empty(n_users * per_user, dtype=np.int64)
    ratings = np.empty(items.shape[0], dtype=np.float64)  # the noise, until the end
    for lo in range(0, items.shape[0], per_user):
        found = dict.fromkeys(first_cdf.searchsorted(rng.random(per_user), side="right").tolist())
        while len(found) < per_user:
            p = weights.copy()
            p[list(found)] = 0.0
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            drawn = cdf.searchsorted(rng.random(per_user - len(found)), side="right")
            found.update(dict.fromkeys(drawn.tolist()))
        items[lo:lo + per_user] = list(found)
        ratings[lo:lo + per_user] = rng.normal(0.0, 0.1, per_user)

    # In place, in the operation order of the per-user expressions
    # 1 + (s - 1) * p + noise * s and s * clip(p + noise, 0.05, 1).
    scaled = propensity[items]
    if integer_ratings:
        scaled *= rating_scale - 1.0
        scaled += 1.0
        ratings *= rating_scale
        ratings += scaled
        np.rint(ratings, out=ratings)
        np.clip(ratings, 1.0, rating_scale, out=ratings)
    else:
        ratings += scaled
        np.clip(ratings, 0.05, 1.0, out=ratings)
        ratings *= rating_scale
    del scaled  # before `users` exists: at most three row-sized arrays at once

    return RatingsDataset(
        users=np.repeat(np.arange(n_users, dtype=np.int64), per_user),
        items=items,
        ratings=ratings,
        n=n_users,
        m=n_items,
        r_max=float(ratings.max()),
        user_map={str(i): i for i in range(n_users)},
        item_map={str(j): j for j in range(n_items)},
    )


def write_movielens_file(dataset: RatingsDataset, path: str | Path) -> None:
    """Write a dataset as `UserID::MovieID::Rating::Timestamp` lines.

    Ids are shifted to 1-based and ratings rounded half to even to integers
    (as Python's `round` does), matching the classic rating-file layout;
    timestamps are synthetic and increasing.  Lines are formatted and
    written `WRITE_BLOCK_ROWS` at a time, each block by one `%` operation
    over a (rows, 4) int64 block.

    Raises `ValueError` naming the row of the first rating that is NaN,
    infinite or 2**63 or more in magnitude, which no 64-bit integer holds;
    the blocks before its own are written.
    """
    users, items, ratings = dataset.users, dataset.items, dataset.ratings
    block = np.empty((WRITE_BLOCK_ROWS, 4), dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(ratings), WRITE_BLOCK_ROWS):
            hi = min(lo + WRITE_BLOCK_ROWS, len(ratings))
            rows = block[:hi - lo]
            rounded = np.rint(ratings[lo:hi])
            fits = np.abs(rounded) < 2.0**63  # False for NaN
            if not fits.all():
                bad = lo + int(np.argmin(fits))
                raise ValueError(f"row {bad}: rating {ratings[bad]} is not a finite number "
                                 f"under 2**63 in magnitude")
            rows[:, 0] = users[lo:hi] + 1
            rows[:, 1] = items[lo:hi] + 1
            rows[:, 2] = rounded
            rows[:, 3] = np.arange(978300000 + lo, 978300000 + hi)
            fh.write((_LINE * len(rows)) % tuple(rows.ravel().tolist()))
