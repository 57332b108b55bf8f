"""Synthetic rating data with Zipf-skewed item popularity.

Item j is both sampled and rated according to a power-law click propensity
(1 / (j + 1))^exponent, mimicking traffic where a handful of head items
soak up most of the clicks.  Useful for experiments that need a dataset
with a known, strong popularity skew.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import RatingsDataset


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
    `integer_ratings` the values are rounded onto 1..rating_scale, matching
    rating-file conventions.
    """
    if interactions_per_user > n_items:
        raise ValueError("interactions_per_user cannot exceed n_items")
    rng = np.random.default_rng(seed)
    propensity = (1.0 / np.arange(1, n_items + 1)) ** popularity_exponent
    weights = propensity / propensity.sum()

    users = np.empty(n_users * interactions_per_user, dtype=np.int64)
    items = np.empty_like(users)
    ratings = np.empty(users.shape[0], dtype=np.float64)
    for i in range(n_users):
        lo = i * interactions_per_user
        hi = lo + interactions_per_user
        chosen = rng.choice(n_items, size=interactions_per_user, replace=False, p=weights)
        noise = rng.normal(0.0, 0.1, size=interactions_per_user)
        users[lo:hi] = i
        items[lo:hi] = chosen
        if integer_ratings:
            raw = 1.0 + (rating_scale - 1.0) * propensity[chosen] + noise * rating_scale
            ratings[lo:hi] = np.clip(np.rint(raw), 1.0, rating_scale)
        else:
            ratings[lo:hi] = rating_scale * np.clip(
                propensity[chosen] + noise, 0.05, 1.0
            )

    return RatingsDataset(
        users=users,
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

    Ids are shifted to 1-based and ratings rounded to integers, matching the
    classic rating-file layout; timestamps are synthetic and increasing.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for t, (u, j, r) in enumerate(zip(dataset.users, dataset.items, dataset.ratings)):
            fh.write(f"{u + 1}::{j + 1}::{int(round(float(r)))}::{978300000 + t}\n")
