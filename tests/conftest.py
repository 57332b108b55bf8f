from pathlib import Path

import numpy as np
import pytest

from pbmf.data import RatingsDataset

DATA_DIR = Path(__file__).parent / "data"


def make_dataset(users, items, ratings, n=None, m=None) -> RatingsDataset:
    """Build a RatingsDataset directly from index arrays (identity id maps)."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.float64)
    n = int(users.max()) + 1 if n is None else n
    m = int(items.max()) + 1 if m is None else m
    return RatingsDataset(
        users=users,
        items=items,
        ratings=ratings,
        n=n,
        m=m,
        r_max=float(ratings.max()) if ratings.size else 1.0,
        user_map={str(i): i for i in range(n)},
        item_map={str(j): j for j in range(m)},
    )


@pytest.fixture
def toy_dataset() -> RatingsDataset:
    """10 interactions over 4 users x 5 items, ratings on a 1..5 scale."""
    return make_dataset(
        users=[0, 0, 1, 1, 2, 2, 3, 3, 0, 1],
        items=[0, 1, 1, 2, 3, 4, 0, 2, 3, 4],
        ratings=[5.0, 3.0, 4.0, 2.0, 1.0, 5.0, 2.0, 3.0, 4.0, 1.0],
        n=4,
        m=5,
    )
