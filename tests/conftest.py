from pathlib import Path

import numpy as np
import pytest

from pbmf.data import RatingsDataset
from pbmf.model import cosine

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


def exact_row(model, i) -> np.ndarray:
    """User i's exact ranking row of a FactorModel, V @ U_i alone (over the
    norms in cosine mode): the row that its served rows are certified against."""
    U, V = model.U, model.V
    if model.mode == "dot":
        return V @ U[i]
    return cosine(V @ U[i], np.sqrt(np.einsum("j,j", U[i], U[i])),
                  np.sqrt(np.einsum("ij,ij->i", V, V)))[0]


def score_bound(model, i) -> float:
    """The bound D_i of FactorModel.score_rows on user i's served row:
    (2k + 8) 2**-53, times |U_i| max_j |V_j| in dot mode."""
    scale = 1.0 if model.mode == "cosine" else (
        np.linalg.norm(model.U[i]) * np.linalg.norm(model.V, axis=1).max())
    return (2 * model.k + 8) * 2.0**-53 * scale


def assert_within_bound(values, model, i, items=slice(None)) -> None:
    """`values`, user i's scores of `items`, are the exact row's or within
    `score_bound` of them."""
    want = exact_row(model, i)[items]
    assert values.dtype == want.dtype and values.shape == want.shape
    if values.tobytes() != want.tobytes():
        assert np.all(np.abs(values - want) <= score_bound(model, i))


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
