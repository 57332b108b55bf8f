"""`pbmf.synthetic` against the per-user loop it replays.

The oracle below is the earlier implementation, kept verbatim: one
`Generator.choice(..., replace=False, p=...)` and one `normal` per user, and
one formatted write per rating line.  The generator must match it bit for
bit, and the writer byte for byte.
"""

import hashlib
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from pbmf.data import RatingsDataset, load_movielens  # noqa: E402
from pbmf.synthetic import write_movielens_file, zipf_popularity_dataset  # noqa: E402

from conftest import DATA_DIR, make_dataset  # noqa: E402


def oracle_dataset(
    n_users: int = 200,
    n_items: int = 100,
    interactions_per_user: int = 25,
    seed: int = 0,
    *,
    popularity_exponent: float = 1.0,
    rating_scale: float = 1.0,
    integer_ratings: bool = False,
) -> RatingsDataset:
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


def oracle_write(dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t, (u, j, r) in enumerate(zip(dataset.users, dataset.items, dataset.ratings)):
            fh.write(f"{u + 1}::{j + 1}::{int(round(float(r)))}::{978300000 + t}\n")


def outcome(generate, *args, **kwargs):
    """The dataset, or the type of the exception raised instead."""
    try:
        # The oracle warns on a propensity that overflows before numpy
        # rejects its NaN weights; only the exception type is compared.
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            return generate(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared by type below
        return type(exc)


def assert_identical(got: RatingsDataset, want: RatingsDataset) -> None:
    for name in ("users", "items", "ratings"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert (got.n, got.m, got.user_map, got.item_map) == (want.n, want.m, want.user_map,
                                                          want.item_map)
    assert np.float64(got.r_max).tobytes() == np.float64(want.r_max).tobytes()


def test_default_arguments_replay_the_loop():
    # Before the property: a generator that loops forever on its steep
    # examples fails here first.
    assert_identical(zipf_popularity_dataset(), oracle_dataset())


# Finite exponents only: the oracle accepts an infinite one when a single
# item keeps a nonzero weight, which the generator rejects by name (below).
EXPONENTS = st.one_of(
    st.sampled_from([0.0, -0.5, -1.0, -3.0, 0.5, 1.0, 2.0, 8.0, 40.0, 300.0, 2000.0,
                     -300.0, -2000.0]),
    st.floats(-6.0, 60.0, allow_nan=False),
)
# At 1e16 and above the sums 1 + (s - 1) p + noise s are not integers, so
# rounding them in another order changes the integer ratings.
SCALES = st.sampled_from([1.0, 5.0, 10.0, 0.5, 2.5, 5, 1e16, 1e17]) | st.floats(0.1, 20.0)


@st.composite
def shapes(draw):
    """(n_users, n_items, interactions_per_user), a few of them invalid."""
    n_items = draw(st.integers(0, 25))
    return draw(st.integers(0, 6)), n_items, draw(st.integers(-1, n_items + 1))


@settings(max_examples=300, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), exponent=EXPONENTS,
       rating_scale=SCALES, integer_ratings=st.booleans())
@example(shape=(4, 12, 12), seed=3, exponent=1.0, rating_scale=5.0,
         integer_ratings=True)  # every item: the last rounds draw the tail
@example(shape=(3, 10, 6), seed=0, exponent=40.0, rating_scale=5.0,
         integer_ratings=True)  # one new item per round: six rounds per user
@example(shape=(5, 25, 25), seed=1, exponent=-3.0, rating_scale=1.0,
         integer_ratings=False)  # popularity rising with the index
@example(shape=(6, 20, 8), seed=2, exponent=0.5, rating_scale=1e17,
         integer_ratings=True)  # integer ratings keep the sums' rounding
@example(shape=(2, 8, 1), seed=0, exponent=2000.0, rating_scale=5.0,
         integer_ratings=True)  # only item 0 keeps a nonzero weight
@example(shape=(2, 8, 2), seed=0, exponent=2000.0, rating_scale=5.0,
         integer_ratings=True)  # ... so two items per user cannot be drawn
@example(shape=(2, 20, 3), seed=0, exponent=-300.0, rating_scale=5.0,
         integer_ratings=True)  # the propensities overflow
def test_generator_replays_the_per_user_choice_loop(shape, seed, exponent, rating_scale,
                                                     integer_ratings):
    kwargs = dict(popularity_exponent=exponent, rating_scale=rating_scale,
                  integer_ratings=integer_ratings)
    want = outcome(oracle_dataset, *shape, seed, **kwargs)
    got = outcome(zipf_popularity_dataset, *shape, seed, **kwargs)
    if isinstance(want, RatingsDataset):
        assert isinstance(got, RatingsDataset), got
        assert_identical(got, want)
    else:
        assert got is want


@pytest.mark.parametrize("args, kwargs, message", [
    ((0, 10, 3), {}, "n_users must be at least 1, got 0"),
    ((-2, 10, 3), {}, "n_users must be at least 1, got -2"),
    ((5, 0, 0), {}, "n_items must be at least 1, got 0"),
    ((5, 10, 0), {}, r"interactions_per_user must be in 1\.\.n_items=10, got 0"),
    ((5, 10, 11), {}, r"interactions_per_user must be in 1\.\.n_items=10, got 11"),
    ((5, 10, 3), {"popularity_exponent": -np.inf}, "popularity_exponent must be finite, got -inf"),
    ((5, 10, 3), {"popularity_exponent": np.inf}, "popularity_exponent must be finite, got inf"),
    ((5, 10, 1), {"popularity_exponent": np.inf}, "popularity_exponent must be finite, got inf"),
    ((5, 10, 3), {"popularity_exponent": np.nan}, "popularity_exponent must be finite, got nan"),
    ((5, 10, 3), {"popularity_exponent": 2000.0},
     r"popularity_exponent=2000\.0 leaves fewer than interactions_per_user=3 items a nonzero"),
    ((5, 10, 3), {"popularity_exponent": -2000.0},
     r"popularity_exponent=-2000\.0 leaves fewer than interactions_per_user=3 items a nonzero"),
])
def test_bad_arguments_raise_before_any_draw(args, kwargs, message, monkeypatch):
    def no_draws(*_args, **_kwargs):
        raise AssertionError("drew before the arguments were checked")

    monkeypatch.setattr("numpy.random.default_rng", no_draws)
    with pytest.raises(ValueError, match=f"^{message}"):
        zipf_popularity_dataset(*args, **kwargs)


def _rows(count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    ratings = rng.uniform(0.0, 5.0, count)
    ratings[::7] = rng.integers(-1, 6, ratings[::7].shape) + 0.5  # ties round half to even
    return make_dataset(rng.integers(0, 40, count), rng.integers(0, 70_000, count), ratings,
                        n=40, m=70_000)


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 3 * 1024 + 17])
def test_writer_matches_the_line_loop(count, tmp_path):
    dataset = _rows(count, seed=count)
    write_movielens_file(dataset, tmp_path / "got.dat")
    oracle_write(dataset, tmp_path / "want.dat")
    assert (tmp_path / "got.dat").read_bytes() == (tmp_path / "want.dat").read_bytes()


def test_writer_rounds_half_to_even(tmp_path):
    dataset = make_dataset([0] * 6, list(range(6)), [0.5, 1.5, 2.5, 3.5, 4.5, -0.5])
    write_movielens_file(dataset, tmp_path / "r.dat")
    assert [line.split("::")[2] for line in (tmp_path / "r.dat").read_text().splitlines()] \
        == ["0", "2", "2", "4", "4", "0"]


def test_writer_matches_the_line_loop_on_a_loaded_file(tmp_path):
    dataset = load_movielens(DATA_DIR / "ml1m_sample.dat")
    write_movielens_file(dataset, tmp_path / "got.dat")
    oracle_write(dataset, tmp_path / "want.dat")
    assert (tmp_path / "got.dat").read_bytes() == (tmp_path / "want.dat").read_bytes()


# The benchmark's six inputs at seed 99, shape (users, items, ratings per user,
# exponent) as perfbench/run.py sets them, with the digests of their files.
BENCHMARK_INPUTS = {
    ("benchmark_zipf50k", "full"): ((2000, 500, 25, 1.0),
                                    "38334af28f65782b9021de8f34d75336a36b36ddf1599d09b3aef55e55b5cc5d"),
    ("benchmark_zipf50k", "tiny"): ((60, 30, 8, 1.0),
                                    "f77519a47c035e2cd591646760e6dced3eb17f69b7449ad73ebf07a1c409b30e"),
    ("train_flat_k32", "full"): ((4000, 2000, 20, 0.5),
                                 "ddc58b7cf442fec0070692c38de7ba05b17c43b52a63bb66d0d7620f1c00720e"),
    ("train_flat_k32", "tiny"): ((80, 60, 8, 0.5),
                                 "8e6fa3ef40ca5f37cf028a95f82fd864e7a9a79e93b44d0f3cee4363f942cea6"),
    ("evaluate_wide", "full"): ((5000, 4000, 20, 0.8),
                                "29b4d33f3f9c1961039b6f7aa08de9704c9c83e82a9fa8aebc983d711656acc4"),
    ("evaluate_wide", "tiny"): ((80, 60, 8, 0.8),
                                "ec9be365ca1af6c81d74e4728a899c3fee819993134ada9c775ef2073bb90f08"),
}


@pytest.mark.parametrize("workload", list(BENCHMARK_INPUTS), ids="-".join)
def test_benchmark_inputs_keep_their_bytes(workload, tmp_path):
    (users, items, per_user, exponent), digest = BENCHMARK_INPUTS[workload]
    dataset = zipf_popularity_dataset(users, items, per_user, seed=99,
                                      popularity_exponent=exponent, rating_scale=5,
                                      integer_ratings=True)
    write_movielens_file(dataset, tmp_path / "ratings.dat")
    assert hashlib.sha256((tmp_path / "ratings.dat").read_bytes()).hexdigest() == digest
