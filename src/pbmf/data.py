"""Rating-file ingestion: parsers, dense index spaces, seeded train/test splits.

Loaders turn raw rating files into a :class:`RatingsDataset` whose user and
item ids are mapped to contiguous indices in first-appearance order, so the
same file always produces the same dataset byte for byte.  Splits are drawn
with a seeded uniform draw and inherit the parent's index space and rating
scale, so `n`, `m` and `r_max` stay global across train and test.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RatingsDataset:
    """Immutable indexed set of (user, item, rating) interactions.

    `users`, `items` and `ratings` are parallel arrays; every user index is
    in [0, n) and every item index in [0, m).  `r_max` is the top of the
    rating scale the data was observed on (splits inherit it from their
    parent, so normalized targets rating / r_max mean the same thing
    everywhere).
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    n: int
    m: int
    r_max: float
    user_map: dict[str, int]
    item_map: dict[str, int]

    def __post_init__(self) -> None:
        for arr in (self.users, self.items, self.ratings):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.users.shape[0])

    def items_by_user(self) -> list[np.ndarray]:
        """Item indices rated by each user, indexed by user index."""
        sorted_items = self.items[np.argsort(self.users, kind="stable")]
        bounds = [0, *np.bincount(self.users, minlength=self.n).cumsum().tolist()]
        return [sorted_items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class SplitSpec:
    """How to partition a dataset into train and test."""

    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(
                f"test_fraction must be strictly between 0 and 1, got {self.test_fraction}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


def _checked_rating(text: str, source: str, lineno: int) -> float:
    try:
        if "_" in text:  # float() reads PEP 515 digit separators: "4_5" would be 45.0
            raise ValueError(text)
        rating = float(text)
    except ValueError:
        raise ValueError(f"{source}:{lineno}: rating {text!r} is not a number") from None
    if not math.isfinite(rating) or rating <= 0:
        raise ValueError(f"{source}:{lineno}: rating must be finite and > 0, got {rating}")
    return rating


def _build_dataset(
    by_pair: dict[tuple[str, str], float], rows: int, source: str
) -> RatingsDataset:
    """Number users and items in first-appearance order.

    `by_pair` holds the last rating of each (user id, item id) pair of a
    file's `rows` valid rows, in the order of each pair's first row.  A
    user's (or item's) first row is also the first row of its pair, so
    walking the pairs numbers the ids in the order the file shows them.
    """
    if not by_pair:
        raise ValueError(f"{source}: no valid interactions found")
    if rows > len(by_pair):
        logger.warning(
            "%s: kept the last rating for %d duplicated (user, item) pair(s)",
            source,
            rows - len(by_pair),
        )
    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    count = len(by_pair)
    users = np.fromiter((user_map.setdefault(u, len(user_map)) for u, _ in by_pair),
                        dtype=np.int64, count=count)
    items = np.fromiter((item_map.setdefault(j, len(item_map)) for _, j in by_pair),
                        dtype=np.int64, count=count)
    ratings = np.fromiter(by_pair.values(), dtype=np.float64, count=count)
    return RatingsDataset(
        users=users,
        items=items,
        ratings=ratings,
        n=len(user_map),
        m=len(item_map),
        r_max=float(ratings.max()),
        user_map=user_map,
        item_map=item_map,
    )


def load_movielens(path: str | Path) -> RatingsDataset:
    """Load a `UserID::MovieID::Rating::Timestamp` rating file.

    Blank lines are skipped; ids are stripped of surrounding whitespace, as
    in :func:`load_csv`.  Lines that do not split into four `::` fields, or
    whose user or item id is empty, are counted as malformed and reported
    via logging.  A line with the right shape but a non-numeric (or
    non-positive) rating raises :class:`ValueError` naming the line
    number; text that is not UTF-8 raises it naming the file alone.
    """
    source = str(Path(path))
    by_pair: dict[tuple[str, str], float] = {}
    rows = malformed = 0
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
                by_pair[ids] = _checked_rating(fields[2], source, lineno)
                rows += 1
    except UnicodeDecodeError as exc:  # decoded in chunks: the position is not the file's
        raise ValueError(f"{source}: not UTF-8 text ({exc.reason})") from None
    if malformed:
        logger.warning("%s: skipped %d malformed line(s)", source, malformed)
    return _build_dataset(by_pair, rows, source)


def load_csv(
    path: str | Path,
    user_col: int = 0,
    item_col: int = 1,
    rating_col: int = 2,
    delimiter: str = ",",
    has_header: bool = False,
) -> RatingsDataset:
    """Load a delimited rating file, ignoring any extra (context) columns.

    Raises :class:`ValueError` for a negative column index; naming
    `path:line` for a data row shorter than the requested columns, with an
    empty user or item id or that the csv module cannot parse; and naming
    the file for text that is not UTF-8.  Duplicate (user, item) pairs keep
    the last occurrence.
    """
    if min(user_col, item_col, rating_col) < 0:
        raise ValueError(f"column indices must be >= 0, got {user_col}, {item_col}, {rating_col}")
    source = str(Path(path))
    needed = max(user_col, item_col, rating_col) + 1
    by_pair: dict[tuple[str, str], float] = {}
    rows = 0
    with open(source, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            for rowno, row in enumerate(reader, start=1):
                if has_header and rowno == 1:
                    continue
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) < needed:
                    raise ValueError(f"{source}:{reader.line_num}: expected at least "
                                     f"{needed} columns, found {len(row)}")
                user_id, item_id = row[user_col].strip(), row[item_col].strip()
                if not user_id or not item_id:
                    raise ValueError(f"{source}:{reader.line_num}: empty user or item id")
                by_pair[user_id, item_id] = _checked_rating(row[rating_col].strip(), source,
                                                           reader.line_num)
                rows += 1
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise ValueError(f"{source}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{source}: not UTF-8 text ({exc.reason})") from None
    return _build_dataset(by_pair, rows, source)


def _subset(dataset: RatingsDataset, mask: np.ndarray) -> RatingsDataset:
    return replace(dataset, users=dataset.users[mask], items=dataset.items[mask],
                   ratings=dataset.ratings[mask])


def split(
    dataset: RatingsDataset, spec: SplitSpec
) -> tuple[RatingsDataset, RatingsDataset]:
    """Partition interactions into (train, test) by a seeded uniform draw.

    Both splits keep the parent's `n`, `m` and rating scale.  Test rows
    whose user or item never appears in train are removed (and their count
    logged), because a per-sample factor model has no trained parameters
    for them.
    """
    if len(dataset) == 0:
        raise ValueError("cannot split an empty dataset")
    rng = np.random.default_rng(spec.seed)
    test_mask = rng.random(len(dataset)) < spec.test_fraction
    if test_mask.all() or not test_mask.any():
        raise ValueError(
            f"test_fraction={spec.test_fraction} left an empty split for "
            f"{len(dataset)} interactions"
        )
    train = _subset(dataset, ~test_mask)
    test = _subset(dataset, test_mask)
    keep = np.isin(test.users, train.users) & np.isin(test.items, train.items)
    dropped = int((~keep).sum())
    if dropped:
        logger.info(
            "dropped %d test interaction(s) with users/items unseen in train",
            dropped,
        )
        test = _subset(test, keep)
    if len(test) == 0:
        raise ValueError("no test interactions left after dropping unseen users/items")
    return train, test
