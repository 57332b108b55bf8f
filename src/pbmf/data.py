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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)


class RatingsParseError(ValueError):
    """A rating value could not be parsed; the message names the line."""


class SchemaError(ValueError):
    """A data row cannot be parsed or is missing one of the requested columns."""


class EmptyDatasetError(ValueError):
    """A rating source produced no valid interactions."""


class SplitError(ValueError):
    """A train/test split left one side empty."""


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
        order = np.argsort(self.users, kind="stable")
        sorted_users = self.users[order]
        sorted_items = self.items[order]
        user_range = np.arange(self.n)
        starts = np.searchsorted(sorted_users, user_range, side="left")
        ends = np.searchsorted(sorted_users, user_range, side="right")
        return [sorted_items[s:e] for s, e in zip(starts, ends)]


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
        rating = float(text)
    except ValueError:
        raise RatingsParseError(
            f"{source}:{lineno}: rating {text!r} is not a number"
        ) from None
    if not math.isfinite(rating) or rating <= 0:
        raise RatingsParseError(
            f"{source}:{lineno}: rating must be finite and > 0, got {rating}"
        )
    return rating


def _build_dataset(
    triples: Iterable[tuple[str, str, float]], source: str
) -> RatingsDataset:
    """Assign dense indices in first-appearance order, keeping the last rating
    for any duplicated (user, item) pair."""
    user_map: dict[str, int] = {}
    item_map: dict[str, int] = {}
    by_pair: dict[tuple[int, int], float] = {}
    duplicates = 0
    for user_id, item_id, rating in triples:
        ui = user_map.setdefault(user_id, len(user_map))
        ii = item_map.setdefault(item_id, len(item_map))
        key = (ui, ii)
        if key in by_pair:
            duplicates += 1
        by_pair[key] = rating
    if not by_pair:
        raise EmptyDatasetError(f"{source}: no valid interactions found")
    if duplicates:
        logger.warning(
            "%s: kept the last rating for %d duplicated (user, item) pair(s)",
            source,
            duplicates,
        )
    users = np.fromiter((k[0] for k in by_pair), dtype=np.int64, count=len(by_pair))
    items = np.fromiter((k[1] for k in by_pair), dtype=np.int64, count=len(by_pair))
    ratings = np.fromiter(by_pair.values(), dtype=np.float64, count=len(by_pair))
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

    Blank lines are skipped; lines that do not split into four `::` fields
    are counted as malformed and reported via logging.  A line with the right
    shape but a non-numeric (or non-positive) rating raises
    :class:`RatingsParseError` naming the line number; text that is not
    UTF-8 raises it naming the file alone.
    """
    path = Path(path)
    triples: list[tuple[str, str, float]] = []
    malformed = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                fields = line.split("::")
                if len(fields) != 4:
                    malformed += 1
                    continue
                triples.append(
                    (fields[0], fields[1], _checked_rating(fields[2], str(path), lineno))
                )
    except UnicodeDecodeError as exc:  # decoded in chunks: the position is not the file's
        raise RatingsParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if malformed:
        logger.warning("%s: skipped %d malformed line(s)", path, malformed)
    return _build_dataset(triples, str(path))


def load_csv(
    path: str | Path,
    user_col: int = 0,
    item_col: int = 1,
    rating_col: int = 2,
    delimiter: str = ",",
    has_header: bool = False,
) -> RatingsDataset:
    """Load a delimited rating file, ignoring any extra (context) columns.

    Raises :class:`ValueError` for a negative column index and
    :class:`SchemaError` if a data row is shorter than the requested
    columns, the csv module cannot parse it or the file is not UTF-8.
    Duplicate (user, item) pairs keep the last occurrence.
    """
    if min(user_col, item_col, rating_col) < 0:
        raise ValueError(f"column indices must be >= 0, got {user_col}, {item_col}, {rating_col}")
    path = Path(path)
    needed = max(user_col, item_col, rating_col) + 1
    triples: list[tuple[str, str, float]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            for rowno, row in enumerate(reader, start=1):
                if has_header and rowno == 1:
                    continue
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) < needed:
                    raise SchemaError(
                        f"{path}:{rowno}: expected at least {needed} columns, found {len(row)}"
                    )
                triples.append(
                    (
                        row[user_col].strip(),
                        row[item_col].strip(),
                        _checked_rating(row[rating_col].strip(), str(path), rowno),
                    )
                )
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return _build_dataset(triples, str(path))


def _subset(dataset: RatingsDataset, mask: np.ndarray) -> RatingsDataset:
    return RatingsDataset(
        users=dataset.users[mask].copy(),
        items=dataset.items[mask].copy(),
        ratings=dataset.ratings[mask].copy(),
        n=dataset.n,
        m=dataset.m,
        r_max=dataset.r_max,
        user_map=dataset.user_map,
        item_map=dataset.item_map,
    )


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
        raise EmptyDatasetError("cannot split an empty dataset")
    rng = np.random.default_rng(spec.seed)
    test_mask = rng.random(len(dataset)) < spec.test_fraction
    if test_mask.all() or not test_mask.any():
        raise SplitError(
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
        raise SplitError("no test interactions left after dropping unseen users/items")
    return train, test
