"""Rating-file ingestion: parsers, dense index spaces, seeded train/test splits.

Loaders turn raw rating files into a :class:`RatingsDataset` whose user and
item ids are mapped to contiguous indices in first-appearance order, so the
same file always produces the same dataset byte for byte.  Both loaders
number each id at its first row as they read, into flat index and rating
arrays, and share one numpy step that keeps each (user, item) pair once: at
its first row's position, with its last row's rating.  The MovieLens loader
parses a block of lines at a time, with the semantics of one line at a
time, line numbers in its errors included.  Splits are drawn
with a seeded uniform draw and inherit the parent's index space and rating
scale, so `n`, `m` and `r_max` stay global across train and test.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from itertools import compress, count, filterfalse, repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from array import array

logger = logging.getLogger(__name__)

# load_movielens reads blocks of lines of about this many characters: 16-256 KiB
# parse at one speed, and its tracemalloc peak on 50,000 rows is 91 B/row at
# 16-64 KiB, 109 at 128 KiB and 144 at 256 KiB (88 line by line).
LOAD_BLOCK_CHARS = 64 * 1024


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


def _empty_rows() -> tuple[dict[str, int], dict[str, int], array, array, array]:
    """A loader's user and item id maps, and its user index, item index and
    rating arrays, all empty."""
    # Imported here: the array extension module adds about 80 kB to the
    # resident size of every process that imports this module, loading a
    # file or not.
    from array import array

    return {}, {}, array("q"), array("q"), array("d")


def _build_dataset(users: array, items: array, ratings: array, user_map: dict[str, int],
                   item_map: dict[str, int], source: str) -> RatingsDataset:
    """Deduplicate a file's valid rows into a dataset.

    Row t of `users`, `items` and `ratings` is the file's t-th valid row,
    its ids numbered by the maps at their first row.  A repeated (user,
    item) pair keeps the position of its first row and the rating of its
    last; the ids keep their numbers, because an id's first row is also the
    first row of its pair.  `r_max` is the largest kept rating.
    """
    if not ratings:
        raise ValueError(f"{source}: no valid interactions found")
    user_rows = np.frombuffer(users, dtype=np.int64)
    item_rows = np.frombuffer(items, dtype=np.int64)
    key = user_rows * len(item_map) + item_rows
    order = np.argsort(key, kind="stable")  # the rows of each pair together, in file order
    ends = np.append(np.diff(key[order]) != 0, True)  # where each pair's rows end
    last_row = np.full(len(key), -1)
    last_row[order[np.roll(ends, 1)]] = order[ends]  # at each pair's first row, its last row
    first = np.flatnonzero(last_row >= 0)
    if len(key) > len(first):
        logger.warning(
            "%s: kept the last rating for %d duplicated (user, item) pair(s)",
            source,
            len(key) - len(first),
        )
    kept = np.frombuffer(ratings, dtype=np.float64)[last_row[first]]
    return RatingsDataset(
        users=user_rows[first],
        items=item_rows[first],
        ratings=kept,
        n=len(user_map),
        m=len(item_map),
        r_max=float(kept.max()),
        user_map=user_map,
        item_map=item_map,
    )


def _number_ids(ids: list[str], id_map: dict[str, int]) -> np.ndarray:
    """Number a block's new ids in first-appearance order, each once (as
    dict.fromkeys yields it); the indices of the block's ids."""
    id_map.update(zip(filterfalse(id_map.__contains__, dict.fromkeys(ids)), count(len(id_map))))
    return np.fromiter(map(id_map.__getitem__, ids), np.int64, len(ids))


def _block_ratings(texts: list[str], lines: list[str], source: str, lineno: int) -> np.ndarray:
    """The ratings of a block's valid lines; if one is bad, parsed line by line
    so that the first bad one raises naming its line.  `lineno` lines precede."""
    try:
        values = np.fromiter(map(float, texts), np.float64, len(texts))
        if "_" not in "".join(texts) and ((values > 0) & (values < math.inf)).all():
            return values
    except ValueError:
        pass
    fields = (line.split("::") for line in lines)
    return np.array([_checked_rating(f[2], source, at) for at, f in enumerate(fields, lineno + 1)
                     if len(f) == 4 and f[0].strip() and f[1].strip()])


def load_movielens(path: str | Path) -> RatingsDataset:
    """Load a `UserID::MovieID::Rating::Timestamp` rating file.

    Blank lines are skipped; ids are stripped of surrounding whitespace, as
    in :func:`load_csv`.  Lines that do not split into four `::` fields, or
    whose user or item id is empty, are counted as malformed and reported
    via logging.  A line with the right shape but a non-numeric (or
    non-positive) rating raises :class:`ValueError` naming the line
    number; text that is not UTF-8 raises it naming the file alone.  A
    repeated (user, item) pair keeps its first position and its last
    rating, and a warning counts the dropped rows.

    Lines are parsed a block of about LOAD_BLOCK_CHARS at a time, with the
    dataset, errors and warnings of parsing them one by one.
    """
    source = str(Path(path))
    user_map, item_map, users, items, ratings = _empty_rows()
    malformed = 0
    lineno = 0  # lines before the block
    try:
        with open(source, encoding="utf-8-sig") as fh:
            while lines := fh.readlines(LOAD_BLOCK_CHARS):
                # str.count and str.split find the same "::" matches, so a
                # line has four fields exactly when it holds three.
                counts = list(map(str.count, lines, repeat("::")))
                if counts.count(3) == len(counts):  # the usual block: no line to drop
                    rows = lines
                else:
                    rows = list(compress(lines, map((3).__eq__, counts)))
                    malformed += sum(1 for line in compress(lines, map((3).__ne__, counts))
                                     if line.strip())
                text = "".join(rows)  # with every line ending in "\n", four fields a line
                fields = (text if text.endswith("\n") else text + "\n"
                          ).replace("::", "\n").split("\n")
                user_ids = list(map(str.strip, fields[0:-1:4]))
                item_ids = list(map(str.strip, fields[1:-1:4]))
                texts = fields[2:-1:4]
                if "" in user_ids or "" in item_ids:  # an empty id is malformed
                    keep = list(map(all, zip(user_ids, item_ids)))
                    malformed += keep.count(False)
                    user_ids, item_ids, texts = ([*compress(column, keep)] for column
                                                 in (user_ids, item_ids, texts))
                ratings.frombytes(_block_ratings(texts, lines, source, lineno).tobytes())
                users.frombytes(_number_ids(user_ids, user_map).tobytes())
                items.frombytes(_number_ids(item_ids, item_map).tobytes())
                lineno += len(lines)
    except UnicodeDecodeError as exc:  # decoded in chunks: the position is not the file's
        raise ValueError(f"{source}: not UTF-8 text ({exc.reason})") from None
    if malformed:
        logger.warning("%s: skipped %d malformed line(s)", source, malformed)
    return _build_dataset(users, items, ratings, user_map, item_map, source)


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
    the file for text that is not UTF-8.  Repeated (user, item) pairs are
    deduplicated as in :func:`load_movielens`.
    """
    if min(user_col, item_col, rating_col) < 0:
        raise ValueError(f"column indices must be >= 0, got {user_col}, {item_col}, {rating_col}")
    source = str(Path(path))
    needed = max(user_col, item_col, rating_col) + 1
    user_map, item_map, users, items, ratings = _empty_rows()
    with open(source, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header_left = has_header
        try:
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                if header_left:  # the header is the first row that is not blank
                    header_left = False
                    continue
                if len(row) < needed:
                    raise ValueError(f"{source}:{reader.line_num}: expected at least "
                                     f"{needed} columns, found {len(row)}")
                user_id, item_id = row[user_col].strip(), row[item_col].strip()
                if not user_id or not item_id:
                    raise ValueError(f"{source}:{reader.line_num}: empty user or item id")
                ratings.append(_checked_rating(row[rating_col].strip(), source,
                                               reader.line_num))
                users.append(user_map.setdefault(user_id, len(user_map)))
                items.append(item_map.setdefault(item_id, len(item_map)))
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise ValueError(f"{source}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{source}: not UTF-8 text ({exc.reason})") from None
    return _build_dataset(users, items, ratings, user_map, item_map, source)


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
    seen_users, seen_items = np.zeros(dataset.n, dtype=bool), np.zeros(dataset.m, dtype=bool)
    seen_users[train.users] = seen_items[train.items] = True
    keep = seen_users[test.users] & seen_items[test.items]
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
