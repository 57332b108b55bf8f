"""Rating-file ingestion: parsers, dense index spaces, seeded train/test splits.

Loaders turn raw rating files into a :class:`RatingsDataset` whose user and
item ids are mapped to contiguous indices in first-appearance order, so the
same file always produces the same dataset byte for byte.  Each format has a
row source that reads its file a line at a time; one step checks the ratings
of either and numbers their ids into flat index and rating arrays, and one
numpy step keeps each (user, item) pair once: at its first row's position,
with its last row's rating.  The MovieLens loader reads a file of digits,
colons and newlines alone, in the usual `user::item::rating::timestamp`
layout, with numpy, as integers whose ids one `np.unique` numbers, and any
other file with its row source; both give the same dataset.  Splits are drawn
with a seeded uniform draw and inherit the parent's index space and rating
scale, so `n`, `m` and `r_max` stay global across train and test.
"""

from __future__ import annotations

import codecs
import csv
import logging
import math
import os
from dataclasses import dataclass, replace
from itertools import count
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from array import array
    from collections.abc import Iterator

logger = logging.getLogger(__name__)

# load_movielens reads blocks of about this many bytes in its numpy step, which
# is twice as slow at 16 KiB as at 64-256 KiB; its tracemalloc peak on 50,000
# rows is 86 B/row.
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


def _build_dataset(users: array | np.ndarray, items: array | np.ndarray,
                   ratings: array | np.ndarray, user_map: dict[str, int],
                   item_map: dict[str, int], source: str) -> RatingsDataset:
    """Deduplicate a file's valid rows into a dataset.

    Row t of `users`, `items` and `ratings` is the file's t-th valid row,
    its ids numbered by the maps at their first row.  A repeated (user,
    item) pair keeps the position of its first row and the rating of its
    last; the ids keep their numbers, because an id's first row is also the
    first row of its pair.  `r_max` is the largest kept rating.
    """
    if not len(ratings):
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


def _number_rows(rows: Iterator[tuple[int, str, str, str]], source: str) -> tuple:
    """A file's rows and id maps from its row source's `(line number, user id,
    item id, rating text)`: ratings checked, ids numbered by first appearance."""
    user_map, item_map, users, items, ratings = _empty_rows()
    try:
        for lineno, user_id, item_id, text in rows:
            ratings.append(_checked_rating(text, source, lineno))
            users.append(user_map.setdefault(user_id, len(user_map)))
            items.append(item_map.setdefault(item_id, len(item_map)))
    except UnicodeDecodeError as exc:  # decoded in chunks: the position is not the file's
        raise ValueError(f"{source}: not UTF-8 text ({exc.reason})") from None
    return users, items, ratings, user_map, item_map


def _movielens_rows(source: str) -> Iterator[tuple[int, str, str, str]]:
    """The rows of a `::` file, ids stripped of spaces; lines not blank but
    without four fields or with an empty id are counted, and logged at the end."""
    malformed = 0
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
            yield lineno, *ids, fields[2]
    if malformed:
        logger.warning("%s: skipped %d malformed line(s)", source, malformed)


def _csv_rows(source: str, user_col: int, item_col: int, rating_col: int,
              delimiter: str, has_header: bool) -> Iterator[tuple[int, str, str, str]]:
    """The data rows of a delimited file, their cells stripped of spaces; blank
    rows skipped, and with `has_header` the first row that is not blank."""
    needed = max(user_col, item_col, rating_col) + 1
    with open(source, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header_left = has_header
        try:
            for row in reader:
                if not row or all(not cell.strip() for cell in row):
                    continue
                if header_left:
                    header_left = False
                    continue
                if len(row) < needed:
                    raise ValueError(f"{source}:{reader.line_num}: expected at least "
                                     f"{needed} columns, found {len(row)}")
                user_id, item_id = row[user_col].strip(), row[item_col].strip()
                if not user_id or not item_id:
                    raise ValueError(f"{source}:{reader.line_num}: empty user or item id")
                yield reader.line_num, user_id, item_id, row[rating_col].strip()
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise ValueError(f"{source}:{reader.line_num}: {exc}") from None


_BACK = np.arange(-18, 0)  # a field's last 18 bytes, as offsets from its end
_POWERS = 10 ** np.arange(17, -1, -1, dtype=np.int64)  # their place values


def _digit_fields(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The user ids, item ids and ratings of a block of whole lines as
    integers, blank lines skipped; None unless every line is in the digit
    layout that :func:`load_movielens` describes."""
    digits = buf - np.uint8(48)  # "0"-"9" to 0-9 and ":" to 10
    ends = np.flatnonzero(buf == 10)
    colons = np.flatnonzero(digits == 10)
    if len(ends) + len(colons) + np.count_nonzero(digits < 10) != len(buf):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    full = ends > starts
    starts, ends = starts[full], ends[full]  # blank lines hold no colon
    if len(colons) != 6 * len(ends):
        return None
    c = colons.reshape(-1, 6)
    # Line t's six colons are the t-th six once each is inside line t (the
    # user field below is at least a digit long), and they are three "::".
    if not ((c[:, 5] < ends).all() and (c[:, 1::2] - c[:, 0::2] == 1).all()):
        return None
    fields = []
    for is_id, lo, hi in ((True, starts, c[:, 0]), (True, c[:, 1] + 1, c[:, 2]),
                          (False, c[:, 3] + 1, c[:, 4])):
        length = hi - lo
        if not ((length >= 1) & (length <= 18)).all():  # 18 digits fit an int64
            return None
        if is_id and ((digits[lo] == 0) & (length > 1)).any():  # "01" is not id "1"
            return None
        # Each field's last `width` bytes, with those before the field zeroed.
        # An index below 0 wraps to the block's end, and is one of those.
        width = int(length.max(initial=1))
        window = digits[hi[:, None] + _BACK[-width:]]
        window *= _BACK[-width:] >= -length[:, None]
        fields.append(window @ _POWERS[-width:])
    users, items, ratings = fields
    if not ratings.all():  # a rating of 0: the general path names its line
        return None
    return users, items, ratings.astype(np.float64)


def _first_appearance(ids: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
    """Number integer ids 0, 1, ... in first-appearance order: the numbers of
    `ids`, and the map from each id's decimal text to its number.  The ids,
    all >= 0, are sorted in the narrowest unsigned type that holds them: below
    65,536 that is uint16 or uint8, which numpy's stable sort radix-sorts."""
    ids = ids.astype(np.min_scalar_type(ids.max(initial=0)))
    values, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse], dict(zip(map(str, values[order].tolist()), count()))


def _parse_digits(source: str) -> tuple | None:
    """A digit-layout file's rows and id maps, as `_number_rows` gives them;
    None at the first block of lines that is not in that layout, or at once
    if the file is not a regular one, such as a pipe, that cannot be read twice."""
    if not os.path.isfile(source):
        return None
    columns = ([], [], [])
    with open(source, "rb") as fh:
        tail = fh.read(len(codecs.BOM_UTF8)).removeprefix(codecs.BOM_UTF8)
        while True:
            chunk = fh.read(LOAD_BLOCK_CHARS)
            text = tail + (chunk or b"\n")  # an unended last line gets its "\n"
            cut = text.rfind(b"\n") + 1
            tail = text[cut:]
            if cut:
                fields = _digit_fields(np.frombuffer(text, np.uint8, cut))
                if fields is None:
                    return None
                for column, values in zip(columns, fields):
                    column.append(values)
            if not chunk:
                break
    users, user_map = _first_appearance(np.concatenate(columns[0]))
    items, item_map = _first_appearance(np.concatenate(columns[1]))
    return users, items, np.concatenate(columns[2]), user_map, item_map


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

    A regular file in the digit layout is parsed with numpy, a block of
    about LOAD_BLOCK_CHARS bytes at a time.  After an optional UTF-8 BOM it
    holds only the bytes `0-9`, `:` and newline (the last line may lack
    its newline), and every line that is not blank is
    `user::item::rating::timestamp`, with user, item and rating of 1-18
    digits, ids without a leading `0`, a rating above 0 and a timestamp of
    digits or none.  At the first block that is not, the file is read again
    from its start a line at a time, as every other file is.  Both give the
    same dataset, maps, warnings and errors.
    """
    source = str(Path(path))
    rows = _parse_digits(source) or _number_rows(_movielens_rows(source), source)
    return _build_dataset(*rows, source)


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
    the file for text that is not UTF-8.  Rows are read, numbered and
    deduplicated by the same steps as in :func:`load_movielens`.
    """
    if min(user_col, item_col, rating_col) < 0:
        raise ValueError(f"column indices must be >= 0, got {user_col}, {item_col}, {rating_col}")
    source = str(Path(path))
    rows = _csv_rows(source, user_col, item_col, rating_col, delimiter, has_header)
    return _build_dataset(*_number_rows(rows, source), source)


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
