"""Latent-factor model: dot and cosine predictions, top-k lists, persistence."""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

MAGIC = b"PBMF"
FORMAT_VERSION = 1

_MODE_CODES = {"dot": 0, "cosine": 1}
_MODE_NAMES = {code: name for name, code in _MODE_CODES.items()}
_HEADER = struct.Struct("<4sBQQQBd")  # magic, version, n, m, k, mode, r_max

# Floor of every cosine denominator, so a zero-norm factor row scores 0.
NORM_EPSILON = 1e-12

# Bytes of U rows, and as many of V rows, that pair_scores gathers per block:
# the blocks stay cache-resident and its working memory does not grow with N.
CHUNK_BYTES = 256 * 1024

# top_k ranks rows of up to BLOCK_RANK_MAX_M items in blocks of about
# RANK_BLOCK_BYTES: 64 rows at m = 500, where 128-512 KiB ranked alike and 32 KiB
# or 1 MiB slower.  Against rows ranked one at a time (each from a sampled cut,
# see _rank_row), blocks took 0.73-0.78 of the time at m = 500, 0.95-0.97 at
# 1,000, 1.04-1.11 at 1,500 and 1.58-1.65 at 4,000: the medians of two runs of
# 15 pairs of top_k calls on one CPU, 2,000 users of a k = 8 cosine model with
# 20 exclusions each, k_top = 10.
# Scorer.scores_for_user scores blocks of users of the same size at every m:
# 8 users at m = 3,999, where serving rows from blocks moved the peak RSS of
# pbmf evaluate from 47.0-47.2 MB to 47.2-47.4 MB (14 pairs on one CPU).
RANK_BLOCK_BYTES = 256 * 1024
BLOCK_RANK_MAX_M = 1000

# FactorModel.score_rows scores a block by one matrix product only where every
# norm of U's block and of V lies in this range: the factors' squares, products
# and sums then do not overflow, what underflows is negligible against the
# bound D, and a NaN or infinite factor has a norm outside it.
GEMM_NORMS = (2.0**-400, 2.0**400)


def cosine(dots: np.ndarray, u_norm: np.ndarray, v_norm: np.ndarray,
           out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Cosines u . v / max(|u| |v|, NORM_EPSILON) from the dot products and
    norms of the pairs, and the denominators they were divided by.  Given
    `out` (`dots` itself, say), the cosines go there and the denominators
    are floored in place, which spares a ranking block two temporaries."""
    denom = u_norm * v_norm
    denom = np.maximum(denom, NORM_EPSILON, out=None if out is None else denom)
    return np.divide(dots, denom, out=out), denom


def _block_rows(m: int) -> int:
    """Rows of m float64 scores in about RANK_BLOCK_BYTES, at least one."""
    return max(1, RANK_BLOCK_BYTES // (8 * max(1, m)))


class Scorer:
    """What the metrics read of a scorer, derived from the subclass's hook
    `_pair_scores(users, items)`, its `r_max`, its user count `n` and its
    item count `m`; the hooks see only indices that keep the index rule of
    `_check_index`.

    `scores_for_user(i)` serves user i's row of a read-only block of
    `score_rows(lo, hi)`, the users lo = i - i % B onward and none past the
    last, with B from RANK_BLOCK_BYTES as in `top_k`.  The block is scored
    at the first call that needs it and kept until a call needs another
    block or the last user's row is served; a subclass whose rows change
    drops it by setting `_block` to None."""

    n: int  # the user count
    m: int  # the item count
    _block: tuple | None = None  # (lo, rows) of the block being served

    @staticmethod
    def _check_index(index, size: int, name: str) -> None:
        """The index rule of every scorer: a user index (`size` n) or an item
        index (`size` m), an int or an array, outside [0, size) raises
        IndexError naming it.  An empty array passes."""
        low = high = index
        if not isinstance(index, (int, np.integer)):
            low, high = (np.min(index), np.max(index)) if np.size(index) else (0, -1)
        if low < 0 or high >= size:
            bad = low if low < 0 else high
            raise IndexError(f"{name} index {bad} is out of bounds for {size} {name}s")

    def pair_scores(self, users, items) -> np.ndarray:
        """`_pair_scores(users, items)` of indices that keep the index rule:
        `users` is one index, or an array of `items`' shape."""
        if np.ndim(users) and np.shape(users) != np.shape(items):
            raise ValueError(f"{np.size(users)} users but {np.size(items)} items")
        self._check_index(users, self.n, "user")
        self._check_index(items, self.m, "item")
        return self._pair_scores(users, items)

    def normalized_scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        return self.pair_scores(users, items)

    def predicted_ratings(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Normalized scores mapped back to the rating scale [0, r_max]."""
        return np.clip(self.normalized_scores(users, items), 0.0, 1.0) * self.r_max

    def score_rows(self, lo: int, hi: int) -> np.ndarray:
        """(hi - lo) x m ranking scores of users lo..hi-1, 0 <= lo < hi (<= n):
        one `_pair_scores(i, np.arange(m))` per user, so the hook must take
        one user index against an array of items."""
        items = np.arange(self.m)
        return np.stack([self._pair_scores(i, items) for i in range(lo, hi)])

    def scores_for_user(self, i: int) -> np.ndarray:
        """Ranking score of every item for user i, checked by the index rule
        on a block miss only, so a served row pays nothing."""
        i, n, block = operator.index(i), self.n, self._block  # a Python int: no wrap
        if block is None or not 0 <= i - block[0] < len(block[1]):
            self._check_index(i, n, "user")
            self._block = block = None  # free to go before the next block is scored
            height = _block_rows(self.m)
            lo = i - i % height
            rows = self.score_rows(lo, min(lo + height, n))
            rows.setflags(write=False)
            block = self._block = (lo, rows)
        if i + 1 == n:  # a pass over the users ends: the row alone keeps the block
            self._block = None
        return block[1][i - block[0]]


@dataclass
class FactorModel(Scorer):
    """User factors U (n x k) and item factors V (m x k) plus a prediction mode.

    "dot" mode scores a pair with U_i . V_j; "cosine" mode with their
    :func:`cosine`, which is invariant to the scale of either factor row.
    `r_max` carries the rating scale of the training data so scores can be
    mapped back to ratings.

    A model caches the row norms of U and of V at its first
    :meth:`scores_for_user` call and makes both read-only from then on, so
    an in-place write raises ValueError instead of ranking with stale norms
    or a stale block of rows.  Change factors with
    ``dataclasses.replace(model, V=...)`` or a new FactorModel; assigning a
    new array to ``U`` or ``V``, or a new ``mode``, also recomputes the
    norms and the block.
    """

    U: np.ndarray
    V: np.ndarray
    mode: str = "cosine"
    r_max: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in _MODE_CODES:
            raise ValueError(f"mode must be one of {sorted(_MODE_CODES)}, got {self.mode!r}")
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise ValueError("U and V must be 2-D matrices")
        if self.U.shape[1] != self.V.shape[1]:
            raise ValueError(
                f"U and V disagree on the latent dimension: {self.U.shape[1]} vs {self.V.shape[1]}"
            )
        self._norms: tuple | None = None  # see _cached_norms

    @property
    def n(self) -> int:
        return int(self.U.shape[0])

    @property
    def m(self) -> int:
        return int(self.V.shape[0])

    @property
    def k(self) -> int:
        return int(self.U.shape[1])

    # -- vectorized scoring (read-only; safe after training) -----------------

    def _pair_scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Score of each (users[t], items[t]) pair: U_i . V_j in dot mode,
        their cosine in cosine mode.  The pairs are scored in blocks of about
        CHUNK_BYTES of gathered rows; each score is the same per-row reduction
        as in one gather of all N pairs, bit for bit.  One user index scores
        against every item, as with the other scorers."""
        if np.ndim(users) == 0:
            users = np.full(len(items), users)
        n_pairs = len(users)
        scores = np.empty(n_pairs, dtype=np.float64)
        rows = max(2, CHUNK_BYTES // (8 * self.k))
        start = 0
        while start < n_pairs:
            # A lone last row joins the block before it: einsum sums one row of
            # more than 8,192 entries in another order than a row among others.
            stop = n_pairs if n_pairs - start <= rows + 1 else start + rows
            block = slice(start, stop)
            start = stop
            us = self.U[users[block]]
            vs = self.V[items[block]]
            dots = np.einsum("ij,ij->i", us, vs)
            if self.mode == "dot":
                scores[block] = dots
            else:
                scores[block] = cosine(dots, np.sqrt(np.einsum("ij,ij->i", us, us)),
                                       np.sqrt(np.einsum("ij,ij->i", vs, vs)))[0]
        return scores

    def score_rows(self, lo: int, hi: int) -> np.ndarray:
        """Ranking scores of users lo..hi-1 from one matrix product: U_i . V_j,
        or in cosine mode U_i / |U_i| times the cached V_j / |V_j|.  A block
        with a user outside `_cached_norms`' `fast` takes `_exact_rows`.
        Every row is within D_i = (2k + 8) u (times |U_i| max_j |V_j| in dot
        mode; 0 for a row that is exact) of the exact row, u = 2**-53:
        - a k-term dot product, summed in any order, with fused multiply-adds
          or not, is within g sum_l |a_l b_l| <= g |a| |b| of its value, g =
          k u / (1 - k u); with norms in GEMM_NORMS, what underflows is far
          below that;
        - dot mode: both rows round U_i . V_j, so they are 2g |U_i| |V_j| apart;
        - cosine mode: with N the cached norms, the exact row rounds the dot,
          N_i N_j and the quotient: within (g + 2u) r of c = U_i . V_j / (N_i
          N_j), r = |U_i| |V_j| / (N_i N_j) = 1 + O(g).  Each unit-scaled entry
          is off by u, so their products sum to within 2u r of c, and the
          product rounds within g r more: D = 2g + 4u + O(g**2);
        - 2g < 2ku + 4k**2 u**2; for k <= 2**20 the 4u spare in D covers the
          second-order terms, the cached norms' rounding and that of top_k's
          comparisons (a rounded sum moves by at most u times its size)."""
        *_, u_norm, _, v_right, fast, _ = self._cached_norms()
        if not fast[lo:hi].all():
            return self._exact_rows(lo, hi)
        if self.mode == "dot":
            return self.U[lo:hi] @ v_right
        return (self.U[lo:hi] / u_norm[lo:hi, None]) @ v_right

    def _exact_rows(self, lo: int, hi: int) -> np.ndarray:
        """The exact ranking scores of users lo..hi-1: np.matmul runs one
        V @ U_i per user, over the cached row norms in cosine mode."""
        dots = np.matmul(self.V, self.U[lo:hi, :, None])[:, :, 0]
        if self.mode == "dot":
            return dots
        *_, u_norm, v_norm, _, _, _ = self._cached_norms()
        out = dots if dots.dtype.kind == "f" else None  # integer factors: float cosines
        return cosine(dots, u_norm[lo:hi, None], v_norm, out=out)[0]

    def _cached_norms(self) -> tuple:
        """(U, V, mode, U's row norms, V's, the right factor of `score_rows`'
        product, which users it may score so, their bounds D), computed at
        the first call and again, dropping the kept block, after a new array
        is assigned to U or V or a new mode to `mode`.  U and V turn
        read-only.  The bounds hold for float64 arithmetic only, so factors
        of another type are never scored so."""
        key = self._norms
        if key is None or key[0] is not self.U or key[1] is not self.V or key[2] != self.mode:
            self.U.setflags(write=False)
            self.V.setflags(write=False)
            u_norm, v_norm = (np.sqrt(np.einsum("ij,ij->i", f, f)) for f in (self.U, self.V))
            v_min, v_max = v_norm.min(initial=np.inf), v_norm.max(initial=0.0)
            fast = np.zeros(len(u_norm), dtype=bool)
            if (self.U.dtype == self.V.dtype == np.float64 and self.k <= 2**20
                    and GEMM_NORMS[0] <= v_min <= v_max <= GEMM_NORMS[1]):
                fast = (GEMM_NORMS[0] <= u_norm) & (u_norm <= GEMM_NORMS[1])
            dot = self.mode == "dot"
            if not dot:
                fast[fast] = u_norm[fast] * v_min >= NORM_EPSILON
            # V.T, of unit rows in cosine mode, in C order: a product with the
            # transposed view of V took twice the time at m = 3,999.
            v_right = None
            if fast.any():  # then no norm of V is 0
                v_right = np.ascontiguousarray((self.V if dot else self.V / v_norm[:, None]).T)
            bound = np.zeros(len(u_norm))
            bound[fast] = (2 * self.k + 8) * 2.0**-53 * (u_norm[fast] * v_max if dot else 1.0)
            self._norms = (self.U, self.V, self.mode, u_norm, v_norm, v_right, fast, bound)
            self._block = None
        return self._norms

    def scores_for_user(self, i: int) -> np.ndarray:
        """Ranking score of every item for user i: a row of a served block
        (see Scorer)."""
        self._cached_norms()  # drops a block scored from replaced factors or mode
        return super().scores_for_user(i)

    def normalized_scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Score on the normalized [~0, 1] scale compared against 1/m: the
        cosine itself, or in dot mode U_i . V_j / r_max clipped to [0, 1]."""
        scores = self.pair_scores(users, items)
        if self.mode == "dot":
            return np.clip(scores / self.r_max, 0.0, 1.0)
        return scores


def init_model(
    n: int,
    m: int,
    k: int,
    seed: int,
    scale: float = 0.1,
    *,
    mode: str = "cosine",
    r_max: float = 1.0,
) -> FactorModel:
    """Fresh model with entries drawn i.i.d. uniform on (0, scale].

    Strictly positive entries guarantee nonzero row norms (and positive
    cosines) at the first training step.  Deterministic per seed.
    """
    if n < 1 or m < 1 or k < 1:
        raise ValueError(f"n, m, k must all be >= 1, got ({n}, {m}, {k})")
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    rng = np.random.default_rng(seed)
    # rng.random() is uniform on [0, 1); 1 - x maps it onto (0, 1].
    U = scale * (1.0 - rng.random((n, k)))
    V = scale * (1.0 - rng.random((m, k)))
    return FactorModel(U=U, V=V, mode=mode, r_max=r_max)


@dataclass
class TopKLists:
    """Per-user ranked recommendation lists (descending scores)."""

    items: list[np.ndarray]
    scores: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.items)


def _rank_row(row: np.ndarray, k_top: int, exclude: np.ndarray,
              gap: float | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """One user's list: the k_top best candidates of `row` and their scores.

    A row of at least 4 * k_top items is cut at the k-th best of every fourth
    item, its exclusions already set, which takes a partition of a quarter of
    the row.  A subset's k-th best is never better than the row's own, so the
    items as good as the cut hold the list and every tie at its end.  A cut
    of +inf or NaN leaves too few candidates, and the row's own k-th best,
    from one partition in full, takes its place.

    Given `gap` (see top_k), the cut is widened by it, so that a (k+1)-th
    candidate within `gap` of the k-th is seen, and the list comes back only
    if each of the k_top + 1 best candidates leads the next by more than
    `gap`: None otherwise."""
    m = row.shape[0]
    neg = -row
    neg[exclude] = np.inf
    kth = np.partition(neg[::4], k_top - 1)[k_top - 1] if m >= 4 * k_top else np.inf
    if not kth < np.inf:  # +inf or NaN
        kth = np.partition(neg, k_top - 1)[k_top - 1] if m > k_top else np.inf
    if kth < np.inf:
        # At least k_top candidates are at or below kth in the negated row:
        # they and the ties of the k-th best are the items at or below it,
        # which leaves out the excluded items (+inf) and NaN.
        near = (neg <= kth + (gap or 0.0)).nonzero()[0]
    else:  # a k-th of +inf or NaN: every candidate
        excluded = np.zeros(m, dtype=bool)
        excluded[exclude] = True
        near = (~excluded).nonzero()[0]
    # Stable sort on the negated scores keeps ascending item index
    # within every group of tied scores, and puts NaN last.
    top = near[np.argsort(neg[near], kind="stable")[:k_top + 1]]
    if gap is not None:  # in Python floats, which cost less than numpy calls here
        ranked = neg[top].tolist()
        for lead, after in zip(ranked, ranked[1:]):
            if not after > lead + gap:
                return None
    top = top[:k_top]
    return top, row[top]


def _rank_block(block: np.ndarray, k_top: int, exclude: list[np.ndarray],
                excluded: tuple[np.ndarray, np.ndarray],
                gaps: np.ndarray | None) -> list[tuple | None]:
    """The lists of a (B, m) block of rows, m > k_top, from one partition of
    the block: a row takes its k_top best candidates there if the k-th is
    finite and leads the (k+1)-th, and given `gaps` (see top_k) only if each
    of its k_top + 1 best leads the next by more than the row's gap.  The
    others go to _rank_row.  `excluded` holds the block's exclusions as the
    (rows, items) index arrays of its cells."""
    neg = -block
    neg[excluded] = np.inf
    best = np.sort(np.partition(neg, k_top, axis=1)[:, :k_top + 1], axis=1)  # k_top + 1 best
    kth = best[:, k_top - 1:k_top]
    ahead = best[:, 1:] > best[:, :-1] + (0.0 if gaps is None else gaps[:, None])  # not NaN
    regular = np.isfinite(kth[:, 0]) & (ahead[:, -1] if gaps is None else ahead.all(axis=1))
    within = neg <= kth  # False for the excluded items (+inf) and NaN scores
    within[~regular] = False
    # The regular rows' members by flat index, in ascending item order, which
    # the stable sort keeps among tied scores.
    flat = np.flatnonzero(within).reshape(-1, k_top)
    flat = np.take_along_axis(flat, np.argsort(neg.ravel()[flat], axis=1, kind="stable"), axis=1)
    lists = zip(flat % block.shape[1], block.ravel()[flat])  # the regular rows' lists, in order
    return [next(lists) if ok else _rank_row(row, k_top, skip, None if gaps is None else gaps[r])
            for r, (ok, row, skip) in enumerate(zip(regular.tolist(), block, exclude))]


def _joined_exclusions(exclude: list, m: int) -> np.ndarray:
    """The nonempty exclusions of a top_k call in one integer array, checked
    by the index rule.  An empty uint8 start joins any one integer type,
    uint64 too, into integers.  numpy joins integers of both signednesses
    into float64: such a call's arrays are checked one at a time and joined
    as intp, which holds every index in [0, m)."""
    start = np.empty(0, np.uint8)
    joined = np.concatenate([start, *exclude])
    if joined.dtype.kind == "f" and all(np.asarray(e).dtype.kind in "iu" for e in exclude):
        for e in exclude:
            Scorer._check_index(e, m, "item")
        return np.concatenate([start, *exclude], dtype=np.intp, casting="unsafe")
    Scorer._check_index(joined, m, "item")
    return joined


def top_k(
    scorer: Scorer,
    k_top: int,
    exclude: Sequence[np.ndarray] | None = None,
) -> TopKLists:
    """Highest-scoring items of each of the scorer's n users, ties broken by
    ascending item index.

    `scores_for_user(i)`, the score of each of the scorer's m items for user
    i, is called once per user in user order; its rows are only read, never
    written, so they may be views of a block the scorer keeps (see Scorer).
    `exclude` gives per-user item indices to leave out of the lists
    (typically each user's training items), one entry per user: another
    length raises ValueError, and an item outside [0, m) IndexError.  NaN
    scores rank last.

    Rows of up to BLOCK_RANK_MAX_M items are copied into blocks of about
    RANK_BLOCK_BYTES and ranked a block at a time, as numpy's per-call cost
    outweighs a narrow row's partition and sort.  Wider rows are ranked one
    at a time: there a block's extra full-width passes (the copy and the
    count) cost more than the calls it saves.  Both give the same lists.

    A FactorModel's row is within D_i of the exact one (see its score_rows).
    If each of the row's k_top + 1 best candidates leads the next by more
    than the gap 2 D_i, no score moved past another, and the list is the
    exact row's, items and order.  Any other row is ranked again from
    `_exact_rows`.  Only the list's scores may differ in the last bits.
    """
    n, m = scorer.n, scorer.m
    if k_top < 1:
        raise ValueError(f"k_top must be >= 1, got {k_top}")
    if exclude is not None and len(exclude) != n:
        raise ValueError(f"exclude holds {len(exclude)} entries for {n} users")
    exclude = [np.empty(0, np.intp)] * n if exclude is None else exclude
    counts = [len(e) for e in exclude]
    joined = _joined_exclusions([e for e, count in zip(exclude, counts) if count], m)
    rows = map(scorer.scores_for_user, range(n))
    gaps = 2 * scorer._cached_norms()[-1] if isinstance(scorer, FactorModel) else None

    def or_exact(i, ranked):  # a list not certified is ranked from the exact row, in float64
        return ranked or _rank_row(np.asarray(scorer._exact_rows(i, i + 1)[0], np.float64),
                                   k_top, exclude[i])

    if m <= k_top or m > BLOCK_RANK_MAX_M:
        gap = [None] * n if gaps is None else gaps.tolist()
        lists = [or_exact(i, _rank_row(np.asarray(row, np.float64), k_top, exclude[i], gap[i]))
                 for i, row in enumerate(rows)]
    else:
        lists, block = [], np.empty((_block_rows(m), m))
        bounds = np.cumsum([0, *counts]).tolist()  # user i's are joined[bounds[i]:bounds[i + 1]]
        for lo in range(0, n, len(block)):
            size = min(len(block), n - lo)
            for r in range(size):
                block[r] = next(rows)
            excluded = (np.repeat(np.arange(size), counts[lo:lo + size]),
                        joined[bounds[lo]:bounds[lo + size]])
            ranked = _rank_block(block[:size], k_top, exclude[lo:lo + size], excluded,
                                 None if gaps is None else gaps[lo:lo + size])
            lists += [or_exact(lo + r, ranked_r) for r, ranked_r in enumerate(ranked)]
    return TopKLists(items=[top for top, _ in lists], scores=[scores for _, scores in lists])


def _check_contents(path, n: int, m: int, k: int, r_max: float, *factors: np.ndarray) -> None:
    """What a model file may hold, checked by `save_model` before it opens
    the file and by `load_model` after it reads one: dimensions of at least
    1, an `r_max` that is a finite positive number, and finite factors, given as
    float64 arrays, of magnitude at most 2**400 (the top of
    `GEMM_NORMS`).  Under that bound no dot product, norm or product of norms
    of rows of up to 2**200 entries overflows.  Raises ValueError naming
    `path`."""
    if n < 1 or m < 1 or k < 1:
        raise ValueError(f"{path}: impossible dimensions ({n}, {m}, {k})")
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"{path}: r_max must be finite and > 0, got {r_max}")
    if not all(np.isfinite(f).all() for f in factors):
        raise ValueError(f"{path}: factor matrices hold non-finite values")
    if any(max(f.max(), -f.min()) > GEMM_NORMS[1] for f in factors):
        raise ValueError(f"{path}: factor matrices hold values of magnitude above 2**400")


def save_model(model: FactorModel, path: str | Path) -> None:
    """Write the model in the fixed little-endian binary format.

    Layout: magic `PBMF`, version byte, n/m/k as u64, mode byte
    (0 = dot, 1 = cosine), r_max as f64, then U row-major and V row-major
    as f64.  Round-trips bit-exactly.  A model that :func:`load_model` would
    refuse raises ValueError before the file is opened, so no file is
    written.
    """
    r_max = float(model.r_max)
    U, V = (np.ascontiguousarray(f, dtype="<f8") for f in (model.U, model.V))
    _check_contents(path, model.n, model.m, model.k, r_max, U, V)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, model.n, model.m, model.k,
                          _MODE_CODES[model.mode], r_max)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(U)
        fh.write(V)


def load_model(path: str | Path) -> FactorModel:
    """Read a model written by :func:`save_model`.

    Raises :class:`ValueError` naming the file for a file of another kind
    or version, for a payload of another length than the header's
    dimensions give, and for contents that `save_model` refuses to write
    (see `_check_contents`).  A `FactorModel` built by hand is not checked.
    """
    blob = Path(path).read_bytes()
    if len(blob) >= len(MAGIC) and blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a factor-model file (bad magic)")
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    _, version, n, m, k, mode_code, r_max = _HEADER.unpack_from(blob)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if mode_code not in _MODE_NAMES:
        raise ValueError(f"{path}: unknown prediction mode code {mode_code}")
    expected = _HEADER.size + (n * k + m * k) * 8
    if len(blob) != expected:
        raise ValueError(
            f"{path}: payload does not match header dimensions "
            f"(expected {expected} bytes, found {len(blob)})"
        )
    flat = np.frombuffer(blob, dtype="<f8", count=n * k + m * k, offset=_HEADER.size)
    _check_contents(path, n, m, k, r_max, flat)
    U = flat[: n * k].reshape(n, k).astype(np.float64)
    V = flat[n * k :].reshape(m, k).astype(np.float64)
    return FactorModel(U=U, V=V, mode=_MODE_NAMES[mode_code], r_max=r_max)
