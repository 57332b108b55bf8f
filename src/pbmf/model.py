"""Latent-factor model: dot and cosine predictions, top-k lists, persistence."""

from __future__ import annotations

import math
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


def cosine(dots: np.ndarray, u_sq: np.ndarray, v_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosines u . v / max(|u| |v|, NORM_EPSILON) from the dot products and
    squared norms of the pairs, and the denominators they were divided by."""
    denom = np.maximum(np.sqrt(u_sq) * np.sqrt(v_sq), NORM_EPSILON)
    return dots / denom, denom


class Scorer:
    """What the metrics read of a scorer, derived from the subclass's
    `pair_scores(users, items)`, its `r_max` and its item count `m`.
    `pair_scores` also takes one user index against an array of items."""

    def normalized_scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        return self.pair_scores(users, items)

    def predicted_ratings(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Normalized scores mapped back to the rating scale [0, r_max]."""
        return np.clip(self.normalized_scores(users, items), 0.0, 1.0) * self.r_max

    def scores_for_user(self, i: int) -> np.ndarray:
        """Pair score of (i, j) for every item j, from one `pair_scores` call."""
        return self.pair_scores(i, np.arange(self.m))


@dataclass
class FactorModel(Scorer):
    """User factors U (n x k) and item factors V (m x k) plus a prediction mode.

    "dot" mode scores a pair with U_i . V_j; "cosine" mode with their
    :func:`cosine`, which is invariant to the scale of either factor row.
    `r_max` carries the rating scale of the training data so scores can be
    mapped back to ratings.

    A cosine model caches the squared norms of V's rows at its first
    :meth:`scores_for_user` call and makes V read-only from then on, so an
    in-place write raises ValueError instead of ranking with stale norms.
    Change factors with ``dataclasses.replace(model, V=...)`` or a new
    FactorModel; assigning a new array to ``V`` also recomputes the norms.
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
        self._v_sq: tuple[np.ndarray, np.ndarray] | None = None  # (V, its squared row norms)

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

    def pair_scores(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Score of each (users[t], items[t]) pair: U_i . V_j in dot mode,
        their cosine in cosine mode.  The pairs are scored in blocks of about
        CHUNK_BYTES of gathered rows; each score is the same per-row reduction
        as in one gather of all N pairs, bit for bit."""
        if len(users) != len(items):
            raise ValueError(f"{len(users)} users but {len(items)} items")
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
                scores[block] = cosine(dots, np.einsum("ij,ij->i", us, us),
                                       np.einsum("ij,ij->i", vs, vs))[0]
        return scores

    def scores_for_user(self, i: int) -> np.ndarray:
        """Ranking score of every item for user i (mode-dependent).  One V @ u,
        which can differ in the last bit from Scorer's per-pair scores.  In
        cosine mode the first call caches V's squared row norms for every
        later call and makes V read-only."""
        u = self.U[i]
        dots = self.V @ u
        if self.mode == "dot":
            return dots
        if self._v_sq is None or self._v_sq[0] is not self.V:
            self.V.setflags(write=False)
            self._v_sq = (self.V, np.einsum("ij,ij->i", self.V, self.V))
        return cosine(dots, np.einsum("j,j", u, u), self._v_sq[1])[0]

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


def top_k(
    scorer: object,
    n_users: int,
    k_top: int,
    exclude: Sequence[np.ndarray] | None = None,
) -> TopKLists:
    """Highest-scoring items per user, ties broken by ascending item index.

    `scorer` exposes scores_for_user(i), the score of every item for user i;
    its rows are only read, never written.  `exclude` gives per-user item
    indices to leave out of the lists (typically each user's training
    items).  NaN scores rank last.
    """
    if k_top < 1:
        raise ValueError(f"k_top must be >= 1, got {k_top}")
    score_row = scorer.scores_for_user
    items: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    for i in range(n_users):
        row = np.asarray(score_row(i), dtype=np.float64)
        m = row.shape[0]
        if m > k_top:
            # Keep every item not worse than the k-th best candidate.  With the
            # excluded items at +inf in the negated copy, a finite k-th value
            # is that candidate's; a k-th of +inf or NaN keeps every item.  The
            # ties at the k-th score and the NaNs stay in, so the stable sort
            # below orders exactly as a sort of all candidates would.
            neg = -row
            if exclude is not None:
                neg[exclude[i]] = np.inf
            neg.partition(k_top - 1)
            near = np.flatnonzero(~(row < -neg[k_top - 1]))
        else:
            near = np.arange(m)
        if exclude is not None:
            excluded = np.zeros(m, dtype=bool)
            excluded[exclude[i]] = True
            near = near[~excluded[near]]
        # Stable sort on the negated scores keeps ascending item index
        # within every group of tied scores, and puts NaN last.
        top = near[np.argsort(-row[near], kind="stable")[:k_top]]
        items.append(top)
        scores.append(row[top])
    return TopKLists(items=items, scores=scores)


def save_model(model: FactorModel, path: str | Path) -> None:
    """Write the model in the fixed little-endian binary format.

    Layout: magic `PBMF`, version byte, n/m/k as u64, mode byte
    (0 = dot, 1 = cosine), r_max as f64, then U row-major and V row-major
    as f64.  Round-trips bit-exactly.
    """
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        model.n,
        model.m,
        model.k,
        _MODE_CODES[model.mode],
        float(model.r_max),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(model.U, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.V, dtype="<f8").tobytes())


def load_model(path: str | Path) -> FactorModel:
    """Read a model written by :func:`save_model`.

    Raises :class:`ValueError` naming the file for a file of another kind
    or version and for an inconsistent payload, including non-finite
    factors and an `r_max` that is not a finite positive number.
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
    if n < 1 or m < 1 or k < 1:
        raise ValueError(f"{path}: impossible dimensions ({n}, {m}, {k})")
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"{path}: r_max must be finite and > 0, got {r_max}")
    expected = _HEADER.size + (n * k + m * k) * 8
    if len(blob) != expected:
        raise ValueError(
            f"{path}: payload does not match header dimensions "
            f"(expected {expected} bytes, found {len(blob)})"
        )
    flat = np.frombuffer(blob, dtype="<f8", count=n * k + m * k, offset=_HEADER.size)
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: factor matrices hold non-finite values")
    U = flat[: n * k].reshape(n, k).astype(np.float64)
    V = flat[n * k :].reshape(m, k).astype(np.float64)
    return FactorModel(U=U, V=V, mode=_MODE_NAMES[mode_code], r_max=r_max)
