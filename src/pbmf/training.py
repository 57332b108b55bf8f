"""SGD for three matrix-factorization losses.

Three algorithms share one training loop and one batched gradient kernel,
``gradients``, and differ only in the loss it differentiates:

* ``classic_mf`` — plain least squares on the dot product,
  (r - U_i . V_j)^2.
* ``cosine_mf`` — least squares on the cosine-normalized score against the
  normalized rating, (r/r_max - c)^2 with c = cos(U_i, V_j).
* ``position_bias_mf`` — the cosine loss plus a penalty beta * (c - 1/m)^2
  that pulls every predicted score toward the uniform click probability
  1/m over the m items, trading a little accuracy for a flatter score
  distribution.

Each epoch applies one SGD step per interaction in a shuffled order, run
as conflict-free waves of batched updates: steps that share neither a user
nor an item commute.  Gradients are analytic and validated against central
finite differences in the test suite.  With beta = 0 the penalty path is
the cosine path, down to the bit: ``position_bias_mf`` at beta = 0 and
``cosine_mf`` run the exact same arithmetic.
``train`` is ``train_runs`` of one config; ``train_runs`` trains configs
that differ only in ``algorithm`` and ``beta``, dot and cosine mode mixed,
in lockstep.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import RatingsDataset
from .model import NORM_EPSILON, FactorModel, cosine, init_model

ALGORITHMS = ("classic_mf", "cosine_mf", "position_bias_mf")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    algorithm: str = "position_bias_mf"
    k: int = 32
    learning_rate: float = 0.01
    beta: float = 0.0
    epochs: int = 20
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        # NaN fails every comparison, so these bounds also reject it; ±inf falls outside.
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.beta and self.algorithm != "position_bias_mf":  # only it has a penalty
            raise ValueError(f"beta {self.beta} applies only to position_bias_mf, "
                             f"not to {self.algorithm}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.init_scale < math.inf:
            raise ValueError(f"init_scale must be finite and > 0, got {self.init_scale}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class SampleLossBreakdown:
    """Loss split into its fit and penalty parts; total = fit + beta * penalty."""

    fit_term: float
    penalty_term: float
    total: float


def gradients(x: np.ndarray, ratings: np.ndarray, mode: str, r_max: float,
              m: int, beta: float | np.ndarray) -> np.ndarray:
    """Analytic gradients of each sample's loss in its user and item rows.

    `x` stacks the pairs as (..., 2, b, k): x[..., 0, t] is sample t's user
    row u, x[..., 1, t] its item row v, and entry t of `ratings` its rating.
    Leading axes hold independent runs, with `beta` a float or one value per
    run shaped (R, 1, 1, 1).  The result has the shape of `x`: grad_u on the
    user side, grad_v on the item side.  "dot" mode differentiates
    (r - u . v)^2.  "cosine" mode differentiates L = (r/r_max - c)^2 + beta * (c - 1/m)^2 with
    c = cos(u, v); with g = dL/dc = -2 (r/r_max - c) + 2 beta (c - 1/m):

        grad_u = g * (v / (|u| |v|) - c * u / |u|^2)
        grad_v = g * (u / (|u| |v|) - c * v / |v|^2)

    Both sides are one expression over `x` and its pair-swapped view.  The
    direction of each gradient is tangential (grad_u . u = 0), because
    the cosine is invariant to the length of either vector.  Every
    denominator is floored at NORM_EPSILON: |u| |v| in `model.cosine`, which
    the model scores with too, and |u|^2, |v|^2 here.
    """
    swapped = x[..., ::-1, :, :]  # (v, u): a view, no copy
    dots = np.einsum("...ij,...ij->...i", x[..., :1, :, :], x[..., 1:, :, :])[..., None]
    ratings = ratings[:, None]
    if mode == "dot":
        return -2.0 * (ratings - dots) * swapped
    sq = np.einsum("...ij,...ij->...i", x, x)[..., None]
    norms = np.sqrt(sq)
    c, denom = cosine(dots, norms[..., :1, :, :], norms[..., 1:, :, :])
    g = -2.0 * (ratings / r_max - c) + 2.0 * beta * (c - 1.0 / m)
    return g * (swapped / denom - c / np.maximum(sq, NORM_EPSILON) * x)


def full_loss(
    model: FactorModel,
    dataset: RatingsDataset,
    beta: float = 0.0,
) -> SampleLossBreakdown:
    """Loss summed over every interaction in `dataset` (read-only, vectorized).

    A dot-mode model gets the squared residual of its dot products; a
    cosine-mode model the cosine fit plus beta times the 1/m penalty.
    """
    scores = model.pair_scores(dataset.users, dataset.items)
    if model.mode == "dot":
        fit = float(((dataset.ratings - scores) ** 2).sum())
        return SampleLossBreakdown(fit_term=fit, penalty_term=0.0, total=fit)
    fit = float(((dataset.ratings / dataset.r_max - scores) ** 2).sum())
    penalty = float(((scores - 1.0 / dataset.m) ** 2).sum())
    return SampleLossBreakdown(fit_term=fit, penalty_term=penalty, total=fit + beta * penalty)


def _wave_schedule(users: list[int], items: list[int], n: int, m: int) -> np.ndarray:
    """Wave of each step in turn: 1 + the latest wave of its user or its item.
    A function of its own, so that its lists and ints are freed on return
    instead of pinning memory for the rest of the epoch."""
    last_user, last_item, waves = [0] * n, [0] * m, []
    add_wave = waves.append
    for i, j in zip(users, items):
        a, b = last_user[i], last_item[j]
        wave = a + 1 if a > b else b + 1
        last_user[i] = last_item[j] = wave
        add_wave(wave)
    return np.array(waves)


def train(
    dataset: RatingsDataset, config: TrainConfig
) -> tuple[FactorModel, list[SampleLossBreakdown]]:
    """Run SGD and return the model plus per-epoch loss totals.

    Every epoch visits each interaction once, in a fresh seeded shuffled
    order, and applies u <- u - lr * grad_u, v <- v - lr * grad_v,
    with both gradients evaluated at the pre-update values.  The run is
    bit-deterministic for a fixed (dataset, config).  A non-finite epoch
    loss raises :class:`RuntimeError`.  This is :func:`train_runs` of one config;
    that trains configs differing only in `algorithm` and `beta`, of either
    mode, in one call.
    """
    result = train_runs(dataset, [config])[0]
    if isinstance(result, RuntimeError):
        raise result
    return result


def train_runs(
    dataset: RatingsDataset, configs: Sequence[TrainConfig]
) -> list[tuple[FactorModel, list[SampleLossBreakdown]] | RuntimeError]:
    """Train configs that differ only in `algorithm` and `beta` (else
    ValueError) in lockstep, dot and cosine mode mixed, all factors in one
    array F of shape (R, n + m, k), the dot-mode runs first, each run's users
    first and then its items: one wave schedule per epoch, and per wave one
    gather of the stacked (user, item) pairs, one `gradients` call and one
    update for each mode's slice of the runs, and one write-back.  For each
    config, in input order, what :func:`train` returns for it alone, bit for
    bit, or the RuntimeError it would raise."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    if not configs:
        raise ValueError("lockstep training needs at least one config")
    first = configs[0]
    if any(replace(c, algorithm=first.algorithm, beta=first.beta) != first for c in configs):
        raise ValueError("lockstep configs must share all but algorithm and beta")
    # Run r of F trains configs[slot[r]]: the dot-mode runs first, so each
    # mode's runs are one contiguous slice of F.
    slot = sorted(range(len(configs)), key=lambda c: configs[c].algorithm != "classic_mf")
    dot = sum(c.algorithm == "classic_mf" for c in configs)
    betas = [configs[c].beta for c in slot]
    start = init_model(dataset.n, dataset.m, first.k, seed=first.seed, scale=first.init_scale)
    n = dataset.n
    F = np.empty((len(configs), n + dataset.m, first.k))
    F[:, :n], F[:, n:] = start.U, start.V  # no concatenated copy: peak memory as for U and V
    del start  # one run's factors are F's rows: keep no second copy
    modes = [(mode, part, np.array(betas[part])[:, None, None, None])
             for mode, part in (("dot", slice(0, dot)), ("cosine", slice(dot, len(configs))))
             if part.start < part.stop]
    runs = [(FactorModel(U=F[r, :n], V=F[r, n:], mode="dot" if r < dot else "cosine",
                         r_max=dataset.r_max), []) for r in range(len(configs))]
    errors: dict[int, RuntimeError] = {}
    # The shuffle stream is separate from the init stream so visit order
    # never depends on how many factors were drawn.
    shuffle_rng = np.random.default_rng([first.seed, 1])
    lr = first.learning_rate
    for epoch in range(1, first.epochs + 1):
        order = shuffle_rng.permutation(len(dataset))
        # No two steps of a wave share a factor row (the fancy-index updates
        # below are exact) and each comes after every earlier step on its rows:
        # running the waves in turn is the shuffled order up to float rounding.
        waves = _wave_schedule(dataset.users[order].tolist(), dataset.items[order].tolist(),
                               dataset.n, dataset.m)
        sizes = np.bincount(waves)
        # The stable order is the same in any dtype; below 65,536 waves numpy
        # radix-sorts the narrow one.
        order = order[np.argsort(waves.astype(np.min_scalar_type(len(sizes))), kind="stable")]
        bounds = sizes.cumsum().tolist()  # wave w is order[bounds[w-1]:bounds[w]]
        rows = np.stack([dataset.users[order], dataset.items[order] + n])  # rows of F
        ratings = dataset.ratings[order]
        # A runaway learning rate overflows factors to inf/nan; suppress the
        # per-op warnings and rely on the epoch-end divergence check instead.
        # A diverged run's rows go on as NaN, which touches no other run's.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in zip(bounds, bounds[1:]):
                at = rows[:, lo:hi]
                x = np.take(F, at, axis=1)  # (R, 2, b, k); a copy, faster than F[:, at]
                for mode, part, beta in modes:
                    xs = x[part]  # a view: the update writes into x
                    xs -= lr * gradients(xs, ratings[lo:hi], mode, dataset.r_max, dataset.m, beta)
                F[:, at] = x
            for r, (model, history) in enumerate(runs):
                if r not in errors:
                    history.append(full_loss(model, dataset, betas[r]))
                    if not math.isfinite(history[-1].total):
                        errors[r] = RuntimeError(f"training diverged at epoch {epoch}: non-finite "
                                                 f"loss; try a learning_rate smaller than {lr}")
        if len(errors) == len(runs):
            break
    return [errors.get(r, runs[r]) for r in map(slot.index, range(len(configs)))]


def save_loss_history(
    history: Sequence[SampleLossBreakdown], path: str | Path
) -> None:
    """Write per-epoch losses as `epoch,fit_loss,penalty_loss,total_loss`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "fit_loss", "penalty_loss", "total_loss"])
        for epoch, entry in enumerate(history, start=1):
            writer.writerow(
                [epoch, repr(entry.fit_term), repr(entry.penalty_term), repr(entry.total)]
            )
