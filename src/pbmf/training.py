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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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


def gradients(u: np.ndarray, v: np.ndarray, ratings: np.ndarray, mode: str, r_max: float,
              m: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of each sample's loss in its rows of `u` and `v`.

    Row t of the (b, k) arrays `u` and `v` and entry t of `ratings` are one
    sample.  "dot" mode differentiates (r - u . v)^2.  "cosine" mode
    differentiates L = (r/r_max - c)^2 + beta * (c - 1/m)^2 with
    c = cos(u, v); with g = dL/dc = -2 (r/r_max - c) + 2 beta (c - 1/m):

        grad_u = g * (v / (|u| |v|) - c * u / |u|^2)
        grad_v = g * (u / (|u| |v|) - c * v / |v|^2)

    The direction of each gradient is tangential (grad_u . u = 0), because
    the cosine is invariant to the length of either vector.  Every
    denominator is floored at NORM_EPSILON: |u| |v| in `model.cosine`, which
    the model scores with too, and |u|^2, |v|^2 here.
    """
    dots = np.einsum("ij,ij->i", u, v)[:, None]
    ratings = ratings[:, None]
    if mode == "dot":
        g = -2.0 * (ratings - dots)
        return g * v, g * u
    nu2 = np.einsum("ij,ij->i", u, u)[:, None]
    nv2 = np.einsum("ij,ij->i", v, v)[:, None]
    c, denom = cosine(dots, nu2, nv2)
    g = -2.0 * (ratings / r_max - c) + 2.0 * beta * (c - 1.0 / m)
    grad_u = g * (v / denom - c / np.maximum(nu2, NORM_EPSILON) * u)
    grad_v = g * (u / denom - c / np.maximum(nv2, NORM_EPSILON) * v)
    return grad_u, grad_v


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


def train(
    dataset: RatingsDataset, config: TrainConfig
) -> tuple[FactorModel, list[SampleLossBreakdown]]:
    """Run SGD and return the model plus per-epoch loss totals.

    Every epoch visits each interaction once, in a fresh seeded shuffled
    order, and applies u <- u - lr * grad_u, v <- v - lr * grad_v,
    with both gradients evaluated at the pre-update values.  The run is
    bit-deterministic for a fixed (dataset, config).  A non-finite epoch
    loss raises :class:`RuntimeError`.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    mode = "dot" if config.algorithm == "classic_mf" else "cosine"
    beta = config.beta if config.algorithm == "position_bias_mf" else 0.0
    model = init_model(dataset.n, dataset.m, config.k, seed=config.seed,
                       scale=config.init_scale, mode=mode, r_max=dataset.r_max)
    # The shuffle stream is separate from the init stream so visit order
    # never depends on how many factors were drawn.
    shuffle_rng = np.random.default_rng([config.seed, 1])
    U, V = model.U, model.V
    lr = config.learning_rate
    history: list[SampleLossBreakdown] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(dataset))
        # A step's wave is 1 + the latest wave of its user or its item, so no
        # two steps of a wave share a factor row (the fancy-index updates below
        # are exact) and each comes after every earlier step on its rows:
        # running the waves in turn is the shuffled order up to float rounding.
        last_user, last_item, waves = [0] * dataset.n, [0] * dataset.m, []
        for i, j in zip(dataset.users[order].tolist(), dataset.items[order].tolist()):
            wave = max(last_user[i], last_item[j]) + 1
            last_user[i] = last_item[j] = wave
            waves.append(wave)
        waves = np.array(waves)
        order = order[np.argsort(waves, kind="stable")]
        bounds = np.bincount(waves).cumsum().tolist()  # wave w is order[bounds[w-1]:bounds[w]]
        users, items, ratings = dataset.users[order], dataset.items[order], dataset.ratings[order]
        # A runaway learning rate overflows factors to inf/nan; suppress the
        # per-op warnings and rely on the epoch-end divergence check instead.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in zip(bounds, bounds[1:]):
                i, j = users[lo:hi], items[lo:hi]
                grad_u, grad_v = gradients(U[i], V[j], ratings[lo:hi], mode,
                                           dataset.r_max, dataset.m, beta)
                U[i] -= lr * grad_u
                V[j] -= lr * grad_v
            losses = full_loss(model, dataset, beta)
        if not math.isfinite(losses.total):
            raise RuntimeError(
                f"training diverged at epoch {epoch}: non-finite loss; "
                f"try a learning_rate smaller than {lr}"
            )
        history.append(losses)
    return model, history


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
