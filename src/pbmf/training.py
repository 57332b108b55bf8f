"""Per-sample SGD for three matrix-factorization losses.

Three algorithms share one training loop and differ only in the per-sample
gradient:

* ``classic_mf`` — plain least squares on the dot product,
  (r - U_i . V_j)^2.
* ``cosine_mf`` — least squares on the cosine-normalized score against the
  normalized rating, (r/r_max - c)^2 with c = cos(U_i, V_j).
* ``position_bias_mf`` — the cosine loss plus a penalty beta * (c - 1/m)^2
  that pulls every predicted score toward the uniform click probability
  1/m over the m items, trading a little accuracy for a flatter score
  distribution.

Gradients are analytic and validated against central finite differences in
the test suite.  With beta = 0 the penalty path is the cosine path, down to
the bit: ``position_bias_mf`` at beta = 0 and ``cosine_mf`` run the exact
same arithmetic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import EmptyDatasetError, RatingsDataset
from .model import NORM_EPSILON, FactorModel, init_model

ALGORITHMS = ("classic_mf", "cosine_mf", "position_bias_mf")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


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


def sample_gradients(
    u: np.ndarray,
    v: np.ndarray,
    rating: float,
    r_max: float,
    m: int,
    beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the per-sample loss
    L = (r/r_max - c)^2 + beta * (c - 1/m)^2 with respect to u and v.

    With c = cos(u, v) and g = dL/dc = -2 (r/r_max - c) + 2 beta (c - 1/m):

        grad_u = g * (v / (|u| |v|) - c * u / |u|^2)
        grad_v = g * (u / (|u| |v|) - c * v / |v|^2)

    The direction of each gradient is tangential (grad_u . u = 0), because
    the cosine is invariant to the length of either vector.  Every
    denominator is floored at NORM_EPSILON, as in the model's scoring.
    """
    nu2 = float(u @ u)
    nv2 = float(v @ v)
    nu = math.sqrt(nu2)
    nv = math.sqrt(nv2)
    denom = max(nu * nv, NORM_EPSILON)
    c = float(u @ v) / denom
    g = -2.0 * (rating / r_max - c) + 2.0 * beta * (c - 1.0 / m)
    grad_u = g * (v / denom - (c / max(nu2, NORM_EPSILON)) * u)
    grad_v = g * (u / denom - (c / max(nv2, NORM_EPSILON)) * v)
    return grad_u, grad_v


def classic_sample_gradients(
    u: np.ndarray, v: np.ndarray, rating: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the plain squared residual (r - u . v)^2."""
    residual = rating - float(u @ v)
    grad_u = -2.0 * residual * v
    grad_v = -2.0 * residual * u
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
    """Run per-sample SGD and return the model plus per-epoch loss totals.

    Every epoch visits each interaction once, in a fresh seeded shuffled
    order, and applies u <- u - lr * grad_u, v <- v - lr * grad_v,
    with both gradients evaluated at the pre-update values.  The run is
    bit-deterministic for a fixed (dataset, config).
    """
    if len(dataset) == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    classic = config.algorithm == "classic_mf"
    beta = config.beta if config.algorithm == "position_bias_mf" else 0.0
    model = init_model(
        dataset.n,
        dataset.m,
        config.k,
        seed=config.seed,
        scale=config.init_scale,
        mode="dot" if classic else "cosine",
        r_max=dataset.r_max,
    )
    # The shuffle stream is separate from the init stream so visit order
    # never depends on how many factors were drawn.
    shuffle_rng = np.random.default_rng([config.seed, 1])
    U, V = model.U, model.V
    lr = config.learning_rate
    r_max = dataset.r_max
    m = dataset.m
    history: list[SampleLossBreakdown] = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(dataset))
        epoch_users = dataset.users[order]
        epoch_items = dataset.items[order]
        epoch_ratings = dataset.ratings[order]
        # A runaway learning rate overflows factors to inf/nan; suppress the
        # per-op warnings and rely on the epoch-end divergence check instead.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, j, r in zip(epoch_users, epoch_items, epoch_ratings):
                u = U[i]
                v = V[j]
                if classic:
                    grad_u, grad_v = classic_sample_gradients(u, v, r)
                else:
                    grad_u, grad_v = sample_gradients(u, v, r, r_max, m, beta)
                u -= lr * grad_u
                v -= lr * grad_v
            losses = full_loss(model, dataset, beta)
        if not math.isfinite(losses.total):
            raise DivergenceError(
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
