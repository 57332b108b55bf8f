"""Evaluation metrics: MAE, Matthew degree, and the position-bias score.

All three take a "scorer": any object exposing

    predicted_ratings(users, items) -> rating-scale predictions
    normalized_scores(users, items) -> scores on the [~0, 1] scale
    scores_for_user(i)              -> ranking scores over all items

Trained factor models and the baselines all satisfy this.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .data import RatingsDataset
from .model import TopKLists, top_k

MATTHEW_VARIANTS = ("literal", "pareto")


@dataclass(frozen=True)
class MetricsReport:
    """One report CSV row, fields in column order.  k/epochs/seed describe the
    training run (0 when nothing was trained); the four measured fields stay
    None for a run that failed."""

    algorithm: str
    beta: float
    k: int
    epochs: int
    seed: int
    k_top: int
    mae: float | None = None
    matthew_degree: float | None = None  # math.inf when all list frequencies are equal
    position_bias: float | None = None
    test_size: int | None = None


REPORT_COLUMNS = [f.name for f in fields(MetricsReport)]


def mae(scorer, test: RatingsDataset) -> float:
    """Mean absolute error of rating-scale predictions over the test set."""
    if len(test) == 0:
        raise ValueError("cannot compute MAE on an empty test set")
    preds = np.asarray(scorer.predicted_ratings(test.users, test.items), dtype=np.float64)
    return float(np.mean(np.abs(preds - test.ratings)))


def position_bias_metric(scorer, test: RatingsDataset, m: int) -> float:
    """Mean squared gap between normalized scores and the uniform target 1/m.

    Zero exactly when the scorer emits 1/m for every test pair: the ideal
    of a recommender whose scores carry no position bias at all.
    """
    if len(test) == 0:
        raise ValueError("cannot compute the position-bias metric on an empty test set")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    scores = np.asarray(scorer.normalized_scores(test.users, test.items), dtype=np.float64)
    return float(np.mean((scores - 1.0 / m) ** 2))


def matthew_degree(lists: TopKLists, variant: str = "literal") -> float:
    """Skew of item frequencies across the top-k lists.

    With x_i the number of lists item i appears in (restricted to items
    appearing at least once) and n' the number of such items:

        literal:  1 + n' / sum(ln(x_i / max(x)))
        pareto:   1 + n' / sum(ln(x_i / min(x)))

    When every frequency is equal the sum is 0 and the degree is reported
    as the +inf sentinel.  The literal variant is <= 1 whenever finite,
    the pareto variant >= 1.
    """
    if variant not in MATTHEW_VARIANTS:
        raise ValueError(f"variant must be one of {MATTHEW_VARIANTS}, got {variant!r}")
    non_empty = [arr for arr in lists.items if len(arr)]
    if not non_empty:
        return math.inf
    counts = np.bincount(np.concatenate(non_empty))
    x = counts[counts > 0].astype(np.float64)
    ref = x.max() if variant == "literal" else x.min()
    total = float(np.log(x / ref).sum())
    if total == 0.0:
        return math.inf
    return 1.0 + x.size / total


def evaluate_all(
    scorer,
    train: RatingsDataset,
    test: RatingsDataset,
    k_top: int = 10,
    matthew_variant: str = "literal",
    *,
    algorithm: str,
    beta: float = 0.0,
    k: int = 0,
    epochs: int = 0,
    seed: int = 0,
) -> MetricsReport:
    """All three metrics for one scorer, in the report row of its run.

    Top-k lists for the Matthew degree are built over all m items with each
    user's training items excluded.
    """
    lists = top_k(scorer, train.n, k_top, exclude=train.items_by_user())
    return MetricsReport(
        algorithm=algorithm,
        beta=beta,
        k=k,
        epochs=epochs,
        seed=seed,
        k_top=k_top,
        mae=mae(scorer, test),
        matthew_degree=matthew_degree(lists, matthew_variant),
        position_bias=position_bias_metric(scorer, test, train.m),
        test_size=len(test),
    )


def format_value(x: float) -> str:
    """Float cell with 6 significant digits; `inf` for the infinity sentinel."""
    if math.isinf(x):
        return "inf"
    return f"{x:.6g}"


def report_row(report: MetricsReport) -> list[str]:
    """One CSV row in REPORT_COLUMNS order; an unmeasured field is an empty cell."""
    return ["" if value is None else format_value(value) if isinstance(value, float)
            else str(value) for value in astuple(report)]
