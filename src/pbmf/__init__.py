"""Matrix-factorization recommender toolkit with a position-bias penalty.

Trains latent-factor models by per-sample SGD in three flavors (plain dot
product, cosine-normalized, and cosine with a penalty pulling scores toward
the uniform click probability 1/m), plus random/Zipf placement baselines and
an evaluation harness for MAE, Matthew degree and the position-bias metric.
"""

from .baselines import RandomScorer, ZipfScorer, popularity_ranks
from .data import (
    EmptyDatasetError,
    RatingsDataset,
    RatingsParseError,
    SchemaError,
    SplitError,
    SplitSpec,
    load_csv,
    load_movielens,
    split,
)
from .metrics import (
    MetricsReport,
    REPORT_COLUMNS,
    evaluate_all,
    mae,
    matthew_degree,
    position_bias_metric,
    report_row,
)
from .model import (
    FactorModel,
    ModelCorruptionError,
    ModelFormatError,
    TopKLists,
    init_model,
    load_model,
    save_model,
    top_k,
)
from .synthetic import write_movielens_file, zipf_popularity_dataset
from .training import (
    ALGORITHMS,
    DivergenceError,
    SampleLossBreakdown,
    TrainConfig,
    classic_sample_gradients,
    full_loss,
    sample_gradients,
    save_loss_history,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "DivergenceError",
    "EmptyDatasetError",
    "FactorModel",
    "MetricsReport",
    "ModelCorruptionError",
    "ModelFormatError",
    "REPORT_COLUMNS",
    "RandomScorer",
    "RatingsDataset",
    "RatingsParseError",
    "SampleLossBreakdown",
    "SchemaError",
    "SplitError",
    "SplitSpec",
    "TopKLists",
    "TrainConfig",
    "ZipfScorer",
    "classic_sample_gradients",
    "evaluate_all",
    "full_loss",
    "init_model",
    "load_csv",
    "load_model",
    "load_movielens",
    "mae",
    "matthew_degree",
    "popularity_ranks",
    "position_bias_metric",
    "report_row",
    "sample_gradients",
    "save_loss_history",
    "save_model",
    "split",
    "top_k",
    "train",
    "write_movielens_file",
    "zipf_popularity_dataset",
]
