"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Real-data checks (criterion 6) look for the full datasets through the
PBMF_ML1M / PBMF_LDOS environment variables and fall back to bundled
format-identical fixtures when they are absent.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from pbmf.baselines import ZipfScorer
from pbmf.cli import main
from pbmf.data import SplitSpec, load_csv, load_movielens, split
from pbmf.metrics import (
    REPORT_COLUMNS,
    matthew_degree,
    position_bias_metric,
)
from pbmf.model import NORM_EPSILON, TopKLists
from pbmf.synthetic import write_movielens_file, zipf_popularity_dataset
from pbmf.training import (
    TrainConfig,
    gradients,
    train,
)
from pbmf.metrics import mae as mae_metric

from conftest import DATA_DIR, make_dataset


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion}] PASS — {message}")


def central_differences(loss_fn, u, v, step=1e-6):
    grad_u = np.zeros_like(u)
    grad_v = np.zeros_like(v)
    for i in range(u.size):
        e = np.zeros_like(u)
        e[i] = step
        grad_u[i] = (loss_fn(u + e, v) - loss_fn(u - e, v)) / (2 * step)
        grad_v[i] = (loss_fn(u, v + e) - loss_fn(u, v - e)) / (2 * step)
    return grad_u, grad_v


def max_relative_error(got, want):
    scale = max(float(np.abs(want).max()), 1e-12)
    return float(np.abs(got - want).max()) / scale


def plain_loss(u, v, rating, r_max, m, beta):
    """Independent per-sample loss in plain Python math:
    (r/r_max - c)^2 + beta * (c - 1/m)^2 with the clamped cosine c."""
    c = float(u @ v) / max(math.sqrt(float(u @ u)) * math.sqrt(float(v @ v)), NORM_EPSILON)
    return (rating / r_max - c) ** 2 + beta * (c - 1.0 / m) ** 2


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    k, m, r_max = 8, 100, 5.0
    worst_pb = 0.0
    worst_classic = 0.0
    for beta in (0.0, 0.2, 1.0):
        for _ in range(100):
            u = rng.uniform(0.05, 1.0, k)
            v = rng.uniform(0.05, 1.0, k)
            rating = rng.uniform(1.0, 5.0)

            (gu,), (gv,) = gradients(u[None], v[None], np.array([rating]), "cosine", r_max, m, beta)
            fu, fv = central_differences(
                lambda a, b: plain_loss(a, b, rating, r_max, m, beta), u, v
            )
            worst_pb = max(worst_pb, max_relative_error(gu, fu), max_relative_error(gv, fv))

            (gu,), (gv,) = gradients(u[None], v[None], np.array([rating]), "dot", r_max, m, beta)
            fu, fv = central_differences(
                lambda a, b: (rating - float(a @ b)) ** 2, u, v
            )
            worst_classic = max(
                worst_classic, max_relative_error(gu, fu), max_relative_error(gv, fv)
            )
    elapsed = time.perf_counter() - started
    assert worst_pb < 1e-5
    assert worst_classic < 1e-5
    assert elapsed < 1.0
    report(1, f"analytic vs finite-difference gradients: worst rel. error "
              f"{max(worst_pb, worst_classic):.2e} over 300+ samples in {elapsed:.2f}s")


def test_criterion_2_beta_zero_reduction():
    started = time.perf_counter()
    dataset = zipf_popularity_dataset(50, 40, 20, seed=3, rating_scale=5.0,
                                      integer_ratings=True)
    assert len(dataset) == 1000
    cosine_model, cosine_hist = train(
        dataset, TrainConfig(algorithm="cosine_mf", k=8, epochs=5, seed=11)
    )
    pb_model, pb_hist = train(
        dataset, TrainConfig(algorithm="position_bias_mf", beta=0.0, k=8, epochs=5, seed=11)
    )
    elapsed = time.perf_counter() - started
    assert np.array_equal(cosine_model.U, pb_model.U)
    assert np.array_equal(cosine_model.V, pb_model.V)
    assert cosine_hist == pb_hist
    assert elapsed < 1.0
    report(2, f"position_bias_mf(beta=0) is bit-identical to cosine_mf on 1000 "
              f"interactions (models and histories) in {elapsed:.2f}s")


def test_criterion_3_loss_oracle_equivalence():
    rng = np.random.default_rng(42)
    pairs = [(u, i) for u in range(5) for i in range(7)]
    chosen = rng.permutation(len(pairs))[:20]
    dataset = make_dataset(
        users=[pairs[c][0] for c in chosen],
        items=[pairs[c][1] for c in chosen],
        ratings=rng.integers(1, 6, 20).astype(float),
        n=5,
        m=7,
    )
    beta = 0.5
    model, history = train(
        dataset, TrainConfig(algorithm="position_bias_mf", beta=beta, k=4, epochs=6, seed=3)
    )
    total = 0.0
    for i, j, r in zip(dataset.users, dataset.items, dataset.ratings):
        u = model.U[int(i)]
        v = model.V[int(j)]
        c = float(u @ v) / max(
            math.sqrt(float(u @ u)) * math.sqrt(float(v @ v)), NORM_EPSILON
        )
        total += (float(r) / dataset.r_max - c) ** 2 + beta * (c - 1.0 / dataset.m) ** 2
    difference = abs(history[-1].total - total)
    assert difference <= 1e-10
    report(3, f"trainer loss vs brute-force double loop on 5x7/20 ratings: "
              f"|diff| = {difference:.2e} <= 1e-10")


def test_criterion_4_penalty_target_fixpoint():
    m = 10

    class Constant:
        def __init__(self, value):
            self.value = value

        def normalized_scores(self, users, items):
            return np.full(len(np.asarray(users)), self.value)

    test_set = make_dataset([0, 1, 2, 0], [0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0], n=3, m=m)
    at_target = position_bias_metric(Constant(1.0 / m), test_set, m)
    assert at_target == 0.0
    at_one = position_bias_metric(Constant(1.0), test_set, m)
    assert abs(at_one - 0.81) <= 1e-12
    report(4, f"scorer at 1/m gives exactly 0; scorer at 1.0 with m=10 gives "
              f"{at_one!r} (0.81 within 1e-12)")


def test_criterion_5_debiasing_trend():
    started = time.perf_counter()
    betas = (0.0, 0.1, 1.0)
    pb_by_beta = {b: [] for b in betas}
    mae_by_beta = {b: [] for b in betas}
    for seed in range(5):
        dataset = zipf_popularity_dataset(
            200, 100, 25, seed=seed, rating_scale=5.0, integer_ratings=True
        )
        train_set, test_set = split(dataset, SplitSpec(test_fraction=0.2, seed=seed))
        for beta in betas:
            config = TrainConfig(
                algorithm="position_bias_mf", beta=beta, k=32,
                learning_rate=0.01, epochs=20, seed=seed,
            )
            model, _ = train(train_set, config)
            pb_by_beta[beta].append(position_bias_metric(model, test_set, train_set.m))
            mae_by_beta[beta].append(mae_metric(model, test_set))
    elapsed = time.perf_counter() - started

    mean_pb = {b: float(np.mean(pb_by_beta[b])) for b in betas}
    mean_mae = {b: float(np.mean(mae_by_beta[b])) for b in betas}
    assert mean_pb[1.0] < mean_pb[0.0], mean_pb
    assert mean_mae[1.0] - mean_mae[0.0] <= 0.5, mean_mae
    # sweep shape: mean position bias never increases as beta grows
    ordered = [mean_pb[b] for b in betas]
    assert all(a >= b for a, b in zip(ordered, ordered[1:])), mean_pb
    assert elapsed < 30.0
    report(5, f"5-seed Zipf synthetic: position bias {mean_pb[0.0]:.4f} -> "
              f"{mean_pb[1.0]:.4f} (beta 0 -> 1), MAE +{mean_mae[1.0] - mean_mae[0.0]:.3f} "
              f"<= 0.5, non-increasing across betas {betas}, in {elapsed:.1f}s")


def test_criterion_6_dataset_fidelity():
    ml1m_path = os.environ.get("PBMF_ML1M")
    ldos_path = os.environ.get("PBMF_LDOS")
    notes = []
    if ml1m_path:
        ds = load_movielens(ml1m_path)
        assert (ds.n, ds.m) == (6040, 3706)
        notes.append("MovieLens-1M: n=6040, m=3706")
    else:
        ds = load_movielens(DATA_DIR / "ml1m_sample.dat")
        assert (ds.n, ds.m) == (12, 9)
        notes.append("MovieLens fixture: n=12, m=9 (set PBMF_ML1M for the full check)")
    if ldos_path:
        ds = load_csv(ldos_path, has_header=True)
        assert (ds.n, ds.m) == (121, 1232)
        notes.append("LDOS-CoMoDa: n=121, m=1232")
    else:
        ds = load_csv(DATA_DIR / "ldos_sample.csv", has_header=True)
        assert (ds.n, ds.m) == (5, 7)
        notes.append("LDOS fixture: n=5, m=7 (set PBMF_LDOS for the full check)")
    report(6, "; ".join(notes))


def test_criterion_7_matthew_degree_formulas():
    def lists_with_frequencies(freqs):
        items = [np.array([j]) for j, count in enumerate(freqs) for _ in range(count)]
        return TopKLists(items=items, scores=[np.array([1.0]) for _ in items])

    skewed = lists_with_frequencies([4, 2, 1])
    literal = matthew_degree(skewed, "literal")
    pareto = matthew_degree(skewed, "pareto")
    assert abs(literal - (-0.44270)) <= 1e-4
    assert abs(pareto - 2.44270) <= 1e-4
    equal = lists_with_frequencies([3, 3, 3])
    assert matthew_degree(equal, "literal") == math.inf
    assert matthew_degree(equal, "pareto") == math.inf
    report(7, f"frequencies {{4,2,1}}: literal {literal:.5f}, pareto {pareto:.5f}; "
              f"equal frequencies -> inf sentinel")


@pytest.fixture(scope="module")
def benchmark_ratings_file(tmp_path_factory):
    """A 50k-interaction rating file in the UserID::MovieID:: format.

    Subsamples the real MovieLens-1M file when PBMF_ML1M is set; otherwise
    fabricates a format-identical file with Zipf-skewed popularity.
    """
    path = tmp_path_factory.mktemp("bench") / "ratings50k.dat"
    real = os.environ.get("PBMF_ML1M")
    if real:
        with open(real, encoding="utf-8", errors="ignore") as src, open(path, "w") as dst:
            for lineno, line in enumerate(src):
                if lineno == 50_000:
                    break
                dst.write(line)
    else:
        dataset = zipf_popularity_dataset(
            2000, 500, 25, seed=99, rating_scale=5.0, integer_ratings=True
        )
        assert len(dataset) == 50_000
        write_movielens_file(dataset, path)
    return path


def test_criterion_8_end_to_end_benchmark(benchmark_ratings_file, tmp_path):
    started = time.perf_counter()
    out = tmp_path / "results.csv"
    code = main([
        "benchmark",
        "--input", str(benchmark_ratings_file),
        "--format", "movielens",
        "--algorithms", "classic_mf,cosine_mf,position_bias_mf,random,zipf",
        "--beta", "0,0.1,1",
        "--k", "8", "--lr", "0.01", "--epochs", "3", "--seed", "42",
        "--test-fraction", "0.2", "--k-top", "10",
        "--output", str(out),
    ])
    elapsed = time.perf_counter() - started
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["algorithm"] for r in rows] == [
        "classic_mf", "cosine_mf", "position_bias_mf", "position_bias_mf",
        "position_bias_mf", "random", "zipf",
    ]
    parsed = {}
    for row in rows:
        assert row["error"] == ""
        assert float(row["mae"]) >= 0.0 and float(row["position_bias"]) >= 0.0
        parsed[(row["algorithm"], row["beta"])] = row
    cosine_mae = float(parsed[("cosine_mf", "0")]["mae"])
    random_mae = float(parsed[("random", "0")]["mae"])
    assert cosine_mae < random_mae
    assert elapsed < 60.0
    report(8, f"7-row benchmark on 50k interactions in {elapsed:.1f}s; "
              f"cosine_mf MAE {cosine_mae:.3f} < random MAE {random_mae:.3f}")


def test_criterion_9_benchmark_determinism(tmp_path):
    dataset = zipf_popularity_dataset(150, 80, 20, seed=7, rating_scale=5.0,
                                      integer_ratings=True)
    ratings = tmp_path / "ratings.dat"
    write_movielens_file(dataset, ratings)
    args = [
        "benchmark", "--input", str(ratings),
        "--algorithms", "classic_mf,cosine_mf,position_bias_mf,random,zipf",
        "--beta", "0,0.5", "--k", "6", "--epochs", "3", "--seed", "1",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report(9, f"two identical benchmark invocations produced byte-identical CSVs "
              f"({first.stat().st_size} bytes)")
