import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pbmf.model import NORM_EPSILON, FactorModel, init_model
from pbmf.training import (
    TrainConfig,
    full_loss,
    gradients,
    save_loss_history,
    train,
    train_runs,
)
from pbmf.synthetic import zipf_popularity_dataset

from conftest import make_dataset


def fd_gradients(loss_fn, u, v, step=1e-6):
    """Central finite differences of a scalar loss in both vectors."""
    grad_u = np.zeros_like(u)
    grad_v = np.zeros_like(v)
    for i in range(u.size):
        e = np.zeros_like(u)
        e[i] = step
        grad_u[i] = (loss_fn(u + e, v) - loss_fn(u - e, v)) / (2 * step)
    for i in range(v.size):
        e = np.zeros_like(v)
        e[i] = step
        grad_v[i] = (loss_fn(u, v + e) - loss_fn(u, v - e)) / (2 * step)
    return grad_u, grad_v


def relative_error(got, want):
    scale = max(float(np.abs(want).max()), 1e-12)
    return float(np.abs(got - want).max()) / scale


def plain_cosine(u, v):
    """Cosine with the clamped denominator, in plain Python math."""
    denom = max(math.sqrt(float(u @ u)) * math.sqrt(float(v @ v)), NORM_EPSILON)
    return float(u @ v) / denom


def plain_loss(u, v, rating, r_max, m, beta):
    """Per-sample loss oracle: (r/r_max - c)^2 + beta * (c - 1/m)^2."""
    c = plain_cosine(u, v)
    return (rating / r_max - c) ** 2 + beta * (c - 1.0 / m) ** 2


def one_gradient(u, v, rating, mode, r_max=5.0, m=1, beta=0.0):
    """`gradients` on a batch of one sample, returned as two vectors."""
    gu, gv = gradients(np.stack([u[None], v[None]]), np.array([rating]), mode, r_max, m, beta)
    return gu[0], gv[0]


def one_sample_loss(u, v, rating, r_max, m, beta):
    """full_loss of a cosine model over the single interaction (0, 0)."""
    model = FactorModel(U=np.array([u], dtype=float), V=np.array([v], dtype=float))
    dataset = replace(make_dataset([0], [0], [rating], n=1, m=m), r_max=r_max)
    return full_loss(model, dataset, beta)


class TestSampleLoss:
    def test_perfect_fit_no_penalty(self):
        u = np.array([1.0, 0.0])
        entry = one_sample_loss(u, u, rating=5.0, r_max=5.0, m=10, beta=0.0)
        assert entry.total == pytest.approx(0.0, abs=1e-15)

    def test_penalty_zero_at_uniform_target(self):
        # With m = 1 the uniform target is 1, hit exactly by identical vectors
        # whose norm is exactly representable (|(3, 4)| = 5).
        u = np.array([3.0, 4.0])
        entry = one_sample_loss(u, u, rating=3.0, r_max=5.0, m=1, beta=7.0)
        assert entry.penalty_term == 0.0

    def test_arithmetic_case(self):
        u = np.array([1.0, 2.0])
        v = np.array([3.0, 4.0])
        entry = one_sample_loss(u, v, rating=4.0, r_max=5.0, m=10, beta=0.5)
        c = 11.0 / (math.sqrt(5.0) * 5.0)
        assert entry.fit_term == pytest.approx((0.8 - c) ** 2, abs=1e-14)
        assert entry.penalty_term == pytest.approx((c - 0.1) ** 2, abs=1e-14)
        assert entry.total == pytest.approx((0.8 - c) ** 2 + 0.5 * (c - 0.1) ** 2, abs=1e-14)

    def test_total_combines_terms(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.uniform(0.1, 1, 4)
            v = rng.uniform(0.1, 1, 4)
            beta = rng.uniform(0, 2)
            entry = one_sample_loss(u, v, rating=3.0, r_max=5.0, m=20, beta=beta)
            assert entry.total == pytest.approx(
                entry.fit_term + beta * entry.penalty_term, abs=1e-12
            )

    def test_penalty_monotone_in_beta(self):
        # Fixed u, v with cosine above 1/m: a larger beta strictly raises the total.
        u = np.array([1.0, 2.0])
        v = np.array([3.0, 4.0])
        totals = [
            one_sample_loss(u, v, rating=4.0, r_max=5.0, m=10, beta=b).total
            for b in (0.0, 0.1, 0.5, 1.0, 2.0)
        ]
        assert all(a < b for a, b in zip(totals, totals[1:]))


class TestSampleGradients:
    def test_zero_at_stationary_sample(self):
        # Parallel vectors give c = 1; rating = r_max gives a perfect fit.
        u = np.array([0.3, 0.4])
        gu, gv = one_gradient(u, 2.0 * u, 5.0, "cosine", r_max=5.0, m=10, beta=0.0)
        np.testing.assert_allclose(gu, 0.0, atol=1e-12)
        np.testing.assert_allclose(gv, 0.0, atol=1e-12)

    def test_gradient_orthogonal_to_own_vector(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = rng.uniform(0.1, 1, 6)
            v = rng.uniform(0.1, 1, 6)
            gu, gv = one_gradient(u, v, 2.0, "cosine", r_max=5.0, m=30, beta=0.7)
            assert abs(float(gu @ u)) < 1e-10
            assert abs(float(gv @ v)) < 1e-10

    @pytest.mark.parametrize("beta", [0.0, 0.2, 1.0])
    def test_matches_finite_differences(self, beta):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = rng.uniform(0.05, 1.0, 8)
            v = rng.uniform(0.05, 1.0, 8)
            rating = rng.uniform(1.0, 5.0)
            loss_fn = lambda a, b: plain_loss(a, b, rating, 5.0, 100, beta)
            gu, gv = one_gradient(u, v, rating, "cosine", 5.0, 100, beta)
            fu, fv = fd_gradients(loss_fn, u, v)
            assert relative_error(gu, fu) < 1e-5
            assert relative_error(gv, fv) < 1e-5


class TestClassicGradients:
    def test_zero_at_fit(self):
        u = np.array([1.0, 1.0])
        v = np.array([2.0, 1.0])
        gu, gv = one_gradient(u, v, 3.0, "dot")
        np.testing.assert_allclose(gu, 0.0, atol=1e-15)
        np.testing.assert_allclose(gv, 0.0, atol=1e-15)

    def test_hand_case(self):
        gu, gv = one_gradient(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0, "dot")
        np.testing.assert_allclose(gu, [0.0, -2.0])
        np.testing.assert_allclose(gv, [-2.0, 0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = rng.uniform(-1, 1, 8)
            v = rng.uniform(-1, 1, 8)
            rating = rng.uniform(1.0, 5.0)
            loss_fn = lambda a, b: (rating - float(a @ b)) ** 2
            gu, gv = one_gradient(u, v, rating, "dot")
            fu, fv = fd_gradients(loss_fn, u, v)
            assert relative_error(gu, fu) < 1e-6
            assert relative_error(gv, fv) < 1e-6


def two_array_gradients(u, v, ratings, mode, r_max, m, beta):
    """The kernel on separate (..., b, k) user and item rows: grad_u, grad_v."""
    dots = np.einsum("...ij,...ij->...i", u, v)[..., None]
    ratings = ratings[:, None]
    if mode == "dot":
        g = -2.0 * (ratings - dots)
        return g * v, g * u
    nu2 = np.einsum("...ij,...ij->...i", u, u)[..., None]
    nv2 = np.einsum("...ij,...ij->...i", v, v)[..., None]
    denom = np.maximum(np.sqrt(nu2) * np.sqrt(nv2), NORM_EPSILON)
    c = dots / denom
    g = -2.0 * (ratings / r_max - c) + 2.0 * beta * (c - 1.0 / m)
    grad_u = g * (v / denom - c / np.maximum(nu2, NORM_EPSILON) * u)
    grad_v = g * (u / denom - c / np.maximum(nv2, NORM_EPSILON) * v)
    return grad_u, grad_v


class TestStackedKernel:
    def test_equals_two_array_kernel_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(runs=st.integers(1, 4), b=st.integers(1, 30), k=st.integers(1, 40),
                          seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["dot", "cosine"]),
                          zero_rows=st.sampled_from(["none", "users", "items", "both"]))
        def check(runs, b, k, seed, mode, zero_rows):
            rng = np.random.default_rng(seed)
            u, v = rng.normal(size=(runs, b, k)), rng.normal(size=(runs, b, k))
            # Zero rows put |u|^2, |v|^2 and |u| |v| on the NORM_EPSILON floor.
            if zero_rows in ("users", "both"):
                u[:, rng.random(b) < 0.3] = 0.0
            if zero_rows in ("items", "both"):
                v[:, rng.random(b) < 0.3] = 0.0
            ratings = rng.uniform(1.0, 5.0, b)
            m = int(rng.integers(1, 1000))
            beta = rng.uniform(0.0, 2.0, runs)
            want_u, want_v = two_array_gradients(u, v, ratings, mode, 5.0, m,
                                                 beta[:, None, None])
            got = gradients(np.stack([u, v], axis=1), ratings, mode, 5.0, m,
                            beta[:, None, None, None])
            assert got.shape == (runs, 2, b, k)
            assert np.array_equal(got[:, 0], want_u) and np.array_equal(got[:, 1], want_v)

        check()


def small_dataset():
    """5 users x 7 items, 20 interactions, deterministic."""
    rng = np.random.default_rng(42)
    pairs = [(u, i) for u in range(5) for i in range(7)]
    chosen = rng.permutation(len(pairs))[:20]
    users = np.array([pairs[c][0] for c in chosen])
    items = np.array([pairs[c][1] for c in chosen])
    ratings = rng.integers(1, 6, 20).astype(float)
    return make_dataset(users, items, ratings, n=5, m=7)


def brute_force_loss(model, dataset, algorithm, beta):
    """Independent double loop over interactions using plain Python math."""
    fit = 0.0
    penalty = 0.0
    for i, j, r in zip(dataset.users, dataset.items, dataset.ratings):
        u = model.U[int(i)]
        v = model.V[int(j)]
        if algorithm == "classic_mf":
            fit += (float(r) - float(u @ v)) ** 2
            continue
        c = plain_cosine(u, v)
        fit += (float(r) / dataset.r_max - c) ** 2
        penalty += (c - 1.0 / dataset.m) ** 2
    if algorithm == "cosine_mf":
        beta = 0.0
    return fit, penalty, fit + beta * penalty


def sequential_sgd_oracle(dataset, config):
    """Per-sample SGD in plain Python floats, one epoch after another.

    Each epoch visits the interactions in the order of a fresh permutation
    drawn from default_rng([seed, 1]); both gradients of a step are taken
    at the factors before that step.
    """
    mode = "dot" if config.algorithm == "classic_mf" else "cosine"
    start = init_model(dataset.n, dataset.m, config.k, seed=config.seed,
                       scale=config.init_scale, mode=mode, r_max=dataset.r_max)
    U = start.U.tolist()
    V = start.V.tolist()
    beta = config.beta if config.algorithm == "position_bias_mf" else 0.0
    lr = config.learning_rate
    rng = np.random.default_rng([config.seed, 1])
    for _ in range(config.epochs):
        for s in rng.permutation(len(dataset)):
            u = U[int(dataset.users[s])]
            v = V[int(dataset.items[s])]
            r = float(dataset.ratings[s])
            dot = sum(a * b for a, b in zip(u, v))
            if mode == "dot":
                # d/du (r - u.v)^2 = -2 (r - u.v) v
                gu = [-2.0 * (r - dot) * b for b in v]
                gv = [-2.0 * (r - dot) * a for a in u]
            else:
                # c = u.v / (|u| |v|);  dc/du = v / (|u| |v|) - c u / |u|^2
                nu2 = sum(a * a for a in u)
                nv2 = sum(b * b for b in v)
                norms = math.sqrt(nu2) * math.sqrt(nv2)
                c = dot / norms
                dloss_dc = -2.0 * (r / dataset.r_max - c) + 2.0 * beta * (c - 1.0 / dataset.m)
                gu = [dloss_dc * (b / norms - c * a / nu2) for a, b in zip(u, v)]
                gv = [dloss_dc * (a / norms - c * b / nv2) for a, b in zip(u, v)]
            u[:] = [a - lr * g for a, g in zip(u, gu)]
            v[:] = [b - lr * g for b, g in zip(v, gv)]
    return np.array(U), np.array(V)


class TestTrain:
    def test_beta_zero_equals_cosine(self):
        ds = small_dataset()
        cos_model, cos_hist = train(ds, TrainConfig(algorithm="cosine_mf", k=4, epochs=8, seed=5))
        pb_model, pb_hist = train(
            ds, TrainConfig(algorithm="position_bias_mf", beta=0.0, k=4, epochs=8, seed=5)
        )
        assert np.array_equal(cos_model.U, pb_model.U)
        assert np.array_equal(cos_model.V, pb_model.V)
        assert cos_hist == pb_hist

    def test_history_finite_and_decreasing_overall(self):
        ds = small_dataset()
        _, history = train(
            ds,
            TrainConfig(algorithm="position_bias_mf", beta=0.3, k=4,
                        learning_rate=0.05, epochs=50, seed=1),
        )
        assert all(math.isfinite(h.total) for h in history)
        assert history[-1].total <= history[0].total

    @pytest.mark.parametrize("algorithm,beta", [
        ("classic_mf", 0.0),
        ("cosine_mf", 0.0),
        ("position_bias_mf", 0.5),
    ])
    def test_full_loss_matches_brute_force(self, algorithm, beta):
        ds = small_dataset()
        model, history = train(
            ds, TrainConfig(algorithm=algorithm, beta=beta, k=4, epochs=5, seed=3)
        )
        fit, penalty, total = brute_force_loss(model, ds, algorithm, beta)
        assert history[-1].fit_term == pytest.approx(fit, abs=1e-10)
        assert history[-1].penalty_term == pytest.approx(penalty, abs=1e-10)
        assert history[-1].total == pytest.approx(total, abs=1e-10)
        reported = full_loss(model, ds, beta)
        assert reported == history[-1]

    def test_full_loss_memory_does_not_grow_with_rows_times_k(self):
        # The train_flat_k32 shape: one gather of all rows would hold two
        # 64,064 x 32 float64 copies, 32.8 MB.
        rng = np.random.default_rng(12)
        ds = make_dataset(rng.integers(0, 4000, 64064), rng.integers(0, 2000, 64064),
                          rng.integers(1, 6, 64064), n=4000, m=2000)
        model = init_model(4000, 2000, 32, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            full_loss(model, ds, beta=0.5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"full_loss peaked at {peak / 1e6:.1f} MB"

    def test_deterministic_runs(self):
        ds = small_dataset()
        config = TrainConfig(algorithm="position_bias_mf", beta=0.2, k=4, epochs=6, seed=9)
        m1, h1 = train(ds, config)
        m2, h2 = train(ds, config)
        assert np.array_equal(m1.U, m2.U)
        assert np.array_equal(m1.V, m2.V)
        assert h1 == h2

    @pytest.mark.parametrize("algorithm", ["classic_mf", "cosine_mf", "position_bias_mf"])
    def test_matches_sequential_oracle(self, algorithm):
        ds = zipf_popularity_dataset(40, 30, 10, seed=4, rating_scale=5.0,
                                     integer_ratings=True)
        config = TrainConfig(algorithm=algorithm, beta=0.5, k=4, learning_rate=0.05,
                             epochs=2, seed=7)
        model, _ = train(ds, config)
        U, V = sequential_sgd_oracle(ds, config)
        assert np.abs(model.U - U).max() <= 1e-12
        assert np.abs(model.V - V).max() <= 1e-12

    def test_divergence_raises_with_epoch(self):
        ds = zipf_popularity_dataset(30, 20, 10, seed=0, rating_scale=5.0, integer_ratings=True)
        with pytest.raises(RuntimeError, match=r"training diverged at epoch \d+"):
            train(ds, TrainConfig(algorithm="classic_mf", k=8, learning_rate=10.0,
                                  epochs=5, seed=0))

    def test_empty_dataset_rejected(self, toy_dataset):
        empty = make_dataset([], [], [], n=1, m=1)
        with pytest.raises(ValueError, match=r"cannot train on an empty dataset"):
            train(empty, TrainConfig(epochs=1))

    def test_mode_follows_algorithm(self):
        ds = small_dataset()
        classic, _ = train(ds, TrainConfig(algorithm="classic_mf", k=2, epochs=1, seed=0))
        cosine, _ = train(ds, TrainConfig(algorithm="cosine_mf", k=2, epochs=1, seed=0))
        assert classic.mode == "dot"
        assert cosine.mode == "cosine"
        assert classic.r_max == ds.r_max


class TestTrainRuns:
    @staticmethod
    def zipf_dataset():
        return zipf_popularity_dataset(40, 30, 10, seed=4, rating_scale=5.0, integer_ratings=True)

    def test_lockstep_matches_separate_runs(self):
        ds = self.zipf_dataset()
        configs = [TrainConfig(algorithm=algorithm, beta=beta, k=4, learning_rate=0.05,
                               epochs=3, seed=7)
                   for algorithm, beta in [("cosine_mf", 0.0), ("position_bias_mf", 0.0),
                                           ("position_bias_mf", 0.1), ("position_bias_mf", 1.0),
                                           ("position_bias_mf", 0.1)]]
        results = train_runs(ds, configs)
        assert len(results) == len(configs)
        for config, (model, history) in zip(configs, results):
            alone, alone_history = train(ds, config)
            assert np.array_equal(model.U, alone.U)
            assert np.array_equal(model.V, alone.V)
            assert history == alone_history
        (cosine, cosine_history), (beta_zero, beta_zero_history) = results[:2]
        assert np.array_equal(cosine.U, beta_zero.U)
        assert np.array_equal(cosine.V, beta_zero.V)
        assert cosine_history == beta_zero_history

    def test_dot_mode_runs_train_together(self):
        ds = self.zipf_dataset()
        config = TrainConfig(algorithm="classic_mf", k=3, learning_rate=0.01, epochs=2, seed=1)
        (model, history), (again, _) = train_runs(ds, [config, config])
        alone, alone_history = train(ds, config)
        assert np.array_equal(model.U, alone.U) and np.array_equal(again.V, alone.V)
        assert history == alone_history

    def test_diverged_run_is_its_own_error(self):
        ds = self.zipf_dataset()
        kept = TrainConfig(algorithm="position_bias_mf", beta=0.1, k=4, epochs=2, seed=7)
        diverging = replace(kept, beta=1e200)
        (model, history), error = train_runs(ds, [kept, diverging])
        alone, alone_history = train(ds, kept)
        assert np.array_equal(model.U, alone.U) and np.array_equal(model.V, alone.V)
        assert history == alone_history
        assert isinstance(error, RuntimeError)
        with pytest.raises(RuntimeError) as raised:
            train(ds, diverging)
        assert str(error) == str(raised.value)
        assert str(error).startswith("training diverged at epoch 1")

    @pytest.mark.parametrize("change", [
        {"k": 5},
        {"seed": 8},
        {"learning_rate": 0.02},
        {"epochs": 3},
        {"init_scale": 0.2},
        {"algorithm": "classic_mf"},
    ])
    def test_configs_differing_beyond_algorithm_and_beta_rejected(self, change):
        base = TrainConfig(algorithm="position_bias_mf", beta=0.1, k=4, epochs=2, seed=7)
        with pytest.raises(ValueError, match="lockstep configs must share a mode"):
            train_runs(small_dataset(), [base, replace(base, **change)])

    def test_no_configs_rejected(self):
        with pytest.raises(ValueError, match="at least one config"):
            train_runs(small_dataset(), [])


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"beta": -0.1},
        {"epochs": 0},
        {"k": 0},
        {"init_scale": 0.0},
        {"algorithm": "bogus"},
        {"seed": -1},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"beta": math.nan},
        {"beta": math.inf},
        {"init_scale": math.nan},
        {"init_scale": math.inf},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


def test_loss_history_csv(tmp_path):
    ds = small_dataset()
    _, history = train(ds, TrainConfig(algorithm="position_bias_mf", beta=0.2, k=3,
                                       epochs=4, seed=2))
    path = tmp_path / "history.csv"
    save_loss_history(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,fit_loss,penalty_loss,total_loss"
    assert len(lines) == 5
    epoch, fit, penalty, total = lines[-1].split(",")
    assert int(epoch) == 4
    assert float(total) == pytest.approx(float(fit) + 0.2 * float(penalty), abs=1e-12)
