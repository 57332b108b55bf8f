import csv
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA_DIR, write_model_file
from pbmf.cli import build_parser, main
from pbmf.data import SplitSpec, load_movielens, split
from pbmf.metrics import (REPORT_COLUMNS, evaluate_all, format_value, mae, matthew_degree,
                          position_bias_metric, report_row)
from pbmf.model import FactorModel, init_model, load_model, save_model, top_k
from pbmf.synthetic import write_movielens_file, zipf_popularity_dataset
from pbmf.training import TrainConfig, train, train_runs


@pytest.fixture
def ratings_file(tmp_path):
    ds = zipf_popularity_dataset(60, 30, 10, seed=5, rating_scale=5.0, integer_ratings=True)
    path = tmp_path / "ratings.dat"
    write_movielens_file(ds, path)
    return path


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SRC = Path(__file__).resolve().parent.parent / "src"


def run_pbmf(args):
    """Run `python -m pbmf` as a child process, so an uncaught exception
    shows up as a traceback on its stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pbmf", *args], capture_output=True,
                          text=True, env=env, timeout=120)


class TestTrainCommand:
    def test_happy_path(self, ratings_file, tmp_path, capsys):
        out = tmp_path / "model.pbmf"
        code = main([
            "train", "--input", str(ratings_file), "--format", "movielens",
            "--algorithm", "position_bias_mf", "--beta", "0.1", "--k", "4",
            "--lr", "0.01", "--epochs", "2", "--seed", "42",
            "--test-fraction", "0.2", "--output", str(out),
        ])
        assert code == 0
        assert out.exists()
        history = tmp_path / "model.pbmf.history.csv"
        assert history.exists()
        lines = history.read_text().splitlines()
        assert lines[0] == "epoch,fit_loss,penalty_loss,total_loss"
        assert len(lines) == 3
        assert "final loss:" in capsys.readouterr().out
        model = load_model(out)
        assert model.mode == "cosine" and model.k == 4

    def test_missing_input_shows_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--algorithm", "cosine_mf", "--output", "x.pbmf"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_negative_beta_rejected(self, ratings_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--input", str(ratings_file), "--algorithm",
                "position_bias_mf", "--beta", "-1", "--output", str(tmp_path / "m.pbmf"),
            ])
        assert exc.value.code == 2
        assert ">= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "nan"), ("--lr", "inf"), ("--lr", "nan"), ("--init-scale", "inf"),
    ])
    def test_non_finite_setting_rejected(self, flag, value, ratings_file, tmp_path, capsys,
                                         monkeypatch):
        def no_loading(*args, **kwargs):
            raise AssertionError("read the data before the flags were checked")

        monkeypatch.setattr("pbmf.data.load_movielens", no_loading)
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--input", str(ratings_file), "--algorithm", "position_bias_mf",
                flag, value, "--output", str(tmp_path / "m.pbmf"),
            ])
        assert exc.value.code == 2
        assert capsys.readouterr().err.count(f"argument {flag}: expected") == 1

    @pytest.mark.parametrize("algorithm", ["cosine_mf", "classic_mf"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_beta_without_penalty_rejected(self, algorithm, from_config, ratings_file,
                                           tmp_path, capsys, monkeypatch):
        # Only position_bias_mf has a penalty; any other algorithm would drop --beta.
        def no_loading(*args, **kwargs):
            raise AssertionError("read the data before --beta was checked")

        monkeypatch.setattr("pbmf.data.load_movielens", no_loading)
        config = tmp_path / "run.cfg"
        config.write_text("beta = 0.5\n")
        beta = ["--config", str(config)] if from_config else ["--beta", "0.5"]
        code = main(["train", "--input", str(ratings_file), "--algorithm", algorithm,
                     *beta, "--k", "2", "--epochs", "1", "--output", str(tmp_path / "m.pbmf")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: beta")
        assert not (tmp_path / "m.pbmf").exists()

    def test_zero_beta_trains_cosine(self, ratings_file, tmp_path):
        assert main(["train", "--input", str(ratings_file), "--algorithm", "cosine_mf",
                     "--beta", "0", "--k", "2", "--epochs", "1",
                     "--output", str(tmp_path / "m.pbmf")]) == 0

    @pytest.mark.parametrize("digits", [50, 400])
    def test_long_seed_trains(self, digits, ratings_file, tmp_path):
        # An int past ~1e308 cannot become a float, so no check may convert one.
        assert main([
            "train", "--input", str(ratings_file), "--algorithm", "cosine_mf",
            "--k", "2", "--epochs", "1", "--seed", "7" * digits,
            "--output", str(tmp_path / "m.pbmf"),
        ]) == 0

    def test_unallocatable_k_fails_cleanly(self, ratings_file, tmp_path):
        # 2**45 factors per row: petabytes, which numpy refuses up front.
        result = run_pbmf(["train", "--input", str(ratings_file), "--algorithm", "cosine_mf",
                           "--k", "35184372088832", "--output", str(tmp_path / "m.pbmf")])
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert not (tmp_path / "m.pbmf").exists()

    def test_divergence_reported(self, ratings_file, tmp_path, capsys):
        code = main([
            "train", "--input", str(ratings_file), "--algorithm", "classic_mf",
            "--lr", "10", "--k", "8", "--epochs", "3", "--output",
            str(tmp_path / "m.pbmf"),
        ])
        assert code == 1
        assert "diverged" in capsys.readouterr().err

    def test_unreadable_input_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "train", "--input", str(tmp_path / "missing.dat"),
            "--algorithm", "cosine_mf", "--output", str(tmp_path / "m.pbmf"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_report_row(self, ratings_file, tmp_path):
        model_path = tmp_path / "model.pbmf"
        assert main([
            "train", "--input", str(ratings_file), "--algorithm", "cosine_mf",
            "--k", "4", "--epochs", "2", "--output", str(model_path),
        ]) == 0
        out = tmp_path / "report.csv"
        assert main([
            "evaluate", "--input", str(ratings_file), "--model", str(model_path),
            "--label", "cosine_mf", "--output", str(out),
        ]) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "cosine_mf"
        assert float(rows[0]["mae"]) >= 0.0

    def _evaluate_resized_model(self, ratings_file, tmp_path, capsys, extra):
        ds = load_movielens(ratings_file)
        model_path = tmp_path / "other.pbmf"
        save_model(init_model(ds.n + extra, ds.m + extra, 4, seed=0, r_max=ds.r_max), model_path)
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--input", str(ratings_file), "--model", str(model_path),
                     "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{ds.n + extra} users x {ds.m + extra} items" in err
        assert f"{ds.n} users x {ds.m} items" in err
        assert not out.exists()

    @pytest.mark.parametrize("spoil", ["nan_factor", "inf_factor", "zero_r_max"])
    def test_corrupt_model_rejected(self, ratings_file, tmp_path, spoil):
        # Without the check, a NaN factor writes mae=nan and r_max=0 predicts
        # 0 for every pair; both exit 0.
        ds = load_movielens(ratings_file)
        model = init_model(ds.n, ds.m, 4, seed=0, r_max=ds.r_max)
        if spoil == "nan_factor":
            model.U[0, 0] = np.nan
        elif spoil == "inf_factor":
            model.V[0, 0] = np.inf
        else:
            model.r_max = 0.0
        model_path = tmp_path / "model.pbmf"
        write_model_file(model, model_path)  # save_model refuses it
        out = tmp_path / "report.csv"
        result = run_pbmf(["evaluate", "--input", str(ratings_file),
                           "--model", str(model_path), "--output", str(out)])
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert str(model_path) in result.stderr
        assert not out.exists()

    def test_smaller_model_rejected(self, ratings_file, tmp_path, capsys):
        # Without the check, item ids past the model's m raise IndexError.
        self._evaluate_resized_model(ratings_file, tmp_path, capsys, extra=-1)

    def test_larger_model_rejected(self, ratings_file, tmp_path, capsys):
        # Without the check, the data's ids silently index unrelated factor rows.
        self._evaluate_resized_model(ratings_file, tmp_path, capsys, extra=1)


class TestBenchmarkCommand:
    def test_beta_zero_matches_cosine(self, ratings_file, tmp_path):
        out = tmp_path / "results.csv"
        code = main([
            "benchmark", "--input", str(ratings_file),
            "--algorithms", "cosine_mf,position_bias_mf", "--beta", "0",
            "--k", "4", "--epochs", "2", "--seed", "7", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert [r["algorithm"] for r in rows] == ["cosine_mf", "position_bias_mf"]
        varying = [c for c in REPORT_COLUMNS if c != "algorithm"]
        assert [rows[0][c] for c in varying] == [rows[1][c] for c in varying]

    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_zero_beta_matches_cosine(self, from_config, ratings_file, tmp_path):
        # float("-0") is -0.0, which would write a "-0" beta cell.
        config = tmp_path / "run.cfg"
        config.write_text("beta = -0\n")
        beta = ["--config", str(config)] if from_config else ["--beta=-0"]
        out = tmp_path / "results.csv"
        code = main([
            "benchmark", "--input", str(ratings_file),
            "--algorithms", "cosine_mf,position_bias_mf", *beta,
            "--k", "4", "--epochs", "2", "--seed", "7", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert rows[1]["beta"] == "0"
        assert rows[1] == {**rows[0], "algorithm": "position_bias_mf"}

    def test_baselines_only(self, ratings_file, tmp_path):
        out = tmp_path / "results.csv"
        code = main([
            "benchmark", "--input", str(ratings_file),
            "--algorithms", "random,zipf", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert [r["algorithm"] for r in rows] == ["random", "zipf"]
        assert all(r["error"] == "" for r in rows)
        assert all(r["k"] == "0" and r["epochs"] == "0" for r in rows)

    def test_rows_match_library_oracle(self, ratings_file, tmp_path):
        out = tmp_path / "results.csv"
        seed = 13
        code = main([
            "benchmark", "--input", str(ratings_file),
            "--algorithms", "classic_mf,position_bias_mf,zipf", "--beta", "0.5",
            "--k", "4", "--epochs", "3", "--seed", str(seed),
            "--test-fraction", "0.25", "--k-top", "5", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)

        dataset = load_movielens(ratings_file)
        train_set, test_set = split(dataset, SplitSpec(test_fraction=0.25, seed=seed))
        from pbmf.baselines import ZipfScorer

        expected = {}
        for algorithm, beta in (("classic_mf", 0.0), ("position_bias_mf", 0.5)):
            model, _ = train(train_set, TrainConfig(
                algorithm=algorithm, beta=beta, k=4, epochs=3, seed=seed))
            expected[algorithm] = evaluate_all(
                model, train_set, test_set, k_top=5, algorithm=algorithm, beta=beta)
        expected["zipf"] = evaluate_all(
            ZipfScorer.from_dataset(train_set), train_set, test_set, k_top=5,
            algorithm="zipf")

        for row in rows:
            want = expected[row["algorithm"]]
            assert row["mae"] == format_value(want.mae)
            assert row["matthew_degree"] == format_value(want.matthew_degree)
            assert row["position_bias"] == format_value(want.position_bias)
            assert row["test_size"] == str(want.test_size)

    def test_byte_identical_reruns(self, ratings_file, tmp_path):
        args = [
            "benchmark", "--input", str(ratings_file),
            "--algorithms", "cosine_mf,random,zipf", "--k", "4", "--epochs", "2",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_per_algorithm_failure_recorded(self, ratings_file, tmp_path):
        out = tmp_path / "results.csv"
        code = main([
            "benchmark", "--input", str(ratings_file),
            "--algorithms", "classic_mf,zipf", "--lr", "10", "--k", "8",
            "--epochs", "3", "--output", str(out),
        ])
        assert code == 1  # an algorithm failed
        rows = read_csv_rows(out)
        assert len(rows) == 2  # the run continued
        assert "diverged" in rows[0]["error"]
        assert rows[0]["mae"] == ""
        assert rows[1]["algorithm"] == "zipf" and rows[1]["error"] == ""

    def test_diverged_run_leaves_the_other_rows_unchanged(self, tmp_path):
        # The cosine-mode runs train in lockstep; one huge beta diverges alone.
        sample = Path(__file__).resolve().parent / "data" / "ml1m_sample.dat"
        args = ["benchmark", "--input", str(sample), "--algorithms", "cosine_mf,position_bias_mf",
                "--k", "2", "--epochs", "1"]
        diverged, kept = tmp_path / "diverged.csv", tmp_path / "kept.csv"
        assert main(args + ["--beta", "0,0.1,1e200", "--output", str(diverged)]) == 1
        assert main(args + ["--beta", "0,0.1", "--output", str(kept)]) == 0
        lines = diverged.read_text().splitlines()
        assert len(lines) == 5
        assert lines[:4] == kept.read_text().splitlines()
        assert read_csv_rows(diverged)[3]["error"] == (
            "training diverged at epoch 1: non-finite loss; "
            "try a learning_rate smaller than 0.01")

    def test_unallocatable_k_recorded(self, ratings_file, tmp_path):
        out = tmp_path / "results.csv"
        code = main([
            "benchmark", "--input", str(ratings_file), "--algorithms", "cosine_mf,zipf",
            "--k", "35184372088832", "--output", str(out),
        ])
        assert code == 1
        rows = read_csv_rows(out)
        assert "allocate" in rows[0]["error"] and rows[0]["mae"] == ""
        assert rows[1]["algorithm"] == "zipf" and rows[1]["error"] == ""

    def test_too_big_k_recorded_on_every_lockstep_row(self, ratings_file, tmp_path):
        # numpy refuses an array this size with ValueError, not MemoryError.
        out = tmp_path / "results.csv"
        code = main([
            "benchmark", "--input", str(ratings_file),
            "--algorithms", "cosine_mf,position_bias_mf,zipf", "--beta", "0,1",
            "--k", str(2**60), "--output", str(out),
        ])
        assert code == 1
        rows = read_csv_rows(out)
        assert [(r["algorithm"], r["beta"]) for r in rows] == [
            ("cosine_mf", "0"), ("position_bias_mf", "0"), ("position_bias_mf", "1"), ("zipf", "0")]
        errors = {r["error"] for r in rows[:3]}
        assert len(errors) == 1 and errors.pop() != ""
        assert all(r["mae"] == "" and r["k"] == str(2**60) for r in rows[:3])
        assert rows[3]["error"] == "" and rows[3]["mae"] != ""

    def test_random_seed_beyond_64_bits_recorded(self, ratings_file, tmp_path):
        # The random baseline hashes its seed as a 64-bit word; without the
        # range check, 2**64 escapes as an OverflowError traceback.
        out = tmp_path / "results.csv"
        result = run_pbmf(["benchmark", "--input", str(ratings_file), "--algorithms",
                           "random", "--seed", str(2**64), "--output", str(out)])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        rows = read_csv_rows(out)
        assert len(rows) == 1 and rows[0]["algorithm"] == "random"
        assert "2**64" in rows[0]["error"]
        assert rows[0]["mae"] == ""
        assert (rows[0]["k"], rows[0]["epochs"]) == ("0", "0")  # as on a baseline success

    def test_stdout_when_no_output(self, ratings_file, capsys):
        code = main([
            "benchmark", "--input", str(ratings_file), "--algorithms", "zipf",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(REPORT_COLUMNS))

    def test_unknown_algorithm_rejected(self, ratings_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "benchmark", "--input", str(ratings_file),
                "--algorithms", "dlrm",
            ])
        assert exc.value.code == 2

    def test_rows_follow_beta_order(self, ratings_file, tmp_path):
        out = tmp_path / "results.csv"
        code = main([
            "benchmark", "--input", str(ratings_file), "--algorithms", "position_bias_mf",
            "--beta", "0,0.1,1.0", "--k", "4", "--epochs", "2", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert [r["algorithm"] for r in rows] == ["position_bias_mf"] * 3
        assert [float(r["beta"]) for r in rows] == [0.0, 0.1, 1.0]

    def test_split_shared_across_betas(self, ratings_file, tmp_path):
        # test_size must be identical on every row: one split per invocation.
        out = tmp_path / "results.csv"
        assert main([
            "benchmark", "--input", str(ratings_file), "--algorithms", "position_bias_mf",
            "--beta", "0,0.2,0.8", "--k", "4", "--epochs", "2", "--output", str(out),
        ]) == 0
        sizes = {r["test_size"] for r in read_csv_rows(out)}
        assert len(sizes) == 1

    @staticmethod
    def _rows_trained_alone(ratings_file, pairs, seed, k, epochs):
        """The CSV rows, at k_top 5, of each (algorithm, beta) in `pairs`
        trained alone with `train` and scored with `evaluate_all`."""
        from pbmf.baselines import ZipfScorer

        train_set, test_set = split(load_movielens(ratings_file), SplitSpec(0.2, seed=seed))
        expected = []
        for algorithm, beta in pairs:
            if algorithm == "zipf":
                scorer, run = ZipfScorer.from_dataset(train_set), dict(k=0, epochs=0)
            else:
                scorer, _ = train(train_set, TrainConfig(algorithm=algorithm, beta=beta, k=k,
                                                         epochs=epochs, seed=seed))
                run = dict(k=k, epochs=epochs)
            report = evaluate_all(scorer, train_set, test_set, k_top=5, algorithm=algorithm,
                                  beta=beta, seed=seed, **run)
            expected.append(report_row(report) + [""])
        return expected

    def test_shared_rows_match_runs_trained_alone(self, ratings_file, tmp_path):
        # Rows that share a run (cosine_mf and beta 0, a repeated beta, a
        # repeated baseline) must still equal their own config trained alone:
        # this is the check that a kernel breaking beta = 0 == cosine fails.
        out = tmp_path / "results.csv"
        seed, k, epochs = 11, 4, 3
        assert main([
            "benchmark", "--input", str(ratings_file),
            "--algorithms", "classic_mf,cosine_mf,position_bias_mf,zipf,zipf",
            "--beta", "0,0.5,0.5", "--k", str(k), "--epochs", str(epochs),
            "--seed", str(seed), "--k-top", "5", "--output", str(out),
        ]) == 0
        with open(out, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == REPORT_COLUMNS + ["error"]
        assert rows == self._rows_trained_alone(
            ratings_file, [("classic_mf", 0.0), ("cosine_mf", 0.0), ("position_bias_mf", 0.0),
                           ("position_bias_mf", 0.5), ("position_bias_mf", 0.5), ("zipf", 0.0),
                           ("zipf", 0.0)], seed, k, epochs)

    def test_mixed_mode_rows_match_runs_trained_alone(self, ratings_file, tmp_path):
        # classic_mf trains in the same call as the cosine-mode runs, after
        # them in the row order: each row must still be its own config's.
        out = tmp_path / "results.csv"
        seed, k, epochs = 3, 4, 2
        assert main([
            "benchmark", "--input", str(ratings_file),
            "--algorithms", "position_bias_mf,zipf,classic_mf,cosine_mf",
            "--beta", "0.5,0", "--k", str(k), "--epochs", str(epochs),
            "--seed", str(seed), "--k-top", "5", "--output", str(out),
        ]) == 0
        with open(out, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == REPORT_COLUMNS + ["error"]
        assert rows == self._rows_trained_alone(
            ratings_file, [("position_bias_mf", 0.5), ("position_bias_mf", 0.0), ("zipf", 0.0),
                           ("classic_mf", 0.0), ("cosine_mf", 0.0)], seed, k, epochs)

    @staticmethod
    def _spy_runs(monkeypatch):
        """Record the configs of each train_runs call and the algorithm of
        each evaluate_all call, passing both calls through."""
        calls = {"train_runs": [], "evaluate_all": []}

        def spy_train_runs(dataset, configs):
            calls["train_runs"].append([(c.algorithm, c.beta) for c in configs])
            return train_runs(dataset, configs)

        def spy_evaluate_all(*args, **kwargs):
            calls["evaluate_all"].append(kwargs["algorithm"])
            return evaluate_all(*args, **kwargs)

        monkeypatch.setattr("pbmf.training.train_runs", spy_train_runs)
        monkeypatch.setattr("pbmf.metrics.evaluate_all", spy_evaluate_all)
        return calls

    def test_default_sweep_computes_each_distinct_run_once(self, ratings_file, tmp_path,
                                                           monkeypatch):
        calls = self._spy_runs(monkeypatch)
        out = tmp_path / "results.csv"
        assert main(["benchmark", "--input", str(ratings_file), "--k", "4", "--epochs", "2",
                     "--output", str(out)]) == 0
        rows = read_csv_rows(out)
        assert [(r["algorithm"], r["beta"]) for r in rows] == [
            ("classic_mf", "0"), ("cosine_mf", "0"), ("position_bias_mf", "0"),
            ("position_bias_mf", "0.1"), ("position_bias_mf", "1"), ("random", "0"),
            ("zipf", "0")]
        assert calls["train_runs"] == [[("classic_mf", 0.0), ("cosine_mf", 0.0),
                                        ("position_bias_mf", 0.1), ("position_bias_mf", 1.0)]]
        assert calls["evaluate_all"] == ["classic_mf", "cosine_mf", "position_bias_mf",
                                         "position_bias_mf", "random", "zipf"]
        assert rows[2] == {**rows[1], "algorithm": "position_bias_mf"}

    def test_repeated_diverging_beta_is_one_run(self, tmp_path, monkeypatch):
        calls = self._spy_runs(monkeypatch)
        sample = Path(__file__).resolve().parent / "data" / "ml1m_sample.dat"
        args = ["benchmark", "--input", str(sample), "--algorithms", "cosine_mf,position_bias_mf",
                "--k", "2", "--epochs", "1"]
        diverged, kept = tmp_path / "diverged.csv", tmp_path / "kept.csv"
        assert main(args + ["--beta", "0,1e200,1e200", "--output", str(diverged)]) == 1
        assert calls["train_runs"] == [[("cosine_mf", 0.0), ("position_bias_mf", 1e200)]]
        assert calls["evaluate_all"] == ["cosine_mf"]
        assert main(args + ["--beta", "0", "--output", str(kept)]) == 0
        lines = diverged.read_text().splitlines()
        assert len(lines) == 5
        assert lines[:3] == kept.read_text().splitlines()
        rows = read_csv_rows(diverged)
        assert rows[2] == rows[3]
        assert rows[2]["error"].startswith("training diverged at epoch 1")

    @pytest.mark.parametrize("sample", ["ml1m_sample", "zipf"])
    def test_train_then_evaluate_matches_benchmark_rows(self, sample, ratings_file, tmp_path):
        # `train` + `evaluate` writes the factors to a model file and reads
        # them back; `benchmark` scores them in memory.  Their `epochs` and
        # `beta` cells differ: `evaluate` does not know how a model was trained.
        # The 24-row sample has fewer items than a top-10 list; the Zipf file
        # has 30, so its Matthew degrees differ between the runs.
        path = (Path(__file__).resolve().parent / "data" / "ml1m_sample.dat"
                if sample == "ml1m_sample" else ratings_file)
        data_flags = ["--input", str(path), "--seed", "5"]
        runs = [("classic_mf", []), ("cosine_mf", []), ("position_bias_mf", ["--beta", "0.1"])]
        out = tmp_path / "benchmark.csv"
        assert main(["benchmark", *data_flags, "--algorithms", ",".join(a for a, _ in runs),
                     "--beta", "0.1", "--k", "8", "--epochs", "3", "--output", str(out)]) == 0
        benchmark_rows = read_csv_rows(out)
        assert [(r["algorithm"], r["beta"]) for r in benchmark_rows] == [
            ("classic_mf", "0"), ("cosine_mf", "0"), ("position_bias_mf", "0.1")]
        cells = ["mae", "matthew_degree", "position_bias", "test_size"]
        for (algorithm, beta_flags), expected in zip(runs, benchmark_rows):
            model_path, report = tmp_path / f"{algorithm}.pbmf", tmp_path / f"{algorithm}.csv"
            assert main(["train", *data_flags, "--algorithm", algorithm, *beta_flags,
                         "--k", "8", "--epochs", "3", "--output", str(model_path)]) == 0
            assert main(["evaluate", *data_flags, "--model", str(model_path),
                         "--label", algorithm, "--output", str(report)]) == 0
            [row] = read_csv_rows(report)
            assert [row[c] for c in cells] == [expected[c] for c in cells], algorithm


def test_report_rows_cell_by_cell(ratings_file, tmp_path):
    """The report layout, pinned cell by cell: perfbench/reference.json
    relies on this column order, and a failed run keeps its six settings."""
    assert REPORT_COLUMNS == ["algorithm", "beta", "k", "epochs", "seed", "k_top",
                              "mae", "matthew_degree", "position_bias", "test_size"]

    out = tmp_path / "results.csv"
    assert main(["benchmark", "--input", str(ratings_file), "--algorithms", "classic_mf,zipf",
                 "--lr", "10", "--k", "8", "--epochs", "3", "--output", str(out)]) == 1
    with open(out, newline="") as fh:
        header, failed, _ = csv.reader(fh)
    assert header == REPORT_COLUMNS + ["error"]
    assert failed[:10] == ["classic_mf", "0", "8", "3", "42", "10", "", "", "", ""]
    assert len(failed) == 11 and failed[10].startswith("training diverged at epoch")

    model_path = tmp_path / "model.pbmf"
    assert main(["train", "--input", str(ratings_file), "--algorithm", "cosine_mf",
                 "--k", "4", "--epochs", "2", "--seed", "7", "--output", str(model_path)]) == 0
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--input", str(ratings_file), "--model", str(model_path),
                 "--label", "mine", "--seed", "7", "--k-top", "5", "--output", str(report)]) == 0
    with open(report, newline="") as fh:
        header, row = csv.reader(fh)
    train_set, test_set = split(load_movielens(ratings_file), SplitSpec(0.2, seed=7))
    model = load_model(model_path)
    lists = top_k(model, 5, exclude=train_set.items_by_user())
    assert header == REPORT_COLUMNS
    assert row == ["mine", "0", "4", "0", "7", "5",
                   format_value(mae(model, test_set)),
                   format_value(matthew_degree(lists)),
                   format_value(position_bias_metric(model, test_set, train_set.m)),
                   str(len(test_set))]


class TestConfigFile:
    def test_config_supplies_defaults(self, ratings_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment defaults\nk = 4\nepochs = 2\nalgorithms = zipf,random\n"
        )
        out = tmp_path / "results.csv"
        code = main([
            "benchmark", "--input", str(ratings_file), "--config", str(cfg),
            "--output", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert [r["algorithm"] for r in rows] == ["zipf", "random"]

    def test_flags_override_config(self, ratings_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 4\nepochs = 2\n")
        out = tmp_path / "results.csv"
        code = main([
            "benchmark", "--input", str(ratings_file), "--config", str(cfg),
            "--algorithms", "cosine_mf", "--k", "6", "--output", str(out),
        ])
        assert code == 0
        rows = read_csv_rows(out)
        assert rows[0]["k"] == "6"
        assert rows[0]["epochs"] == "2"  # still from the file

    def test_bad_config_line_is_usage_error(self, ratings_file, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value pair\n")
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--input", str(ratings_file), "--config", str(cfg)])
        assert exc.value.code == 2

    def test_beta_list_from_config(self, ratings_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algorithms = position_bias_mf\nbeta = 0,0.1,1\nk = 4\nepochs = 2\n")
        out = tmp_path / "results.csv"
        code = main(["benchmark", "--input", str(ratings_file), "--config", str(cfg),
                     "--output", str(out)])
        assert code == 0
        rows = read_csv_rows(out)
        assert [r["algorithm"] for r in rows] == ["position_bias_mf"] * 3
        assert [r["beta"] for r in rows] == ["0", "0.1", "1"]

    @pytest.mark.parametrize("spelling", ["--conf {}", "--config={}"])
    def test_config_flag_spellings(self, spelling, ratings_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algorithms = zipf\n")
        out = tmp_path / "results.csv"
        code = main(["benchmark", "--input", str(ratings_file),
                     *spelling.format(cfg).split(), "--output", str(out)])
        assert code == 0
        assert [r["algorithm"] for r in read_csv_rows(out)] == ["zipf"]

    def test_required_flag_from_config(self, ratings_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {ratings_file}\nalgorithms = zipf\n")
        out = tmp_path / "results.csv"
        assert main(["benchmark", "--config", str(cfg), "--output", str(out)]) == 0
        assert [r["algorithm"] for r in read_csv_rows(out)] == ["zipf"]

    @pytest.mark.parametrize("line, message", [
        ("format = bogus", "argument --format"),
        ("matthew-variant = bogus", "argument --matthew-variant"),
        ("k = 0", "argument --k"),
        ("header = maybe", "expected a boolean, got 'maybe'"),
    ])
    def test_bad_config_value_is_usage_error(self, line, message, ratings_file, tmp_path,
                                             capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the config was checked")

        monkeypatch.setattr("pbmf.training.train", no_training)
        monkeypatch.setattr("pbmf.training.train_runs", no_training)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"algorithms = cosine_mf\n{line}\n")
        out = tmp_path / "results.csv"
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--input", str(ratings_file), "--config", str(cfg),
                  "--output", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # `config` and `help` are flags, but no config key sets them.
    @pytest.mark.parametrize("key, value", [("epoch", "5"), ("config", "other.cfg"),
                                            ("help", "yes")])
    def test_unknown_key_is_usage_error(self, key, value, ratings_file, tmp_path, capsys,
                                        monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained with a misspelt config key")

        monkeypatch.setattr("pbmf.training.train", no_training)
        monkeypatch.setattr("pbmf.training.train_runs", no_training)
        monkeypatch.setattr("pbmf.data.load_movielens", no_training)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"algorithms = cosine_mf\n{key} = {value}\n")
        out = tmp_path / "results.csv"
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--input", str(ratings_file), "--config", str(cfg),
                  "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown config key '{key}'" in err
        assert not out.exists()

    def test_other_subcommand_key_ignored(self, ratings_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algorithms = cosine_mf,zipf\nk = 4\nepochs = 2\n")
        out = tmp_path / "model.pbmf"
        assert main(["train", "--input", str(ratings_file), "--config", str(cfg),
                     "--algorithm", "cosine_mf", "--output", str(out)]) == 0
        assert load_model(out).k == 4

    def test_byte_order_mark_skipped(self, ratings_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfk = 4\nepochs = 1\n")
        out = tmp_path / "model.pbmf"
        assert main(["train", "--input", str(ratings_file), "--config", str(cfg),
                     "--algorithm", "cosine_mf", "--output", str(out)]) == 0
        assert load_model(out).k == 4

    @pytest.mark.parametrize("header, code", [("yes", 0), ("On", 0), ("false", 1)])
    def test_boolean_key(self, header, code, ratings_file, tmp_path):
        lines = ratings_file.read_text().splitlines()
        data = tmp_path / "ratings.csv"
        data.write_text("user,item,rating\n"
                        + "".join(",".join(l.split("::")[:3]) + "\n" for l in lines))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"header = {header}\nalgorithms = zipf\n")
        out = tmp_path / "results.csv"
        assert main(["benchmark", "--input", str(data), "--format", "csv",
                     "--config", str(cfg), "--output", str(out)]) == code


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_oversized_csv_field_fails_cleanly(command, tmp_path):
    data = tmp_path / "big.csv"
    data.write_text("u1,i1,3\nu2," + "x" * 200_000 + ",4\n")
    extra = (["--algorithm", "cosine_mf", "--output", str(tmp_path / "m.pbmf")]
             if command == "train" else [])
    result = run_pbmf([command, "--input", str(data), "--format", "csv", *extra])
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {data}:2: field larger than field limit")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("reader,content,flags,code", [
    ("movielens", b"1::1::5::0\n2::\xe9::4::0\n", [], 1),
    ("csv", b"1,1,5\n2,\xe9,4\n", ["--format", "csv"], 1),
    ("config", b"k = 4\nlr = \xe9\n", ["--config={}"], 2),
], ids=["movielens", "csv", "config"])
def test_non_utf8_file_fails_cleanly(reader, content, flags, code, ratings_file, tmp_path):
    # Byte 0xe9 (Latin-1 'e acute') is not valid UTF-8 here; the error names the file.
    bad = tmp_path / f"latin1.{reader}"
    bad.write_bytes(content)
    data = ratings_file if reader == "config" else bad
    result = run_pbmf(["train", "--input", str(data), "--algorithm", "cosine_mf",
                       "--output", str(tmp_path / "m.pbmf"),
                       *(flag.format(bad) for flag in flags)])
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].endswith(
        f"error: {bad}: not UTF-8 text (invalid continuation byte)")
    if code == 1:
        assert result.stderr.count("\n") == 1
    assert not (tmp_path / "m.pbmf").exists()


# A model file's header is 38 bytes: magic (0-3), version (4), n, m and k
# (5-28), the mode byte (29) and r_max (30-37); the factors follow it.
def _nan_first_factor(blob):
    return blob[:38] + struct.pack("<d", float("nan")) + blob[46:]


def _huge_first_factor(blob):
    return blob[:38] + struct.pack("<d", -2.0**401) + blob[46:]


# What the user sees for each bad input: the exit code and the last stderr
# line, or for `benchmark` the row's error cell.  `bad` is the bytes of a bad
# rating file, or for `evaluate` a function spoiling a valid model file's
# bytes; `{path}` is that file and `{size}` the valid model's length.
DIVERGING = ["--algorithm", "classic_mf", "--lr", "10", "--k", "8", "--epochs", "3"]
DIVERGED = ("error: training diverged at epoch 1: non-finite loss; "
            "try a learning_rate smaller than 10.0")
ERROR_CATALOGUE = {
    "bad_rating": ("train", b"1::10::5::0\n1::20::abc::0\n", [],
                   "error: {path}:2: rating 'abc' is not a number"),
    "no_valid_rows": ("train", b"not a line\n1::2::3\n", [],
                      "error: {path}: no valid interactions found"),
    "short_csv_row": ("train", b"1,1,5\n2,2\n", ["--format", "csv"],
                      "error: {path}:2: expected at least 3 columns, found 2"),
    "empty_csv_id": ("train", b"1,1,5\n ,2,4\n", ["--format", "csv"],
                     "error: {path}:2: empty user or item id"),
    "non_utf8_movielens": ("train", b"1::1::5::0\n2::\xe9::4::0\n", [],
                           "error: {path}: not UTF-8 text (invalid continuation byte)"),
    "non_utf8_csv": ("train", b"1,1,5\n2,\xe9,4\n", ["--format", "csv"],
                     "error: {path}: not UTF-8 text (invalid continuation byte)"),
    "empty_split": ("train", b"1::1::5::0\n", [],
                    "error: test_fraction=0.2 left an empty split for 1 interactions"),
    "diverged_train": ("train", None, DIVERGING, DIVERGED),
    "diverged_benchmark": ("benchmark", None, DIVERGING[2:] + ["--algorithms", "classic_mf"],
                           DIVERGED[len("error: "):]),
    "model_bad_magic": ("evaluate", lambda blob: b"NOPE" + blob[4:], [],
                        "error: {path}: not a factor-model file (bad magic)"),
    "model_truncated_header": ("evaluate", lambda blob: blob[:20], [],
                               "error: {path}: truncated header"),
    "model_unknown_version": ("evaluate", lambda blob: blob[:4] + b"\x63" + blob[5:], [],
                              "error: {path}: unsupported format version 99"),
    "model_unknown_mode": ("evaluate", lambda blob: blob[:29] + b"\x07" + blob[30:], [],
                           "error: {path}: unknown prediction mode code 7"),
    "model_trailing_bytes": ("evaluate", lambda blob: blob + bytes(8), [],
                             "error: {path}: payload does not match header dimensions "
                             "(expected {size} bytes, found {size_plus_8})"),
    "model_nan_factor": ("evaluate", _nan_first_factor, [],
                         "error: {path}: factor matrices hold non-finite values"),
    "model_huge_factor": ("evaluate", _huge_first_factor, [],
                          "error: {path}: factor matrices hold values of magnitude above 2**400"),
}


@pytest.mark.parametrize("case", list(ERROR_CATALOGUE))
def test_error_catalogue(case, ratings_file, tmp_path, capsys):
    command, bad, flags, line = ERROR_CATALOGUE[case]
    path = tmp_path / f"bad_{case}"
    out = tmp_path / "out.csv"
    size = 0
    if command == "evaluate":
        ds = load_movielens(ratings_file)
        save_model(init_model(ds.n, ds.m, 4, seed=0, r_max=ds.r_max), path)
        valid = path.read_bytes()
        size = len(valid)
        path.write_bytes(bad(valid))
        argv = ["evaluate", "--input", str(ratings_file), "--model", str(path)]
    else:
        if bad is not None:
            path.write_bytes(bad)
        argv = [command, "--input", str(path if bad is not None else ratings_file)]
        if command == "train":
            argv += ["--algorithm", "cosine_mf"]
    code = main(argv + flags + ["--output", str(out)])
    err = capsys.readouterr().err
    expected = line.format(path=path, size=size, size_plus_8=size + 8)
    assert code == 1
    if command == "benchmark":
        assert [row["error"] for row in read_csv_rows(out)] == [expected]
    else:
        assert err.splitlines()[-1] == expected


def test_evaluate_rejects_huge_finite_factors(tmp_path):
    """Factors near 1e160 overflow their products: `evaluate` names the file in
    one line and exits 1, instead of reporting NaN metrics after a warning."""
    ratings = tmp_path / "ratings.dat"
    write_movielens_file(zipf_popularity_dataset(30, 20, 20, seed=1, rating_scale=5.0,
                                                 integer_ratings=True), ratings)
    rng = np.random.default_rng(0)
    path = tmp_path / "huge.pbmf"
    write_model_file(FactorModel(U=rng.random((30, 4)) * 1e160, V=rng.random((20, 4)) * 1e160,
                                 r_max=5.0), path)
    child = run_pbmf(["evaluate", "--input", str(ratings), "--model", str(path)])
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr.splitlines() == [
        f"error: {path}: factor matrices hold values of magnitude above 2**400"]


def test_train_writes_no_model_that_evaluate_refuses(tmp_path):
    """Factors started at 1e130 end above 2**400: `train` refuses to save them,
    in one error line and exit 1, and leaves neither the model nor its history."""
    model = tmp_path / "model.pbmf"
    child = run_pbmf(["train", "--input", str(DATA_DIR / "ml1m_sample.dat"), "--algorithm",
                      "cosine_mf", "--init-scale", "1e130", "--output", str(model)])
    assert child.returncode == 1
    assert child.stdout == ""
    assert child.stderr.splitlines() == [
        f"error: {model}: factor matrices hold values of magnitude above 2**400"]
    assert list(tmp_path.iterdir()) == []


def test_stdout_matches_output_file(ratings_file, tmp_path, capsys):
    """Without --output a command prints the bytes --output writes.  Two rounds in
    one process: a writer that closed stdout would fail the second."""
    model = tmp_path / "model.pbmf"
    assert main(["train", "--input", str(ratings_file), "--algorithm", "cosine_mf",
                 "--k", "4", "--epochs", "1", "--output", str(model)]) == 0
    commands = [
        ["evaluate", "--input", str(ratings_file), "--model", str(model)],
        ["benchmark", "--input", str(ratings_file), "--algorithms", "random,zipf"],
    ]
    out = tmp_path / "out.csv"
    for _ in range(2):
        for command in commands:
            assert main(command + ["--output", str(out)]) == 0
            capsys.readouterr()
            assert main(command) == 0
            assert capsys.readouterr().out == out.read_bytes().decode("utf-8")


def readme_commands():
    """Every `pbmf ...` command in the README's bash blocks, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["pbmf"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    parser, subs = build_parser()
    commands = readme_commands()
    assert {words[0] for words in commands} == set(subs)
    for words in commands:
        try:
            parser.parse_args(words)  # parses only, runs nothing
        except SystemExit:
            pytest.fail(f"README command does not parse: pbmf {shlex.join(words)}")
