"""Smoke test of the benchmark's traced replay (perfbench/replay.py).

The replay wraps package attributes by name and then runs `pbmf.cli.main`,
so deleting or renaming a wrapped attribute breaks every traced benchmark
run.  This runs it once on a tiny file and checks that it still works.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from pbmf.cli import main
from pbmf.synthetic import write_movielens_file, zipf_popularity_dataset

REPLAY = Path(__file__).resolve().parent.parent / "perfbench" / "replay.py"


def test_replay_benchmark_matches_plain_run(tmp_path):
    dataset = zipf_popularity_dataset(60, 30, 8, seed=99, rating_scale=5.0,
                                      integer_ratings=True)
    ratings = tmp_path / "ratings.dat"
    write_movielens_file(dataset, ratings)
    flags = ["benchmark", "--input", str(ratings), "--k", "4", "--epochs", "1",
             "--beta", "0,0.1", "--seed", "99"]
    plain = tmp_path / "plain.csv"
    assert main(flags + ["--output", str(plain)]) == 0

    traced = tmp_path / "traced.csv"
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, str(REPLAY), str(spans_path), *flags, "--output", str(traced)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert traced.read_bytes() == plain.read_bytes()
    names = {span["name"] for span in json.loads(spans_path.read_text())}
    assert {"model.scores_for_user", "model.predicted_ratings", "model.normalized_scores",
            "baselines.scores_for_user", "training.full_loss", "model.top_k"} <= names


def test_replay_evaluate_matches_plain_run_and_scores_each_user_once(tmp_path):
    dataset = zipf_popularity_dataset(40, 25, 8, seed=99, rating_scale=5.0,
                                      integer_ratings=True)
    ratings = tmp_path / "ratings.dat"
    write_movielens_file(dataset, ratings)
    model_path = tmp_path / "model.pbmf"
    assert main(["train", "--input", str(ratings), "--algorithm", "cosine_mf", "--k", "4",
                 "--epochs", "1", "--seed", "99", "--output", str(model_path)]) == 0
    flags = ["evaluate", "--input", str(ratings), "--model", str(model_path),
             "--seed", "99", "--label", "cosine_mf"]
    plain = tmp_path / "plain.csv"
    assert main(flags + ["--output", str(plain)]) == 0

    traced = tmp_path / "traced.csv"
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, str(REPLAY), str(spans_path), *flags, "--output", str(traced)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert traced.read_bytes() == plain.read_bytes()
    # perfbench's per-user top_k metrics need one scoring span per ranked user.
    spans = json.loads(spans_path.read_text())
    tops = [index for index, span in enumerate(spans) if span["name"] == "model.top_k"]
    assert tops
    for index in tops:
        calls = [span for span in spans
                 if span["parent"] == index and span["name"] == "model.scores_for_user"]
        assert len(calls) == spans[index]["users"] > 0
