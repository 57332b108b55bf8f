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
