"""Benchmark harness for the `pbmf` CLI.

Usage, from the root of a pbmf checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run generates the workload's inputs from the seed (timed as set-up),
checks a run of the same command on seed-99 inputs of the same size against
committed reference values, then starts the CLI as a child process again and
again for S seconds and checks every invocation's outputs.  With --trace 1 it spends half the
time on untraced invocations and half on traced CLI runs (replay.py), which
give the per-layer numbers.  Every metric is printed by name with its unit;
the last line of standard output is one JSON object with the result.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The harness and every child it starts run on one CPU.  On a shared virtual
# machine the speed of each CPU drifts by tens of percent over minutes, and
# the CPUs drift apart; on one CPU, the fixed reference work of `probe_s`
# slows down and speeds up with the workload, which lets the timings be
# reported at a reference speed (see END_TO_END_UNITS).
NPROC = os.cpu_count()
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
# Cap BLAS threads at the cores the benchmark may use, here (before numpy is
# imported) and in every child through the inherited environment.
BLAS_THREADS = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
if not (SRC / "pbmf" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no {SRC / 'pbmf'}; run from the root of a pbmf checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from pbmf import data, model, synthetic  # noqa: E402
from pbmf.metrics import REPORT_COLUMNS  # noqa: E402

PBMF = [sys.executable, "-m", "pbmf"]
SETUP_REPEATS = 5
REFERENCE_SEED = 99
REFERENCE_FILE = HERE / "reference.json"
# Numeric cells may differ from the reference by this relative amount.  The
# result CSV prints 6 significant digits, so a change of summation order
# moves a value by at most about 1e-5 relative; 1e-4 leaves ten times that.
REL_TOL = 1e-4
# A hung child is killed in time for the whole run to end within 180 s.
CHILD_TIMEOUT_S = 90.0
EVAL_MODEL_K = 8

# Times in END_TO_END_UNITS are at reference speed: measured seconds times
# PROBE_REF_S over the `probe_s` taken just before the timed work, and a run
# reports the median of those over its invocations or its set-ups; speed
# drifts within a run as well as between runs.  PROBE_REF_S is the
# probe's median where the benchmark was defined (Xeon, KVM guest, 2 vCPUs).
PROBE_REF_S = 0.25
END_TO_END_UNITS = {"wall_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "data.load_movielens_s": "s",
    "data.split_s": "s",
    "data.items_by_user_s": "s",
    "data.self_s": "s",
    "synthetic.generate_s": "s",
    "training.us_per_sample.classic_mf.k8": "us",
    "training.us_per_sample.cosine_mf.k8": "us",
    "training.us_per_sample.position_bias_mf.k8": "us",
    "training.us_per_sample.position_bias_mf.k32": "us",
    "training.full_loss_s": "s",
    "training.self_s": "s",
    "workload.train_rows": "count",
    "workload.max_item_degree": "count",
    "workload.conflict_free_waves": "count",
    "workload.mean_wave_batch": "count",
    "model.top_k_s": "s",
    "model.top_k_us_per_user": "us",
    "model.top_k_us_per_user_p99": "us",
    "model.top_k_rank_us_per_user": "us",
    "model.scores_for_user_us": "us",
    "model.top_k_retained_mb": "MB",
    "model.save_model_s": "s",
    "model.load_model_s": "s",
    "model.file_bytes": "bytes",
    "model.self_s": "s",
    "metrics.evaluate_all_s": "s",
    "metrics.mae_s": "s",
    "metrics.position_bias_metric_s": "s",
    "metrics.matthew_degree_s": "s",
    "metrics.self_s": "s",
    "baselines.random_evaluate_s": "s",
    "baselines.zipf_evaluate_s": "s",
    "baselines.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
    "sgd_samples_per_s": "1/s",
    "users_ranked_per_s": "1/s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    flags: tuple[str, ...]
    # size -> (users, items, ratings per user, popularity exponent)
    shapes: dict[str, tuple[int, int, int, float]]

    def flag(self, name: str) -> str:
        return self.flags[self.flags.index(name) + 1]

    def argv(self, inputs: Path, out: Path, seed: int) -> list[str]:
        argv = [self.command, "--input", str(inputs / "ratings.dat"), *self.flags,
                "--seed", str(seed)]
        if self.command == "evaluate":
            argv += ["--model", str(inputs / "model.pbmf")]
        return argv + ["--output", str(self.outputs(out)[0])]

    def outputs(self, out: Path) -> list[Path]:
        """Files the command writes; the last one is the table checked by value."""
        if self.command == "train":
            return [out / "model.pbmf", out / "model.pbmf.history.csv"]
        return [out / "result.csv"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "benchmark_zipf50k", "benchmark",
            ("--algorithms", "classic_mf,cosine_mf,position_bias_mf,random,zipf", "--beta", "0,0.1,1",
             "--k", "8", "--epochs", "1"),
            {"full": (2000, 500, 25, 1.0), "tiny": (60, 30, 8, 1.0)},
        ),
        Workload(
            "train_flat_k32", "train",
            ("--algorithm", "position_bias_mf", "--beta", "0.1", "--k", "32", "--epochs", "3"),
            {"full": (4000, 2000, 20, 0.5), "tiny": (80, 60, 8, 0.5)},
        ),
        Workload(
            "evaluate_wide", "evaluate",
            ("--label", "cosine_mf"),
            {"full": (5000, 4000, 20, 0.8), "tiny": (80, 60, 8, 0.8)},
        ),
    )
}


# -- inputs ------------------------------------------------------------------

@dataclass
class Inputs:
    directory: Path
    dataset: data.RatingsDataset
    n: int
    m: int
    generate_s: float
    setup_s: float


def workload_descriptors(dataset: data.RatingsDataset, seed: int) -> dict[str, float]:
    """Exact counts over the CLI's train split, waves over the trainer's first shuffle.

    A sample's wave is 1 + the latest wave of its user or its item, so the
    samples of one wave share no factor row and could be applied together.
    """
    train, _ = data.split(dataset, data.SplitSpec(test_fraction=0.2, seed=seed))
    order = np.random.default_rng([seed, 1]).permutation(len(train))
    last_user = [0] * train.n
    last_item = [0] * train.m
    waves = 0
    for u, j in zip(train.users[order].tolist(), train.items[order].tolist()):
        wave = max(last_user[u], last_item[j]) + 1
        last_user[u] = last_item[j] = wave
        if wave > waves:
            waves = wave
    return {
        "workload.train_rows": len(train),
        "workload.max_item_degree": int(np.bincount(train.items).max()),
        "workload.conflict_free_waves": waves,
        "workload.mean_wave_batch": len(train) / waves,
    }


def make_inputs(wl: Workload, size: str, seed: int, directory: Path) -> Inputs:
    """Write the rating file (and, for evaluate, a model sized to it)."""
    directory.mkdir(parents=True, exist_ok=True)
    users, items, per_user, exponent = wl.shapes[size]
    start = time.perf_counter()
    dataset = synthetic.zipf_popularity_dataset(
        users, items, per_user, seed=seed,
        popularity_exponent=exponent, rating_scale=5, integer_ratings=True,
    )
    synthetic.write_movielens_file(dataset, directory / "ratings.dat")
    generated = time.perf_counter()
    # The loader numbers the ids it sees, so n and m are the distinct counts.
    n, m = len(np.unique(dataset.users)), len(np.unique(dataset.items))
    if wl.command == "evaluate":
        fresh = model.init_model(n, m, EVAL_MODEL_K, seed=seed, r_max=float(dataset.r_max))
        model.save_model(fresh, directory / "model.pbmf")
    done = time.perf_counter()
    return Inputs(directory, dataset, n, m, generated - start, done - start)


# -- output checks -------------------------------------------------------------

def _read_table(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def check_outputs(wl: Workload, out: Path, inputs: Inputs) -> str | None:
    """Structural checks on one invocation's files; returns why they fail."""
    files = wl.outputs(out)
    missing = [p.name for p in files if not p.is_file()]
    if missing:
        return f"missing output {', '.join(missing)}"
    try:
        table = _read_table(files[-1])
    except (UnicodeDecodeError, csv.Error) as exc:
        return f"unreadable {files[-1].name}: {exc}"
    if not table:
        return f"empty {files[-1].name}"
    header, rows = table[0], table[1:]
    if wl.command == "train":
        return _check_train(wl, header, rows, files[0].read_bytes(), inputs)
    expected = REPORT_COLUMNS + (["error"] if wl.command == "benchmark" else [])
    if header != expected:
        return f"header {header} != {expected}"
    if any(len(row) != len(header) for row in rows):
        return "row with the wrong number of columns"
    if any(not _is_number(cell) for row in rows for cell in row[1:len(REPORT_COLUMNS)]):
        return "non-numeric metric cell"
    if wl.command == "evaluate":
        if [row[0] for row in rows] != [wl.flag("--label")]:
            return "expected one row for the evaluated model"
        return None
    betas = wl.flag("--beta").split(",")
    algorithms = [
        a for a in wl.flag("--algorithms").split(",")
        for _ in (betas if a == "position_bias_mf" else [0])
    ]
    if [row[0] for row in rows] != algorithms:
        return f"rows {[row[0] for row in rows]} != {algorithms}"
    if any(row[-1] for row in rows):
        return "non-empty error column"
    cosine = next(row for row in rows if row[0] == "cosine_mf")
    beta_zero = next(row for row in rows if row[0] == "position_bias_mf")
    if beta_zero[1:] != cosine[1:]:
        return "position_bias_mf at beta=0 differs from cosine_mf"
    return None


def _check_train(wl, header, rows, model_bytes: bytes, inputs: Inputs) -> str | None:
    if header != ["epoch", "fit_loss", "penalty_loss", "total_loss"]:
        return f"history header {header}"
    if [row[0] for row in rows] != [str(e) for e in range(1, int(wl.flag("--epochs")) + 1)]:
        return "history does not list every epoch once"
    if not all(_is_number(c) and math.isfinite(float(c)) for row in rows for c in row[1:]):
        return "non-finite loss in history"
    # Only what any model format version must hold: the magic and the two
    # float64 factor matrices, n x k and m x k.
    factors = (inputs.n + inputs.m) * int(wl.flag("--k")) * 8
    if model_bytes[:4] != b"PBMF" or len(model_bytes) < factors:
        return "model file lacks the PBMF magic or the factor matrices"
    return None


def compare_reference(table: list[list[str]], reference: list[list[str]]) -> str | None:
    """Cells equal, numbers within REL_TOL of the committed reference."""
    if len(table) != len(reference) or any(len(a) != len(b) for a, b in zip(table, reference)):
        return "table shape differs from the reference"
    for row, ref_row in zip(table, reference):
        for cell, ref in zip(row, ref_row):
            if cell == ref:
                continue
            if not (_is_number(cell) and _is_number(ref)
                    and math.isclose(float(cell), float(ref), rel_tol=REL_TOL)):
                return f"{row[0]}: {cell!r} differs from the reference {ref!r}"
    return None


def load_reference() -> dict[str, dict[str, list[list[str]]]]:
    """size -> workload -> the output table at REFERENCE_SEED."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


# -- child processes -----------------------------------------------------------

@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    stderr: str


def run_child(argv: list[str], cwd: Path) -> Child:
    """Run one child to completion; wall time from spawn to exit, its own peak RSS."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def child_failure(child: Child) -> str | None:
    if child.code != 0:
        return f"exit code {child.code}: {child.stderr.strip()[-200:]}"
    if "Traceback" in child.stderr:
        return "traceback on stderr"
    return None


class Tally:
    """Every child the run starts is one attempt; a failed check fails it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, reason: str | None) -> bool:
        self.attempted += 1
        if reason:
            self.failures.append(f"{label}: {reason}")
        return reason is None


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def invoke(wl: Workload, inputs: Inputs, seed: int, out: Path, argv_prefix: list[str],
           reference: list[list[str]] | None) -> tuple[Child, str | None]:
    """One invocation into an emptied `out`, with every output check."""
    fresh_dir(out)
    child = run_child(argv_prefix + wl.argv(inputs.directory, out, seed), out)
    reason = child_failure(child) or check_outputs(wl, out, inputs)
    if reason is None and reference is not None:
        reason = compare_reference(_read_table(wl.outputs(out)[-1]), reference)
    return child, reason


class Invocations:
    """Untraced CLI invocations of one run; each is checked, and all must
    write the same bytes as the first."""

    def __init__(self, wl: Workload, inputs: Inputs, seed: int, tally: Tally,
                 program: list[str] = PBMF) -> None:
        self.wl, self.inputs, self.seed, self.tally, self.program = wl, inputs, seed, tally, program
        self.out = inputs.directory.parent / "out"
        self.walls: list[float] = []
        self.ref_walls: list[float] = []
        self.rss: list[float] = []
        self.probes: list[float] = []
        self.first: list[bytes] | None = None

    def once(self) -> None:
        self.probes.append(probe_s())
        child, reason = invoke(self.wl, self.inputs, self.seed, self.out, self.program, None)
        if reason is None:
            produced = [p.read_bytes() for p in self.wl.outputs(self.out)]
            self.first = self.first or produced
            if produced != self.first:
                reason = "outputs differ from the first invocation of this run"
        if self.tally.record(f"{self.wl.name} invocation", reason):
            self.walls.append(child.wall_s)
            self.ref_walls.append(child.wall_s * PROBE_REF_S / self.probes[-1])
            self.rss.append(child.rss_mb)


def repeat_until(seconds: float, *steps) -> None:
    """Run the steps in turn, at least once, while one more round of the
    average length still ends within `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for step in steps:
            step()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return


# -- traced replay -------------------------------------------------------------

def replay(wl: Workload, inputs: Inputs, seed: int, out: Path) -> tuple[Child, list[dict]]:
    fresh_dir(out)
    spans_path = out / "spans.json"
    argv = [sys.executable, str(HERE / "replay.py"), str(spans_path),
            *wl.argv(inputs.directory, out, seed)]
    child = run_child(argv, out)
    spans = json.loads(spans_path.read_text()) if spans_path.is_file() else []
    return child, spans


def _median(values) -> float:
    return float(statistics.median(values))


def probe_s() -> float:
    """Seconds for fixed reference work with the workloads' mix: small numpy
    calls from a Python loop, then stable argsorts of a 4000-vector."""
    rng = np.random.default_rng(0)
    rows, vector = rng.random((256, 8)), rng.random(4000)
    total = 0.0
    start = time.perf_counter()
    for i in range(36000):
        u, v = rows[i & 255], rows[(i * 7) & 255]
        total += float(u @ v) / (float(u @ u) ** 0.5 + 1.0)
    for _ in range(600):
        total += float(np.argsort(-vector, kind="stable")[0])
    return time.perf_counter() - start


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one replay; only layers the replay called appear."""
    durations = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span["parent"] is not None:
            covered[span["parent"]] += duration
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for span, duration, inner in zip(spans, durations, covered):
        total[span["name"]] += duration
        self_time[span["name"].split(".")[0]] += duration - inner
    out = {f"{layer}.self_s": t for layer, t in self_time.items()}
    out["cli.self_s"] = wall_s - sum(
        d for s, d in zip(spans, durations) if s["parent"] is None
    )
    for metric, name in (
        ("data.load_movielens_s", "data.load_movielens"),
        ("data.split_s", "data.split"),
        ("data.items_by_user_s", "data.items_by_user"),
        ("training.full_loss_s", "training.full_loss"),
        ("model.top_k_s", "model.top_k"),
        ("model.save_model_s", "model.save_model"),
        ("model.load_model_s", "model.load_model"),
        ("metrics.evaluate_all_s", "metrics.evaluate_all"),
        ("metrics.mae_s", "metrics.mae"),
        ("metrics.position_bias_metric_s", "metrics.position_bias_metric"),
        ("metrics.matthew_degree_s", "metrics.matthew_degree"),
    ):
        if name in total:
            out[metric] = total[name]

    trained: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for span, duration in zip(spans, durations):
        name = span["name"]
        if name == "training.train":
            key = f"training.us_per_sample.{span['algorithm']}.k{span['k']}"
            trained[key][0] += duration
            trained[key][1] += span["samples"]
        elif name in ("model.save_model", "model.load_model"):
            out["model.file_bytes"] = span["bytes"]
        elif span.get("algorithm") in ("random", "zipf"):
            # The baseline's construction plus its evaluate_all.
            key = f"baselines.{span['algorithm']}_evaluate_s"
            out[key] = out.get(key, 0.0) + duration
    out.update({key: 1e6 * t / n for key, (t, n) in trained.items()})

    # Per user in top_k: the calls' time over the users they ranked, which
    # any top_k gives.  Where top_k scores one user per scores_for_user call,
    # each user also runs from one such call to the next (or to the end of
    # top_k), which gives the p99 and, less the scoring, the sort and the
    # exclusion.
    top = [i for i, s in enumerate(spans) if s["name"] == "model.top_k"]
    if top:
        out["model.top_k_us_per_user"] = (
            1e6 * sum(durations[i] for i in top) / sum(spans[i]["users"] for i in top)
        )
        out["model.top_k_retained_mb"] = max(spans[i]["retained_bytes"] for i in top) / 2**20
    per_user: list[float] = []
    ranking: list[float] = []
    for index in top:
        calls = [i for i, s in enumerate(spans)
                 if s["parent"] == index and s["name"].endswith(".scores_for_user")]
        if len(calls) != spans[index]["users"]:
            continue
        stops = [spans[i]["start"] for i in calls[1:]] + [spans[index]["end"]]
        for i, stop in zip(calls, stops):
            per_user.append(stop - spans[i]["start"])
            ranking.append(per_user[-1] - durations[i])
    if per_user:
        out["model.top_k_us_per_user_p99"] = 1e6 * float(np.percentile(per_user, 99))
        out["model.top_k_rank_us_per_user"] = 1e6 * _median(ranking)
    scoring = [d for s, d in zip(spans, durations) if s["name"] == "model.scores_for_user"]
    if scoring:
        out["model.scores_for_user_us"] = 1e6 * _median(scoring)
    return out


def work_counts(spans: list[dict]) -> tuple[int, int]:
    """(SGD updates, users ranked) of one replay."""
    updates = sum(s["samples"] for s in spans if s["name"] == "training.train")
    ranked = sum(s["users"] for s in spans if s["name"] == "model.top_k")
    return updates, ranked


def span_table(spans: list[dict]) -> list[str]:
    """One line per span name: calls, total and median seconds per call."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span["end"] - span["start"])
    return [
        f"span {name} calls={len(d)} total_s={sum(d):.6f} median_s={_median(d):.6g}"
        for name, d in sorted(by_name.items())
    ]


def describe(values: list[float]) -> str:
    """Median, quartiles, sample count, and the highest percentile with >= 10 samples beyond it."""
    text = f"median={_median(values):.6g} n={len(values)}"
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1={q1:.6g} q3={q3:.6g}"
    for q in (99.9, 99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return text + f" p{q:g}={float(np.percentile(values, q)):.6g}"
    return text


# -- one run -------------------------------------------------------------------

def setup(wl: Workload, size: str, seed: int, directory: Path,
          tally: Tally) -> tuple[Inputs, list[Inputs], list[float]]:
    """Generate the inputs SETUP_REPEATS times, each after a probe; the files
    must come out identical.  Returns the last inputs, every repeat, the probes."""
    runs, probes, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        probes.append(probe_s())
        runs.append(make_inputs(wl, size, seed, fresh_dir(directory)))
        digests.add(tuple(
            hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())
        ))
    tally.record(f"{wl.name} set-up", None if len(digests) == 1 else "inputs differ between repeats")
    return runs[-1], runs, probes


def canary(wl: Workload, size: str, work: Path, tally: Tally) -> None:
    """The same command at the same size and the reference seed, checked by value."""
    inputs = make_inputs(wl, size, REFERENCE_SEED, fresh_dir(work / "canary" / "inputs"))
    _, reason = invoke(wl, inputs, REFERENCE_SEED, work / "canary" / "out", PBMF,
                       load_reference()[size][wl.name])
    tally.record(f"{wl.name} reference canary", reason)


class Replays:
    """Traced replays of one run; each must write the untraced run's bytes."""

    def __init__(self, wl: Workload, inputs: Inputs, seed: int, tally: Tally,
                 untraced: Invocations, out: Path) -> None:
        self.wl, self.inputs, self.seed, self.tally = wl, inputs, seed, tally
        self.untraced, self.out = untraced, out
        self.walls: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.spans: list[dict] = []

    def once(self) -> None:
        child, spans = replay(self.wl, self.inputs, self.seed, self.out)
        reason = child_failure(child)
        if reason is None and [p.read_bytes() for p in self.wl.outputs(self.out)] != self.untraced.first:
            reason = "replay outputs differ from the untraced CLI run"
        if self.tally.record(f"{self.wl.name} traced replay", reason):
            self.walls.append(child.wall_s)
            self.layers.append(layer_metrics(spans, child.wall_s))
            self.spans = spans


def trace_metrics(replays: Replays, untraced: Invocations, lines: list[str]) -> dict[str, float]:
    """Median of each layer metric over the replays, plus overhead and rates."""
    if not replays.layers:
        return {}
    lines.extend(span_table(replays.spans))
    own = {key: _median([m[key] for m in replays.layers if key in m])
           for key in set().union(*replays.layers)}
    untraced_s = _median(untraced.walls)
    lines.append(f"trace replay_wall_s {describe(replays.walls)} untraced_wall_s {untraced_s:.6g}")
    updates, ranked = work_counts(replays.spans)
    return {
        **own,
        "trace.overhead_pct": 100.0 * (_median(replays.walls) / untraced_s - 1.0),
        "sgd_samples_per_s": updates / untraced_s,
        "users_ranked_per_s": ranked / untraced_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    tally = Tally()
    lines = [
        f"env nproc={NPROC} pinned_cpu={CPU} blas_threads={BLAS_THREADS} "
        f"python={platform.python_version()} "
        f"numpy={np.__version__}",
        f"workload {wl.name} size={args.size} seed={args.seed} "
        f"command=pbmf {' '.join(wl.argv(Path('in'), Path('out'), args.seed))}",
    ]

    inputs, repeats, setup_probes = setup(wl, args.size, args.seed, work / "inputs", tally)
    files = sorted(inputs.directory.iterdir())
    lines.append("inputs " + " ".join(f"{p.name}={p.stat().st_size}B" for p in files))
    descriptors = workload_descriptors(inputs.dataset, args.seed)
    lines += [f"{key} {value:.6g} count" for key, value in descriptors.items()]
    canary(wl, args.size, work, tally)

    # With tracing, untraced invocations and traced replays alternate, so that
    # drift in machine speed hits both alike.
    untraced = Invocations(wl, inputs, args.seed, tally)
    replays = Replays(wl, inputs, args.seed, tally, untraced, work / "replay")
    repeat_until(args.seconds, *([untraced.once, replays.once] if args.trace else [untraced.once]))
    walls, rss = untraced.walls, untraced.rss
    if not walls:
        print("\n".join(lines + tally.failures), file=sys.stderr)
        print("perfbench: no invocation succeeded", file=sys.stderr)
        return 1
    setups = [r.setup_s for r in repeats]
    e2e = {
        "wall_ref_s": _median(untraced.ref_walls),
        "peak_rss_mb": _median(rss),
        "setup_s": _median([s * PROBE_REF_S / p for s, p in zip(setups, setup_probes)]),
    }
    lines += [
        f"wall_s {describe(walls)} s samples={' '.join(f'{w:.4f}' for w in walls)}",
        f"probe_s {describe(untraced.probes)} s set-up {describe(setup_probes)} s "
        f"reference={PROBE_REF_S}",
        f"peak_rss_mb {describe(rss)} MB",
        f"setup_s (measured) {describe(setups)} s",
        *(f"{key} {value:.6g} {END_TO_END_UNITS[key]}" for key, value in e2e.items()),
    ]

    if args.trace:
        layers = trace_metrics(replays, untraced, lines)
        layers.update(descriptors)
        layers["synthetic.generate_s"] = _median([r.generate_s for r in repeats])
        # A layer the workload does not call reads 0.
        metrics_out = {k: {"value": layers.get(k, 0.0), "unit": u}
                       for k, u in PER_LAYER_UNITS.items()}
        lines += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics_out.items()]
    else:
        metrics_out = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    failed = len(tally.failures)
    lines.append(f"error_rate {failed / tally.attempted:.6g} ({failed}/{tally.attempted})")
    lines += [f"failure {reason}" for reason in tally.failures]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
