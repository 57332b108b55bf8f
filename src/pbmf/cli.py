"""Command-line front end: train models, evaluate them, and run benchmarks.

Subcommands:

    train      fit one algorithm and write the model + loss-history CSV
    evaluate   score a saved model on a held-out split
    benchmark  train/evaluate every requested algorithm on one shared split

Flags can also be supplied through `--config FILE`, a plain `key = value`
text file; explicit flags override file values.  All output CSVs are
byte-deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from . import baselines, data, metrics, training
from .model import load_model, save_model

BENCHMARK_ALGORITHMS = training.ALGORITHMS + ("random", "zipf")


def _number(cast: type, ok: Callable[[Any], bool], expected: str) -> Callable[[str], Any]:
    """An argparse type: `cast` the text and keep the value if `ok(value)` holds
    and, for a float, the value is finite (so NaN and ±inf are usage errors).
    Text with a `_` is one too: int() and float() read "3_2" as 32."""
    def parse(text: str) -> Any:
        try:
            value = cast(text)
        except ValueError:
            pass
        else:
            if "_" not in text and ok(value) and (cast is int or math.isfinite(value)):
                return value + 0  # -0.0 + 0 is +0.0, so "-0" writes a "0" cell
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
_nonneg_int = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _number(float, lambda v: v > 0, "a positive number")
_nonneg_float = _number(float, lambda v: v >= 0, "a number >= 0")
_fraction = _number(float, lambda v: 0 < v < 1, "a fraction in (0, 1)")


def _list_parts(text: str, what: str) -> list[str]:
    """The stripped parts of a comma-separated list, blank ones dropped; at least one."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"{what} list must not be empty")
    return parts


def _beta_list(text: str) -> list[float]:
    return [_nonneg_float(p) for p in _list_parts(text, "beta")]


def _algorithm_list(text: str) -> list[str]:
    names = _list_parts(text, "algorithm")
    for name in names:
        if name not in BENCHMARK_ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {name!r}; choose from {', '.join(BENCHMARK_ALGORITHMS)}"
            )
    return names


def _delimiter(text: str) -> str:
    if text == "\\t":
        text = "\t"
    if len(text) != 1:
        raise argparse.ArgumentTypeError(
            f"delimiter must be a single character (or \\t), got {text!r}"
        )
    return text


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="rating file to load")
    p.add_argument("--format", choices=("movielens", "csv"), default="movielens",
                   help="input layout: UserID::MovieID::Rating::Timestamp lines or delimited columns")
    p.add_argument("--user-col", type=_nonneg_int, default=0, help="user-id column (csv format)")
    p.add_argument("--item-col", type=_nonneg_int, default=1, help="item-id column (csv format)")
    p.add_argument("--rating-col", type=_nonneg_int, default=2, help="rating column (csv format)")
    p.add_argument("--delimiter", type=_delimiter, default=",",
                   help="field delimiter (csv format); \\t for tab")
    p.add_argument("--header", action="store_true",
                   help="skip the first non-blank row of the csv file")
    p.add_argument("--test-fraction", type=_fraction, default=0.2,
                   help="fraction of interactions held out for testing")
    p.add_argument("--seed", type=_nonneg_int, default=42,
                   help="seed shared by the split, the initializer, and the baselines")
    p.add_argument("--config", default=None,
                   help="key = value file supplying defaults; explicit flags win")


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=_positive_int, default=32, help="latent dimension")
    p.add_argument("--lr", type=_positive_float, default=0.01, help="SGD learning rate")
    p.add_argument("--epochs", type=_positive_int, default=20)
    p.add_argument("--init-scale", type=_positive_float, default=0.1,
                   help="factors start uniform on (0, init-scale]")


def _add_metric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-top", type=_positive_int, default=10,
                   help="recommendation-list length for the Matthew degree")
    p.add_argument("--matthew-variant", choices=metrics.MATTHEW_VARIANTS, default="literal",
                   help="reference frequency in the Matthew degree: max (literal) or min (pareto)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser with two corrections: a token of numbers is a value,
    not an option string, and a flag given "--" as its value is a usage error."""

    def _parse_optional(self, arg_string):
        """argparse takes -1 and -.5 for values but -1e-3, -inf and -1,0.5 for
        option strings; take every token whose parts float() reads, split as a
        list flag splits it, for a value.  No option string reads as a float."""
        try:
            for part in _list_parts(arg_string, "number"):
                float(part)
        except (ValueError, argparse.ArgumentTypeError):
            return super()._parse_optional(arg_string)
        return None

    def parse_known_args(self, args=None, namespace=None):
        """Python < 3.12 stores [] for a value of "--" (`--k=--`) without calling its type."""
        namespace, extras = super().parse_known_args(args, namespace)
        for action in self._actions:
            if action.nargs is None and getattr(namespace, action.dest, None) == []:
                self.error(f"argument {action.option_strings[0]}: expected one argument")
        return namespace, extras


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="pbmf",
        description="Matrix-factorization recommender toolkit with a position-bias penalty.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("train", help="train one algorithm and save the model")
    _add_data_flags(p)
    _add_training_flags(p)
    p.add_argument("--algorithm", choices=training.ALGORITHMS, required=True)
    p.add_argument("--beta", type=_nonneg_float, default=0.0,
                   help="weight of the uniform-click penalty (position_bias_mf)")
    p.add_argument("--output", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = subparsers.add_parser("evaluate", help="evaluate a saved model on a held-out split")
    _add_data_flags(p)
    _add_metric_flags(p)
    p.add_argument("--model", required=True, help="model file written by `train`")
    p.add_argument("--label", default="model", help="algorithm name for the report row")
    p.add_argument("--output", default=None, help="report CSV (stdout when omitted)")
    p.set_defaults(func=cmd_evaluate)

    p = subparsers.add_parser("benchmark", help="compare algorithms on one shared split")
    _add_data_flags(p)
    _add_training_flags(p)
    _add_metric_flags(p)
    p.add_argument("--algorithms", type=_algorithm_list,
                   default=list(BENCHMARK_ALGORITHMS),
                   help="comma-separated subset of: " + ", ".join(BENCHMARK_ALGORITHMS))
    p.add_argument("--beta", type=_beta_list, default=[0.0, 0.1, 1.0],
                   help="comma-separated beta values for position_bias_mf")
    p.add_argument("--output", default=None, help="results CSV (stdout when omitted)")
    p.set_defaults(func=cmd_benchmark)
    return parser, dict(subparsers.choices)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a `key = value` file; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return values


def _config_tokens(subs: dict[str, argparse.ArgumentParser], command: str,
                   values: dict[str, str]) -> list[str]:
    """Turn the config keys that `command` takes into flag tokens for argparse to
    check.  Keys of other subcommands are ignored; a key none takes, `help` and
    `config` among them, is an error."""
    known = {action.dest for sub in subs.values() for action in sub._actions} - {"help", "config"}
    actions = {action.dest: action for action in subs[command]._actions if action.dest in known}
    tokens: list[str] = []
    for key, raw in values.items():
        action = actions.get(key)
        if action is None:
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            continue
        flag = action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{flag}={raw}")
        elif _parse_bool(raw):
            tokens.append(flag)
    return tokens


def _split_dataset(args: argparse.Namespace):
    if args.format == "movielens":
        dataset = data.load_movielens(args.input)
    else:
        dataset = data.load_csv(
            args.input,
            user_col=args.user_col,
            item_col=args.item_col,
            rating_col=args.rating_col,
            delimiter=args.delimiter,
            has_header=args.header,
        )
    return data.split(dataset, data.SplitSpec(test_fraction=args.test_fraction, seed=args.seed))


def _train_config(args: argparse.Namespace, algorithm: str, beta: float) -> training.TrainConfig:
    """Training hyperparameters from the shared training flags; a bad mix,
    such as a nonzero beta for an algorithm without a penalty, raises ValueError."""
    return training.TrainConfig(algorithm=algorithm, k=args.k, learning_rate=args.lr, beta=beta,
                                epochs=args.epochs, seed=args.seed, init_scale=args.init_scale)


def _baseline(algorithm: str, train_set: data.RatingsDataset, args: argparse.Namespace) -> object:
    """The `random` or `zipf` scorer of the training set."""
    if algorithm == "random":
        return baselines.RandomScorer(args.seed, train_set.m, train_set.r_max, train_set.n)
    return baselines.ZipfScorer.from_dataset(train_set)


def _write_csv(output: str | None, header: list[str], rows: list[list[str]]) -> None:
    """Write the table to `output`, or to stdout (left open) when there is none."""
    with (open(output, "w", encoding="utf-8", newline="") if output
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_train(args: argparse.Namespace) -> int:
    config = _train_config(args, args.algorithm, args.beta)  # checked before any read
    train_set, _ = _split_dataset(args)
    model, history = training.train(train_set, config)
    save_model(model, args.output)
    history_path = Path(str(args.output) + ".history.csv")
    training.save_loss_history(history, history_path)
    print(f"final loss: {metrics.format_value(history[-1].total)}")
    print(f"wrote {args.output} and {history_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    train_set, test_set = _split_dataset(args)
    if (model.n, model.m) != (train_set.n, train_set.m):
        raise ValueError(
            f"model {args.model} has {model.n} users x {model.m} items, "
            f"but {args.input} has {train_set.n} users x {train_set.m} items"
        )
    report = metrics.evaluate_all(model, train_set, test_set, args.k_top, args.matthew_variant,
                                  algorithm=args.label, k=model.k, seed=args.seed)
    _write_csv(args.output, metrics.REPORT_COLUMNS, [metrics.report_row(report)])
    return 0


def _run_key(algorithm: str, beta: float) -> tuple[str, float]:
    """The run a row's metrics come from: `position_bias_mf` at beta 0 is
    `cosine_mf`, so the two share a key."""
    if algorithm == "position_bias_mf" and beta == 0:
        return ("cosine_mf", 0.0)
    return (algorithm, beta)


def cmd_benchmark(args: argparse.Namespace) -> int:
    """One split, one row per algorithm and, for position_bias_mf, per beta.
    Each distinct run is trained and evaluated once, and its report fills
    every row it measures with the row's own algorithm and beta: `cosine_mf`
    and `position_bias_mf` at beta 0 are one run, as is a repeated algorithm
    or beta.  The distinct trained runs, dot and cosine mode, train in one
    `training.train_runs` call, and each row finds its run's result by its
    key; a failed run writes its error cell on each of its rows."""
    train_set, test_set = _split_dataset(args)
    rows = [(algorithm, beta) for algorithm in args.algorithms
            for beta in (args.beta if algorithm == "position_bias_mf" else [0.0])]
    keys = list(dict.fromkeys(_run_key(*row) for row in rows))
    to_train = [key for key in keys if key[0] in training.ALGORITHMS]
    configs = [_train_config(args, *key) for key in to_train]
    try:
        trained = dict(zip(to_train, training.train_runs(train_set, configs) if configs else []))
    except (ValueError, MemoryError) as exc:  # every run it would have trained fails alike
        trained = dict.fromkeys(to_train, exc)
    results: dict[tuple[str, float], tuple[metrics.MetricsReport, BaseException | None]] = {}
    for algorithm, beta in keys:
        outcome = trained.get((algorithm, beta))  # a trained run's (model, history) or its error
        # Baselines have no latent dimension and no epochs, failed or not.
        k_used, epochs_used = (0, 0) if outcome is None else (args.k, args.epochs)
        run = dict(algorithm=algorithm, beta=beta, k=k_used, epochs=epochs_used, seed=args.seed)
        if not isinstance(outcome, BaseException):
            try:
                scorer = outcome[0] if outcome else _baseline(algorithm, train_set, args)
                results[algorithm, beta] = (metrics.evaluate_all(
                    scorer, train_set, test_set, args.k_top, args.matthew_variant, **run), None)
                continue
            except (ValueError, RuntimeError, MemoryError) as exc:
                outcome = exc
        results[algorithm, beta] = (metrics.MetricsReport(**run, k_top=args.k_top), outcome)
    table = []
    for algorithm, beta in rows:
        report, exc = results[_run_key(algorithm, beta)]
        table.append(metrics.report_row(replace(report, algorithm=algorithm, beta=beta))
                     + ["" if exc is None else str(exc)])
    _write_csv(args.output, metrics.REPORT_COLUMNS + ["error"], table)
    return 1 if any(exc is not None for _, exc in results.values()) else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = build_parser()
    sub = subs.get(argv[0]) if argv else None
    if sub is not None:
        pre = _Parser(prog=sub.prog, add_help=False)
        pre.add_argument("--config")
        config_path = pre.parse_known_args(argv[1:])[0].config
        if config_path:
            try:
                argv[1:1] = _config_tokens(subs, argv[0], load_config_file(config_path))
            except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
                sub.error(str(exc))
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
