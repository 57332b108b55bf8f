"""Traced run of one `pbmf` invocation.

Usage:  python3 perfbench/replay.py SPANS_JSON <pbmf arguments...>

Wraps the package functions the CLI calls, and the calls those functions
make in turn (full_loss, top_k, scores_for_user, the three metrics, ...),
with a span each, by replacing the module and class attributes they are
looked up through.  Then it runs `pbmf.cli.main` on the pbmf arguments, so
the traced run is the CLI's own code path.  Spans are kept in memory and
written to SPANS_JSON once, after the CLI returns.  The outputs must match
the untraced CLI run byte for byte, which the harness checks.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pbmf import baselines, cli, data, metrics, model, training  # noqa: E402


class Tracer:
    """Nested spans in a flat list; each span names its parent by index."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace owner.attr by a traced version; annotate(span, result, arguments)
        adds attributes to the span from the result and the arguments by name."""
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original, updated=())
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                arguments = signature.bind(*args, **kwargs)
                arguments.apply_defaults()
                annotate(span, result, arguments.arguments)
            return result

        setattr(owner, attr, traced)


def _retained_bytes(lists: model.TopKLists) -> int:
    """Bytes kept alive by the returned lists: each array's base, counted once."""
    seen: dict[int, int] = {}
    for arr in (*lists.items, *lists.scores):
        base = arr.base if arr.base is not None else arr
        seen[id(base)] = base.nbytes
    return sum(seen.values())


def _tag(**attrs):
    return lambda span, result, arguments: span.update(attrs)


def install_spans(tracer: Tracer) -> None:
    """Trace every package call, where the caller looks it up."""
    # Methods first: the baseline classes are replaced by traced constructors below.
    tracer.wrap(data.RatingsDataset, "items_by_user", "data.items_by_user")
    for name in ("scores_for_user", "predicted_ratings", "normalized_scores"):
        tracer.wrap(model.FactorModel, name, f"model.{name}")
    for cls in (baselines.RandomScorer, baselines.ZipfScorer):
        tracer.wrap(cls, "scores_for_user", "baselines.scores_for_user")

    # What the CLI calls.
    tracer.wrap(data, "load_movielens", "data.load_movielens")
    tracer.wrap(data, "split", "data.split")
    tracer.wrap(
        training, "train", "training.train",
        annotate=lambda span, result, a: span.update(
            algorithm=a["config"].algorithm, k=a["config"].k,
            samples=a["config"].epochs * len(a["dataset"]),
        ),
    )
    tracer.wrap(training, "save_loss_history", "training.save_loss_history")
    tracer.wrap(
        metrics, "evaluate_all", "metrics.evaluate_all",
        annotate=lambda span, result, a: span.update(algorithm=a["algorithm"]),
    )
    tracer.wrap(baselines, "RandomScorer", "baselines.RandomScorer", _tag(algorithm="random"))
    tracer.wrap(baselines.ZipfScorer, "from_dataset", "baselines.ZipfScorer.from_dataset",
                _tag(algorithm="zipf"))
    tracer.wrap(cli, "load_model", "model.load_model",
                annotate=lambda span, result, a: span.update(bytes=os.path.getsize(a["path"])))
    tracer.wrap(cli, "save_model", "model.save_model",
                annotate=lambda span, result, a: span.update(bytes=os.path.getsize(a["path"])))

    # What those functions call.
    tracer.wrap(training, "init_model", "model.init_model")
    tracer.wrap(training, "full_loss", "training.full_loss")
    tracer.wrap(
        metrics, "top_k", "model.top_k",
        annotate=lambda span, lists, a: span.update(
            users=len(lists), retained_bytes=_retained_bytes(lists)
        ),
    )
    for name in ("mae", "position_bias_metric", "matthew_degree"):
        tracer.wrap(metrics, name, f"metrics.{name}")


def main(argv: list[str]) -> int:
    spans_path, pbmf_argv = argv[0], argv[1:]
    tracer = Tracer()
    install_spans(tracer)
    code = cli.main(pbmf_argv)
    Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
