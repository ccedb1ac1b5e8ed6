"""Spans and counters around the public functions of each pdfmlp layer.

The wrappers are installed from the benchmark, at each name's binding
site (the module attribute the caller looks up, such as
``pdfmlp.cli.parse_pdf``), and removed afterwards; no program code
changes.  Spans are kept in memory as [name, start, end, parent, request]
and written out when the run ends.  A layer's self time is its span time
minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from importlib import import_module
from typing import Any, Callable, Optional

# The package re-exports functions named like its modules (pdfmlp.train is
# the function after `import pdfmlp`), so the modules are looked up by name.
cli = import_module("pdfmlp.cli")
evaluate = import_module("pdfmlp.evaluate")
features = import_module("pdfmlp.features")
mlp = import_module("pdfmlp.mlp")
parser = import_module("pdfmlp.pdf.parser")
preprocess = import_module("pdfmlp.preprocess")
train = import_module("pdfmlp.train")


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "infer")
    return "mlp.forward_train" if mode == "train" else "mlp.forward_infer"


def _count_parse(counts, args, kwargs, doc) -> None:
    counts["parser.bytes_in"] += len(args[0])
    counts["parser.objects"] += len(doc.objects)
    counts["parser.diagnostics"] += len(doc.diagnostics)


def _count_decode(counts, args, kwargs, out) -> None:
    counts["filters.bytes_in"] += len(args[0])
    counts["filters.bytes_out"] += len(out)


def _count_forward(counts, args, kwargs, result) -> None:
    if _forward_name(args, kwargs) == "mlp.forward_infer":
        counts["mlp.forward_infer_rows"] += len(result[0])


def _count_rows(counts, args, kwargs, dataset) -> None:
    counts["preprocess.read_csv_rows"] += len(dataset)


def _count_epochs(counts, args, kwargs, result) -> None:
    counts["train.epochs"] += len(result[2].records)


def _count_sweep(counts, args, kwargs, report) -> None:
    counts["evaluate.sweep_points"] += len(report.sweep)


# (owner, attribute, span name or namer, counter hook)
BINDINGS: tuple = (
    (cli, "parse_pdf", "parser", _count_parse),
    (parser, "decode_stream", "filters", _count_decode),
    (cli, "extract_features", "features", None),
    (features, "iter_name_occurrences", "names", None),
    (cli, "read_features_csv", "preprocess.read_csv", _count_rows),
    (cli, "write_features_csv", "preprocess.write_csv", None),
    (preprocess.Scaler, "transform_matrix", "preprocess.transform", None),
    (train, "split_train_validation", "preprocess.split", None),
    (train, "fit_scaler", "preprocess.fit_scaler", None),
    (train, "forward", _forward_name, _count_forward),
    (mlp, "forward", _forward_name, _count_forward),
    (evaluate, "forward", _forward_name, _count_forward),
    (train, "backward", "mlp.backward", None),
    (train, "sgd_step", "mlp.sgd_step", None),
    (cli, "predict", "mlp.predict", None),
    (mlp.MlpModel, "copy", "mlp.copy", None),
    (cli, "train", "train", _count_epochs),
    (cli, "evaluate", "evaluate", _count_sweep),
    (evaluate, "score_dataset", "evaluate.score", None),
    (cli, "write_report_files", "evaluate.write", None),
    (cli, "load", "store.load", None),
    (cli, "save", "store.save", None),
    (cli, "dataset_checksum", "store.checksum", None),
    (train, "dataset_checksum", "store.checksum", None),
    (train, "model_checksum", "store.checksum", None),
)

# Per-layer metrics: name -> (unit, source, key).  Source "calls" counts
# the spans named key, "total" sums their durations, "self" sums their
# durations minus those of their direct children, "count" reads a counter.
PER_LAYER = {
    "cli.invocations": ("count", "calls", "cli"),
    "cli.self_s": ("s", "self", "cli"),
    "parser.calls": ("count", "calls", "parser"),
    "parser.self_s": ("s", "self", "parser"),
    "parser.bytes_in": ("bytes", "count", "parser.bytes_in"),
    "parser.objects": ("count", "count", "parser.objects"),
    "parser.diagnostics": ("count", "count", "parser.diagnostics"),
    "filters.calls": ("count", "calls", "filters"),
    "filters.time_s": ("s", "total", "filters"),
    "filters.bytes_in": ("bytes", "count", "filters.bytes_in"),
    "filters.bytes_out": ("bytes", "count", "filters.bytes_out"),
    "filters.failed": ("count", "count", "filters.raised"),
    "features.calls": ("count", "calls", "features"),
    "features.self_s": ("s", "self", "features"),
    "names.calls": ("count", "calls", "names"),
    "names.time_s": ("s", "total", "names"),
    "preprocess.read_csv_s": ("s", "total", "preprocess.read_csv"),
    "preprocess.read_csv_rows": ("count", "count", "preprocess.read_csv_rows"),
    "preprocess.write_csv_s": ("s", "total", "preprocess.write_csv"),
    "preprocess.transform_calls": ("count", "calls", "preprocess.transform"),
    "preprocess.transform_s": ("s", "total", "preprocess.transform"),
    "mlp.forward_train_calls": ("count", "calls", "mlp.forward_train"),
    "mlp.forward_train_s": ("s", "total", "mlp.forward_train"),
    "mlp.forward_infer_calls": ("count", "calls", "mlp.forward_infer"),
    "mlp.forward_infer_rows": ("count", "count", "mlp.forward_infer_rows"),
    "mlp.forward_infer_s": ("s", "total", "mlp.forward_infer"),
    "mlp.backward_calls": ("count", "calls", "mlp.backward"),
    "mlp.backward_s": ("s", "total", "mlp.backward"),
    "mlp.sgd_step_s": ("s", "total", "mlp.sgd_step"),
    "mlp.predict_calls": ("count", "calls", "mlp.predict"),
    "mlp.copy_calls": ("count", "calls", "mlp.copy"),
    "mlp.copy_s": ("s", "total", "mlp.copy"),
    "train.epochs": ("count", "count", "train.epochs"),
    "train.self_s": ("s", "self", "train"),
    "evaluate.self_s": ("s", "self", "evaluate"),
    "evaluate.sweep_points": ("count", "count", "evaluate.sweep_points"),
    "evaluate.write_s": ("s", "total", "evaluate.write"),
    "store.load_calls": ("count", "calls", "store.load"),
    "store.load_s": ("s", "total", "store.load"),
    "store.save_s": ("s", "total", "store.save"),
    "store.checksum_calls": ("count", "calls", "store.checksum"),
    "store.checksum_s": ("s", "total", "store.checksum"),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._finished: list[list[Any]] = []

    def wrap(self, name, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append([label, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[label + ".raised"] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def request_span(self, fn: Callable) -> Callable:
        """Wrap one CLI invocation; its spans share a new request id."""
        wrapped = self.wrap("cli", fn)

        def call(*args, **kwargs):
            self.request += 1
            return wrapped(*args, **kwargs)

        return call

    def install(self) -> Callable[[], None]:
        """Patch every binding site; return the function that restores them."""
        saved = []

        def restore() -> None:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

        try:
            for owner, attribute, name, hook in BINDINGS:
                original = owner.__dict__[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, hook))
        except BaseException:
            restore()
            raise
        return restore

    def finish_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans since the last call; keeps the spans."""
        values = self.metrics()
        offset = len(self._finished)
        for name, start, end, parent, request in self.spans:
            self._finished.append([name, start, end, parent + offset if parent >= 0 else -1, request])
        self.spans.clear()
        self.counts.clear()
        return values

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over the spans recorded since the last pass ended."""
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
        source = {"calls": calls, "total": total, "self": self_time, "count": self.counts}
        values = {}
        for metric, (_, kind, key) in PER_LAYER.items():
            values[metric] = float(source[kind][key])
        return values

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self._finished + self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "request"), span))) + "\n")
