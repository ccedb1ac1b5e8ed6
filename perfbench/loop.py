"""The timed closed loop of one workload, run in its own fresh interpreter.

    python3 perfbench/loop.py --plan WORKDIR/plan.json --seconds S --trace 0|1

The process holds the plan (file paths, request lists and reference
digests), not the corpus, so its peak RSS belongs to the workload.  One
client calls ``pdfmlp.cli.main`` in-process and sends its next request
only when the previous one has returned.  Every output is checked
against the reference recorded for the seed; a mismatch, a missing row
or exit code 2 counts as a failed operation.  Between requests the
loop runs the reference unit of speed.py, which measures the machine's
speed during the run.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pdfmlp.cli  # noqa: E402
from speed import Metronome  # noqa: E402


class Op(NamedTuple):
    """One CLI request: argv, an untimed set-up step and its verifier."""

    label: str
    argv: list
    before: Optional[Callable[[], None]]
    verify: Callable[[Optional[int], str, str], dict]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call_main(main: Callable, argv: list) -> tuple[Optional[int], str, str, float]:
    """Run one request in-process; return exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            print(f"uncaught {exc!r}", file=sys.stderr)
            code = None
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def verify_extract(expected_csv: str, sizes: dict, code: Optional[int], text: Optional[str]) -> dict:
    """A document is verified when its reference row sits on its line of the
    output; the file as a whole (header, order, no extra rows) is one more
    operation."""
    expected = expected_csv.splitlines()
    got = text.splitlines() if code == 0 and text is not None else []
    ok = [line for i, line in enumerate(expected[1:], start=1) if i < len(got) and got[i] == line]
    failed = len(expected) - 1 - len(ok) + (0 if text == expected_csv and code == 0 else 1)
    return {
        "attempted": len(expected),
        "failed": failed,
        "docs": len(ok),
        "bytes": sum(sizes[line.split(",", 1)[0]] for line in ok),
    }


def _read(path: str) -> Optional[str]:
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except OSError:
        return None


def _remove(*paths: str) -> None:
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


# -- workloads ---------------------------------------------------------------------


def extract_ops(plan: dict) -> tuple[list[Op], list[list[Op]]]:
    """Warm-up: the canary tree against its committed digest.  Pass: one extract."""
    out = plan["argv"][-1]
    canary_out = plan["canary_argv"][-1]

    def check_canary(code, stdout, stderr):
        text = _read(canary_out) if code == 0 else None
        ok = text is not None and sha256_text(text) == plan["canary_sha256"]
        return {"attempted": 1, "failed": 0 if ok else 1, "docs": 0, "bytes": 0}

    def check(code, stdout, stderr):
        return verify_extract(plan["expected_csv"], plan["sizes"], code, _read(out) if code == 0 else None)

    warm = [Op("canary", plan["canary_argv"], lambda: _remove(canary_out), check_canary)]
    return warm, [[Op("extract", plan["argv"], lambda: _remove(out), check)]]


def scan_ops(plan: dict) -> tuple[list[Op], list[list[Op]]]:
    """Pass: the request list once, each request its own unit."""
    files, sizes = plan["files"], plan["sizes"]
    units = []
    for request in plan["requests"]:
        picks = request["files"]

        def check(code, stdout, stderr, request=request, picks=picks):
            ok = code == request["exit"] and stdout == request["stdout"] and stderr == ""
            return {"attempted": 1, "failed": 0 if ok else 1, "docs": len(picks) if ok else 0,
                    "bytes": sum(sizes[i] for i in picks) if ok else 0}

        units.append([Op("scan", ["scan", "--model", plan["model"]] + [files[i] for i in picks], None, check)])
    return [unit[0] for unit in units[:8]], units


def train_eval_ops(plan: dict) -> tuple[list[Op], list[list[Op]]]:
    """Pass: one train, then one evaluate of that model."""
    train_argv, eval_argv = plan["train_argv"], plan["evaluate_argv"]
    model = train_argv[train_argv.index("--out") + 1]
    eval_dir = eval_argv[eval_argv.index("--out-dir") + 1]
    outputs = [os.path.join(eval_dir, name) for name in plan["outputs"]]
    epochs = plan["composition"]["epochs"]
    rows = plan["composition"]["train_rows"]
    csv_bytes = plan["composition"]["bytes"]

    def check_train(code, stdout, stderr):
        report = _read(model + ".train.csv")
        ran = len(report.splitlines()) - 1 if report else 0
        ok = code == 0 and stdout == plan["train_stdout"] and ran == epochs
        return {"attempted": 1, "failed": 0 if ok else 1, "docs": rows * ran if ok else 0,
                "bytes": csv_bytes["train.csv"] if ok else 0, "epochs": ran}

    def check_evaluate(code, stdout, stderr):
        digests = {}
        for name, path in zip(plan["outputs"], outputs):
            text = _read(path)
            digests[name] = sha256_text(text) if text is not None else None
        ok = code == 0 and stdout == plan["evaluate_stdout"] and digests == plan["outputs"]
        return {"attempted": 1, "failed": 0 if ok else 1, "docs": 0,
                "bytes": csv_bytes["test.csv"] if ok else 0}

    unit = [
        Op("train", train_argv, lambda: _remove(model, model + ".train.csv"), check_train),
        Op("evaluate", eval_argv, lambda: _remove(*outputs), check_evaluate),
    ]
    return [], [unit]


WORKLOADS = {"extract-corpus": extract_ops, "scan-inbox": scan_ops, "train-eval": train_eval_ops}


# -- driving -----------------------------------------------------------------------


def run_op(main: Callable, op: Op) -> dict:
    if op.before is not None:
        op.before()
    code, stdout, stderr, seconds = call_main(main, op.argv)
    record = op.verify(code, stdout, stderr)
    record.update(label=op.label, seconds=seconds)
    return record


def run_untraced(warm: list[Op], units: list[list[Op]], seconds: float):
    """Cycle through the units, at least one whole pass, until the time is up.

    Returns the warm-up records, the timed ones and the metronome that
    measured the machine's speed between requests.  Each timed record
    carries the number of its pass, and only whole passes count.
    """
    main = pdfmlp.cli.main
    warm_records = [run_op(main, op) for op in warm]
    metronome = Metronome()
    records: list[dict] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < len(units) or time.perf_counter() < deadline:
        for op in units[index % len(units)]:
            metronome.tick()
            record = run_op(main, op)
            record["pass"] = index // len(units)
            records.append(record)
        index += 1
    metronome.tick()
    whole = index // len(units)
    return warm_records, [r for r in records if r["pass"] < whole], metronome


def run_traced(warm: list[Op], units: list[list[Op]], seconds: float, spans_path: str):
    """Alternate an untraced and a traced pass over all units until the time is up.

    Returns the records, the per-pass layer metrics of the traced passes
    and the wall time of each untraced and traced pass.
    """
    from tracing import Tracer

    main = pdfmlp.cli.main
    records = [run_op(main, op) for op in warm]
    tracer = Tracer()
    traced_main = tracer.request_span(main)
    layer_passes, plain_walls, traced_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while not layer_passes or time.perf_counter() < deadline:
        start = time.perf_counter()
        records += [run_op(main, op) for unit in units for op in unit]
        plain_walls.append(time.perf_counter() - start)
        restore = tracer.install()
        try:
            start = time.perf_counter()
            records += [run_op(traced_main, op) for unit in units for op in unit]
            traced_walls.append(time.perf_counter() - start)
        finally:
            restore()
        layer_passes.append(tracer.finish_pass())
    tracer.dump(spans_path)
    return records, layer_passes, plain_walls, traced_walls


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values: list[float]) -> Optional[tuple[float, float]]:
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1 - q / 100.0) >= 10:
            return q, _percentile(values, q)
    return None


def timing(values: list[float], scale: float = 1.0) -> dict:
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values) * scale,
        "tail": None if tail is None else {"q": tail[0], "value": tail[1] * scale},
        "n": len(values),
    }


# Per workload: the request whose latency is reported, the requests whose
# time docs_per_s divides by, and those whose time mb_per_s divides by.
RATE_BASES = {
    "extract-corpus": ("extract", ("extract",), ("extract",)),
    "scan-inbox": ("scan", ("scan",), ("scan",)),
    "train-eval": ("evaluate", ("train",), ("train", "evaluate")),
}


def end_to_end(workload: str, records: list[dict], slowdown: float) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics, plus every workload metric the summary prints.

    The gated figures are medians over the run, of the per-pass rates and
    of all latencies of the reported request, scaled from wall time to the
    reference speed (see speed.py): on a shared machine whole runs drift
    by 25% and more, and the reference unit, timed between the requests,
    tracks that drift.  The summary gives the same figures in wall time,
    and medians with tail percentiles over all requests.
    """
    request, doc_ops, byte_ops = RATE_BASES[workload]
    passes: dict[int, list[dict]] = {}
    for r in records:
        passes.setdefault(r["pass"], []).append(r)

    def median_rate(field: str, labels: tuple) -> float:
        return statistics.median(
            sum(r[field] for r in ops) / sum(r["seconds"] for r in ops if r["label"] in labels)
            for ops in passes.values()
        )

    def seconds(ops: list[dict], label: str) -> list[float]:
        return [r["seconds"] for r in ops if r["label"] == label]

    wall = {
        "docs_per_s": median_rate("docs", doc_ops),
        "mb_per_s": median_rate("bytes", byte_ops) / 1e6,
        "latency_p50_ms": 1000.0 * statistics.median(seconds(records, request)),
    }
    metrics = {
        "docs_per_s": wall["docs_per_s"] * slowdown,
        "mb_per_s": wall["mb_per_s"] * slowdown,
        "latency_p50_ms": wall["latency_p50_ms"] / slowdown,
    }
    extra = {"wall": wall, "slowdown": slowdown,
             "pass_s": [sum(r["seconds"] for r in ops) for ops in passes.values()]}
    if workload == "train-eval":
        extra["epoch_ms"] = timing(
            [1000.0 * r["seconds"] / max(r["epochs"], 1) for r in records if r["label"] == "train"]
        )
        extra["evaluate_s"] = timing(seconds(records, "evaluate"))
    else:
        extra["latency_ms"] = timing(seconds(records, request), 1000.0)
    return metrics, extra


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the traced spans (JSON lines)")
    args = parser.parse_args(argv)

    with open(args.plan) as fh:
        plan = json.load(fh)
    os.chdir(os.path.dirname(os.path.abspath(args.plan)))
    workload = plan["workload"]
    warm, units = WORKLOADS[workload](plan)

    result: dict = {"workload": workload}
    if args.trace:
        records, passes, plain, traced = run_traced(warm, units, args.seconds, args.spans)
        layers = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
        result.update(per_layer=layers, passes=len(passes),
                      untraced_pass_s=statistics.median(plain), traced_pass_s=statistics.median(traced))
    else:
        warm_records, records, metronome = run_untraced(warm, units, args.seconds)
        metrics, extra = end_to_end(workload, records, metronome.slowdown())
        extra["reference_samples"] = len(metronome.samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result.update(end_to_end=metrics, timings=extra, requests=len(records))
        records = warm_records + records
    result["attempted"] = sum(r["attempted"] for r in records)
    result["failed"] = sum(r["failed"] for r in records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
