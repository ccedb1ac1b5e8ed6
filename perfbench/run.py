"""pdfmlp benchmark: three closed-loop workloads through ``pdfmlp.cli.main``.

    python3 perfbench/run.py --workload extract-corpus --seed 1 --seconds 30 --trace 0

Workloads (one client, one process, ``--jobs 1``; see README.md here):

  extract-corpus  one ``extract`` over a labeled tree of small documents
                  plus a hostile, heavy tail (parser, filters, features)
  scan-inbox      a sequence of ``scan`` requests of 1 to 8 files against a
                  model trained during preparation (cli, store, parse,
                  extract, infer)
  train-eval      ``train`` on 5,000 rows for a fixed epoch count, then
                  ``evaluate`` on 20,000 rows (mlp, train, preprocess,
                  evaluate, store)

The inputs are generated from ``--seed`` under perfbench/.work, the
reference output for the seed is recorded, and the timed loop runs in a
fresh interpreter for ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics, as wall times scaled to a reference speed of the
machine (see speed.py); ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics and the tracing overhead.  The last
line of stdout is the JSON result; the lines before it are a readable
summary and a ``detail`` JSON line with the machine, the code and the
corpus composition.  Exit code 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
SETUP_RUNS = 5  # before and again after the timed loop
DEADLINE_S = 170.0

WORKLOADS = ("extract-corpus", "scan-inbox", "train-eval")
END_TO_END_UNITS = {
    "docs_per_s": "docs/s",
    "mb_per_s": "MB/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import pdfmlp.cli\n"
    "print(time.perf_counter() - start)\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(warm_up: bool) -> list[float]:
    """Seconds for fresh interpreters to import pdfmlp.cli.  A warm-up run,
    which may compile bytecode, is not kept.

    Unlike the timed loop's figures these are wall times: a cold start runs
    code once, and its speed drifts apart from that of any reference unit
    tried on the tuning machine (see README.md, Noise)."""
    samples = []
    for i in range(SETUP_RUNS + warm_up):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(ROOT / "src")],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i or not warm_up:
            samples.append(float(done.stdout))
    return samples


# -- machine and code ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import ctypes

    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
        if threads is not None:
            break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    import numpy

    sources = sorted((ROOT / "src" / "pdfmlp").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "commit": _git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


# -- reporting -----------------------------------------------------------------


def _timing_line(name: str, unit: str, timing: dict) -> str:
    tail = timing["tail"]
    tail_text = (f"p{tail['q']:g} {tail['value']:.4f}" if tail
                 else "no percentile has 10 samples beyond it")
    return f"  {name:<16} {timing['median']:.4f} {unit} (median; {tail_text}; n={timing['n']})"


def summary(workload: str, result: dict, setup: list[float] | None) -> list[str]:
    """Every end-to-end metric the workload has, by name and unit."""
    lines = [f"perfbench {workload}: attempted {result['attempted']}, failed {result['failed']}"]
    if "end_to_end" in result:
        m, t = result["end_to_end"], result["timings"]
        w = t["wall"]
        if workload == "train-eval":
            lines.append(_timing_line("epoch_ms", "ms", t["epoch_ms"]))
            lines.append(_timing_line("evaluate_s", "s", t["evaluate_s"]))
            what = {"docs_per_s": "rows trained per second of train",
                    "mb_per_s": "CSV bytes per second of train+evaluate",
                    "latency_p50_ms": "evaluate request"}
        else:
            request = "extract" if workload == "extract-corpus" else "scan"
            lines.append(_timing_line(f"{request} latency", "ms", t["latency_ms"]))
            what = {"docs_per_s": "verified documents per second", "mb_per_s": "their PDF bytes per second",
                    "latency_p50_ms": f"{request} request"}
        for name in ("docs_per_s", "mb_per_s", "latency_p50_ms"):
            unit = END_TO_END_UNITS[name]
            lines.append(f"  {name:<16} {m[name]:.4f} {unit} at reference speed ({what[name]}, median; "
                         f"{w[name]:.4f} {unit} in wall time)")
        lines.append(f"  {'slowdown':<16} {t['slowdown']:.4f} ratio (median reference unit over its "
                     f"nominal; n={t['reference_samples']})")
        lines.append(f"  {'peak_rss_mb':<16} {m['peak_rss_mb']:.1f} MB")
    if setup:
        lines.append(_timing_line("setup_s", "s", {"median": statistics.median(setup), "tail": None,
                                                     "n": len(setup)}))
    ratio = result["failed"] / max(result["attempted"], 1)
    lines.append(f"  {'failed_ratio':<16} {ratio:.6f} ratio ({result['failed']}/{result['attempted']})")
    if "per_layer" in result:
        for name, value in result["per_layer"].items():
            lines.append(f"  {name:<28} {value:.6g}")
        lines.append(f"  tracing overhead {100 * result['per_layer']['trace.overhead_ratio']:.1f}% "
                     f"(median pass {result['untraced_pass_s']:.3f} s untraced, "
                     f"{result['traced_pass_s']:.3f} s traced, {result['passes']} pairs)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pdfmlp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    for needed in ("src/pdfmlp/cli.py", "tests/conftest.py", "tests/pdfbuild.py"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found: run from the root of a pdfmlp checkout")
    import inputs
    from tracing import PER_LAYER

    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = inputs.PREPARE[args.workload](workdir, args.seed, WORK / "cache")
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        prepare_s = time.perf_counter() - started
        setup = None if args.trace else measure_setup(warm_up=True)
        budget = DEADLINE_S - (time.perf_counter() - started)
        child = subprocess.run(
            [sys.executable, str(BENCH / "loop.py"), "--plan", str(plan_path),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans", str(WORK / f"spans-{args.workload}.jsonl")],
            capture_output=True, text=True, timeout=max(budget, 1.0),
        )
        if setup is not None:
            setup += measure_setup(warm_up=False)
    except subprocess.TimeoutExpired:
        fail("the timed loop did not finish in time")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0 or not child.stdout.strip():
        sys.stderr.write(child.stderr)
        fail(f"the timed loop exited with code {child.returncode}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if not plan.get("auc_oracle_ok", True):
        result["attempted"] += 1
        result["failed"] += 1  # evaluate's AUC disagrees with the rank-based oracle

    if args.trace:
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        units["trace.overhead_ratio"] = "ratio"
        values = result["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = dict(result["end_to_end"], setup_s=statistics.median(setup))
    for line in summary(args.workload, result, setup):
        print(line)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "prepare_s": prepare_s, "requests": result.get("requests"), "setup_samples": setup,
        "composition": plan["composition"], "timings": result.get("timings"),
        "machine": metadata(),
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
