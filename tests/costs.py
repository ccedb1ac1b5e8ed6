"""How a call's cost is measured: wall time, traced memory, and how both grow.

An absolute limit checks one input on one machine's speed.  A doubling
ratio checks the shape of the cost instead: the same work at n and at 4n
takes ~4 times as long and as much memory when it is linear, and ~16
times when it is quadratic, on any machine.
"""

import time
import tracemalloc


def best_time(call, runs=5):
    """The shortest of a few wall-clock timings of call(), in seconds."""
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def traced_peak(call):
    """call()'s result and the most memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quadrupling_ratios(run, build, n, runs=5):
    """run(build(4 * n)) over run(build(n)): the best-time and traced-peak ratios.

    Each input is built before it is timed or traced, so neither ratio
    counts it.  The timed runs alternate between the two inputs, so a
    spell in which the whole machine runs slower falls on both alike.
    """
    small, large = build(n), build(4 * n)
    times = [(best_time(lambda: run(small), 1), best_time(lambda: run(large), 1)) for _ in range(runs)]
    time_ratio = min(t for _, t in times) / min(t for t, _ in times)
    peak_ratio = traced_peak(lambda: run(large))[1] / traced_peak(lambda: run(small))[1]
    return time_ratio, peak_ratio
