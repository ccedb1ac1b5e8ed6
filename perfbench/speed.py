"""The machine's speed during a run, measured by a fixed reference unit.

On a shared virtual machine the speed of a fixed piece of work drifts by
25-50% over tens of seconds, and whole runs can fall into a slow spell,
so wall times of one code version taken minutes apart disagree by more
than the changes worth measuring.  The timed loop therefore interleaves
this reference unit with its requests, evenly in time, and the gated
metrics are wall times scaled to the speed the reference unit had on the
machine the benchmark was tuned on:

    adjusted time = wall time * REFERENCE_S / median(reference seconds)

The unit uses no pdfmlp code, so a change to the program moves the
adjusted figures in the same proportion as wall time.  It mixes the kinds of
work the workloads do: command-line parsing with argparse, opening and
reading a small file, interpreted Python on dictionaries and integers, a
regular-expression scan of PDF object headers, zlib inflation of a
content stream, and small numpy matrix products.  It keeps nothing
between calls.
"""

from __future__ import annotations

import argparse
import re
import statistics
import time
import zlib
from typing import Optional

import numpy as np

# Typical median seconds of one reference() on the tuning machine (2-core
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6), so adjusted figures read
# close to wall times there.
REFERENCE_S = 0.026
# The loop runs the unit once per this much time spent in requests, in
# bursts of at most MAX_BURST units between two requests.
REFERENCE_EVERY_S = 0.4
MAX_BURST = 12

_KEYS = tuple(f"/Key{i}" for i in range(256))
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_STREAM = zlib.compress(b"".join(
    b"BT /F1 10 Tf 72 %d Td (%s) Tj ET\n" % (i, str(i * 7919).encode() * 3) for i in range(20000)
))
_OBJECTS = b"".join(
    b"%d 0 obj\n<< /Type /Page /Parent 2 0 R /Contents %d 0 R /Font << /F1 %d 0 R >> >>\nendobj\n"
    % (i, i + 1, i + 2) for i in range(3000)
)
_OBJECT_NUMBER = re.compile(rb"(\d+) 0 obj")
_PARSER = argparse.ArgumentParser(prog="reference")
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)
for _name in ("extract", "scan", "train"):
    _command = _COMMANDS.add_parser(_name)
    for _k in range(6):
        _command.add_argument(f"--option{_k}", type=int, default=0)
    _command.add_argument("files", nargs="*")
_ARGV = ["scan", "--option1", "3", "--option4", "5", "a.pdf", "b.pdf"]
_RNG = np.random.default_rng(0)
_ROWS = _RNG.random((256, 48))
_WEIGHTS = _RNG.random((48, 32))


def reference() -> float:
    """Run the fixed unit once; return its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for _ in range(90):
        total += _PARSER.parse_args(_ARGV).option4
    for _ in range(300):
        with open(__file__, "rb") as fh:
            total += len(fh.read())
    keys, table = _KEYS, _TABLE
    for i in range(20000):
        total += table[keys[i & 255]] * i % 7
    for number in _OBJECT_NUMBER.findall(_OBJECTS):
        total += int(number)
    total += len(zlib.decompress(_STREAM))
    for _ in range(100):
        total += int((_ROWS @ _WEIGHTS).sum() > 0)
    return time.perf_counter() - start


class Metronome:
    """Runs the reference unit between requests: once per REFERENCE_EVERY_S
    of work since the last tick, so that its samples spread evenly in time
    even when one request takes seconds."""

    def __init__(self, warm_up: int = 3) -> None:
        for _ in range(warm_up):
            reference()
        self.samples: list[float] = []
        self._last: Optional[float] = None

    def tick(self) -> None:
        now = time.perf_counter()
        owed = 1 if self._last is None else min(int((now - self._last) / REFERENCE_EVERY_S), MAX_BURST)
        if owed:
            self.samples += [reference() for _ in range(owed)]
            self._last = time.perf_counter()

    def slowdown(self) -> float:
        """Median reference time over its nominal: 1.25 means 25% slower."""
        return statistics.median(self.samples) / REFERENCE_S
