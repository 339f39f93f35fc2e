"""Times the program's work at a fixed reference speed of the host.

A shared host changes speed under the benchmark: other tenants' load
moves it between regimes up to ~1.8x apart, for stretches of a second
to tens of seconds, so the same work timed a minute apart differs by far
more than any change worth measuring.  The benchmark therefore runs a
fixed reference loop (:func:`reference_loop`, benchmark code and the
interpreter only, nothing of the program) right before and right after
each piece of the program's work, and scales the work's wall time by
``REFERENCE_S / mean(loop before, loop after)``.  A metric is thus the
time the work takes on a host that runs the reference loop in exactly
:data:`REFERENCE_S`; the host's regime cancels, the program's own cost
does not.  Pieces are kept short (a group of requests, a training job,
a served round) so that both loops see the regime the work saw.

Kinds of work slow down by different factors between regimes: when the
host's speed halves, a dict-and-string loop in the interpreter takes
2.0x as long, ``compile`` 1.8x, a numpy sort and search 1.5x, and the
program's predict requests 1.75x.  The reference loop mixes the three,
about 15% interpreter loop, 45% ``compile`` and 40% numpy by time, which
moves in step with the program: over a 1.8x range of host speeds on a
2-core VM, predict time over reference-loop time stayed within 2% and
training time within 5%, where the interpreter loop alone drifted by
15%.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Seconds the reference loop is defined to take.  About its median on a
#: 2-core VM (CPython 3.11), so scaled times read close to wall times.
REFERENCE_S = 0.010

_SOURCE = "\n".join(
    f"def f{i}(a, b):\n"
    f"    c = a * {i} + b\n"
    f"    for x in range(c):\n"
    f"        if x % 3 == {i % 3}:\n"
    f"            b = b + x\n"
    f"    return [a, b, c]\n"
    for i in range(24)
)
_KEYS = (np.arange(8000, dtype=np.int64) * 7919) % 4001


def reference_loop() -> int:
    """A fixed amount of work: the same on every call, every run, every commit."""
    counts: dict = {}
    for i in range(5000):
        key = f"k{i % 251}"
        counts[key] = counts.get(key, 0) + i
    for _ in range(4):
        compile(_SOURCE, "<reference>", "exec")
    found = 0
    for _ in range(16):
        found += int(np.searchsorted(np.sort(_KEYS), _KEYS[:2000]).sum())
    return len(counts) + found


class Meter:
    """Reference-loop timings taken around each piece of measured work."""

    def __init__(self) -> None:
        #: Every reference-loop time of the run, in seconds.
        self.probes: List[float] = []
        reference_loop()  # warm up: first calls pay imports and caches

    def probe(self) -> float:
        started = time.perf_counter()
        reference_loop()
        seconds = time.perf_counter() - started
        self.probes.append(seconds)
        return seconds

    def measure(self, work: Callable[[], T]) -> Tuple[T, float, float]:
        """``work()`` between two probes; (result, wall seconds, scale).

        Multiply a wall time taken inside ``work`` by ``scale`` to get it
        at reference speed.
        """
        before = self.probe()
        started = time.perf_counter()
        result = work()
        seconds = time.perf_counter() - started
        after = self.probe()
        return result, seconds, 2.0 * REFERENCE_S / (before + after)

    def median_ms(self) -> float:
        return statistics.median(self.probes) * 1e3
