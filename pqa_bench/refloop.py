"""The reference loop that every wall time of the benchmark is scaled by.

A shared two-core machine runs the same query anywhere from 1x to 1.7x
its quiet-machine time, depending on what else holds the cores.  The
loop below is timed between operations, and each operation's wall time
is reported as ``ms * NOMINAL_MS / measured_ref_ms``: when the machine
is slow, the loop is slow by about the same factor and the quotient
stays put.

The loop calls nothing in ``repro`` and allocates no GC-tracked object
(only ints, which the collector never tracks), so neither the program's
speed nor the size of its heap can move it.  A change that slows the
loop itself shows up in the ungated ``ref_ms`` figure every run prints.
"""

from __future__ import annotations

import statistics
import time

#: iterations of one reference measurement (about NOMINAL_MS)
LOOP_ITERATIONS = 8_000
#: the loop's time, in ms, that scaled figures are normalised to — its
#: median on the machine the README's reference figures come from
NOMINAL_MS = 1.25
#: scale each operation by the median of this many nearest measurements
WINDOW = 5
#: seconds of work between two measurements, at least
EVERY_S = 0.05


def reference_loop() -> int:
    """Integer arithmetic in a bytecode loop, like the program's own
    interpreter-bound work; returns the value so nothing is elided."""
    x = 0
    for i in range(LOOP_ITERATIONS):
        x = (x * 1103515245 + i) & 0xFFFFFFF
    return x


def time_reference() -> float:
    """One measurement of the loop, in ms."""
    start = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - start) * 1000.0


class Scaler:
    """Reference measurements taken during a run, and the factor each
    operation's wall time is scaled by.

    :meth:`mark` times the loop when at least EVERY_S seconds of
    work have passed since the last measurement and returns the index
    of the latest one; :meth:`factor` turns such an index into
    ``NOMINAL_MS / median(nearby measurements)``, centred on the index
    so a burst of contention is corrected by the loop times around it.
    """

    def __init__(self) -> None:
        self.refs: list[float] = [time_reference()]
        self._last = time.perf_counter()

    def mark(self) -> int:
        now = time.perf_counter()
        if now - self._last >= EVERY_S:
            self.refs.append(time_reference())
            self._last = time.perf_counter()
        return len(self.refs) - 1

    def factor(self, index: int) -> float:
        half = WINDOW // 2
        lo = max(0, min(index - half, len(self.refs) - WINDOW))
        window = self.refs[lo:lo + WINDOW]
        return NOMINAL_MS / statistics.median(window)

    def median(self) -> float:
        return statistics.median(self.refs)
