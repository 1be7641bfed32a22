"""Scale measured times to a fixed reference speed of the machine.

The 2-vCPU virtual machine this benchmark was tuned on runs pure
Python at one of two speeds, the slow one about half the fast one, and
switches between them every few seconds (CPU time equals wall time, so
the loss is not stolen time).  Raw times therefore follow the share of
slow seconds in a run more than they follow the program.  So the
benchmark times a fixed loop of Fraction and dict work, the kind of
work the program does, next to the program's calls, and reports every
time as

    measured seconds * REFERENCE_LOOP_S / seconds the loop took,

that is, in seconds at the speed at which the loop takes
``REFERENCE_LOOP_S`` (close to the fast speed of that machine).  The
loop uses no code of the program, so a change to the program moves
the scaled times as much as the raw ones.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable

REFERENCE_LOOP_S = 0.001
# jobs shorter than this share one loop before and one after them
LOOP_INTERVAL_S = 0.05


def reference_loop() -> float:
    """Seconds taken by the fixed loop."""
    start = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i)
        seen[(i, str(i))] = total.numerator % 97
    return time.perf_counter() - start


class Calibration:
    """Runs the loop between jobs and hands each job its scale.

    ``then(callback)`` queues ``callback(scale)`` for the job that has
    just returned.  The loop runs once at least ``LOOP_INTERVAL_S`` has
    passed since the last one, or on ``flush``; the queued jobs then get
    ``REFERENCE_LOOP_S`` over the mean of the loop times on either side
    of them.
    """

    def __init__(self) -> None:
        self.last = reference_loop()
        self.at = time.perf_counter()
        self.pending: list[Callable[[float], None]] = []

    def then(self, callback: Callable[[float], None]) -> None:
        self.pending.append(callback)
        if time.perf_counter() - self.at >= LOOP_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = reference_loop()
        scale = 2 * REFERENCE_LOOP_S / (self.last + now)
        pending, self.pending = self.pending, []
        for callback in pending:
            callback(scale)
        self.last, self.at = now, time.perf_counter()
