"""Spans and counts recorded around the program's public calls.

A ``Tracer`` keeps every span in memory until the run ends: its name,
start, end, parent span and job id, plus an optional input size used
for growth exponents.  ``NullTracer`` has the same interface and
records nothing, so the untraced run pays one no-op call per span.
Durations are scaled to the reference speed by the scale of their job
(``calibration.py``).
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import wraps


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    size: float | None


class NullTracer:
    """Records nothing; used for the untraced end-to-end runs."""

    _null = nullcontext()

    def span(self, name: str, size: float | None = None):
        return self._null

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer:
    """Records nested spans and counters for one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = 0
        self.scale: dict[int, float] = {}  # job id -> calibration scale
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, size: float | None = None):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.job, size)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    @contextmanager
    def patched(self, module, names: dict[str, str]):
        """Wrap ``module.<attr>`` in a span named ``names[attr]`` while
        the block runs, so calls the module makes are timed from outside."""
        originals = {attr: getattr(module, attr) for attr in names}

        def wrap(function, span_name):
            @wraps(function)
            def traced(*args, **kwargs):
                with self.span(span_name):
                    return function(*args, **kwargs)

            return traced

        for attr, span_name in names.items():
            setattr(module, attr, wrap(originals[attr], span_name))
        try:
            yield
        finally:
            for attr, function in originals.items():
                setattr(module, attr, function)

    # ----------------------------------------------------------- analysis

    def duration(self, span: Span) -> float:
        return (span.end - span.start) * self.scale.get(span.job, 1.0)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [self.duration(s) for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= self.duration(s)
        return own

    def totals(self, root: str) -> dict[str, float]:
        """Summed duration per span name, and summed self time per
        layer (the name up to its first dot) as ``<layer>.self``, over
        the spans below the spans named ``root``."""
        own = self.self_times()
        inside = [False] * len(self.spans)
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            inside[i] = s.name == root or (s.parent is not None and inside[s.parent])
            out[s.name] += self.duration(s)
            if inside[i] and s.name != root:
                out[s.name.split(".")[0] + ".self"] += own[i]
        return out

    def growth_exponent(self, name: str) -> float:
        """Least-squares slope of log(duration) against log(size) over
        the spans called ``name``; 0 when fewer than two sizes occur."""
        points = [
            (math.log(s.size), math.log(self.duration(s)))
            for s in self.spans
            if s.name == name and s.size and s.end > s.start
        ]
        xs = {x for x, _ in points}
        if len(xs) < 2:
            return 0.0
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        sxy = sum((x - mx) * (y - my) for x, y in points)
        return sxy / sxx
