"""Spans the benchmark records around its own calls into semicross layers.

A span has a name, a start, an end and the index of the span that was open
when it started.  Spans stay in memory until the run ends.  A name's self
time is the sum of its spans' durations minus the part covered by their
child spans.  ``NO_TRACE`` has the same interface and records nothing, so an
untraced op runs the same code path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """In-memory span and counter recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, self.clock(), None, parent]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = self.clock()
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n


class _NoTrace:
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass


NO_TRACE = _NoTrace()


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Map each span name to (total self time, number of spans)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - covered[i], calls + 1)
    return out
