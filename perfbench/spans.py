"""Span recording and the folds the traced benchmark run reports.

A span is ``(name, start, end, parent)``: ``start``/``end`` are
``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux, so spans
from a child process and the parent's outside timing share one clock)
and ``parent`` is the index of the enclosing span, or -1.  Spans are
kept in memory and written once, when the traced process ends.

The layer of a span is the first dotted component of its name
(``chain.compile`` belongs to ``chain``).
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Sequence

#: Percentile ladder for the tail-percentile rule, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class SpanRecorder:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent]`` rows, in opening order.
        self.spans: list[list] = []
        #: Numbers recorded at span boundaries (states built, delays).
        self.tallies: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, stack[-1] if stack else -1]
        )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def rows(self) -> list[list]:
        """Finished spans; a span still open (a thread that never
        returned) is closed at the time of the call."""
        now = time.perf_counter()
        return [
            [name, start, now if end is None else end, parent]
            for name, start, end, parent in self.spans
        ]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    return [
        max(0.0, (end - start) - union_length(children.get(index, ())))
        for index, (name, start, end, parent) in enumerate(spans)
    ]


def fold_by_name(spans: Sequence[Sequence]) -> dict[str, tuple[int, float]]:
    """``name -> (calls, total self seconds)`` over a span list."""
    folded: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for (name, *_), own in zip(spans, self_times(spans)):
        folded[name][0] += 1
        folded[name][1] += own
    return {name: (calls, own) for name, (calls, own) in folded.items()}


def fold_by_layer(spans: Sequence[Sequence]) -> dict[str, float]:
    """``layer -> total self seconds`` (layer = first name component)."""
    layers: dict[str, float] = defaultdict(float)
    for name, (_, own) in fold_by_name(spans).items():
        layers[name.split(".", 1)[0]] += own
    return dict(layers)


def covered_time(spans: Sequence[Sequence]) -> float:
    """Wall time covered by at least one span."""
    return union_length((start, end) for _, start, end, _ in spans)


def unattributed_share(walls_and_spans: Iterable[tuple[float, Sequence]]) -> float:
    """Share of the summed wall time that no span covers.

    Takes ``(wall_seconds, spans)`` per process; each process's
    uncovered time is its wall minus the union of its spans.
    """
    wall_total = uncovered = 0.0
    for wall, spans in walls_and_spans:
        wall_total += wall
        uncovered += max(0.0, wall - covered_time(spans))
    return uncovered / wall_total if wall_total > 0 else 0.0


def tail_percentile(samples: Sequence[float]) -> "tuple[float, float] | None":
    """The highest ladder percentile with at least ``MIN_BEYOND``
    samples beyond it, as ``(percentile, value)`` by nearest rank;
    ``None`` when even the median has fewer beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best
