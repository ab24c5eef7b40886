"""Spans around the benchmark's calls into the package, kept in memory.

A traced run wraps each item in a root span and each public call the item
makes in a child span.  A span holds its name, start, end, parent span and
item id.  Counts taken from public results are recorded at the same
boundaries.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterable

ITEM = "item"


class NullTracer:
    """What an untraced run calls through: no spans, no counts."""

    enabled = False

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)

    def add(self, name: str, amount: float = 1) -> None:
        pass

    def begin(self, item_id: int) -> None:
        pass

    def end(self) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self) -> None:
        # [name, start, end, parent index or None, item id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._item: int | None = None
        self._root: int | None = None

    def begin(self, item_id: int) -> None:
        self._item = item_id
        self._root = len(self.spans)
        self.spans.append([ITEM, perf_counter(), None, None, item_id])

    def end(self) -> None:
        self.spans[self._root][2] = perf_counter()
        self._item = self._root = None

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, perf_counter(), self._root, self._item])

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "item": item}) + "\n")


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name: each span's duration minus the part of its
    interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, item in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for i, (name, start, end, parent, item) in enumerate(spans):
        own = (end - start) - covered(children.get(i, ()), start, end)
        totals[name] = totals.get(name, 0.0) + own
    return totals
