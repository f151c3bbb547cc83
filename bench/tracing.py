"""Spans around the benchmark's calls into cogmap, kept in memory until the run ends.

A span is ``(name, start, end, parent, op_id, key)``: ``name`` is
``<layer>.<call>`` for a call into a cogmap module and ``op`` or ``probe``
for the benchmark's own grouping spans, ``parent`` is the index of the
enclosing span, ``op_id`` the index of the op it belongs to and ``key`` the
input map it ran on.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Untraced runs: calls go straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, op_id, key=None):
        yield


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name, op_id, key=None):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op_id, key])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` in a span under the innermost open span, with its op id and key."""
        _, _, _, _, op_id, key = self.spans[self._open[-1]]
        with self.span(name, op_id, key):
            return fn(*args, **kwargs)

    def durations(self, name) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def median(self, name) -> float:
        return statistics.median(self.durations(name))

    def keyed(self, name) -> list[tuple[float, object]]:
        return [(s[2] - s[1], s[5]) for s in self.spans if s[0] == name]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per layer; ``op`` and ``probe`` spans count as ``bench``."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        total = defaultdict(float)
        for i, s in enumerate(self.spans):
            layer = s[0].split(".")[0] if "." in s[0] else "bench"
            total[layer] += (s[2] - s[1]) - child_time[i]
        return dict(total)

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op_id", "key")
        return [dict(zip(keys, s)) for s in self.spans]
