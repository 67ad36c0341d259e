"""Spans kept in memory: name, start, end, parent and counts.

Times come from ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans recorded in a child process nest inside spans the
parent recorded around that process.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or None, counts].
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.remove(idx)

    def record(self, name: str, start: float, end: float, parent: int) -> int:
        """Add a closed span timed by the caller, such as a child process."""
        self.spans.append([name, start, end, parent, {}])
        return len(self.spans) - 1

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere; their roots become children of ``parent``."""
        base = len(self.spans)
        for name, start, end, up, counts in spans:
            self.spans.append([name, start, end, parent if up is None else base + up, counts])

    def wrap(self, fn, name: str, count=None):
        """``fn`` inside a span; ``count(args, result, exc)`` runs after the span closes.

        The counting time gets its own ``tracing.count`` span, so it shows as
        tracing overhead and not as time of the layer.
        """

        def traced(*args, **kwargs):
            idx = self.begin(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self.end(idx)
                if count is not None:
                    c = self.begin("tracing.count")
                    self.spans[idx][4] = count(args, result, exc)
                    self.end(c)

        return traced


def self_times(spans: list[list], skip: set[int] = frozenset()) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its direct children's.

    Spans listed in ``skip`` are left out of the result, but still count as
    children of their parent.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        if i not in skip:
            out[name] += end - start - child[i]
    return dict(out)


def merge_counts(parts, peak: frozenset = frozenset()) -> dict[str, int]:
    """Sum count dicts; names in ``peak`` take the maximum instead."""
    out: dict[str, int] = {}
    for c in parts:
        for k, v in c.items():
            out[k] = max(out.get(k, v), v) if k in peak else out.get(k, 0) + v
    return out
