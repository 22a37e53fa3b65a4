"""Spans around the benchmark's calls into the library's public functions.

The benchmark measures each layer from outside: every public call a
workload makes goes through :meth:`Tracer.call`, which, when tracing is on,
records a span (name, start, end, parent, op id).  The parent of a call
span is the span of the op that issued it.  With tracing off the call is
made directly, so untraced runs pay one extra Python call per library call.

Right after each root span ends the tracer runs the speed calibration of
:mod:`calib`; :meth:`Tracer.seconds` reports a span in reference seconds
using the factor of its root.  Untraced runs use the same
:attr:`Tracer.scaler` after each op.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Optional

import calib


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op_id: Optional[int]


class Tracer:
    """Collects spans in memory; ``enabled=False`` makes it a pass-through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Optional[Span]] = []
        self.factors: dict[int, float] = {}  # root span index -> calib factor
        self._roots: list[int] = []  # span index -> index of its root span
        self._stack: list[int] = []
        self._op_id: Optional[int] = None
        self.scaler = calib.Scaler()
        self.last_wall = 0.0  # seconds of the last root span
        self.last_factor = 1.0  # its calibration factor

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._traced(name, fn, args, kwargs)

    def op(self, name: str, op_id: int, fn, *args):
        """Run one benchmark op; its library calls become child spans."""
        if not self.enabled:
            return fn(self, *args)
        self._op_id = op_id
        try:
            return self._traced(name, fn, (self,) + args, {})
        finally:
            self._op_id = None

    def _traced(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._roots.append(index if parent is None else self._roots[parent])
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op_id)
            if parent is None:
                self.last_wall = end - start
                self.last_factor = self.scaler.after(end - start)
                self.factors[index] = self.last_factor

    def seconds(self, name: str) -> list[float]:
        """Durations of the spans called ``name``, in reference seconds."""
        return [(s.end - s.start) * self.factors[self._roots[i]]
                for i, s in enumerate(self.spans) if s.name == name]

    def seconds_by_op(self, name: str) -> dict[int, list[float]]:
        """Like :meth:`seconds`, grouped by op id, in call order."""
        grouped: dict[int, list[float]] = {}
        for i, s in enumerate(self.spans):
            if s.name == name:
                grouped.setdefault(s.op_id, []).append(
                    (s.end - s.start) * self.factors[self._roots[i]])
        return grouped

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                row = asdict(span)
                row["calib_factor"] = self.factors.get(index)
                fh.write(json.dumps(row) + "\n")
