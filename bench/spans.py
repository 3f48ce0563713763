"""In-memory spans recorded around calls into the simulator's layers.

A span is a name, the index of its parent span (-1 for none), and start and
end times on ``time.perf_counter``. Spans nest through a stack, so one traced
run is a tree; a span's self time is its duration less the durations of its
direct children (the run is single threaded, so children never overlap).

The fields live in flat arrays rather than one object per span, so that
recording tens of thousands of spans adds no objects for the garbage
collector to traverse while the traced run is being timed.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.parents.append(t._stack[-1])
        t.ends.append(0.0)
        t._stack.append(self.index)
        t.starts.append(perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.ends[self.index] = perf_counter()
        t._stack.pop()
        return False


class Tracer:
    NULL = contextlib.nullcontext()

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = [-1]

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        return [
            self.ends[i] - self.starts[i] for i, n in enumerate(self.names) if n == name
        ]

    def _self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def self_times(self, name: str) -> list[float]:
        own = self._self_times()
        return [own[i] for i, n in enumerate(self.names) if n == name]

    def totals(self) -> dict[str, tuple[float, float]]:
        """Per span name: (total duration, total self time), in seconds."""
        own = self._self_times()
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for i, name in enumerate(self.names):
            out[name][0] += self.ends[i] - self.starts[i]
            out[name][1] += own[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: Path, run: int, append: bool) -> None:
        """Write the spans as CSV rows: run, id, parent, name, start_s, end_s,
        with times relative to the first span's start."""
        base = self.starts[0] if self.starts else 0.0
        with open(path, "a" if append else "w", encoding="utf-8") as f:
            if not append:
                f.write("run,id,parent,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                f.write(
                    f"{run},{i},{self.parents[i]},{name},"
                    f"{self.starts[i] - base:.9f},{self.ends[i] - base:.9f}\n"
                )
