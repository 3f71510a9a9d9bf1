"""In-memory spans recorded around calls into the package's layers.

A span is (span_id, parent_id, name, start_ns, end_ns); the layer is the
part of the name before the first dot.  Spans stay in memory while the
run is timed and are written out once it has ended.
"""
from __future__ import annotations

import csv
from collections import defaultdict
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from time import perf_counter_ns

ROOT = "run"
LAYERS = ("cli", "netsim", "decision", "fusion", "documents")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = count()
        self.current = None

    @contextmanager
    def span(self, name: str):
        parent = self.current
        span_id = self.current = next(self._ids)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((span_id, parent, name, start, perf_counter_ns()))
            self.current = parent

    def wrap(self, function, name: str):
        """function with a span around each call, parented to the open span."""
        def traced(*args):
            parent = self.current
            span_id = self.current = next(self._ids)
            start = perf_counter_ns()
            try:
                return function(*args)
            finally:
                self.spans.append((span_id, parent, name, start, perf_counter_ns()))
                self.current = parent
        return traced

    def durations(self, name: str) -> list[float]:
        """Seconds spent in each span of this name, in call order."""
        spans = sorted((s for s in self.spans if s[2] == name), key=lambda s: s[3])
        return [(end - start) / 1e9 for _, _, _, start, end in spans]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by child spans; ROOT is the remainder."""
        covered: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        result = {layer: 0.0 for layer in (*LAYERS, ROOT)}
        for span_id, _, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            result[layer] += (end - start - covered[span_id]) / 1e9
        return result

    def write(self, path: Path) -> None:
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("run_id", "span_id", "parent_id", "name", "start_ns", "end_ns"))
            for span_id, parent, name, start, end in sorted(self.spans):
                writer.writerow((self.run_id, span_id, "" if parent is None else parent,
                                 name, start, end))
