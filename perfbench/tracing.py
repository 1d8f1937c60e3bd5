"""In-memory spans and a dyn-counting plant for the traced benchmark run.

Spans are recorded from the benchmark's own code, around its calls into
the public singarc functions; nothing inside the package is patched.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from singarc.arm2dof import Arm2DOF


class Tracer:
    """Spans kept in memory: name, start, end, parent span and trace id.

    Times are seconds from ``time.perf_counter``.  A trace groups the spans
    of one pipeline execution; ``write`` dumps every span as JSON lines.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace_id: str | None = None

    @contextmanager
    def trace(self, trace_id: str, name: str):
        """Root span of one pipeline execution under a fresh trace id."""
        if self._stack:
            raise RuntimeError("a trace is already open")
        self._trace_id = trace_id
        try:
            with self.span(name):
                yield
        finally:
            self._trace_id = None

    @contextmanager
    def span(self, name: str):
        if self._trace_id is None:
            raise RuntimeError("span outside a trace")
        record = {"id": len(self.spans), "trace": self._trace_id,
                  "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": None, "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, trace_id: str) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        spans = [s for s in self.spans if s["trace"] == trace_id]
        child = Counter()
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Counter = Counter()
        for s in spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def root_duration(self, trace_id: str) -> float:
        root = next(s for s in self.spans
                    if s["trace"] == trace_id and s["parent"] is None)
        return root["end"] - root["start"]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class CountingArm(Arm2DOF):
    """The reference arm, counting its own ``dyn`` evaluations by scalar type.

    Only the benchmark's own instance counts; the package is untouched.
    """

    def __init__(self, params=None):
        super().__init__(params)
        self.calls: Counter = Counter()

    def dyn(self, x):
        self.calls[type(x[0]).__name__] += 1
        return super().dyn(x)
