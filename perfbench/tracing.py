"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, operation id, parent span index, start ns, end ns, attrs).
The layer of a span is the part of its name before the first dot; root
spans of an operation are named ``op.<workload>`` so their self time is the
part of an operation that no layer span covers.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext({})


class NullTracer:
    """Records nothing; used for the untraced operations."""

    enabled = False

    def span(self, name: str, op: str | None = None):
        return _NULL


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        """Time the body; yields a dict the caller may fill with attributes."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"name": name, "op": op, "parent": parent,
               "start_ns": time.perf_counter_ns(), "end_ns": None,
               "attrs": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec["attrs"]
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh)


def duration_ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def self_times_ms(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_ms = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_ms[s["parent"]] += duration_ms(s)
    return [duration_ms(s) - child_ms[i] for i, s in enumerate(spans)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
