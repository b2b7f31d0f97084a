"""In-memory spans recorded from the benchmark's side of each public call.

A span has a name, start, end, parent and trace id. Spans stay in memory
and are written once, at the end of a run, with each span's self time:
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    """Records spans when ``enabled``; otherwise ``span`` costs one check."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trace = 0

    @property
    def trace_id(self) -> int:
        return self._trace

    def new_trace(self) -> None:
        """Start a new trace id: one per timed operation or replay probe."""
        self._trace += 1

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {"id": len(self.spans), "name": name, "trace": self._trace,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def with_self_time(self) -> list[dict]:
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"]))
        out = []
        for s in self.spans:
            covered, hi = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], [])):
                a = max(a, hi)
                if b > a:
                    covered += b - a
                    hi = b
            out.append(dict(s, self=(s["end"] - s["start"]) - covered))
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.with_self_time(), f)
