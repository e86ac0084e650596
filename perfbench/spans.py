"""Span recording for the traced benchmark run.

A span covers one call the benchmark makes into a bneck layer, one of the
benchmark's own output checks, or the operation that groups them.  Spans
stay in memory and are written out when the run ends.  With tracing off,
``Tracer.span`` returns a shared no-op context, so the untraced run pays
only a method call per span.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Optional

_NOOP = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._open: List[int] = []

    def span(self, name: str, trace_id: str):
        if not self.enabled:
            return _NOOP
        return self._record(name, trace_id)

    @contextmanager
    def _record(self, name: str, trace_id: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "trace": trace_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover.

    Children of a span run one after another inside it (one thread), so the
    covered time is the sum of their durations.
    """
    spans = list(spans)
    covered: Dict[Optional[int], float] = defaultdict(float)
    for s in spans:
        covered[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - covered[s["id"]] for s in spans}


def self_time_by_name(spans: Iterable[dict]) -> Dict[str, float]:
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += own[s["id"]]
    return dict(out)
