"""Structured tracing: span trees for whole proof searches.

The stage aggregates of :class:`~repro.obs.metrics.Metrics` answer
*how much* — total generation seconds, verdict counts — but not *what
each search actually did*: which goals were expanded in what order,
why candidates were rejected, where the fuel and the wall-clock went.
The paper's failure-mode analyses (Table 2, Figure 2) need that
per-attempt story, so this module records it as a **span tree**:

* a :class:`Tracer` mints one *trace* (one proof attempt, one service
  job) and hands out :class:`Span` context managers.  Spans nest —
  ``task → search → expand → tactic`` — via an internal stack, carry a
  free-form attribute dict, and record start offset + elapsed seconds
  against the tracer's monotonic clock.
* finished spans accumulate on the tracer; :meth:`Tracer.export`
  returns them as plain JSON-able dicts (picklable, so process-pool
  workers ship them back to the sweep parent on the
  :class:`~repro.eval.executor.TaskResult`).
* a :class:`JsonlSink` appends span dicts to a JSONL file under a
  lock, so concurrent service jobs can share one trace file without
  tearing lines.  ``repro trace FILE`` renders it (:mod:`.render`).

Layers never open tracer spans themselves: they call
``metrics.span(name, **attrs)`` on their one telemetry handle, which
times the stage and, only when a tracer is attached, opens the span
here (:mod:`repro.obs.metrics`).  This module imports nothing from the
rest of ``repro`` — it sits below every layer that uses it, keeping
the dependency graph acyclic.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "JsonlSink",
    "load_spans",
]


class Span:
    """One timed, attributed node of a trace tree.

    Use as a context manager; attributes added via :meth:`set` while
    the span is open (or after — the dict is exported lazily)."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "elapsed",
        "attrs",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.elapsed: Optional[float] = None
        self.attrs = attrs

    def set(self, **attrs: object) -> "Span":
        """Attach attributes (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False

    def to_json(self, trace_id: str) -> dict:
        return {
            "trace": trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": round(self.start, 6),
            "elapsed": round(self.elapsed or 0.0, 6),
            "attrs": self.attrs,
        }


class Tracer:
    """Records one trace (a span tree) against a monotonic clock.

    A tracer is *single-writer*: one proof attempt / service job owns
    it for the duration (the span stack assumes properly nested use
    from one thread).  The lock only guards the finished-span list so
    :meth:`export` may be called from another thread afterwards.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._seq = 0
        self._stack: List[Span] = []
        self._finished: List[Span] = []

    def span(self, name: str, **attrs: object) -> Span:
        """Open a child of the innermost open span (context manager)."""
        self._seq += 1
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            self,
            name,
            self._seq,
            parent,
            self.clock() - self._epoch,
            attrs,
        )
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.elapsed = (self.clock() - self._epoch) - span.start
        # Pop to (and including) the finishing span; mis-nested exits
        # close the abandoned inner spans rather than corrupting later
        # parentage.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        with self._lock:
            self._finished.append(span)

    def export(self) -> List[dict]:
        """Finished spans as JSON-able dicts, in chronological order."""
        with self._lock:
            spans = sorted(self._finished, key=lambda s: s.span_id)
            return [span.to_json(self.trace_id) for span in spans]


class JsonlSink:
    """Thread-safe append-only JSONL writer for span dicts.

    One sink is shared by every job of a traced server (and by every
    task of a traced sweep); the lock keeps concurrent flushes from
    interleaving lines.  Lines are one span each — the renderer groups
    them back into traces by their ``trace`` field.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self.spans_written = 0

    def write(self, spans: Iterable[dict]) -> int:
        """Append span dicts; returns how many were written."""
        lines = [
            json.dumps(span, sort_keys=True, separators=(",", ":"))
            for span in spans
        ]
        if not lines:
            return 0
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
                handle.flush()
            self.spans_written += len(lines)
        return len(lines)


def load_spans(path) -> List[dict]:
    """Read a trace JSONL file back (skipping blank/torn lines)."""
    spans: List[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a killed run
            if isinstance(obj, dict) and "span" in obj:
                spans.append(obj)
    return spans
