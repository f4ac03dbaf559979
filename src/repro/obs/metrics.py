"""The one telemetry handle every layer reports through.

A :class:`Metrics` handle holds thread-safe named counters (checker
verdicts, store and cache accounting, retries) and per-stage
aggregates: the seconds and calls of each named stage.  Its spans are
the stage timers: ``with metrics.span(name, **attrs):`` adds the
block's seconds and one call to the stage ``name``.  When the handle
carries a :class:`~repro.obs.trace.Tracer` (``metrics.tracing``), the
same block is also recorded on it as a span with ``attrs``, so the
``--metrics`` stage rows and the ``repro trace --summary`` rows share
their names.

Untraced, a span builds no :class:`~repro.obs.trace.Span` and records
no tree: it costs two clock reads and one update to the aggregate.
Attributes that are costly to compute (goal previews, messages) are
set only under ``metrics.tracing``.

Every layer defaults to :data:`NULL_METRICS`, a shared handle that
records nothing.  Snapshots are plain JSON-able dicts, so process-pool
workers ship their per-task metrics back to the parent, which
:meth:`Metrics.merge`\\ s them into the sweep-level handle.

Like the rest of :mod:`repro.obs`, this module imports nothing from
the rest of ``repro``.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Dict, List, Optional

__all__ = ["Metrics", "NULL_METRICS", "STAGES"]

#: The stages the search stack times, in tree order: containers
#: first, then the four leaves (prompt build, generation, tactic
#: check, Qed replay).  Reports list these first.
STAGES = (
    "job",
    "task",
    "repair_round",
    "search",
    "select",
    "expand",
    "prompt_build",
    "generation",
    "tactic",
    "qed_replay",
)


class _Stage:
    """One timed block of a handle (see :meth:`Metrics.span`)."""

    __slots__ = ("_metrics", "_name", "_span", "_start")

    def __init__(self, metrics: "Metrics", name: str, span) -> None:
        self._metrics = metrics
        self._name = name
        self._span = span
        self._start = perf_counter()

    def set(self, **attrs: object) -> "_Stage":
        """Attach span attributes (chainable; dropped when untraced)."""
        if self._span is not None:
            self._span.set(**attrs)
        return self

    def __enter__(self) -> "_Stage":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._metrics.add_time(self._name, perf_counter() - self._start)
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
        return False


class _NullStage:
    """The shared span of :data:`NULL_METRICS` (no allocation per call)."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullStage":
        return self

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_STAGE = _NullStage()


class Metrics:
    """Thread-safe counters and per-stage aggregates, plus an optional
    tracer that also records every span."""

    def __init__(self, tracer=None) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        #: stage -> [seconds, calls]
        self._stages: Dict[str, List] = {}
        self.tracer = tracer
        #: The guard for costly span attributes.
        self.tracing = tracer is not None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: object) -> _Stage:
        """Time a block as stage ``name`` (context manager)."""
        tracer = self.tracer
        return _Stage(
            self, name, None if tracer is None else tracer.span(name, **attrs)
        )

    def incr(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def add_time(self, stage: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            cell = self._stages.get(stage)
            if cell is None:
                self._stages[stage] = [seconds, calls]
            else:
                cell[0] += seconds
                cell[1] += calls

    # ------------------------------------------------------------------
    # Reading / combining
    # ------------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A JSON-able copy: ``{"counters": …, "stages": …}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "stages": {
                    stage: {"seconds": seconds, "calls": calls}
                    for stage, (seconds, calls) in self._stages.items()
                },
            }

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold another handle's :meth:`snapshot` into this one."""
        if not snapshot:
            return
        for name, count in snapshot.get("counters", {}).items():
            self.incr(name, count)
        for stage, cell in snapshot.get("stages", {}).items():
            self.add_time(stage, cell["seconds"], cell.get("calls", 0))

    def dump(self, path) -> None:
        """Write the snapshot as JSON (next to the run store)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class _NullMetrics(Metrics):
    """A handle that records nothing: every span is one shared no-op."""

    def span(self, name: str, **attrs: object) -> _NullStage:
        return _NULL_STAGE

    def incr(self, name: str, n: int = 1) -> None:
        pass

    def add_time(self, stage: str, seconds: float, calls: int = 1) -> None:
        pass


#: The shared no-op handle every layer defaults to.
NULL_METRICS = _NullMetrics()
