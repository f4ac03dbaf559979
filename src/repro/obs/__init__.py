"""Observability: one telemetry handle, search tracing, Prometheus.

Every layer reports through one :class:`Metrics` handle, whose spans
time the stages and, when a tracer is attached, record *what each
search actually did*; the service exports the aggregates in a format
a monitoring stack can scrape.  DESIGN.md §7.

* :mod:`repro.obs.metrics` — the :class:`Metrics` handle (counters,
  stage aggregates, spans) and its shared no-op default
  :data:`NULL_METRICS`;
* :mod:`repro.obs.trace` — :class:`Tracer`/:class:`Span` trees, a
  thread-safe JSONL sink, and loaders;
* :mod:`repro.obs.render` — the ``repro trace`` tree/summary renderer;
* :mod:`repro.obs.prometheus` — text-format exposition of the eval
  metrics + service gauges with counter-vs-gauge typing.

This package imports nothing from the rest of ``repro``: every layer
(kernel-adjacent checker, search engine, runner, service) may depend
on it without cycles.
"""

from repro.obs.metrics import NULL_METRICS, STAGES, Metrics
from repro.obs.prometheus import render_prometheus
from repro.obs.render import (
    group_traces,
    render_summary,
    render_trace,
    stage_summary,
)
from repro.obs.trace import JsonlSink, Span, Tracer, load_spans

__all__ = [
    "Metrics",
    "NULL_METRICS",
    "STAGES",
    "Tracer",
    "Span",
    "JsonlSink",
    "load_spans",
    "group_traces",
    "render_trace",
    "render_summary",
    "stage_summary",
    "render_prometheus",
]
