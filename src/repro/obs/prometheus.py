"""Prometheus text-format exposition for the service ``/metrics``.

Renders a :class:`~repro.obs.metrics.Metrics` snapshot plus the service
gauges (queue depth, in-flight jobs, batcher and proof-cache
statistics) in the Prometheus *text exposition format*
(version 0.0.4) — the format every scrape-based monitoring stack
ingests, unlike the bespoke JSON blob the route also serves.

Typing discipline (what a scraper relies on):

* every eval **counter** (verdict histograms, cache hit/miss tallies,
  task accounting) is monotonically increasing over the life of the
  process → exported as ``repro_<name>_total`` with ``# TYPE …
  counter``;
* per-stage wall-clock accumulators become the two counter families
  ``repro_stage_seconds_total{stage=…}`` / ``repro_stage_calls_total``;
* instantaneous service readings (queue depth, in-flight, records in
  cache, pins) are **gauges** — they go up *and down*, and labelling
  them counters would corrupt ``rate()`` queries;
* cumulative service readings (batches dispatched, cache evictions)
  are counters, with the model name as a label where one applies.

Each metric family is emitted exactly once, ``# TYPE`` line first;
metric names are sanitised to ``[a-zA-Z_][a-zA-Z0-9_]*`` and raw names
that collapse onto the same family are summed (deterministic, and the
only way to keep the no-duplicate-family invariant without inventing
names).  ``tests/obs/test_prometheus.py`` lints the output against the
format's grammar.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

__all__ = ["render_prometheus"]

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")
_LEADING_DIGIT = re.compile(r"^[0-9]")


def _sanitize(name: str) -> str:
    """A legal Prometheus metric-name fragment for ``name``."""
    cleaned = _INVALID_CHARS.sub("_", name)
    if _LEADING_DIGIT.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Family:
    """One metric family: a type, a help line, and its samples."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        # label tuple -> value; summed on collision so a family never
        # emits the same label set twice.
        self.samples: Dict[Tuple[Tuple[str, str], ...], float] = {}

    def add(self, value, labels: Optional[Dict[str, str]] = None) -> None:
        key = tuple(sorted((labels or {}).items()))
        if key in self.samples and isinstance(value, (int, float)):
            self.samples[key] += value
        else:
            self.samples[key] = value

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, value in sorted(self.samples.items()):
            if key:
                labels = ",".join(
                    f'{name}="{_escape_label(str(val))}"'
                    for name, val in key
                )
                lines.append(f"{self.name}{{{labels}}} {_format_value(value)}")
            else:
                lines.append(f"{self.name} {_format_value(value)}")
        return lines


class _Registry:
    """Ordered family set enforcing one ``# TYPE`` per family."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def family(self, name: str, kind: str, help_text: str) -> _Family:
        existing = self._families.get(name)
        if existing is None:
            existing = _Family(name, kind, help_text)
            self._families[name] = existing
        return existing

    def render(self) -> str:
        lines: List[str] = []
        for family in self._families.values():
            lines.extend(family.render())
        return "\n".join(lines) + "\n"


def render_prometheus(
    snapshot: Optional[dict], service: Optional[dict] = None
) -> str:
    """The exposition text for a metrics snapshot + service gauges.

    ``snapshot`` is :meth:`Metrics.snapshot`'s dict (or an object with
    a ``snapshot()`` method); ``service`` is the gauge block the server
    assembles (uptime, scheduler, batchers, proof cache, pins) — the
    same dict its JSON ``/metrics`` serves under ``"service"``.
    """
    if snapshot is not None and hasattr(snapshot, "snapshot"):
        snapshot = snapshot.snapshot()
    snapshot = snapshot or {}
    registry = _Registry()

    counters = snapshot.get("counters", {})
    for name, count in sorted(counters.items()):
        family = registry.family(
            f"repro_{_sanitize(name)}_total",
            "counter",
            f"repro counter {name}",
        )
        family.add(count)

    # Derived per-cache hit rates: the raw ``kernel.cache.<name>.hits``
    # / ``.misses`` counters are exported above, but a regression like
    # a memo whose hit rate collapses to 0% should be a one-glance
    # gauge in CI artifacts, not a PromQL exercise.
    cache_tallies: Dict[str, Dict[str, float]] = {}
    for name, count in counters.items():
        if name.startswith("kernel.cache.") and name.count(".") == 3:
            _, _, cache_name, field = name.split(".")
            cache_tallies.setdefault(cache_name, {})[field] = count
    if cache_tallies:
        rate_family = registry.family(
            "repro_kernel_cache_hit_rate",
            "gauge",
            "per-cache hit fraction over the metrics snapshot window",
        )
        for cache_name in sorted(cache_tallies):
            cell = cache_tallies[cache_name]
            hits = cell.get("hits", 0)
            total = hits + cell.get("misses", 0)
            rate_family.add(
                hits / total if total else 0.0, {"cache": cache_name}
            )

    seconds = registry.family(
        "repro_stage_seconds_total",
        "counter",
        "cumulative wall-clock seconds per pipeline stage",
    )
    calls = registry.family(
        "repro_stage_calls_total",
        "counter",
        "cumulative timed calls per pipeline stage",
    )
    for stage, cell in sorted(snapshot.get("stages", {}).items()):
        labels = {"stage": stage}
        seconds.add(float(cell.get("seconds", 0.0)), labels)
        calls.add(int(cell.get("calls", 0)), labels)

    if service:
        _render_service(registry, service)
    return registry.render()


def _render_service(registry: _Registry, service: dict) -> None:
    gauge = registry.family
    if "uptime" in service:
        gauge(
            "repro_service_uptime_seconds",
            "gauge",
            "seconds since the service booted",
        ).add(float(service["uptime"]))

    scheduler = service.get("scheduler") or {}
    for key, help_text in (
        ("queue_depth", "jobs waiting in the scheduler queue"),
        ("in_flight", "jobs currently running"),
        ("workers", "jobs that may run at once"),
        ("max_queued", "admission bound beyond in-flight jobs"),
    ):
        if key in scheduler:
            gauge(
                f"repro_service_{key}", "gauge", help_text
            ).add(scheduler[key])
    if "draining" in scheduler:
        gauge(
            "repro_service_draining",
            "gauge",
            "1 while the scheduler refuses new work",
        ).add(bool(scheduler["draining"]))
    jobs = gauge(
        "repro_service_jobs",
        "gauge",
        "known jobs by lifecycle state",
    )
    for state, count in sorted((scheduler.get("jobs") or {}).items()):
        jobs.add(count, {"state": state})

    batch_queue = gauge(
        "repro_service_batch_queue_depth",
        "gauge",
        "generation requests parked in the micro-batcher",
    )
    batches = gauge(
        "repro_service_batches_total",
        "counter",
        "micro-batches dispatched to the model",
    )
    batched = gauge(
        "repro_service_batched_queries_total",
        "counter",
        "generation queries carried by dispatched batches",
    )
    max_batch = gauge(
        "repro_service_batch_max_size",
        "gauge",
        "largest micro-batch dispatched so far",
    )
    for stats in service.get("batchers") or []:
        labels = {"model": str(stats.get("model", "unknown"))}
        batch_queue.add(stats.get("queue_depth", 0), labels)
        batches.add(stats.get("batches", 0), labels)
        batched.add(stats.get("queries", 0), labels)
        max_batch.add(stats.get("max_batch_size", 0), labels)

    cache = service.get("proof_cache") or {}
    if cache:
        gauge(
            "repro_service_proof_cache_records",
            "gauge",
            "records resident in the proof cache",
        ).add(cache.get("records", 0))
        gauge(
            "repro_service_proof_cache_inflight",
            "gauge",
            "single-flight keys currently leading a search",
        ).add(cache.get("inflight", 0))
        gauge(
            "repro_service_proof_cache_persistent",
            "gauge",
            "1 when the proof cache is file-backed",
        ).add(bool(cache.get("persistent", False)))
        if "evictions" in cache:
            gauge(
                "repro_service_proof_cache_evictions_total",
                "counter",
                "records evicted from the bounded in-memory proof cache",
            ).add(cache.get("evictions", 0))

    if "kernel_cache_pins" in service:
        gauge(
            "repro_service_kernel_cache_pins",
            "gauge",
            "kernel cache pin scopes currently held by live searches",
        ).add(service["kernel_cache_pins"])

    kernel_caches = service.get("kernel_cache") or {}
    if kernel_caches:
        hits_f = gauge(
            "repro_service_kernel_cache_hits_total",
            "counter",
            "kernel memo cache hits since service start",
        )
        misses_f = gauge(
            "repro_service_kernel_cache_misses_total",
            "counter",
            "kernel memo cache misses since service start",
        )
        rate_f = gauge(
            "repro_service_kernel_cache_hit_rate",
            "gauge",
            "kernel memo cache lifetime hit fraction",
        )
        size_f = gauge(
            "repro_service_kernel_cache_size",
            "gauge",
            "entries currently resident per kernel cache",
        )
        for cache_name in sorted(kernel_caches):
            stats = kernel_caches[cache_name]
            labels = {"cache": cache_name}
            hits = stats.get("hits", 0)
            misses = stats.get("misses", 0)
            hits_f.add(hits, labels)
            misses_f.add(misses, labels)
            total = hits + misses
            rate_f.add(
                stats.get("hit_rate", hits / total if total else 0.0),
                labels,
            )
            size_f.add(stats.get("size", 0), labels)

    # Cluster router gauges (the counters — worker restarts, deaths,
    # breaker opens, replays — flow through the Metrics snapshot above
    # as repro_cluster_*_total; emitting them here too would double
    # count, since the registry sums colliding samples).
    cluster = service.get("cluster") or {}
    if cluster:
        gauge(
            "repro_cluster_degraded",
            "gauge",
            "degradation ladder level: 0 healthy, 1 shedding ad-hoc "
            "goals, 2 cache-only, 3 draining",
        ).add(cluster.get("degraded", 0))
        supervisor = cluster.get("supervisor") or {}
        gauge(
            "repro_cluster_workers",
            "gauge",
            "configured worker processes",
        ).add(supervisor.get("workers", 0))
        gauge(
            "repro_cluster_workers_healthy",
            "gauge",
            "worker processes currently routable",
        ).add(supervisor.get("healthy", 0))
        up = gauge(
            "repro_cluster_worker_up",
            "gauge",
            "1 while the worker slot is healthy and routable",
        )
        for index, state in sorted(
            (supervisor.get("states") or {}).items()
        ):
            up.add(
                1 if state.get("state") == "healthy" else 0,
                {"worker": str(index)},
            )
        journal = cluster.get("journal") or {}
        if journal:
            gauge(
                "repro_cluster_journal_pending",
                "gauge",
                "journaled jobs with no terminal event (replayed on "
                "restart)",
            ).add(journal.get("pending", 0))
            gauge(
                "repro_cluster_journal_jobs",
                "gauge",
                "jobs ever admitted to the journal",
            ).add(journal.get("jobs", 0))
            gauge(
                "repro_cluster_journal_quarantined_lines",
                "gauge",
                "corrupt journal lines quarantined at load",
            ).add(journal.get("quarantined", 0))
