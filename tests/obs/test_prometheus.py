"""Lints the Prometheus text exposition against the 0.0.4 grammar."""

from __future__ import annotations

import re

from repro.eval.instrumentation import Metrics
from repro.obs.prometheus import render_prometheus

METRIC_NAME = r"[a-zA-Z_][a-zA-Z0-9_]*"
LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
SAMPLE_LINE = re.compile(
    rf"^{METRIC_NAME}(?:\{{{LABEL}(?:,{LABEL})*\}})? "
    r"-?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|\d+)$"
)
TYPE_LINE = re.compile(rf"^# TYPE ({METRIC_NAME}) (counter|gauge)$")
HELP_LINE = re.compile(rf"^# HELP ({METRIC_NAME}) .+$")


def sample_service_block():
    return {
        "uptime": 12.5,
        "scheduler": {
            "queue_depth": 3,
            "in_flight": 2,
            "workers": 4,
            "max_queued": 32,
            "draining": False,
            "jobs": {"done": 5, "running": 2, "queued": 3},
        },
        "batchers": [
            {
                "model": "gpt-4o-mini",
                "batches": 9,
                "queries": 30,
                "max_batch_size": 6,
                "queue_depth": 1,
            }
        ],
        "proof_cache": {
            "persistent": False,
            "records": 7,
            "inflight": 2,
            "capacity": 4096,
            "evictions": 1,
            "path": None,
        },
        "kernel_cache": {
            "intern": {"hits": 40, "misses": 10, "size": 10, "hit_rate": 0.8},
            "whnf": {"hits": 3, "misses": 1, "size": 0, "hit_rate": 0.75},
        },
    }


def sample_text():
    metrics = Metrics()
    metrics.incr("verdict.rejected", 4)
    metrics.incr("tasks.executed", 2)
    metrics.add_time("generation", 1.25)
    metrics.add_time("tactic", 0.5)
    return render_prometheus(
        metrics.snapshot(), service=sample_service_block()
    )


class TestExpositionFormat:
    def test_every_line_matches_the_grammar(self):
        for line in sample_text().strip().splitlines():
            assert (
                TYPE_LINE.match(line)
                or HELP_LINE.match(line)
                or SAMPLE_LINE.match(line)
            ), f"illegal exposition line: {line!r}"

    def test_one_type_line_per_family_and_no_duplicates(self):
        families = [
            m.group(1)
            for m in map(TYPE_LINE.match, sample_text().splitlines())
            if m
        ]
        assert len(families) == len(set(families))

    def test_sample_names_belong_to_a_declared_family(self):
        text = sample_text()
        declared = {
            m.group(1)
            for m in map(TYPE_LINE.match, text.splitlines())
            if m
        }
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name = re.match(METRIC_NAME, line).group(0)
            assert name in declared

    def test_counters_end_in_total_and_gauges_do_not(self):
        for line in sample_text().splitlines():
            match = TYPE_LINE.match(line)
            if not match:
                continue
            name, kind = match.groups()
            if kind == "counter":
                assert name.endswith("_total"), name
            else:
                assert not name.endswith("_total"), name

    def test_no_duplicate_label_sets_within_a_family(self):
        seen = set()
        for line in sample_text().splitlines():
            if line.startswith("#") or not line:
                continue
            key = line.rsplit(" ", 1)[0]
            assert key not in seen, f"duplicate sample {key!r}"
            seen.add(key)

    def test_counter_and_gauge_typing(self):
        types = {
            m.group(1): m.group(2)
            for m in map(TYPE_LINE.match, sample_text().splitlines())
            if m
        }
        assert types["repro_verdict_rejected_total"] == "counter"
        assert types["repro_stage_seconds_total"] == "counter"
        assert types["repro_service_batches_total"] == "counter"
        assert types["repro_service_proof_cache_evictions_total"] == "counter"
        assert types["repro_service_queue_depth"] == "gauge"
        assert types["repro_service_in_flight"] == "gauge"
        assert types["repro_service_uptime_seconds"] == "gauge"
        assert types["repro_service_kernel_cache_hits_total"] == "counter"
        assert types["repro_service_kernel_cache_size"] == "gauge"
        assert "repro_service_kernel_cache_pins" not in types


class TestRendering:
    def test_dotted_counter_names_are_sanitized(self):
        text = render_prometheus({"counters": {"service.jobs.completed": 3}})
        assert "repro_service_jobs_completed_total 3" in text

    def test_colliding_sanitized_names_are_summed(self):
        text = render_prometheus(
            {"counters": {"a.b": 2, "a_b": 3}}
        )
        assert text.count("# TYPE repro_a_b_total counter") == 1
        assert "repro_a_b_total 5" in text

    def test_stage_timers_become_labelled_counters(self):
        text = render_prometheus(
            {"stages": {"generation": {"seconds": 2.5, "calls": 4}}}
        )
        assert 'repro_stage_seconds_total{stage="generation"} 2.5' in text
        assert 'repro_stage_calls_total{stage="generation"} 4' in text

    def test_label_values_are_escaped(self):
        text = render_prometheus(
            None,
            service={
                "batchers": [
                    {"model": 'we"ird\\name', "batches": 1, "queries": 1}
                ]
            },
        )
        assert 'model="we\\"ird\\\\name"' in text

    def test_accepts_a_metrics_object_directly(self):
        metrics = Metrics()
        metrics.incr("tasks.total", 7)
        assert "repro_tasks_total_total 7" in render_prometheus(metrics)

    def test_empty_snapshot_renders_only_stage_families(self):
        text = render_prometheus(None)
        assert "# TYPE repro_stage_seconds_total counter" in text
        assert text.endswith("\n")

    def test_jobs_by_state_gauge(self):
        text = render_prometheus(None, service=sample_service_block())
        assert 'repro_service_jobs{state="running"} 2' in text
        assert 'repro_service_jobs{state="done"} 5' in text
