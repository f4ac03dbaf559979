"""The one telemetry handle: spans are stage timers, traced or not."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import BestFirstSearch
from repro.llm import get_model
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.obs.trace import Tracer
from repro.repair.engine import RepairEngine
from repro.serapi import ProofChecker


class TestMetrics:
    def test_span_adds_seconds_and_one_call(self):
        metrics = Metrics()
        for _ in range(3):
            with metrics.span("tactic", tactic="intros") as span:
                assert span.set(verdict="valid") is span
        cell = metrics.snapshot()["stages"]["tactic"]
        assert cell["calls"] == 3
        assert cell["seconds"] >= 0.0

    def test_tracing_flags(self):
        assert Metrics().tracing is False
        assert Metrics(Tracer()).tracing is True
        assert NULL_METRICS.tracing is False

    def test_traced_span_is_also_a_tracer_span(self):
        tracer = Tracer(trace_id="t")
        metrics = Metrics(tracer)
        with metrics.span("search", theorem="x") as search:
            with metrics.span("tactic"):
                pass
            search.set(status="proved")
        spans = {s["name"]: s for s in tracer.export()}
        assert spans["tactic"]["parent"] == spans["search"]["span"]
        assert spans["search"]["attrs"] == {"theorem": "x", "status": "proved"}
        stages = metrics.snapshot()["stages"]
        assert stages["search"]["calls"] == stages["tactic"]["calls"] == 1

    def test_exception_is_timed_and_propagates(self):
        tracer = Tracer()
        metrics = Metrics(tracer)
        with pytest.raises(ValueError):
            with metrics.span("task"):
                raise ValueError("boom")
        assert metrics.snapshot()["stages"]["task"]["calls"] == 1
        (span,) = tracer.export()
        assert span["attrs"]["error"] == "ValueError"

    def test_concurrent_spans_lose_no_call(self):
        # The service's handle is shared by every job thread.
        metrics = Metrics()

        def work():
            for _ in range(500):
                with metrics.span("generation"):
                    metrics.incr("llm.retries")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snap = metrics.snapshot()
        assert snap["stages"]["generation"]["calls"] == 2000
        assert snap["counters"]["llm.retries"] == 2000


class TestNullMetrics:
    def test_span_returns_a_shared_noop(self):
        a = NULL_METRICS.span("x", attr=1)
        b = NULL_METRICS.span("y")
        assert a is b  # no allocation per call
        with a as span:
            assert span.set(anything="goes") is span
        NULL_METRICS.incr("verdict.valid")
        NULL_METRICS.add_time("tactic", 1.0)
        assert NULL_METRICS.snapshot() == {"counters": {}, "stages": {}}

    def test_every_layer_defaults_to_the_shared_handle(self, project):
        checker = ProofChecker(project.env)
        search = BestFirstSearch(checker, get_model("gpt-4o"))
        engine = RepairEngine(search, builder=None, rounds=0)
        assert checker.metrics is NULL_METRICS
        assert search.metrics is NULL_METRICS
        assert engine.metrics is NULL_METRICS
