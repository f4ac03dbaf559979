"""Tracer/Span unit behaviour + the JSONL sink round-trip."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.trace import JsonlSink, Tracer, load_spans


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class TestTracer:
    def test_spans_nest_via_the_stack(self):
        tracer = Tracer(trace_id="t1")
        with tracer.span("task"):
            with tracer.span("search"):
                with tracer.span("expand"):
                    pass
                with tracer.span("expand"):
                    pass
        spans = tracer.export()
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        (task,) = by_name["task"]
        (search,) = by_name["search"]
        assert task["parent"] is None
        assert search["parent"] == task["span"]
        assert [e["parent"] for e in by_name["expand"]] == [
            search["span"],
            search["span"],
        ]
        assert all(span["trace"] == "t1" for span in spans)

    def test_elapsed_and_start_use_the_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        clock.tick(1.0)
        with tracer.span("outer"):
            clock.tick(2.0)
            with tracer.span("inner"):
                clock.tick(0.5)
        spans = {s["name"]: s for s in tracer.export()}
        assert spans["outer"]["start"] == pytest.approx(1.0)
        assert spans["outer"]["elapsed"] == pytest.approx(2.5)
        assert spans["inner"]["start"] == pytest.approx(3.0)
        assert spans["inner"]["elapsed"] == pytest.approx(0.5)

    def test_export_orders_by_span_id(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        # "b" finishes before "a": export must still be creation order.
        assert [s["name"] for s in tracer.export()] == ["a", "b"]

    def test_set_is_chainable_and_attrs_export(self):
        tracer = Tracer()
        with tracer.span("tactic") as span:
            assert span.set(verdict="valid") is span
            span.set(tactic="intros")
        (exported,) = tracer.export()
        assert exported["attrs"] == {"verdict": "valid", "tactic": "intros"}

    def test_exception_marks_the_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("task"):
                raise ValueError("boom")
        (span,) = tracer.export()
        assert span["attrs"]["error"] == "ValueError"

    def test_mis_nested_exit_closes_abandoned_inner_spans(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        tracer.span("inner")  # never exited
        outer.__exit__(None, None, None)
        with tracer.span("next"):
            pass
        spans = {s["name"]: s for s in tracer.export()}
        # The new span must parent on the root, not on the leaked inner.
        assert spans["next"]["parent"] is None


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(trace_id="rt")
        with tracer.span("task", theorem="rev_involutive"):
            with tracer.span("search"):
                pass
        sink = JsonlSink(path)
        assert sink.write(tracer.export()) == 2
        assert sink.spans_written == 2
        loaded = load_spans(path)
        assert loaded == tracer.export()

    def test_empty_write_creates_nothing(self, tmp_path):
        sink = JsonlSink(tmp_path / "never.jsonl")
        assert sink.write([]) == 0
        assert not (tmp_path / "never.jsonl").exists()

    def test_load_skips_blank_and_torn_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        good = {"trace": "t", "span": 1, "parent": None, "name": "task"}
        path.write_text(
            json.dumps(good) + "\n\n{\"trace\": \"t\", \"span\": 2, \"na",
            encoding="utf-8",
        )
        assert load_spans(path) == [good]

    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        sink = JsonlSink(path)
        barrier = threading.Barrier(4)

        def write(worker):
            tracer = Tracer(trace_id=f"w{worker}")
            for index in range(20):
                with tracer.span("expand", query=index):
                    pass
            barrier.wait()
            sink.write(tracer.export())

        threads = [
            threading.Thread(target=write, args=(n,)) for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = load_spans(path)
        assert len(spans) == 80
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span["trace"], []).append(span)
        assert set(by_trace) == {f"w{n}" for n in range(4)}
        assert all(len(group) == 20 for group in by_trace.values())
