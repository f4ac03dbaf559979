"""Micro-batching: the pure planner under a fake clock, the threaded
generator under controlled concurrency, and the determinism contract.
"""

from __future__ import annotations

import threading

import pytest

from repro.llm import get_model
from repro.llm.interface import Candidate
from repro.service.batching import BatchingGenerator, BatchPlanner, BatchPolicy, _Pending


class CountingMetrics:
    def __init__(self):
        self.counters = {}

    def incr(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


# ----------------------------------------------------------------------
# BatchPlanner: all timing injected, no threads, no sleeps.
# ----------------------------------------------------------------------


class TestBatchPlanner:
    def planner(self, window=1.0, size=4):
        return BatchPlanner(BatchPolicy(batch_window=window, max_batch_size=size))

    def test_empty_queue_is_idle(self):
        planner = self.planner()
        assert not planner.ready(now=0.0)
        assert planner.wait_budget(now=0.0) is None
        assert planner.take() == []

    def test_window_opens_at_oldest_arrival(self):
        planner = self.planner(window=1.0)
        planner.add(_Pending("a", 1, arrived=10.0))
        assert not planner.ready(now=10.5)
        assert planner.wait_budget(now=10.5) == pytest.approx(0.5)
        assert planner.ready(now=11.0)
        assert planner.wait_budget(now=11.2) == 0.0

    def test_late_arrivals_do_not_extend_the_window(self):
        planner = self.planner(window=1.0)
        planner.add(_Pending("a", 1, arrived=10.0))
        planner.add(_Pending("b", 1, arrived=10.9))
        # Due at oldest + window, not newest + window.
        assert planner.ready(now=11.0)

    def test_full_batch_dispatches_immediately(self):
        planner = self.planner(window=60.0, size=2)
        planner.add(_Pending("a", 1, arrived=0.0))
        assert not planner.ready(now=0.0)
        planner.add(_Pending("b", 1, arrived=0.0))
        assert planner.ready(now=0.0)
        assert planner.wait_budget(now=0.0) == 0.0

    def test_take_leaves_the_overflow_queued(self):
        planner = self.planner(window=0.0, size=2)
        for name in "abc":
            planner.add(_Pending(name, 1, arrived=0.0))
        batch = planner.take()
        assert [p.prompt for p in batch] == ["a", "b"]
        assert [p.prompt for p in planner.queue] == ["c"]

    def test_zero_window_means_dispatch_whatever_is_queued(self):
        planner = self.planner(window=0.0)
        planner.add(_Pending("a", 1, arrived=5.0))
        assert planner.ready(now=5.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(batch_window=-0.1)
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)


# ----------------------------------------------------------------------
# BatchingGenerator: threads, but deterministic coalescing — a full
# batch (max_batch_size == caller count, huge window) dispatches all
# callers in one generate_batch call, no timing dependence.
# ----------------------------------------------------------------------


class RecordingInner:
    """Delegates to a real model, recording batch sizes."""

    def __init__(self, model):
        self.model = model
        self.name = model.name
        self.context_window = model.context_window
        self.provides_log_probs = model.provides_log_probs
        self.batch_sizes = []
        self.solo_calls = 0

    def generate(self, prompt, k):
        self.solo_calls += 1
        return self.model.generate(prompt, k)

    def generate_batch(self, requests):
        self.batch_sizes.append(len(requests))
        return self.model.generate_batch(requests)


def fan_out(batcher, requests):
    """Call ``generate`` concurrently; return results in request order."""
    results = [None] * len(requests)
    errors = []

    def call(index, prompt, k):
        try:
            results[index] = batcher.generate(prompt, k)
        except BaseException as exc:  # noqa: BLE001
            errors.append((index, exc))

    threads = [
        threading.Thread(target=call, args=(i, p, k))
        for i, (p, k) in enumerate(requests)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


class TestBatchingGenerator:
    def test_full_batch_coalesces_and_matches_solo(self):
        model = get_model("gpt-4o-mini")
        inner = RecordingInner(model)
        requests = [(f"Goal {i} : n + 0 = n", 2 + i % 3) for i in range(4)]
        batcher = BatchingGenerator(
            inner, BatchPolicy(batch_window=30.0, max_batch_size=len(requests))
        )
        try:
            results, errors = fan_out(batcher, requests)
        finally:
            batcher.close()
        assert errors == []
        # One dispatch carried all four callers (size trigger, not the
        # 30s window) ...
        assert inner.batch_sizes == [4]
        assert inner.solo_calls == 0
        # ... and every element is byte-identical to a solo call (the
        # determinism contract the service depends on).
        assert results == [model.generate(p, k) for p, k in requests]

    def test_window_flushes_a_lone_request(self):
        inner = RecordingInner(get_model("gpt-4o"))
        batcher = BatchingGenerator(
            inner, BatchPolicy(batch_window=0.005, max_batch_size=8)
        )
        try:
            out = batcher.generate("Goal n = n", 3)
        finally:
            batcher.close()
        assert out == inner.model.generate("Goal n = n", 3)
        assert inner.batch_sizes == [1]

    def test_batching_disabled_is_a_straight_passthrough(self):
        inner = RecordingInner(get_model("gpt-4o"))
        batcher = BatchingGenerator(inner, BatchPolicy(max_batch_size=1))
        out = batcher.generate("Goal n = n", 2)
        assert out == inner.model.generate("Goal n = n", 2)
        assert inner.batch_sizes == []  # no queue, no dispatcher thread
        assert inner.solo_calls >= 1
        assert batcher._dispatcher is None

    def test_failed_batch_falls_back_to_solo_calls(self):
        class BrokenBatch(RecordingInner):
            def generate_batch(self, requests):
                raise RuntimeError("batch endpoint down")

        inner = BrokenBatch(get_model("gpt-4o-mini"))
        metrics = CountingMetrics()
        requests = [("Goal a = a", 2), ("Goal b = b", 2)]
        batcher = BatchingGenerator(
            inner,
            BatchPolicy(batch_window=30.0, max_batch_size=2),
            metrics=metrics,
        )
        try:
            results, errors = fan_out(batcher, requests)
        finally:
            batcher.close()
        assert errors == []
        assert results == [inner.model.generate(p, k) for p, k in requests]
        assert metrics.counters.get("service.batch.fallbacks") == 1

    def test_solo_fallback_isolates_a_poisoned_element(self):
        class Poisoned(RecordingInner):
            def generate(self, prompt, k):
                if prompt == "poison":
                    raise ValueError("bad prompt")
                return super().generate(prompt, k)

            def generate_batch(self, requests):
                # Batch path refuses the whole batch; solo fallback
                # must fail only the poisoned element.
                if any(p == "poison" for p, _ in requests):
                    raise ValueError("bad prompt in batch")
                return super().generate_batch(requests)

        inner = Poisoned(get_model("gpt-4o-mini"))
        batcher = BatchingGenerator(
            inner, BatchPolicy(batch_window=30.0, max_batch_size=2)
        )
        try:
            results, errors = fan_out(
                batcher, [("Goal ok : n = n", 2), ("poison", 2)]
            )
        finally:
            batcher.close()
        assert results[0] == inner.model.generate("Goal ok : n = n", 2)
        assert len(errors) == 1 and isinstance(errors[0][1], ValueError)

    def test_close_flushes_pending_then_rejects_new_work(self):
        inner = RecordingInner(get_model("gpt-4o"))
        batcher = BatchingGenerator(
            inner, BatchPolicy(batch_window=60.0, max_batch_size=8)
        )
        box = {}
        thread = threading.Thread(
            target=lambda: box.setdefault(
                "out", batcher.generate("Goal n = n", 2)
            )
        )
        thread.start()
        # Wait until the request is queued (not yet dispatched: the
        # 60s window would otherwise park it).
        for _ in range(1000):
            if len(batcher._planner) or box.get("out"):
                break
            thread.join(0.005)
        batcher.close()  # must flush, not strand, the queued caller
        thread.join(5.0)
        assert box["out"] == inner.model.generate("Goal n = n", 2)
        with pytest.raises(RuntimeError):
            batcher.generate("Goal n = n", 2)

    def test_stats_shape(self):
        inner = RecordingInner(get_model("gpt-4o-mini"))
        batcher = BatchingGenerator(
            inner, BatchPolicy(batch_window=0.005, max_batch_size=4)
        )
        try:
            batcher.generate("Goal n = n", 2)
        finally:
            batcher.close()
        stats = batcher.stats()
        assert stats["model"] == inner.name
        assert stats["batches"] == 1
        assert stats["queries"] == 1
        assert stats["mean_batch_size"] == 1.0
        assert stats["queue_depth"] == 0


class TestDeterminismContract:
    def test_concurrent_batched_equals_solo_under_timing_noise(self):
        """Many concurrent searches, tiny real window: whatever batch
        composition the timing produced, every result must equal the
        solo reference."""
        model = get_model("gemini-1.5-flash")
        requests = [
            (f"Lemma l{i} : forall n : nat, n + {i} = {i} + n.", 1 + i % 5)
            for i in range(24)
        ]
        reference = [model.generate(p, k) for p, k in requests]
        batcher = BatchingGenerator(
            model, BatchPolicy(batch_window=0.002, max_batch_size=6)
        )
        try:
            results, errors = fan_out(batcher, requests)
        finally:
            batcher.close()
        assert errors == []
        assert results == reference
        stats = batcher.stats()
        assert stats["queries"] == len(requests)

