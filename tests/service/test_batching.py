"""Micro-batching: the caller-run dispatch under controlled concurrency,
and the determinism contract.

No test here depends on timing: a dispatch is held in flight on an
``Event`` while calls queue behind it, and the queue depth, not a
sleep, says when they have all arrived.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

import repro.service
from repro.cli import main as cli_main
from repro.llm import get_model
from repro.service import ServerConfig
from repro.service.batching import BatchingGenerator

TIMEOUT = 30.0  # seconds any join or wait may take before the test fails
HELD = ("Goal held : n = n", 1)  # the request whose dispatch is held


class CountingMetrics:
    def __init__(self):
        self.counters = {}

    def incr(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


class RecordingInner:
    """Delegates to a real model, recording each batch call.

    A batch carrying :data:`HELD` blocks until ``release`` is set.
    """

    def __init__(self, model):
        self.model = model
        self.name = model.name
        self.context_window = model.context_window
        self.provides_log_probs = model.provides_log_probs
        self.batches = []
        self.batch_threads = []
        self.thread_counts = []
        self.solo_calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def generate(self, prompt, k):
        self.solo_calls += 1
        return self.model.generate(prompt, k)

    def generate_batch(self, requests):
        self.batches.append(list(requests))
        self.batch_threads.append(threading.get_ident())
        self.thread_counts.append(threading.active_count())
        if HELD in requests:
            self.entered.set()
            assert self.release.wait(TIMEOUT)
        return self.model.generate_batch(requests)


class Callers:
    """One thread per ``generate`` call; results kept in call order."""

    def __init__(self, batcher):
        self.batcher = batcher
        self.threads = []
        self.results = []
        self.errors = []

    def start(self, requests):
        for prompt, k in requests:
            self.results.append(None)
            thread = threading.Thread(
                target=self._call, args=(len(self.results) - 1, prompt, k)
            )
            self.threads.append(thread)
            thread.start()

    def _call(self, index, prompt, k):
        try:
            self.results[index] = self.batcher.generate(prompt, k)
        except BaseException as exc:  # noqa: BLE001 - the test inspects it
            self.errors.append((index, exc))

    def join(self):
        for thread in self.threads:
            thread.join(TIMEOUT)
            assert not thread.is_alive()


def fan_out(batcher, requests):
    """Call ``generate`` concurrently; return results in request order."""
    callers = Callers(batcher)
    callers.start(requests)
    callers.join()
    return callers.results, callers.errors


def wait_until(predicate):
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def held_dispatch(batcher, inner):
    """Callers whose first call, :data:`HELD`, is a dispatch held in
    flight until ``inner.release`` is set."""
    inner.release.clear()
    callers = Callers(batcher)
    callers.start([HELD])
    assert inner.entered.wait(TIMEOUT)
    return callers


def queue_behind(callers, requests):
    """Start ``requests`` and wait until all of them are queued."""
    callers.start(requests)
    wait_until(
        lambda: callers.batcher.stats()["queue_depth"] == len(requests)
    )


class TestBatchingGenerator:
    def test_full_batch_coalesces_and_matches_solo(self):
        """Calls queued behind the dispatch in flight leave together,
        at most ``max_batch_size`` per dispatch."""
        model = get_model("gpt-4o-mini")
        inner = RecordingInner(model)
        requests = [(f"Goal {i} : n + 0 = n", 2 + i % 3) for i in range(6)]
        batcher = BatchingGenerator(inner, max_batch_size=4)
        callers = held_dispatch(batcher, inner)
        queue_behind(callers, requests)
        inner.release.set()
        callers.join()
        assert callers.errors == []
        assert [len(batch) for batch in inner.batches] == [1, 4, 2]
        assert inner.solo_calls == 0
        # Every element is byte-identical to a solo call (the
        # determinism contract the service depends on).
        assert callers.results == [
            model.generate(p, k) for p, k in [HELD] + requests
        ]

    def test_lone_call_is_sent_on_the_callers_thread(self):
        inner = RecordingInner(get_model("gpt-4o"))
        batcher = BatchingGenerator(inner, max_batch_size=8)
        threads_before = threading.active_count()
        out = batcher.generate("Goal n = n", 3)
        assert out == inner.model.generate("Goal n = n", 3)
        assert inner.batches == [[("Goal n = n", 3)]]
        assert inner.batch_threads == [threading.get_ident()]
        assert inner.thread_counts == [threads_before]

    def test_queue_heads_lead_in_arrival_order(self):
        inner = RecordingInner(get_model("gpt-4o-mini"))
        batcher = BatchingGenerator(inner, max_batch_size=2)
        callers = held_dispatch(batcher, inner)
        requests = [(f"Goal {name} = {name}", 2) for name in "abcde"]
        for depth, request in enumerate(requests, start=1):
            callers.start([request])
            wait_until(lambda: batcher.stats()["queue_depth"] == depth)
        inner.release.set()
        callers.join()
        assert callers.errors == []
        assert inner.batches == [
            [HELD], requests[0:2], requests[2:4], requests[4:]
        ]

    def test_dispatch_counters_keep_their_names(self):
        """perfbench's probe and ``/metrics`` read these counters."""
        inner = RecordingInner(get_model("gpt-4o-mini"))
        metrics = CountingMetrics()
        batcher = BatchingGenerator(inner, max_batch_size=4, metrics=metrics)
        callers = held_dispatch(batcher, inner)
        queue_behind(callers, [(f"Goal {i} = {i}", 2) for i in range(6)])
        inner.release.set()
        callers.join()
        assert metrics.counters == {
            "service.batch.dispatches": 3,
            "service.batch.queries": 7,
        }
        stats = batcher.stats()
        assert (stats["batches"], stats["queries"]) == (3, 7)
        assert stats["max_batch_size"] == 4
        assert stats["mean_batch_size"] == pytest.approx(7 / 3)

    def test_preformed_batch_skips_the_queue(self):
        inner = RecordingInner(get_model("gpt-4o-mini"))
        batcher = BatchingGenerator(inner, max_batch_size=4)
        callers = held_dispatch(batcher, inner)
        requests = [("Goal a = a", 2), ("Goal b = b", 3)]
        # Answered while the held dispatch is still in flight.
        assert batcher.generate_batch(requests) == [
            inner.model.generate(p, k) for p, k in requests
        ]
        inner.release.set()
        callers.join()
        assert batcher.stats()["batches"] == 1

    def test_batching_disabled_is_a_straight_passthrough(self):
        inner = RecordingInner(get_model("gpt-4o"))
        batcher = BatchingGenerator(inner, max_batch_size=1)
        out = batcher.generate("Goal n = n", 2)
        assert out == inner.model.generate("Goal n = n", 2)
        assert inner.batches == []  # no queue, no batch call
        assert inner.solo_calls >= 1
        assert batcher.stats()["batches"] == 0

    def test_max_batch_size_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            BatchingGenerator(get_model("gpt-4o"), max_batch_size=0)

    def test_failed_batch_falls_back_to_solo_calls(self):
        class BrokenBatch(RecordingInner):
            def generate_batch(self, requests):
                if HELD not in requests:
                    raise RuntimeError("batch endpoint down")
                return super().generate_batch(requests)

        inner = BrokenBatch(get_model("gpt-4o-mini"))
        metrics = CountingMetrics()
        requests = [("Goal a = a", 2), ("Goal b = b", 2)]
        batcher = BatchingGenerator(inner, max_batch_size=2, metrics=metrics)
        callers = held_dispatch(batcher, inner)
        queue_behind(callers, requests)
        inner.release.set()
        callers.join()
        assert callers.errors == []
        assert callers.results == [
            inner.model.generate(p, k) for p, k in [HELD] + requests
        ]
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
        batcher = BatchingGenerator(inner, max_batch_size=2)
        callers = held_dispatch(batcher, inner)
        queue_behind(callers, [("Goal ok : n = n", 2), ("poison", 2)])
        inner.release.set()
        callers.join()
        assert callers.results[1] == inner.model.generate("Goal ok : n = n", 2)
        assert [index for index, _ in callers.errors] == [2]
        assert isinstance(callers.errors[0][1], ValueError)

    def test_interrupted_dispatch_still_answers_its_co_travellers(self):
        class Interrupt(BaseException):
            pass

        class Interrupting(RecordingInner):
            def generate_batch(self, requests):
                if HELD not in requests:
                    raise Interrupt()
                return super().generate_batch(requests)

        inner = Interrupting(get_model("gpt-4o-mini"))
        batcher = BatchingGenerator(inner, max_batch_size=4)
        callers = held_dispatch(batcher, inner)
        queue_behind(callers, [("Goal a = a", 2), ("Goal b = b", 2)])
        inner.release.set()
        callers.join()
        # The leader re-raises the interrupt; its co-traveller gets an
        # error instead of a result ...
        kinds = sorted(type(exc).__name__ for _, exc in callers.errors)
        assert kinds == ["Interrupt", "RuntimeError"]
        # ... and no dispatch is left in flight to strand later calls.
        assert batcher.generate(*HELD) == inner.model.generate(*HELD)

    def test_close_flushes_pending_then_rejects_new_work(self):
        inner = RecordingInner(get_model("gpt-4o"))
        batcher = BatchingGenerator(inner, max_batch_size=8)
        callers = held_dispatch(batcher, inner)
        queue_behind(callers, [("Goal n = n", 2)])
        batcher.close()  # must not strand the queued caller
        inner.release.set()
        callers.join()
        assert callers.errors == []
        assert callers.results[1] == inner.model.generate("Goal n = n", 2)
        with pytest.raises(RuntimeError):
            batcher.generate("Goal n = n", 2)

    def test_stats_shape(self):
        inner = RecordingInner(get_model("gpt-4o-mini"))
        batcher = BatchingGenerator(inner, max_batch_size=4)
        batcher.generate("Goal n = n", 2)
        stats = batcher.stats()
        assert stats["model"] == inner.name
        assert stats["batches"] == 1
        assert stats["queries"] == 1
        assert stats["mean_batch_size"] == 1.0
        assert stats["queue_depth"] == 0


class TestServerConfig:
    def test_max_batch_size_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(max_batch_size=0)

    def test_cli_refuses_max_batch_size_below_one(self, monkeypatch):
        def serve_forever(api):
            raise AssertionError("the server started")

        monkeypatch.setattr(repro.service, "serve_forever", serve_forever)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["server", "--port", "0", "--max-batch-size", "0"])
        assert exit_info.value.code != 0


class TestDeterminismContract:
    def test_concurrent_batched_equals_solo_under_timing_noise(self):
        """64 callers, more than the cores, with the interpreter
        switching threads every microsecond: whatever batch composition
        the timing produced, every result must equal the solo
        reference."""
        model = get_model("gemini-1.5-flash")
        requests = [
            (f"Lemma l{i} : forall n : nat, n + {i} = {i} + n.", 1 + i % 5)
            for i in range(64)
        ]
        reference = [model.generate(p, k) for p, k in requests]
        batcher = BatchingGenerator(model, max_batch_size=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results, errors = fan_out(batcher, requests)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert results == reference
        assert batcher.stats()["queries"] == len(requests)
