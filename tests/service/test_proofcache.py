"""ProofCache: result caching, JSONL persistence, single-flight admission."""

from __future__ import annotations

import threading

from repro.eval.store import OutcomeRecord, RunStore
from repro.eval.tasks import TheoremTask
from repro.service.proofcache import ProofCache


def make_task(theorem="rev_involutive", **kwargs):
    kwargs.setdefault("model", "gpt-4o-mini")
    kwargs.setdefault("hinted", False)
    return TheoremTask(theorem=theorem, **kwargs)


def make_record(task, status="proved"):
    return OutcomeRecord(
        theorem=task.theorem,
        model=task.model,
        hinted=task.hinted,
        status=status,
        queries=3,
        generated_proof="intros. reflexivity.",
        revalidated=status == "proved",
    )


class CountingMetrics:
    def __init__(self):
        self.counters = {}

    def incr(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


class TestResultCache:
    def test_memory_roundtrip(self):
        cache = ProofCache()
        task = make_task()
        assert cache.get(task.cache_key()) is None
        record = make_record(task)
        cache.put(task, record)
        assert cache.get(task.cache_key()) == record
        assert cache.stats()["persistent"] is False
        assert cache.stats()["records"] == 1

    def test_metrics_count_hits_and_misses(self):
        metrics = CountingMetrics()
        cache = ProofCache(metrics=metrics)
        task = make_task()
        cache.get(task.cache_key())
        cache.put(task, make_record(task))
        cache.get(task.cache_key())
        assert metrics.counters["service.cache.misses"] == 1
        assert metrics.counters["service.cache.hits"] == 1

    def test_warm_restart_from_jsonl(self, tmp_path):
        """A new cache on the same path serves the previous one's results."""
        path = tmp_path / "service.jsonl"
        task = make_task()
        record = make_record(task)
        cold = ProofCache(path)
        cold.put(task, record)
        cold.close()

        warm = ProofCache(path)
        assert warm.get(task.cache_key()) == record
        assert warm.stats()["persistent"] is True
        assert warm.stats()["records"] == 1

    def test_resumes_from_an_offline_sweep_store(self, tmp_path):
        """The cache file format IS the eval RunStore format: a sweep's
        store warm-starts the server, byte for byte."""
        path = tmp_path / "sweep.jsonl"
        task = make_task(theorem="app_nil_r")
        record = make_record(task, status="stuck")
        with RunStore(path) as store:
            store.put(task, record)

        cache = ProofCache(path)
        assert cache.get(task.cache_key()) == record
        # And the server's own writes land back in the same store.
        other = make_task(theorem="rev_involutive")
        cache.put(other, make_record(other))
        cache.close()
        assert RunStore(path).get(other.cache_key()) is not None


class TestMemoryBound:
    """Regression: the store-less fallback used to be an unbounded
    dict — a slow leak in exactly the long-running deployment that has
    no cache file."""

    def test_storeless_memory_is_bounded(self):
        cache = ProofCache(memory_capacity=4)
        tasks = [make_task(fuel=fuel) for fuel in range(1, 9)]
        for task in tasks:
            cache.put(task, make_record(task))
        stats = cache.stats()
        assert stats["records"] == 4
        assert stats["capacity"] == 4
        assert stats["evictions"] == 4

    def test_eviction_is_fifo_and_counted_in_metrics(self):
        metrics = CountingMetrics()
        cache = ProofCache(metrics=metrics, memory_capacity=2)
        tasks = [make_task(fuel=fuel) for fuel in range(1, 4)]
        for task in tasks:
            cache.put(task, make_record(task))
        # Oldest entry evicted; the two newest survive.
        assert cache.get(tasks[0].cache_key()) is None
        assert cache.get(tasks[1].cache_key()) is not None
        assert cache.get(tasks[2].cache_key()) is not None
        assert metrics.counters["service.cache.evictions"] == 1

    def test_repeat_put_of_same_key_does_not_evict(self):
        cache = ProofCache(memory_capacity=2)
        task = make_task()
        for _ in range(5):
            cache.put(task, make_record(task))
        stats = cache.stats()
        assert stats["records"] == 1
        assert stats["evictions"] == 0

    def test_store_backed_cache_has_no_bound_gauges(self, tmp_path):
        cache = ProofCache(tmp_path / "c.jsonl")
        stats = cache.stats()
        assert "evictions" not in stats
        assert "capacity" not in stats

    def test_kernel_cache_clear_does_not_wipe_proof_results(self):
        # The bounded table reuses kernel BoundedCache machinery but
        # is no kernel state: clear_caches() must leave it alone.
        from repro.kernel import cache as kernel_cache

        cache = ProofCache()
        task = make_task()
        cache.put(task, make_record(task))
        kernel_cache.clear_caches()
        assert cache.get(task.cache_key()) is not None


class TestSingleFlight:
    def test_leader_creates_followers_share(self):
        cache = ProofCache()
        first, created_first = cache.admit("k", lambda: object())
        second, created_second = cache.admit("k", lambda: object())
        assert created_first and not created_second
        assert first is second
        assert cache.inflight_count() == 1

    def test_release_retires_the_key(self):
        cache = ProofCache()
        cache.admit("k", lambda: "leader")
        cache.release("k")
        assert cache.inflight_count() == 0
        entry, created = cache.admit("k", lambda: "second-leader")
        assert created and entry == "second-leader"

    def test_release_is_idempotent(self):
        cache = ProofCache()
        cache.release("never-admitted")  # must not raise
        assert cache.inflight_count() == 0

    def test_concurrent_admits_elect_exactly_one_leader(self):
        cache = ProofCache()
        outcomes = []
        barrier = threading.Barrier(8)

        def contend():
            barrier.wait()
            outcomes.append(cache.admit("k", object))

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        leaders = [entry for entry, created in outcomes if created]
        entries = {id(entry) for entry, _ in outcomes}
        assert len(leaders) == 1
        assert entries == {id(leaders[0])}
