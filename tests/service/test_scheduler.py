"""Scheduler: admission, single-flight, drain, deadlines, journal.

Most tests inject stub ``execute`` functions (an Event-gated search
stand-in) so the concurrency logic is exercised without real proof
searches; the deadline test runs a real search against the corpus.
"""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.eval.store import OutcomeRecord
from repro.eval.tasks import TheoremTask
from repro.service.journal import JobJournal
from repro.service.proofcache import ProofCache
from repro.service.scheduler import (
    JobState,
    QueueFullError,
    Scheduler,
    SchedulerConfig,
    ShuttingDownError,
)


def make_task(theorem="rev_involutive", **kwargs):
    kwargs.setdefault("model", "gpt-4o-mini")
    kwargs.setdefault("hinted", False)
    return TheoremTask(theorem=theorem, **kwargs)


def make_result(task, status="proved"):
    return SimpleNamespace(
        record=OutcomeRecord(
            theorem=task.theorem,
            model=task.model,
            hinted=task.hinted,
            status=status,
            queries=2,
        ),
        metrics=None,
    )


class GatedExecute:
    """A search stand-in that blocks until the test opens the gate."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, job):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.gate.wait(10.0), "test never opened the gate"
        return make_result(job.task)


def make_scheduler(execute, **config_kwargs):
    config_kwargs.setdefault("workers", 1)
    config_kwargs.setdefault("max_queued", 4)
    return Scheduler(
        execute=execute,
        cache=ProofCache(),
        config=SchedulerConfig(**config_kwargs),
    )


class TestLifecycle:
    def test_submit_run_complete(self):
        scheduler = make_scheduler(lambda job: make_result(job.task))
        job = scheduler.submit(make_task())
        assert job.done.wait(10.0)
        assert job.state is JobState.DONE
        assert job.record.status == "proved"
        assert scheduler.shutdown(timeout=10.0)

    def test_completed_result_serves_future_requests_from_cache(self):
        execute = GatedExecute()
        execute.gate.set()
        scheduler = make_scheduler(execute)
        task = make_task()
        first = scheduler.submit(task)
        assert first.done.wait(10.0)
        second = scheduler.submit(task)
        # Instant completion from the shared cache: no second search.
        assert second.finished() and second.cached
        assert second.record == first.record
        assert execute.calls == 1
        assert scheduler.shutdown(timeout=10.0)

    def test_failed_job_reports_error_and_frees_the_key(self):
        def explode(job):
            raise ValueError("kernel said no")

        scheduler = make_scheduler(explode)
        task = make_task()
        job = scheduler.submit(task)
        assert job.done.wait(10.0)
        assert job.state is JobState.FAILED
        assert "kernel said no" in job.error
        assert scheduler.cache.inflight_count() == 0
        # A failure is not cached: the next submit runs a fresh search.
        retry = scheduler.submit(task)
        assert retry is not job
        assert retry.done.wait(10.0)
        assert scheduler.shutdown(timeout=10.0)


class TestAdmissionControl:
    def test_overflow_raises_queue_full(self):
        execute = GatedExecute()
        scheduler = make_scheduler(execute, workers=1, max_queued=1)
        running = scheduler.submit(make_task(theorem="a", fuel=1))
        assert execute.started.wait(10.0)  # worker occupied
        queued = scheduler.submit(make_task(theorem="b", fuel=2))
        with pytest.raises(QueueFullError):
            scheduler.submit(make_task(theorem="c", fuel=3))
        # The refused task must not linger in the single-flight table —
        # a retry after the queue empties must be admittable.
        assert scheduler.cache.inflight_count() == 2
        execute.gate.set()
        for job in (running, queued):
            assert job.done.wait(10.0)
        retry = scheduler.submit(make_task(theorem="c", fuel=3))
        assert retry.done.wait(10.0)
        assert scheduler.shutdown(timeout=10.0)

    def test_threads_start_on_demand_up_to_the_bound(self):
        execute = GatedExecute()
        scheduler = make_scheduler(execute, workers=3, max_queued=1)
        assert not scheduler._threads  # an idle scheduler holds none
        jobs = [scheduler.submit(make_task(theorem="a"))]
        assert execute.started.wait(10.0)
        assert len(scheduler._threads) == 1
        jobs += [scheduler.submit(make_task(theorem=t)) for t in "bcd"]
        # A job with a free slot never waits behind a busy one: three
        # run at once, only the fourth queues.
        deadline = time.monotonic() + 10.0
        while execute.calls < 3:
            assert time.monotonic() < deadline, "a job waited for a slot"
            time.sleep(0.005)
        assert len(scheduler._threads) == 3
        assert scheduler.stats()["queue_depth"] == 1
        # The bound counts running and queued jobs: 3 + 1 is full.
        with pytest.raises(QueueFullError):
            scheduler.submit(make_task(theorem="e"))
        execute.gate.set()
        for job in jobs:
            assert job.done.wait(10.0)
        assert execute.calls == 4
        assert len(scheduler._threads) == 3
        assert scheduler.shutdown(timeout=10.0)

    def test_concurrent_submits_keep_the_counts_exact(self):
        """Stress: many submitters race admission, execution and the
        per-state counts; a lost update breaks the final tallies."""
        calls = []

        def execute(job):
            calls.append(job.id)
            time.sleep(0.0005)
            return make_result(job.task)

        scheduler = make_scheduler(execute, workers=4, max_queued=8)
        admitted, refused = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def submitter(index):
                for n in range(40):
                    task = make_task(theorem=f"t{index}-{n}")
                    try:
                        admitted.append(scheduler.submit(task))
                    except QueueFullError:
                        refused.append(task)

            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            assert scheduler.shutdown(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert len(admitted) + len(refused) == 16 * 40
        assert all(job.state is JobState.DONE for job in admitted)
        assert sorted(calls) == sorted(job.id for job in admitted)
        stats = scheduler.stats()
        assert stats["jobs"] == {
            "queued": 0, "running": 0, "done": len(admitted), "failed": 0
        }
        assert len(scheduler._threads) <= 4
        assert scheduler.cache.inflight_count() == 0

    def test_draining_scheduler_refuses_then_finishes(self):
        execute = GatedExecute()
        scheduler = make_scheduler(execute)
        job = scheduler.submit(make_task(theorem="a"))
        assert execute.started.wait(10.0)

        drained = []
        waiter = threading.Thread(
            target=lambda: drained.append(scheduler.shutdown(timeout=20.0))
        )
        waiter.start()
        for _ in range(200):
            if scheduler.stats()["draining"]:
                break
            time.sleep(0.005)
        with pytest.raises(ShuttingDownError):
            scheduler.submit(make_task(theorem="b"))
        # Graceful drain: the admitted job still completes.
        execute.gate.set()
        waiter.join(20.0)
        assert drained == [True]
        assert job.state is JobState.DONE


class TestSingleFlight:
    def test_identical_submits_share_one_search(self):
        execute = GatedExecute()
        scheduler = make_scheduler(execute, workers=2)
        task = make_task()
        leader = scheduler.submit(task)
        assert execute.started.wait(10.0)
        follower = scheduler.submit(task)
        assert follower is leader
        assert leader.dedup_hits == 1
        execute.gate.set()
        assert leader.done.wait(10.0)
        # One search served both callers.
        assert execute.calls == 1
        assert scheduler.shutdown(timeout=10.0)

    def test_different_cells_do_not_coalesce(self):
        execute = GatedExecute()
        execute.gate.set()
        scheduler = make_scheduler(execute, workers=2)
        a = scheduler.submit(make_task(fuel=8))
        b = scheduler.submit(make_task(fuel=16))
        assert a is not b
        for job in (a, b):
            assert job.done.wait(10.0)
        assert execute.calls == 2
        assert scheduler.shutdown(timeout=10.0)


class TestDeadlines:
    def test_default_deadline_folds_into_task_and_key(self):
        scheduler = make_scheduler(
            lambda job: make_result(job.task), default_deadline=5.0
        )
        job = scheduler.submit(make_task())
        assert job.task.theorem_deadline == 5.0
        # Deadline participates in the cache key: a bounded cell never
        # aliases the unbounded one.
        assert job.key != make_task().cache_key()
        assert job.key == make_task(theorem_deadline=5.0).cache_key()
        assert job.done.wait(10.0)
        assert scheduler.shutdown(timeout=10.0)

    def test_task_deadline_wins_over_the_default(self):
        scheduler = make_scheduler(
            lambda job: make_result(job.task), default_deadline=5.0
        )
        job = scheduler.submit(make_task(theorem_deadline=2.0))
        assert job.task.theorem_deadline == 2.0
        assert job.done.wait(10.0)
        assert scheduler.shutdown(timeout=10.0)

    def test_deadline_yields_a_clean_timeout_record(self, project):
        """A real search under a tiny budget ends as TIMEOUT — an
        outcome, not an exception."""
        from repro.eval.config import ExperimentConfig
        from repro.eval.runner import Runner

        runner = Runner(project, ExperimentConfig())
        hard = max(project.theorems, key=lambda t: t.proof_tokens)
        scheduler = Scheduler(
            execute=lambda job: runner.execute_task(job.task),
            cache=ProofCache(),
            config=SchedulerConfig(workers=1, default_deadline=0.001),
        )
        job = scheduler.submit(
            make_task(theorem=hard.name, fuel=4096, model="gpt-4o-mini")
        )
        assert job.done.wait(60.0)
        assert job.state is JobState.DONE
        assert job.record.status == "timeout"
        assert scheduler.shutdown(timeout=10.0)


def cell_body(task):
    return {"theorem": task.theorem, "model": task.model}


class TestJournal:
    def test_admitted_line_lands_before_the_job_runs(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        pending_at_run = []

        def execute(job):
            pending_at_run.append([e.job for e in journal.pending()])
            return make_result(job.task)

        scheduler = Scheduler(execute=execute, journal=journal)
        task = make_task()
        with journal:
            job = scheduler.submit(task, cell_body(task))
            assert job.done.wait(10.0)
            assert pending_at_run == [[job.id]]
            assert journal.entries[job.id].record == job.record.to_json()
            assert not journal.pending()
            assert scheduler.shutdown(timeout=10.0)

    def test_abort_stops_journal_and_cache_writes(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        execute = GatedExecute()
        scheduler = Scheduler(execute=execute, journal=journal)
        task = make_task()
        with journal:
            job = scheduler.submit(task, cell_body(task))
            assert execute.started.wait(10.0)
            written = journal.path.read_bytes()
            scheduler.abort()
            execute.gate.set()
            assert job.done.wait(10.0)
        assert journal.path.read_bytes() == written
        assert job.key not in scheduler.cache

    def test_restored_jobs_keep_their_ids_and_new_ids_follow(self):
        scheduler = make_scheduler(lambda job: make_result(job.task))
        finished_task, pending_task = make_task(fuel=1), make_task(fuel=2)
        finished = scheduler.restore(
            "job-7",
            finished_task.cache_key(),
            finished_task,
            cell_body(finished_task),
            record=make_result(finished_task).record,
        )
        pending = scheduler.restore(
            "job-3",
            pending_task.cache_key(),
            pending_task,
            cell_body(pending_task),
        )
        assert finished.finished() and scheduler.job("job-7") is finished
        assert pending.done.wait(10.0) and pending.state is JobState.DONE
        assert scheduler.job("job-3") is pending
        assert scheduler.submit(make_task(fuel=3)).id == "job-8"
        assert scheduler.shutdown(timeout=10.0)
