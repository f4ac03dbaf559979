"""Admission-controlled job scheduling: the one job model of the service.

Both front ends — the single-process
:class:`~repro.service.server.ProverService` and the cluster router
:class:`~repro.service.cluster.ProverCluster` — run every request
through one :class:`Scheduler`.  They differ only in the ``execute(job)``
they hand it: the server runs the search in-process, the router places
the job on a worker, forwards it and long-polls it to the end.

Each request becomes a :class:`Job` that moves ``QUEUED → RUNNING →
DONE`` (or ``FAILED``), with the outcome recorded as the evaluation
layer's deterministic :class:`~repro.eval.store.OutcomeRecord`.  A job
carries its cache key, the request body, and the
:class:`~repro.eval.tasks.TheoremTask` (``None`` for a raw ``goal`` the
router forwards unparsed, keyed by a content hash of the body).

Admission control: at most ``workers`` jobs execute at once and at most
``max_queued`` wait behind them; a submit beyond that raises
:class:`QueueFullError`, which the HTTP layer maps to **429** — the
service sheds load instead of stacking unbounded latency.  Execution
threads start on demand, one per job that finds no idle thread, up to
``workers``: an idle scheduler costs no threads, and a job never waits
behind a busy one while a slot is free.  :meth:`Scheduler.start` starts
them all at once instead (the single-process service does, at its first
request).

Before a job ever queues, two short-circuits (both via the shared
:class:`~repro.service.proofcache.ProofCache`):

1. **warm hit** — the job's key is already cached: the job completes
   instantly from the cached record, no slot used;
2. **single-flight** — an identical job is queued or running: the
   caller is handed *that* job, so concurrent duplicates share one run.

Per-job deadlines reuse the cooperative :mod:`repro.deadline`
machinery: a scheduler-level ``default_deadline`` is folded into the
task's ``theorem_deadline`` *before* keying (the deadline is
outcome-relevant — a search can end TIMEOUT — so it must participate
in the cache key), and the search itself yields the clean ``TIMEOUT``
record.

With a :class:`~repro.service.journal.JobJournal` the scheduler writes
the ``admitted`` line before a job can run and the ``done``/``failed``
line when it ends; :meth:`Scheduler.restore` re-admits journaled jobs
under their own ids after a restart.  :meth:`Scheduler.abort` stops
every journal and proof-cache write at once (a crash-stop).

Shutdown is a graceful drain: new submits are refused, every admitted
job still completes (admission is bounded, so drain time is bounded),
then the threads exit.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import ReproError
from repro.eval.store import OutcomeRecord
from repro.eval.tasks import TheoremTask
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.service.proofcache import ProofCache

__all__ = [
    "Job",
    "JobState",
    "QueueFullError",
    "Scheduler",
    "SchedulerConfig",
    "ShuttingDownError",
]


class QueueFullError(ReproError):
    """Admission refused: queue at capacity (HTTP 429)."""


class ShuttingDownError(ReproError):
    """Admission refused: the scheduler is draining (HTTP 503)."""


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class SchedulerConfig:
    """Concurrency and admission knobs."""

    workers: int = 4  # max jobs executing at once
    max_queued: int = 32  # waiting jobs beyond the executing ones
    # Folded into tasks that carry no deadline of their own (None =
    # unbounded, the paper's setting).  Participates in cache keys.
    default_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queued < 0:
            raise ValueError("max_queued must be >= 0")


def job_key(task: Optional[TheoremTask], body: Optional[dict]) -> str:
    """The task's cache key, or a content hash of a raw-``goal`` body."""
    if task is not None:
        return task.cache_key()
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "goal:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Job:
    """One admitted proof request and its lifecycle."""

    def __init__(
        self,
        job_id: str,
        key: str,
        task: Optional[TheoremTask] = None,
        body: Optional[dict] = None,
    ) -> None:
        self.id = job_id
        self.key = key
        self.task = task
        self.body = body
        self.state = JobState.QUEUED
        self.record: Optional[OutcomeRecord] = None
        self.error: Optional[str] = None
        self.metrics: Optional[dict] = None
        #: Served straight from the proof cache (nothing executed).
        self.cached = False
        #: Concurrent identical submits coalesced onto this job.
        self.dedup_hits = 0
        self.created_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done = threading.Event()

    def finished(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)

    def to_json(self) -> dict:
        """The ``GET /jobs/<id>`` payload."""
        now = time.monotonic()
        out = {
            "id": self.id,
            "state": self.state.value,
            "key": self.key,
            "cached": self.cached,
            "dedup_hits": self.dedup_hits,
            "elapsed": (self.finished_at or now) - self.created_at,
        }
        if self.task is not None:
            out["task"] = {
                "theorem": self.task.theorem,
                "model": self.task.model,
                "hinted": self.task.hinted,
                "repair_rounds": self.task.repair_rounds,
                "attempt": self.task.attempt,
            }
        if self.record is not None:
            out["record"] = self.record.to_json()
        if self.error is not None:
            out["error"] = self.error
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out


#: How a job runs: ``execute(job)`` returns an object with ``record``
#: (an OutcomeRecord) and ``metrics`` attributes
#: (:class:`repro.eval.executor.TaskResult`); an exception fails the
#: job.  Tests inject stubs.
ExecuteFn = Callable[[Job], object]


class Scheduler:
    """Bounded admission + on-demand execution threads + the job table."""

    def __init__(
        self,
        execute: ExecuteFn,
        cache: Optional[ProofCache] = None,
        config: Optional[SchedulerConfig] = None,
        metrics: Metrics = NULL_METRICS,
        journal=None,
    ) -> None:
        self.execute = execute
        self.cache = cache or ProofCache()
        self.config = config or SchedulerConfig()
        self.metrics = metrics
        self.journal = journal
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)  # a job was queued
        self._settled = threading.Condition(self._lock)  # a job ended
        self._queue: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        # Jobs per state, kept current on every transition so admission
        # and /metrics never walk the job table.
        self._counts: Dict[str, int] = {state.value: 0 for state in JobState}
        self._threads: List[threading.Thread] = []
        self._live = 0  # execution threads not yet exited
        self._idle = 0  # of those, waiting for a job
        self._seq = 0
        self._draining = False
        # Journal and proof-cache writes happen under _durable, which
        # abort() takes to set _aborted: no write can follow abort().
        self._durable = threading.Lock()
        self._aborted = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every execution thread not running yet (idempotent).

        Submits that race it wait for the whole spawn, so the jobs of a
        burst start together instead of one by one.
        """
        with self._lock:
            while self._live < self.config.workers and not self._draining:
                self._spawn()

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def aborted(self) -> bool:
        return self._aborted

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Graceful drain: refuse new work, finish admitted jobs.

        Returns True when every admitted job finished (and the threads
        exited) within ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._draining = True
            self._work.notify_all()
            while self._unfinished():
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._settled.wait(remaining)
            threads = list(self._threads)
        for thread in threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(remaining)
            if thread.is_alive():
                return False
        return True

    def abort(self) -> None:
        """Crash-stop: no journal or proof-cache write after this returns.

        Unlike :meth:`shutdown` nothing is waited for: running jobs are
        left to end on their own, and whatever they finish is dropped.
        """
        with self._durable:
            self._aborted = True
        with self._lock:
            self._draining = True
            self._work.notify_all()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        task: Optional[TheoremTask],
        body: Optional[dict] = None,
        cached_only: bool = False,
    ) -> Optional[Job]:
        """Admit a request: a (possibly shared, possibly finished) job.

        ``task`` is None only for a raw-goal ``body`` (keyed by its
        content).  With ``cached_only`` a request the proof cache cannot
        answer is not admitted and None comes back.  Raises
        :class:`QueueFullError` on overflow and
        :class:`ShuttingDownError` while draining.
        """
        deadline = self.config.default_deadline
        if task is not None and deadline is not None and (
            task.theorem_deadline is None
        ):
            # Outcome-relevant, so folded in *before* the cache key is
            # computed (and before the body is journaled or forwarded):
            # a deadline-bounded cell must never alias an unbounded one.
            task = replace(task, theorem_deadline=deadline)
            if body is not None:
                body = dict(body, theorem_deadline=deadline)
        key = job_key(task, body)

        # Warm hit: answer from the shared cache, no slot burned.
        record = self.cache.get(key)
        if record is not None:
            job = self._new_job(key, task, body)
            job.cached = True
            job.record = record
            job.state = JobState.DONE
            job.finished_at = time.monotonic()
            job.done.set()
            with self._lock:
                self._register(job)
            self.metrics.incr("service.jobs.cache_hits")
            return job
        if cached_only:
            return None

        job, created = self.cache.admit(
            key, lambda: self._new_job(key, task, body)
        )
        if not created:
            # Single-flight: ride the identical in-flight job.
            job.dedup_hits += 1
            self.metrics.incr("service.jobs.deduped")
            return job

        try:
            with self._lock:
                if self._draining:
                    raise ShuttingDownError(
                        "prover service is draining; not accepting work"
                    )
                queued = self._counts[JobState.QUEUED.value]
                running = self._counts[JobState.RUNNING.value]
                if queued + running >= (
                    self.config.workers + self.config.max_queued
                ):
                    self.metrics.incr("service.jobs.rejected")
                    raise QueueFullError(
                        f"at capacity ({running} running, {queued} "
                        f"queued); retry later"
                    )
                # Counted against the bound from here on, but not
                # runnable until the admitted line is down.
                self._register(job)
            try:
                self._write("admitted", job.id, key, body)
            except BaseException:
                with self._lock:
                    del self._jobs[job.id]
                    self._counts[job.state.value] -= 1
                    self._settled.notify_all()
                raise
        except BaseException:
            # Never leave a refused job in the single-flight table — it
            # would absorb (and starve) every future identical request.
            self.cache.release(key)
            raise
        with self._lock:
            self._enqueue(job)
        self.metrics.incr("service.jobs.admitted")
        return job

    def restore(
        self,
        job_id: str,
        key: str,
        task: Optional[TheoremTask],
        body: Optional[dict],
        record: Optional[OutcomeRecord] = None,
        error: Optional[str] = None,
    ) -> Job:
        """Re-admit one journaled job under its own id (restart replay).

        A finished job (``record`` or ``error``) comes back queryable;
        an unfinished one runs again, past the admission bound and
        without a second ``admitted`` line.  New ids continue after the
        highest restored one, so they never collide.
        """
        self.reserve_id(job_id)
        job = Job(job_id, key, task, body)
        if record is not None or error is not None:
            job.record, job.error = record, error
            job.state = JobState.FAILED if record is None else JobState.DONE
            job.finished_at = job.created_at
            job.done.set()
            with self._lock:
                self._register(job)
            return job
        self.cache.admit(key, lambda: job)
        with self._lock:
            self._register(job)
            self._enqueue(job)
        return job

    def reserve_id(self, job_id: str) -> None:
        """Never issue ``job_id`` (a journaled job's) to a new job."""
        number = job_id.rpartition("-")[2]
        if number.isdigit():
            with self._lock:
                self._seq = max(self._seq, int(number))

    def _new_job(self, key, task, body) -> Job:
        with self._lock:
            self._seq += 1
            return Job(f"job-{self._seq}", key, task, body)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def stats(self) -> dict:
        """Scheduler gauges for ``/metrics``."""
        with self._lock:
            return {
                "queue_depth": len(self._queue),
                "in_flight": self._counts[JobState.RUNNING.value],
                "max_queued": self.config.max_queued,
                "workers": self.config.workers,
                "draining": self._draining,
                "jobs": dict(self._counts),
            }

    # ------------------------------------------------------------------
    # Execution threads.  Callers of _register, _transition,
    # _unfinished, _enqueue and _spawn hold _lock.
    # ------------------------------------------------------------------

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._counts[job.state.value] += 1

    def _transition(self, job: Job, state: JobState) -> None:
        self._counts[job.state.value] -= 1
        self._counts[state.value] += 1
        job.state = state

    def _unfinished(self) -> int:
        return (
            self._counts[JobState.QUEUED.value]
            + self._counts[JobState.RUNNING.value]
        )

    def _enqueue(self, job: Job) -> None:
        self._queue.append(job)
        if len(self._queue) > self._idle and self._live < self.config.workers:
            self._spawn()
        else:
            self._work.notify()

    def _spawn(self) -> None:
        self._live += 1
        thread = threading.Thread(
            target=self._worker,
            name=f"prover-worker-{len(self._threads)}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _worker(self) -> None:
        while True:
            with self._lock:
                while not self._queue:
                    if self._draining:
                        self._live -= 1
                        return
                    self._idle += 1
                    self._work.wait()
                    self._idle -= 1
                job = self._queue.popleft()
                self._transition(job, JobState.RUNNING)
                job.started_at = time.monotonic()
            # Queue-wait time (admission -> thread pickup): the latency
            # the admission bound trades throughput against, exported
            # as a stage so /metrics shows it per scrape.  It is a wait
            # between two threads, with no block to wrap in a span.
            self.metrics.add_time(
                "service.queue_wait", job.started_at - job.created_at
            )
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        try:
            result = self.execute(job)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            error = f"{type(exc).__name__}: {exc}"
            self._write("failed", job.id, error)
            self.cache.release(job.key)
            job.error = error
            self._end(job, JobState.FAILED, "service.jobs.failed")
            return
        record = result.record
        with self._durable:
            if not self._aborted:
                if self.journal is not None:
                    self.journal.done(job.id, job.key, record.to_json())
                if job.task is not None:
                    self.cache.put(job.task, record)
        # Publish BEFORE releasing the single-flight key: a request
        # landing in between sees the cached record, never a gap.
        self.cache.release(job.key)
        job.record = record
        job.metrics = getattr(result, "metrics", None)
        self._end(job, JobState.DONE, "service.jobs.completed")

    def _end(self, job: Job, state: JobState, counter: str) -> None:
        job.finished_at = time.monotonic()
        with self._lock:
            self._transition(job, state)
            self._settled.notify_all()
        self.metrics.incr(counter)
        job.done.set()

    def _write(self, event: str, *args) -> None:
        """One journal append, unless there is no journal or aborted."""
        with self._durable:
            if self.journal is not None and not self._aborted:
                getattr(self.journal, event)(*args)

    def journal_dispatched(self, job: Job, worker: int) -> None:
        """Journal a placement of ``job`` on ``worker`` (router only)."""
        self._write("dispatched", job.id, worker)
