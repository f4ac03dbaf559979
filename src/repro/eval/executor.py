"""Pluggable execution backends for the evaluation engine.

An :class:`Executor` maps a sequence of
:class:`~repro.eval.tasks.TheoremTask` descriptors to
``(task, TaskResult)`` pairs, in task order.  Three backends:

* :class:`SerialExecutor` — in-process, one task at a time (the
  reference semantics; the determinism test pins the others to it);
* :class:`ThreadPoolExecutor` — ``concurrent.futures`` threads.
  Generation, checking, and replay are pure CPython, so threads buy
  overlap mostly when a real API-backed model blocks on I/O — exactly
  the deployment the paper's sweeps were run against;
* :class:`ProcessPoolExecutor` — process workers for CPU-bound
  sweeps.  Each worker rebuilds the :class:`Project` and a
  :class:`Runner` **once per worker** (pool initializer), not per
  task; tasks and results cross the pipe as plain picklable values.

Determinism holds across all three because a task's outcome is a pure
function of its fields (see :mod:`repro.eval.tasks`).

Crash tolerance (process backend)
---------------------------------

A worker death poisons a ``concurrent.futures`` pool: every pending
future raises :class:`BrokenProcessPool`, which blames innocent tasks
that merely shared the pool with the one that killed its worker.  The
process backend therefore recovers in two steps:

1. results that finished *before* the break are kept as-is;
2. every task still unfinished when the pool broke is re-run in a
   **fresh single-worker pool, one task at a time**, up to
   ``task_retries`` attempts.  Isolation makes blame precise: only a
   task that kills its own private worker on every attempt is recorded
   as ``CRASH`` (queries=0); bystanders complete normally and the
   sweep carries on instead of aborting.

Worker startup failures (a bad initializer, an import error in the
worker) are detected eagerly by a probe task submitted before any real
work, and surface as :class:`~repro.errors.ExecutorSetupError` with an
actionable message instead of a hang or an opaque pool error.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import ExecutorSetupError
from repro.eval.store import OutcomeRecord
from repro.eval.tasks import TheoremTask

__all__ = [
    "TaskResult",
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "make_executor",
    "EXECUTOR_KINDS",
]

EXECUTOR_KINDS = ("serial", "thread", "process")

# Exit code of a fault-injected worker death (distinguishable from a
# genuine segfault's negative signal code in pool diagnostics).
_KILLED_EXIT_CODE = 87


@dataclass(frozen=True)
class TaskResult:
    """One executed task: the deterministic record + a metrics snapshot.

    ``trace`` carries the task's recorded span tree (plain JSON-able
    dicts from :meth:`repro.obs.trace.Tracer.export`) when the sweep
    runs with ``ExperimentConfig.trace`` — picklable, so process-pool
    workers ship their traces back over the pipe for the parent to
    append to the sweep's trace sink.  ``None`` when tracing is off.
    """

    record: OutcomeRecord
    metrics: Optional[dict] = None
    trace: Optional[list] = None


def crash_result(task: TheoremTask, deaths: int) -> TaskResult:
    """The terminal record for a task whose worker died every attempt."""
    return TaskResult(
        record=OutcomeRecord(
            theorem=task.theorem,
            model=task.model,
            hinted=task.hinted,
            status="crash",
            queries=0,
        ),
        metrics={
            "counters": {
                "tasks.crashed": 1,
                "executor.worker_deaths": deaths,
            }
        },
    )


ExecuteFn = Callable[[TheoremTask], TaskResult]
ResultIter = Iterator[Tuple[TheoremTask, TaskResult]]


class Executor:
    """Interface: run tasks, yield (task, result) in task order."""

    kind: str = "abstract"
    jobs: int = 1

    def map(
        self, tasks: Sequence[TheoremTask], execute: ExecuteFn
    ) -> ResultIter:  # pragma: no cover - abstract
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process, in-order execution (reference backend)."""

    kind = "serial"

    def map(self, tasks, execute) -> ResultIter:
        for task in tasks:
            yield task, execute(task)


class ThreadPoolExecutor(Executor):
    """Thread-pool execution; shares the caller's Runner and project."""

    kind = "thread"

    def __init__(self, jobs: int = 2) -> None:
        self.jobs = max(1, jobs)

    def map(self, tasks, execute) -> ResultIter:
        tasks = list(tasks)
        if not tasks:
            return
        with futures.ThreadPoolExecutor(max_workers=self.jobs) as pool:
            yield from zip(tasks, pool.map(execute, tasks))


# ----------------------------------------------------------------------
# Process backend: module-level worker state so nothing unpicklable
# (Project closures, kernel environments) ever crosses the pipe.
# ----------------------------------------------------------------------

_WORKER_RUNNER = None
_WORKER_PLAN = None


def _init_worker(config, check_proofs: bool) -> None:
    """Pool initializer: build Project + Runner once per worker.

    ``check_proofs`` MUST mirror how the parent loaded its project:
    replaying proofs at load advances the kernel's global fresh-type-
    variable counter, so a differently-loaded worker parses later lemma
    statements with different ``?A<n>`` names.  Those names appear in
    rendered prompts, prompts seed the simulated models, and search
    outcomes diverge from the serial reference.  Splits are re-derived
    from the same seed, so hint sets match the parent exactly.
    """
    global _WORKER_RUNNER, _WORKER_PLAN
    from repro.corpus.loader import load_project
    from repro.eval.runner import Runner
    from repro.testing.faults import FaultPlan

    _WORKER_PLAN = FaultPlan.from_spec(config.faults)
    if _WORKER_PLAN is not None and _WORKER_PLAN.initfail:
        raise RuntimeError("injected worker initializer failure")
    _WORKER_RUNNER = Runner(load_project(check_proofs=check_proofs), config)


def _probe_worker() -> bool:
    """No-op task proving a worker survived its initializer."""
    return _WORKER_RUNNER is not None


def _execute_in_worker(task: TheoremTask, attempt: int = 0) -> TaskResult:
    if _WORKER_PLAN is not None and _WORKER_PLAN.should_kill_worker(
        task.theorem, attempt
    ):
        # Simulated hard death: no exception, no cleanup — the parent
        # sees only a broken pipe, exactly like an OOM kill or segfault.
        os._exit(_KILLED_EXIT_CODE)
    assert _WORKER_RUNNER is not None, "worker initializer did not run"
    return _WORKER_RUNNER.execute_task(task)


class ProcessPoolExecutor(Executor):
    """Process-pool execution for CPU-bound sweeps.

    ``execute`` is ignored: workers run their own Runner, rebuilt from
    ``config`` by the pool initializer (closures over the parent's
    project are not picklable, and must not be shipped anyway).
    ``check_proofs`` must match the parent project's load mode so the
    worker environment is bit-identical (see :func:`_init_worker`).

    ``task_retries`` bounds how often a task whose worker died is
    re-run in an isolated single-worker pool before it is recorded as
    CRASH; ``heartbeat`` is the maximum seconds to wait for the next
    in-order result before presuming the pool hung (None = forever).
    """

    kind = "process"

    def __init__(
        self,
        config,
        jobs: int = 2,
        check_proofs: bool = True,
        task_retries: Optional[int] = None,
        heartbeat: Optional[float] = None,
    ) -> None:
        self.config = config
        self.jobs = max(1, jobs)
        self.check_proofs = check_proofs
        self.task_retries = (
            task_retries if task_retries is not None else config.task_retries
        )
        self.heartbeat = (
            heartbeat if heartbeat is not None else config.heartbeat
        )

    # ------------------------------------------------------------------

    def _start_pool(self, workers: int) -> futures.ProcessPoolExecutor:
        """Spin up a pool and prove a worker can initialise.

        Without the probe, an initializer failure surfaces only when
        the first *real* task's future is awaited — or, on some
        platforms, as an indefinite hang while the pool respawns
        crashing workers.  Probing eagerly converts it into an
        immediate, actionable error.
        """
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        pool = futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self.config, self.check_proofs),
        )
        probe = pool.submit(_probe_worker)
        try:
            probe.result(timeout=self.heartbeat)
        except BaseException as exc:
            pool.shutdown(wait=False)
            raise ExecutorSetupError(
                "process-pool worker failed to initialise "
                f"({type(exc).__name__}: {exc}); the sweep cannot start. "
                "Re-run with --backend thread (or --backend serial) to "
                "execute in-process, or fix the worker environment."
            ) from exc
        return pool

    def _run_isolated(self, task: TheoremTask) -> TaskResult:
        """Re-run one task alone in fresh single-worker pools.

        Isolation makes crash blame precise: the only process in the
        pool is the one running ``task``, so a break *is* this task's
        fault.  Attempt numbers continue from the pooled attempt 0, so
        first-attempt-only ``crash`` faults stay invisible while
        permanent ``kill`` faults exhaust the budget and yield CRASH.
        """
        deaths = 1  # the pooled attempt that broke (or was abandoned)
        for attempt in range(1, self.task_retries + 1):
            pool = self._start_pool(1)
            try:
                future = pool.submit(_execute_in_worker, task, attempt)
                return future.result(timeout=self.heartbeat)
            except (futures.process.BrokenProcessPool, futures.TimeoutError):
                deaths += 1
            finally:
                pool.shutdown(wait=False)
        return crash_result(task, deaths)

    def map(self, tasks, execute=None) -> ResultIter:
        tasks = list(tasks)
        if not tasks:
            return
        pool = self._start_pool(self.jobs)
        broken = False
        try:
            pending = [
                pool.submit(_execute_in_worker, task, 0) for task in tasks
            ]
            for index, task in enumerate(tasks):
                result: Optional[TaskResult] = None
                future = pending[index]
                if not broken:
                    try:
                        result = future.result(timeout=self.heartbeat)
                    except futures.process.BrokenProcessPool:
                        broken = True
                    except futures.TimeoutError:
                        # No progress within the heartbeat: presume the
                        # pool hung and fall back to isolated retries.
                        broken = True
                        pool.shutdown(wait=False, cancel_futures=True)
                else:
                    # The pool broke earlier; salvage results that
                    # completed before the break, retry the rest.
                    if future.done() and not future.cancelled():
                        try:
                            result = future.result(timeout=0)
                        except Exception:
                            result = None
                if result is None:
                    result = self._run_isolated(task)
                yield task, result
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


def make_executor(
    config,
    backend: Optional[str] = None,
    jobs: Optional[int] = None,
    check_proofs: bool = True,
) -> Executor:
    """Build the backend selected by ``ExperimentConfig`` (or overrides).

    ``check_proofs`` only matters for the process backend: pass the
    load mode of the project the results will be compared against.
    """
    backend = backend if backend is not None else config.executor
    jobs = jobs if jobs is not None else config.jobs
    if backend == "serial":
        return SerialExecutor()
    if backend == "thread":
        return ThreadPoolExecutor(jobs)
    if backend == "process":
        return ProcessPoolExecutor(config, jobs, check_proofs=check_proofs)
    raise ValueError(
        f"unknown executor backend {backend!r}; expected one of {EXECUTOR_KINDS}"
    )
