"""The supervised multi-process prover cluster.

A thin **router** in front of N forked worker processes (each a full
single-process :class:`~repro.service.server.ProverService` — own
kernel arena, micro-batcher, scheduler, proof-cache shard), under a
:class:`~repro.service.supervisor.Supervisor` that health-probes,
restarts, and circuit-breaks them.  This is the client/server/executor
tier split of CodeV-SVA applied to the prover: the router owns
admission, placement, and durability; the workers own execution.

The router is the same :class:`~repro.service.server.Frontend` as the
single process — one :class:`~repro.service.scheduler.Scheduler` with
its job table, warm proof cache, single-flight and admission bound.
Only its ``execute(job)`` differs: it places the job and forwards it
to a worker with ``POST /prove?wait=``, which answers when the job ends
(or after ``POLL_S``, and then the router long-polls the rest), and it
re-places the job when the worker is lost.  Every admitted job is
forwarded at once (the scheduler may run ``max_inflight`` of them, one
thread each), and the 429 comes once ``max_inflight`` jobs are
unfinished.

**Placement** is least-loaded first, in hash-ring order.  The router
counts its jobs in flight on each worker and places a job on the
routable worker with the fewest; counts that tie go to the first in
clockwise order from the job's key (the task's
:meth:`~repro.eval.tasks.TheoremTask.cache_key`, or a content hash of
a raw-``goal`` body) on a ring with virtual nodes.  An idle or evenly
loaded cluster thus keeps each worker's proof-cache shard on a stable
key range, and an unroutable worker's range flows to the next healthy
sibling instead of rehashing the world; a job whose owner is busier
than a sibling runs on the sibling instead of sharing a core.

**Durability** is a write-ahead job journal
(:mod:`repro.service.journal`): the scheduler writes ``admitted``
before the job can run and ``done``/``failed`` when it ends; the router
adds ``dispatched`` per placement.  A crashed worker re-dispatches; a
full router restart replays every unfinished job; and because a task's
outcome is a pure function of its cache key, the replayed records are
byte-identical to a fault-free run — the same determinism contract the
golden stores enforce.

**Graceful degradation** is a ladder driven by supervisor health::

    0 healthy     all routes normal
    1 shed_adhoc  some workers down -> raw-`goal` requests shed (429)
    2 cache_only  no routable workers -> proof-cache hits only (503 else)
    3 draining    SIGTERM/close -> refuse all new work (503)

``/healthz`` carries an explicit ``degraded`` marker + ladder name;
``/metrics`` exports ``repro_cluster_degraded`` and the supervision
counters (``repro_cluster_worker_restarts_total``, journal replay and
quarantine tallies).
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.eval.executor import TaskResult
from repro.eval.store import OutcomeRecord
from repro.eval.tasks import task_from_json
from repro.service.client import ProverServiceError, ProverTransportError
from repro.service.journal import JobJournal
from repro.service.scheduler import Job, SchedulerConfig
from repro.service.server import Frontend, ServerConfig
from repro.service.supervisor import PROBE_TIMEOUT_S, Supervisor, WorkerSpec

__all__ = [
    "ClusterConfig",
    "HashRing",
    "ProverCluster",
    "DEGRADATION_LADDER",
]

DEGRADATION_LADDER = ("healthy", "shed_adhoc", "cache_only", "draining")

VNODES = 64  # ring points per worker
REDISPATCH_LIMIT = 5  # placements of one job after it was lost
DISPATCH_WAIT_S = 30.0  # how long a job waits for a routable worker
# Router->worker wait per request (the forward's and each long-poll's).
# It must end well inside the worker client's socket timeout, or a
# request that runs its full wait times out on the router side and is
# retried.
POLL_S = PROBE_TIMEOUT_S / 2
_REFUSED = object()  # a worker shed the forward with 429/503


@dataclass(frozen=True)
class ClusterConfig:
    """Router knobs; ``worker`` configures every worker process."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 2  # worker *processes*
    # Durability roots.  ``state_dir`` holds the journal, the router
    # proof cache, and one proof-cache shard per worker; explicit
    # paths override the derived ones.
    state_dir: Optional[str] = None
    journal_path: Optional[str] = None
    max_inflight: int = 256  # unfinished router jobs before 429
    # Chaos (see testing/faults.ClusterFaultPlan).
    cluster_faults: Optional[str] = None
    # Each worker's service; port and cache_path are set per worker.
    worker: ServerConfig = field(
        default_factory=lambda: ServerConfig(max_queued=64)
    )

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("cluster needs at least 1 worker process")


class HashRing:
    """Consistent hashing with virtual nodes over worker indices."""

    def __init__(self, size: int) -> None:
        self.size = size
        points: List[Tuple[int, int]] = []
        for index in range(size):
            for v in range(VNODES):
                points.append((self.point_for(f"worker-{index}#{v}"), index))
        points.sort()
        self._points = points

    @staticmethod
    def point_for(key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return int(digest[:16], 16)

    def order(self, key: str, routable) -> List[int]:
        """The routable workers clockwise of ``key``'s point, each once.

        The first is the key's owner.  Skipping unroutable workers is
        what reroutes a tripped shard's key range to its ring sibling —
        no table rebuild, no rehash.
        """
        start = bisect.bisect_left(self._points, (self.point_for(key), -1))
        seen: set = set()
        order: List[int] = []
        for step in range(len(self._points)):
            _, index = self._points[(start + step) % len(self._points)]
            if index in seen:
                continue
            seen.add(index)
            if routable(index):
                order.append(index)
            if len(seen) == self.size:
                break
        return order


class PlacementError(ReproError):
    """The router could not get a job run on any worker."""


class ProverCluster(Frontend):
    """Composition root: supervisor + ring + journal + router scheduler."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        config = config or ClusterConfig()
        state_dir = Path(config.state_dir) if config.state_dir else None
        if state_dir is not None:
            state_dir.mkdir(parents=True, exist_ok=True)
        journal_path = config.journal_path or (
            str(state_dir / "journal.jsonl") if state_dir else None
        )
        self.journal: Optional[JobJournal] = (
            JobJournal(journal_path) if journal_path else None
        )
        super().__init__(
            config,
            str(state_dir / "router-cache.jsonl") if state_dir else None,
            SchedulerConfig(
                workers=config.max_inflight,
                max_queued=0,
                default_deadline=config.worker.default_deadline,
            ),
            journal=self.journal,
        )
        specs = [
            WorkerSpec(
                index=index,
                config=replace(
                    config.worker,
                    port=0,  # ephemeral; reported over the handshake pipe
                    cache_path=(
                        str(state_dir / f"shard-{index}.jsonl")
                        if state_dir
                        else None
                    ),
                ),
                cluster_faults=config.cluster_faults,
                fault_dir=str(state_dir / "faults") if state_dir else None,
            )
            for index in range(config.workers)
        ]
        self.supervisor = Supervisor(specs, metrics=self.metrics)
        self.ring = HashRing(config.workers)
        # Router jobs in flight per worker: taken and counted under one
        # lock, so two racing jobs cannot both take the same idle worker.
        self._placing = threading.Lock()
        self._inflight = [0] * config.workers
        self._started = False
        self.replayed_jobs = 0
        # Seed the supervision counters so /metrics always exposes the
        # families (a scrape of a healthy cluster must show zeroes, not
        # absent series).
        for name in (
            "cluster.worker_restarts",
            "cluster.worker_deaths",
            "cluster.breaker_opens",
            "cluster.jobs.redispatched",
            "cluster.jobs.placed_off_owner",
            "cluster.journal.replayed",
        ):
            self.metrics.incr(name, 0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Boot the fleet, then replay the journal."""
        if self._started:
            return
        self._started = True
        self.supervisor.start()
        if self.journal is not None:
            self.metrics.incr(
                "cluster.journal.quarantined", self.journal.quarantined
            )
            self._replay()

    def _replay(self) -> None:
        """Rebuild router state from the journal after a restart.

        Finished jobs come back queryable; unfinished jobs — admitted
        or dispatched when the previous router died — run again through
        the normal placement path.  Execution is the source of truth: a
        job that a worker actually finished but the router never
        journaled as ``done`` re-executes to the byte-identical record
        (or hits the worker's shard cache).  A finished record re-warms
        the router cache only when the cache lacks it (a crash between
        the journal's ``done`` line and the cache append).
        """
        assert self.journal is not None
        for entry in list(self.journal.entries.values()):
            if entry.body is None:
                # Its admitted line was quarantined: nothing to run or
                # serve, but a new job reusing the id would inherit
                # the orphaned lines at the next replay.
                self.scheduler.reserve_id(entry.job)
                continue
            task = None if "goal" in entry.body else task_from_json(entry.body)
            record = (
                OutcomeRecord.from_json(entry.record)
                if entry.record is not None
                else None
            )
            if record is not None and task is not None and (
                entry.key not in self.cache
            ):
                self.cache.put(task, record)
            self.scheduler.restore(
                entry.job, entry.key, task, entry.body, record, entry.error
            )
            if entry.pending():
                self.replayed_jobs += 1
                self.metrics.incr("cluster.journal.replayed")

    def close(self, timeout: Optional[float] = 30.0) -> bool:
        """Graceful drain: finish admitted jobs, then stop the fleet and
        close the router cache's store and the journal."""
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = self.scheduler.shutdown(timeout=timeout)
        fleet_clean = self.supervisor.stop(
            timeout=None
            if deadline is None
            else max(1.0, deadline - time.monotonic())
        )
        self._close_files()
        return drained and fleet_clean

    def abort(self) -> None:
        """Crash-stop (chaos harness): SIGKILL the fleet, no drain.

        Leaves the journal with unfinished entries — exactly the state
        a power loss would — so a fresh cluster on the same state dir
        exercises full replay.  The scheduler's abort comes first: a
        job of the dead router must never append to a journal (or a
        router cache) a successor is about to replay, so their handles
        can close right after it.
        """
        self.scheduler.abort()
        self._close_files()
        for index in range(self.supervisor.size()):
            self.supervisor.kill_worker(index)
        self.supervisor.stop(timeout=1.0)

    def _close_files(self) -> None:
        self.cache.close()
        if self.journal is not None:
            self.journal.close()

    def describe(self) -> str:
        config = self.config
        lines = [
            f"prover cluster (workers={config.workers} x "
            f"{config.worker.workers} threads, journal="
            f"{self.journal.path if self.journal else 'none'}, "
            f"state={config.state_dir or 'memory'})"
        ]
        if self.replayed_jobs:
            lines.append(
                f"replayed {self.replayed_jobs} unfinished job(s) "
                f"from the journal"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------

    def degradation_level(self) -> int:
        if self.scheduler.draining:
            return 3
        healthy = self.supervisor.healthy_count()
        if healthy == 0:
            return 2
        if healthy < self.supervisor.size():
            return 1
        return 0

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def submit(self, body: dict) -> Tuple[int, dict]:
        """Handle a ``POST /prove`` body: ``(http_status, payload)``."""
        if not self._started:
            self.start()
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        level = self.degradation_level()
        degraded = {"degraded": DEGRADATION_LADDER[level]}
        if level >= 3:
            return 503, {
                "error": "cluster is draining; not accepting work",
                **degraded,
            }
        if "goal" in body and level >= 1:
            # First rung of the ladder: ad-hoc goals re-elaborate on
            # every replay and cannot be cache-served, so they are the
            # first load shed when capacity degrades.
            self.metrics.incr("cluster.jobs.shed")
            return 429, {
                "error": "cluster degraded: raw-goal requests are "
                "shed until the fleet recovers; retry later",
                **degraded,
            }
        try:
            task, goal = self.parse_body(body)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        # A raw goal is forwarded unparsed: the worker names it.
        # With no routable worker only proof-cache hits are served.
        status, payload = self._admit(
            task if goal is None else None,
            dict(body),
            cached_only=level >= 2,
        )
        if status == 503:
            payload.update(degraded)
        return status, payload

    def health(self) -> Tuple[int, dict]:
        level = self.degradation_level()
        _, payload = super().health()
        payload.update(
            status="ok" if level == 0 else (
                "draining" if level >= 3 else "degraded"
            ),
            degraded=level > 0,
            level=level,
            ladder=DEGRADATION_LADDER[level],
            workers={
                "total": self.supervisor.size(),
                "healthy": self.supervisor.healthy_count(),
                "states": self.supervisor.states(),
            },
        )
        return 200, payload

    def _gauges(self) -> dict:
        level = self.degradation_level()
        supervisor = self.supervisor.stats()
        with self._placing:
            inflight = list(self._inflight)
        for index, worker in supervisor["states"].items():
            worker["router_inflight"] = inflight[int(index)]
        return {
            "cluster": {
                "degraded": level,
                "ladder": DEGRADATION_LADDER[level],
                "supervisor": supervisor,
                "journal": (
                    self.journal.stats() if self.journal is not None else None
                ),
                "replayed_jobs": self.replayed_jobs,
                "max_inflight": self.config.max_inflight,
            }
        }

    # ------------------------------------------------------------------
    # Execution: place, forward, follow
    # ------------------------------------------------------------------

    def _execute(self, job: Job) -> TaskResult:
        """Run ``job`` on a worker to its end, re-placing it on loss."""
        placements = 0
        while True:
            placements += 1
            status = self._place(job)
            if status is None:  # the worker lost the job
                self.metrics.incr("cluster.jobs.redispatched")
                if placements > REDISPATCH_LIMIT:
                    raise PlacementError(
                        f"gave up after {placements} placements "
                        f"(workers kept dying)"
                    )
                continue
            if status["state"] == "failed" or status.get("record") is None:
                raise PlacementError(
                    f"worker search failed: {status.get('error', 'no record')}"
                )
            return TaskResult(record=OutcomeRecord.from_json(status["record"]))

    def _place(self, job: Job) -> Optional[dict]:
        """Place ``job`` once: the worker's final status, None if lost.

        Waits (bounded) for a routable worker — a restarting fleet is
        a transient condition, not a failure — and retries workers
        that shed it with 429/503.
        """
        deadline = time.monotonic() + DISPATCH_WAIT_S
        while True:
            if self.scheduler.aborted:
                raise PlacementError("cluster aborted")
            index = self._take_worker(job.key)
            if index is not None:
                try:
                    status = self._forward(job, index)
                finally:
                    with self._placing:
                        self._inflight[index] -= 1
                if status is not _REFUSED:
                    return status
            if time.monotonic() >= deadline:
                raise PlacementError(
                    f"no worker took the job within {DISPATCH_WAIT_S:g}s"
                )
            time.sleep(0.1)

    def _take_worker(self, key: str) -> Optional[int]:
        """Count a job in flight on the routable worker with the fewest.

        Counts that tie go to the first worker in ring order from
        ``key``, so an evenly loaded cluster keeps each key on its
        owner's shard.
        """
        order = self.ring.order(key, self.supervisor.routable)
        if not order:
            return None
        with self._placing:
            index = min(order, key=self._inflight.__getitem__)
            self._inflight[index] += 1
        if index != order[0]:
            self.metrics.incr("cluster.jobs.placed_off_owner")
        return index

    def _forward(self, job: Job, index: int):
        """Forward ``job`` to worker ``index`` and follow it to its end.

        Returns the worker's final status, None when the worker lost
        the job (a transport error once the forward was sent, or a 404
        for its job), or ``_REFUSED`` when the worker shed it.  Every
        placement but a refused one journals one ``dispatched`` line.
        """
        client = self.supervisor.client_for(index)
        try:
            status = client.prove(wait=POLL_S, **job.body)
        except ProverTransportError:
            # Lost before or while the worker ran it: report for the
            # breaker, re-place.
            self.supervisor.report_failure(index)
            self.scheduler.journal_dispatched(job, index)
            return None
        except ProverServiceError as exc:
            if exc.status in (429, 503):
                return _REFUSED
            # A worker *rejected* the job (bad goal, unknown theorem,
            # ...): terminal, not a fault.
            raise PlacementError(
                f"worker rejected job (HTTP {exc.status}): "
                f"{exc.payload.get('error', exc.payload)}"
            )
        self.supervisor.report_success(index)
        self.scheduler.journal_dispatched(job, index)
        worker_job = status["job"]
        while status.get("state") not in ("done", "failed"):
            if self.scheduler.aborted:
                raise PlacementError("cluster aborted")
            try:
                status = client.job(worker_job, wait=POLL_S)
            except ProverTransportError:
                # The worker died: report for the breaker, re-place.
                self.supervisor.report_failure(index)
                return None
            except ProverServiceError as exc:
                if exc.status != 404:
                    raise PlacementError(f"worker status error: {exc}")
                return None  # restarted and forgot the job
        return status
