"""Worker-process supervision for the prover cluster.

A :class:`Supervisor` owns N forked worker processes, each a complete
single-process :class:`~repro.service.server.ProverService` (its own
kernel arena and caches, :class:`~repro.service.batching.BatchingGenerator`,
scheduler, and proof-cache shard) serving HTTP on an ephemeral
localhost port.  The supervisor:

* **boots** workers and collects their ports over a pipe handshake;
* **health-probes** them (``GET /healthz`` with a short timeout) on a
  background loop, and watches for process death between probes;
* **restarts** crashed workers with bounded exponential backoff and
  deterministic seeded jitter
  (:func:`~repro.llm.resilient.stable_jitter` — the same discipline
  :class:`~repro.llm.resilient.ResilientGenerator` applies to model
  endpoints, applied to whole processes);
* trips a **per-worker circuit breaker**: after
  ``BREAKER_THRESHOLD`` consecutive probe/transport failures the
  worker is marked unroutable for ``BREAKER_COOLDOWN_S`` seconds, so
  the router's hash ring forwards its key ranges to the next healthy
  sibling shard until a half-open probe succeeds.

Worker processes install a SIGTERM handler that runs the same
graceful drain as Ctrl-C (finish admitted jobs, flush the shard
store), so :meth:`Supervisor.stop` is a clean cluster-wide drain;
:meth:`Supervisor.kill_worker` (SIGKILL) exists for the chaos
harness.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.llm.resilient import stable_jitter
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.service.client import ProverClient
from repro.service.server import (
    ProverService,
    ServerConfig,
    install_sigterm_drain,
)

__all__ = [
    "Supervisor",
    "WorkerSpec",
    "WorkerState",
    "worker_main",
]

PROBE_INTERVAL_S = 0.25  # seconds between health sweeps
PROBE_TIMEOUT_S = 2.0  # per-probe HTTP budget
BOOT_TIMEOUT_S = 30.0  # port-handshake budget per boot
BREAKER_THRESHOLD = 3  # consecutive failures that open the breaker
BREAKER_COOLDOWN_S = 1.0  # seconds unroutable before half-open
RESTART_BASE_DELAY_S = 0.05  # first restart backoff
RESTART_MAX_DELAY_S = 2.0  # cap on any restart backoff
RESTART_JITTER = 0.25  # extra delay fraction (seeded, deterministic)


# Worker lifecycle states.  Only HEALTHY workers are routable.
class WorkerState:
    STARTING = "starting"
    HEALTHY = "healthy"
    SUSPECT = "suspect"  # breaker open: unroutable until half-open probe
    DOWN = "down"  # process dead: restart scheduled
    DISABLED = "disabled"  # administratively off (chaos/maintenance)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to boot (picklable)."""

    index: int
    config: ServerConfig  # the worker's service (its port is 0)
    # Chaos: a ClusterFaultPlan spec string + the shared marker dir for
    # cross-process death counting (see testing/faults.py).
    cluster_faults: Optional[str] = None
    fault_dir: Optional[str] = None


class ClusterWorkerService(ProverService):
    """A worker-side service that honours cluster fault plans."""

    def __init__(self, spec: WorkerSpec, project=None) -> None:
        super().__init__(spec.config, project=project)
        from repro.testing.faults import ClusterFaultPlan

        self.spec = spec
        self.cluster_faults = ClusterFaultPlan.from_spec(
            spec.cluster_faults
        )

    def _execute(self, job):
        plan = self.cluster_faults
        if plan is not None and self.spec.fault_dir:
            theorem = job.task.theorem
            if plan.should_die(theorem, self.spec.fault_dir):
                # A crash is not an exception: the whole process dies
                # mid-job, exactly like an OOM kill.  The supervisor
                # must restart us and the router must re-dispatch.
                os._exit(23)
            stall = plan.stall_for(theorem)
            if stall > 0:
                time.sleep(stall)
        return super()._execute(job)


def worker_main(spec: WorkerSpec, conn) -> None:
    """Entry point of one worker process.

    Boots the service, reports the bound port through ``conn``, then
    serves until SIGTERM/SIGINT — both of which drain gracefully
    (finish admitted jobs, flush the shard store).
    """
    # The worker must not react to the router's Ctrl-C propagation
    # before its own drain handler is in place.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = ClusterWorkerService(spec)
    httpd = service.make_http_server()
    conn.send(httpd.server_address[1])
    conn.close()
    install_sigterm_drain()
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        service.close(timeout=30.0)


class _Worker:
    """One supervised worker process and its live state."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.process: Optional[multiprocessing.Process] = None
        self.port: Optional[int] = None
        self.client: Optional[ProverClient] = None
        self.state = WorkerState.STARTING
        self.failures = 0  # consecutive probe/transport failures
        self.restarts = 0  # lifetime restarts of this slot
        self.restart_at: Optional[float] = None
        self.suspect_until: Optional[float] = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class Supervisor:
    """Boots, probes, restarts, and drains the worker fleet."""

    def __init__(
        self, specs: List[WorkerSpec], metrics: Metrics = NULL_METRICS
    ) -> None:
        self.metrics = metrics
        self._workers = [_Worker(spec) for spec in specs]
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None
        self.restarts_total = 0
        # Prefer fork: workers inherit the warm interpreter; spawn is
        # the portable fallback (WorkerSpec is picklable either way).
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        for worker in self._workers:
            self._boot(worker)
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="cluster-supervisor", daemon=True
        )
        self._probe_thread.start()

    def _boot(self, worker: _Worker) -> None:
        """Fork one worker and handshake its port (synchronous)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker.spec, child_conn),
            name=f"prover-worker-{worker.spec.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(BOOT_TIMEOUT_S):
            process.terminate()
            raise RuntimeError(
                f"worker {worker.spec.index} did not report a port "
                f"within {BOOT_TIMEOUT_S:g}s"
            )
        port = parent_conn.recv()
        parent_conn.close()
        with self._lock:
            stale = worker.client  # the dead predecessor's connections
            worker.process = process
            worker.port = port
            worker.client = ProverClient(
                f"http://{worker.spec.config.host}:{port}",
                timeout=PROBE_TIMEOUT_S,
                retries=2,
            )
            worker.state = WorkerState.HEALTHY
            worker.failures = 0
            worker.restart_at = None
            worker.suspect_until = None
        if stale is not None:
            stale.close()

    def stop(self, timeout: Optional[float] = 30.0) -> bool:
        """Graceful fleet drain: SIGTERM, join, SIGKILL stragglers, then
        close every worker client."""
        self._stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5.0)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        clean = True
        for worker in self._workers:
            if worker.process is None or not worker.process.is_alive():
                continue
            worker.process.terminate()  # SIGTERM -> worker drain path
        for worker in self._workers:
            if worker.process is None:
                continue
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(remaining)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(1.0)
                clean = False
            worker.state = WorkerState.DOWN
        for worker in self._workers:
            if worker.client is not None:
                worker.client.close()
        return clean

    # ------------------------------------------------------------------
    # Probe / restart loop
    # ------------------------------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            for worker in self._workers:
                try:
                    self._tend(worker)
                except Exception:  # noqa: BLE001 - keep the loop alive
                    pass

    def _tend(self, worker: _Worker) -> None:
        now = time.monotonic()
        if worker.state == WorkerState.DISABLED:
            return
        if not worker.alive():
            if worker.state != WorkerState.DOWN:
                self._mark_down(worker, now)
            if worker.restart_at is not None and now >= worker.restart_at:
                self._restart(worker)
            return
        if (
            worker.state == WorkerState.SUSPECT
            and worker.suspect_until is not None
            and now < worker.suspect_until
        ):
            return  # breaker open: wait out the cooldown
        # Healthy or half-open: probe.
        try:
            health = worker.client.healthz()
            ok = health.get("status") in ("ok", "draining")
        except Exception:  # noqa: BLE001 - any failure counts
            ok = False
        with self._lock:
            if ok:
                worker.failures = 0
                if worker.state in (
                    WorkerState.SUSPECT,
                    WorkerState.STARTING,
                ):
                    worker.state = WorkerState.HEALTHY
                    worker.suspect_until = None
            else:
                self._note_failure(worker)

    def _mark_down(self, worker: _Worker, now: float) -> None:
        """Process death detected: schedule a backed-off restart."""
        with self._lock:
            worker.state = WorkerState.DOWN
            delay = min(
                RESTART_MAX_DELAY_S,
                RESTART_BASE_DELAY_S * 2**worker.restarts,
            )
            delay *= 1.0 + RESTART_JITTER * stable_jitter(
                0, worker.spec.index, worker.restarts
            )
            worker.restart_at = now + delay
        self.metrics.incr("cluster.worker_deaths")

    def _restart(self, worker: _Worker) -> None:
        with self._lock:
            worker.restarts += 1
            self.restarts_total += 1
        self.metrics.incr("cluster.worker_restarts")
        try:
            self._boot(worker)
        except Exception:  # noqa: BLE001 - reschedule with more backoff
            self._mark_down(worker, time.monotonic())

    def _note_failure(self, worker: _Worker) -> None:
        """One probe/transport failure (lock held by callers or here)."""
        worker.failures += 1
        if worker.failures >= BREAKER_THRESHOLD:
            if worker.state == WorkerState.HEALTHY:
                self.metrics.incr("cluster.breaker_opens")
            worker.state = WorkerState.SUSPECT
            worker.suspect_until = time.monotonic() + BREAKER_COOLDOWN_S

    # ------------------------------------------------------------------
    # Router-facing API
    # ------------------------------------------------------------------

    def report_failure(self, index: int) -> None:
        """The router saw a transport failure against worker ``index``."""
        worker = self._workers[index]
        with self._lock:
            self._note_failure(worker)

    def report_success(self, index: int) -> None:
        worker = self._workers[index]
        with self._lock:
            worker.failures = 0
            if worker.state == WorkerState.SUSPECT and worker.alive():
                worker.state = WorkerState.HEALTHY
                worker.suspect_until = None

    def routable(self, index: int) -> bool:
        worker = self._workers[index]
        return worker.state == WorkerState.HEALTHY and worker.alive()

    def client_for(self, index: int) -> Optional[ProverClient]:
        return self._workers[index].client

    def healthy_count(self) -> int:
        return sum(
            1 for w in self._workers
            if w.state == WorkerState.HEALTHY and w.alive()
        )

    def size(self) -> int:
        return len(self._workers)

    def states(self) -> List[str]:
        return [w.state for w in self._workers]

    # ------------------------------------------------------------------
    # Chaos / maintenance hooks
    # ------------------------------------------------------------------

    def kill_worker(self, index: int) -> None:
        """SIGKILL a worker (chaos harness; the probe loop restarts it)."""
        worker = self._workers[index]
        if worker.process is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(5.0)

    def disable_worker(self, index: int) -> None:
        """Administratively stop a worker slot (no restart)."""
        worker = self._workers[index]
        with self._lock:
            worker.state = WorkerState.DISABLED
        if worker.process is not None and worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(5.0)

    def enable_worker(self, index: int) -> None:
        """Re-enable a disabled slot (the probe loop reboots it)."""
        worker = self._workers[index]
        with self._lock:
            if worker.state == WorkerState.DISABLED:
                worker.state = WorkerState.DOWN
                worker.restart_at = time.monotonic()

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Supervisor gauges for ``/metrics``."""
        with self._lock:
            return {
                "workers": len(self._workers),
                "healthy": self.healthy_count(),
                "restarts": self.restarts_total,
                "states": {
                    str(w.spec.index): {
                        "state": w.state,
                        "port": w.port,
                        "restarts": w.restarts,
                        "failures": w.failures,
                    }
                    for w in self._workers
                },
            }
