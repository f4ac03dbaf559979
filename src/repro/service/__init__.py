"""Prover-as-a-service: the long-lived concurrent proof server.

The evaluation engine (:mod:`repro.eval`) runs *sweeps* — a finite
task list, then exit.  This package runs the same searches as a
*service*: a bounded-admission scheduler multiplexes concurrent proof
jobs over shared per-model micro-batchers and a persistent proof
cache, behind a stdlib HTTP front end.  Above the single process sits
the supervised multi-process cluster.  DESIGN.md §6 and §8.

* :mod:`repro.service.batching` — cross-search micro-batched dispatch;
* :mod:`repro.service.proofcache` — shared result cache + single-flight;
* :mod:`repro.service.scheduler` — the one job model: admission,
  on-demand execution threads, journal appends, drain;
* :mod:`repro.service.server` — HTTP routes / single-process front end;
* :mod:`repro.service.client` — stdlib client (loadgen, tools, tests);
* :mod:`repro.service.journal` — write-ahead job journal (replayable);
* :mod:`repro.service.supervisor` — forked workers, probes, restarts;
* :mod:`repro.service.cluster` — consistent-hash router + degradation.
"""

from repro.service.batching import BatchingGenerator
from repro.service.client import (
    JobTimeout,
    ProverClient,
    ProverServiceError,
    ProverTransportError,
)
from repro.service.cluster import ClusterConfig, HashRing, ProverCluster
from repro.service.journal import JobJournal, JournalEntry
from repro.service.proofcache import ProofCache
from repro.service.scheduler import (
    Job,
    JobState,
    QueueFullError,
    Scheduler,
    SchedulerConfig,
    ShuttingDownError,
)
from repro.service.server import (
    ProverService,
    ServerConfig,
    build_http_server,
    install_sigterm_drain,
    serve_forever,
)
from repro.service.supervisor import Supervisor, WorkerSpec, WorkerState

__all__ = [
    "BatchingGenerator",
    "ProofCache",
    "Job",
    "JobState",
    "QueueFullError",
    "Scheduler",
    "SchedulerConfig",
    "ShuttingDownError",
    "ProverService",
    "ServerConfig",
    "build_http_server",
    "install_sigterm_drain",
    "serve_forever",
    "ProverClient",
    "ProverServiceError",
    "ProverTransportError",
    "JobTimeout",
    "JobJournal",
    "JournalEntry",
    "Supervisor",
    "WorkerSpec",
    "WorkerState",
    "ClusterConfig",
    "HashRing",
    "ProverCluster",
]
