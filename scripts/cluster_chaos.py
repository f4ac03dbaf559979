"""Cluster chaos harness: crash recovery, journal replay, degradation.

Exercises the supervised multi-process cluster
(:mod:`repro.service.cluster`) under the fault plans of
:class:`~repro.testing.faults.ClusterFaultPlan` and verifies the
recovery contract end to end:

1. **baseline** — a fault-free cluster run over a fixed task list;
   the final records, written in submission order, are the reference
   store.
2. **kill worker mid-job** — the worker executing the victim theorem
   dies (``os._exit``) mid-search; the supervisor must restart it, the
   router must re-dispatch (``cluster.jobs.redispatched >= 1``: a lost
   placement is counted), and the final store must be
   **byte-identical** to the baseline with
   ``repro_cluster_worker_restarts_total >= 1`` on ``/metrics``.
3. **router crash + journal replay** — the whole cluster is
   crash-stopped (SIGKILL, no drain) mid-run; a fresh cluster on the
   same state dir must replay every unfinished journaled job and
   converge to the byte-identical store.
4. **corrupt journal line** — one journal line gets a flipped byte;
   the next load must quarantine exactly that line (``.quarantine``
   sibling) and the run must still complete.
5. **degradation ladder + drain** — disabling workers must walk
   ``/healthz`` through ``shed_adhoc`` (raw goals 429) and
   ``cache_only`` (cold 503, warm-cache 200); a close() during load
   must drain without losing any admitted job.

Writes a human-readable outcome table to ``--out`` (CI uploads it as
an artifact) and exits non-zero on any contract violation.

Usage::

    PYTHONPATH=src python scripts/cluster_chaos.py --out cluster_chaos.txt
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.eval.store import OutcomeRecord, RunStore
from repro.eval.tasks import task_from_json
from repro.service.cluster import ClusterConfig, ProverCluster
from repro.service.server import ServerConfig

MODEL = "gpt-4o-mini"
N_THEOREMS = 6
FUEL = 16
WORKERS = 2


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="cluster_chaos_outcomes.txt",
        metavar="PATH",
        help="where to write the outcome table artifact",
    )
    parser.add_argument(
        "--keep-state",
        default=None,
        metavar="DIR",
        help="preserve per-phase state dirs (journals, shards) here",
    )
    return parser.parse_args()


def task_bodies() -> list:
    from repro.corpus.loader import load_project

    project = load_project(check_proofs=False)
    return [
        {"theorem": t.name, "model": MODEL, "fuel": FUEL}
        for t in project.theorems[:N_THEOREMS]
    ]


def boot(state_dir: Path, faults: str = None) -> ProverCluster:
    cluster = ProverCluster(
        ClusterConfig(
            workers=WORKERS,
            worker=ServerConfig(workers=2, max_queued=64),
            state_dir=str(state_dir),
            cluster_faults=faults,
        )
    )
    cluster.start()
    return cluster


def run_all(cluster: ProverCluster, bodies: list) -> list:
    """Submit every body and block until terminal; returns job ids."""
    ids = []
    for body in bodies:
        status, payload = cluster.submit(dict(body))
        if status not in (200, 202):
            raise AssertionError(
                f"submit {body['theorem']} -> HTTP {status}: {payload}"
            )
        ids.append(payload["job"])
    wait_all(cluster, ids)
    return ids


def wait_all(cluster: ProverCluster, ids: list, budget: float = 180.0):
    deadline = time.monotonic() + budget
    for job_id in ids:
        while True:
            _, body = cluster.job_status(job_id, wait=2.0)
            if body.get("state") in ("done", "failed"):
                break
            if time.monotonic() > deadline:
                raise AssertionError(f"job {job_id} never finished")


def write_store(cluster, bodies, ids, path: Path) -> None:
    """The final records, in submission order (order-deterministic)."""
    with RunStore(path) as store:
        for body, job_id in zip(bodies, ids):
            _, status = cluster.job_status(job_id)
            if status.get("state") != "done":
                raise AssertionError(
                    f"{body['theorem']}: {status.get('state')} "
                    f"({status.get('error')})"
                )
            store.put(
                task_from_json(dict(body)),
                OutcomeRecord.from_json(status["record"]),
            )


def restart_count(cluster: ProverCluster) -> int:
    """``repro_cluster_worker_restarts_total`` as a scraper sees it."""
    _, text = cluster.metrics_text()
    for line in text.splitlines():
        if line.startswith("repro_cluster_worker_restarts_total "):
            return int(float(line.split()[1]))
    return 0


def main() -> int:
    args = parse_args()
    started = time.time()
    failures = []
    lines = [
        "cluster chaos — crash recovery and degradation contract",
        f"model={MODEL} theorems={N_THEOREMS} fuel={FUEL} "
        f"workers={WORKERS}",
        "",
    ]
    bodies = task_bodies()
    victim = bodies[1]["theorem"]

    with TemporaryDirectory() as tmp:
        root = Path(args.keep_state) if args.keep_state else Path(tmp)
        root.mkdir(parents=True, exist_ok=True)

        # ----- 1. fault-free baseline --------------------------------
        print("[1/5] fault-free cluster baseline ...", file=sys.stderr)
        cluster = boot(root / "baseline")
        ids = run_all(cluster, bodies)
        write_store(cluster, bodies, ids, root / "baseline-store.jsonl")
        cluster.close(timeout=30)
        baseline_bytes = (root / "baseline-store.jsonl").read_bytes()
        lines.append(f"baseline: {len(ids)} jobs done")

        # ----- 2. kill worker mid-job --------------------------------
        print(f"[2/5] kill worker mid-job ({victim}) ...", file=sys.stderr)
        cluster = boot(root / "kill", faults=f"kill_job={victim}")
        ids = run_all(cluster, bodies)
        # The restart is asynchronous to job completion (the router
        # re-routes to the sibling shard before the supervisor has
        # rebooted the dead slot) — wait for it before judging.
        deadline = time.monotonic() + 30
        while (
            restart_count(cluster) < 1 and time.monotonic() < deadline
        ):
            time.sleep(0.2)
        restarts = restart_count(cluster)
        deaths = cluster.metrics.counter("cluster.worker_deaths")
        redispatched = cluster.metrics.counter("cluster.jobs.redispatched")
        write_store(cluster, bodies, ids, root / "kill-store.jsonl")
        cluster.close(timeout=30)
        identical = (
            root / "kill-store.jsonl"
        ).read_bytes() == baseline_bytes
        if deaths < 1:
            failures.append(
                "kill plan injected no worker death; certified nothing"
            )
        if restarts < 1:
            failures.append(
                f"supervisor never restarted the dead worker "
                f"(repro_cluster_worker_restarts_total={restarts})"
            )
        if redispatched < 1:
            failures.append(
                "the router never re-placed a job the dead worker held "
                f"(cluster.jobs.redispatched={redispatched})"
            )
        if not identical:
            failures.append(
                "kill-run store differs from baseline (recovery broke "
                "the determinism contract)"
            )
        lines.append(
            f"kill mid-job: deaths={deaths} restarts={restarts} "
            f"redispatched={redispatched} byte-identical={identical}"
        )

        # ----- 3. router crash + journal replay ----------------------
        print("[3/5] router crash + journal replay ...", file=sys.stderr)
        state = root / "replay"
        # A stall pins one job in flight so the crash is guaranteed to
        # strand work (a stall changes timing, never records, so the
        # byte-identity assertion still holds).
        cluster = boot(
            state,
            faults=f"stall_job={bodies[2]['theorem']},stall_seconds=2",
        )
        ids = []
        for body in bodies:
            _, payload = cluster.submit(dict(body))
            ids.append(payload["job"])
        time.sleep(0.2)  # let some (not all) jobs finish
        cluster.abort()  # SIGKILL fleet, no drain, journal left dirty
        pending_before = len(
            [e for e in cluster.journal.entries.values() if e.pending()]
        )
        cluster = boot(state)  # same state dir: must replay
        replayed = cluster.replayed_jobs
        wait_all(cluster, ids)
        write_store(cluster, bodies, ids, root / "replay-store.jsonl")
        identical = (
            root / "replay-store.jsonl"
        ).read_bytes() == baseline_bytes
        if replayed < 1:
            failures.append(
                f"router crash left {pending_before} pending jobs but "
                f"the successor replayed {replayed}; abort() raced the "
                f"sweep — slow the run down"
            )
        if not identical:
            failures.append(
                "replayed store differs from baseline (journal replay "
                "broke the determinism contract)"
            )
        lines.append(
            f"journal replay: pending_at_crash={pending_before} "
            f"replayed={replayed} byte-identical={identical}"
        )

        # ----- 4. corrupt journal line -------------------------------
        print("[4/5] corrupt journal line ...", file=sys.stderr)
        journal_path = state / "journal.jsonl"
        raw = journal_path.read_text(encoding="utf-8").splitlines()
        raw[0] = raw[0][:-5] + "XXXX}"  # flip bytes inside line 0
        journal_path.write_text(
            "\n".join(raw) + "\n", encoding="utf-8"
        )
        cluster.close(timeout=30)
        cluster = boot(state)
        quarantined = cluster.journal.quarantined
        qpath = cluster.journal.quarantine_path()
        _, payload = cluster.submit(dict(bodies[0]))
        wait_all(cluster, [payload["job"]])
        cluster.close(timeout=30)
        if quarantined < 1:
            failures.append("corrupt journal line was not quarantined")
        if not qpath.exists():
            failures.append(f"no quarantine sibling at {qpath}")
        lines.append(
            f"corrupt journal: quarantined={quarantined} "
            f"sibling={qpath.name} run_completed=True"
        )

        # ----- 5. degradation ladder + drain -------------------------
        print("[5/5] degradation ladder + drain ...", file=sys.stderr)
        cluster = boot(root / "ladder")
        _, health = cluster.health()
        steps = [health["ladder"]]
        run_all(cluster, [dict(bodies[0])])  # warm the router cache
        cluster.supervisor.disable_worker(0)
        status, _ = cluster.submit({"goal": "forall n, n = n",
                                    "model": MODEL})
        shed_goal = status
        _, health = cluster.health()
        steps.append(health["ladder"])
        cluster.supervisor.disable_worker(1)
        _, health = cluster.health()
        steps.append(health["ladder"])
        warm, _ = cluster.submit(dict(bodies[0]))  # router-cache hit
        cold, _ = cluster.submit(dict(bodies[4]))
        if steps != ["healthy", "shed_adhoc", "cache_only"]:
            failures.append(f"ladder walked {steps}, expected "
                            "['healthy', 'shed_adhoc', 'cache_only']")
        if shed_goal != 429:
            failures.append(
                f"degraded cluster answered a raw goal with "
                f"{shed_goal}, expected 429 shed"
            )
        if warm != 200 or cold != 503:
            failures.append(
                f"cache-only rung served warm={warm} cold={cold}, "
                f"expected 200/503"
            )
        cluster.supervisor.enable_worker(0)
        cluster.supervisor.enable_worker(1)
        deadline = time.monotonic() + 30
        while (
            cluster.degradation_level() != 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.2)
        recovered = cluster.degradation_level() == 0
        if not recovered:
            failures.append("fleet never recovered to healthy after "
                            "re-enabling workers")
        # Drain under load: admitted jobs must all reach a terminal
        # state before close() returns, and the journal must agree.
        ids = []
        for body in bodies[:4]:
            status, payload = cluster.submit(dict(body))
            if status in (200, 202):
                ids.append(payload["job"])
        drained = cluster.close(timeout=60)
        lost = [
            job_id
            for job_id in ids
            if cluster.job_status(job_id)[1].get("state")
            not in ("done", "failed")
        ]
        journal_pending = len(cluster.journal.pending())
        if not drained or lost:
            failures.append(
                f"drain lost admitted jobs: drained={drained} "
                f"unfinished={lost}"
            )
        if journal_pending:
            failures.append(
                f"journal still shows {journal_pending} pending jobs "
                f"after a clean drain"
            )
        lines.append(
            f"ladder: {' -> '.join(steps)} shed_goal={shed_goal} "
            f"warm={warm} cold={cold} recovered={recovered}"
        )
        lines.append(
            f"drain under load: drained={drained} jobs={len(ids)} "
            f"lost={len(lost)} journal_pending={journal_pending}"
        )

    lines.append("")
    verdict = "PASS" if not failures else "FAIL"
    lines.append(
        f"{verdict} in {time.time() - started:.0f}s"
        + (": " + "; ".join(failures) if failures else "")
    )
    report = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(report)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
