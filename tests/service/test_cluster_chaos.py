"""Cluster recovery contract: crash, replay, quarantine, degradation.

The PR's acceptance tests: a worker killed mid-job must be invisible
in the final records (supervisor restart + router re-dispatch,
byte-identical store); a router crash must replay unfinished journaled
jobs to the same bytes; a corrupt journal line must be quarantined,
not fatal; and the degradation ladder must be observable on
``/healthz`` over real HTTP.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.eval.store import OutcomeRecord, RunStore
from repro.eval.tasks import task_from_json
from repro.service import ProverClient, ServerConfig
from repro.service.cluster import ClusterConfig, HashRing, ProverCluster
from repro.service.supervisor import PROBE_TIMEOUT_S

MODEL = "gpt-4o-mini"
FUEL = 10
THEOREMS = ["plus_0_l", "plus_0_r", "plus_n_Sm"]


def bodies():
    return [
        {"theorem": name, "model": MODEL, "fuel": FUEL}
        for name in THEOREMS
    ]


def boot(tmp_path, name, **overrides):
    overrides.setdefault("workers", 2)
    overrides.setdefault("worker", ServerConfig(workers=2, max_queued=64))
    overrides.setdefault("state_dir", str(tmp_path / name))
    cluster = ProverCluster(ClusterConfig(**overrides))
    cluster.start()
    return cluster


def run_all(cluster, task_bodies, budget=120.0):
    ids = []
    for body in task_bodies:
        status, payload = cluster.submit(dict(body))
        assert status in (200, 202), payload
        ids.append(payload["job"])
    wait_all(cluster, ids, budget)
    return ids


def wait_all(cluster, ids, budget=120.0):
    deadline = time.monotonic() + budget
    for job_id in ids:
        while True:
            _, body = cluster.job_status(job_id, wait=2.0)
            if body.get("state") in ("done", "failed"):
                break
            assert time.monotonic() < deadline, f"{job_id} never finished"


def store_bytes(cluster, task_bodies, ids, path):
    with RunStore(path) as store:
        for body, job_id in zip(task_bodies, ids):
            _, status = cluster.job_status(job_id)
            assert status["state"] == "done", status
            store.put(
                task_from_json(dict(body)),
                OutcomeRecord.from_json(status["record"]),
            )
    return path.read_bytes()


# ----------------------------------------------------------------------
# Hash ring (pure, no processes)
# ----------------------------------------------------------------------


def test_ring_is_deterministic_and_covers_all_workers():
    ring = HashRing(4)
    keys = [f"key-{i}" for i in range(200)]
    owners = [ring.order(k, lambda i: True)[0] for k in keys]
    assert owners == [ring.order(k, lambda i: True)[0] for k in keys]
    assert set(owners) == {0, 1, 2, 3}  # vnodes spread the ranges


def test_ring_reroutes_only_the_dead_workers_ranges():
    ring = HashRing(3)
    keys = [f"key-{i}" for i in range(200)]
    before = {k: ring.order(k, lambda i: True)[0] for k in keys}
    after = {k: ring.order(k, lambda i: i != 1)[0] for k in keys}
    for key in keys:
        if before[key] != 1:
            assert after[key] == before[key]  # survivors keep ranges
        else:
            assert after[key] in (0, 2)
    assert ring.order("anything", lambda i: False) == []


def test_ring_order_lists_each_routable_worker_once():
    ring = HashRing(4)
    for index in range(200):
        key = f"key-{index}"
        assert sorted(ring.order(key, lambda i: True)) == [0, 1, 2, 3]
        assert sorted(ring.order(key, lambda i: i % 2 == 0)) == [0, 2]


# ----------------------------------------------------------------------
# Router wiring (no processes)
# ----------------------------------------------------------------------


def test_cli_pipeline_depth_reaches_every_cluster_worker(monkeypatch):
    import repro.service
    from repro.cli import main

    served = []
    monkeypatch.setattr(
        repro.service, "serve_forever", lambda api: served.append(api) or 0
    )
    argv = ["server", "--cluster", "2", "--pipeline-depth", "4"]
    assert main(argv) == 0
    (cluster,) = served
    assert isinstance(cluster, ProverCluster)
    specs = [worker.spec for worker in cluster.supervisor._workers]
    assert [spec.config.pipeline_depth for spec in specs] == [4, 4]


class SlowWorker:
    """A worker client whose job is still running for a few polls."""

    def __init__(self, record, rounds):
        self.record, self.rounds, self.polls = record, rounds, []

    def prove(self, **body):
        return {"job": "job-1", "state": "queued", "cached": False}

    def job(self, job_id, wait=None):
        self.polls.append(job_id)
        if len(self.polls) < self.rounds:
            return {"id": job_id, "state": "running"}
        return {"id": job_id, "state": "done", "record": self.record}


def test_router_follows_a_worker_job_across_long_polls(monkeypatch):
    cluster = ProverCluster(ClusterConfig(workers=1))
    body = bodies()[0]
    record = OutcomeRecord(
        theorem=body["theorem"], model=MODEL, hinted=False,
        status="proved", queries=1,
    ).to_json()
    worker = SlowWorker(record, rounds=3)
    monkeypatch.setattr(cluster.supervisor, "client_for", lambda i: worker)
    monkeypatch.setattr(cluster.supervisor, "routable", lambda i: True)
    job = cluster.scheduler.submit(task_from_json(body), body)
    assert job.done.wait(10.0)
    assert job.error is None
    assert job.record.to_json() == record
    assert worker.polls == ["job-1"] * 3
    assert cluster.scheduler.shutdown(timeout=10.0)


# ----------------------------------------------------------------------
# Crash recovery (forked worker fleets)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        {"goal": "forall n : nat, n = n", "theorem": THEOREMS[0]},
        {"goal": "forall n : nat, n = n", "model": "gpt-5-turbo"},
    ],
    ids=["goal-and-theorem", "goal-unknown-model"],
)
def test_router_rejects_what_every_worker_would(tmp_path, bad):
    # The single process answers these bodies with 400; a router that
    # admitted them journaled a job that then failed at a worker.
    body = {"model": MODEL, **bad}
    cluster = boot(tmp_path, "validate", workers=1)
    try:
        status, payload = cluster.submit(body)
        assert status == 400, payload
        assert cluster.journal.entries == {}
        assert not cluster.journal.path.exists()
    finally:
        cluster.close(timeout=30)


def test_kill_worker_mid_job_recovers_byte_identical(tmp_path):
    cluster = boot(tmp_path, "baseline")
    try:
        ids = run_all(cluster, bodies())
        baseline = store_bytes(
            cluster, bodies(), ids, tmp_path / "baseline.jsonl"
        )
    finally:
        cluster.close(timeout=30)

    victim = THEOREMS[1]
    cluster = boot(
        tmp_path, "kill", cluster_faults=f"kill_job={victim}"
    )
    try:
        ids = run_all(cluster, bodies())
        deadline = time.monotonic() + 30
        while (
            cluster.supervisor.restarts_total < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        assert cluster.metrics.counter("cluster.worker_deaths") >= 1
        assert cluster.supervisor.restarts_total >= 1
        _, text = cluster.metrics_text()
        restarts = [
            line
            for line in text.splitlines()
            if line.startswith("repro_cluster_worker_restarts_total ")
        ]
        assert restarts and int(float(restarts[0].split()[1])) >= 1
        recovered = store_bytes(
            cluster, bodies(), ids, tmp_path / "kill.jsonl"
        )
    finally:
        cluster.close(timeout=30)
    assert recovered == baseline


def test_stall_longer_than_client_timeout_is_not_a_worker_loss(tmp_path):
    # The router long-polls a stalled job for many rounds; each round
    # must answer inside the worker client's socket timeout.
    stall = 2.5 * PROBE_TIMEOUT_S
    cluster = boot(
        tmp_path,
        "stall",
        workers=1,
        cluster_faults=f"stall_job={THEOREMS[0]},stall_seconds={stall:g}",
    )
    try:
        run_all(cluster, bodies()[:1])
        assert cluster.metrics.counter("cluster.jobs.redispatched") == 0
        assert cluster.supervisor.client_for(0).transport_retries == 0
    finally:
        cluster.close(timeout=30)


def test_router_crash_replays_journal_byte_identical(tmp_path):
    cluster = boot(tmp_path, "baseline")
    try:
        ids = run_all(cluster, bodies())
        baseline = store_bytes(
            cluster, bodies(), ids, tmp_path / "baseline.jsonl"
        )
    finally:
        cluster.close(timeout=30)

    # Crash-stop mid-run: a stall pins one job in flight so the abort
    # is guaranteed to strand journaled work.
    cluster = boot(
        tmp_path,
        "replay",
        cluster_faults=f"stall_job={THEOREMS[2]},stall_seconds=2",
    )
    ids = []
    for body in bodies():
        _, payload = cluster.submit(dict(body))
        ids.append(payload["job"])
    time.sleep(0.1)
    cluster.abort()
    assert cluster.journal.pending(), "abort raced the sweep"

    successor = boot(tmp_path, "replay")
    try:
        assert successor.replayed_jobs >= 1
        wait_all(successor, ids)
        replayed = store_bytes(
            successor, bodies(), ids, tmp_path / "replay.jsonl"
        )
    finally:
        successor.close(timeout=30)
    assert replayed == baseline


def test_router_reboots_keep_one_cache_line_per_key(tmp_path):
    cluster = boot(tmp_path, "reboot", workers=1)
    try:
        run_all(cluster, bodies())
    finally:
        cluster.close(timeout=30)
    cache_path = tmp_path / "reboot" / "router-cache.jsonl"

    def cache_lines():
        return len(cache_path.read_text(encoding="utf-8").splitlines())

    assert cache_lines() == len(THEOREMS)
    for _ in range(3):
        boot(tmp_path, "reboot", workers=1).close(timeout=30)
    assert cache_lines() == len(THEOREMS)
    # A crash between the journal's done line and the cache append
    # leaves the key out of the cache: the next boot re-warms it.
    cache_path.unlink()
    cluster = boot(tmp_path, "reboot", workers=1)
    try:
        warm, payload = cluster.submit(dict(bodies()[0]))
        assert warm == 200 and payload["cached"]
    finally:
        cluster.close(timeout=30)
    assert cache_lines() == len(THEOREMS)


def test_corrupt_journal_line_is_quarantined_not_fatal(tmp_path):
    cluster = boot(tmp_path, "corrupt")
    try:
        run_all(cluster, bodies()[:1])
    finally:
        cluster.close(timeout=30)
    journal_path = tmp_path / "corrupt" / "journal.jsonl"
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0][:-5] + "XXXX}"
    journal_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cluster = boot(tmp_path, "corrupt")
    try:
        assert cluster.journal.quarantined == 1
        assert cluster.journal.quarantine_path().exists()
        # The quarantined line's job left orphaned lines: its id stays
        # taken, or a new job would inherit them at the next replay.
        journaled = set(cluster.journal.entries)
        ids = run_all(cluster, bodies()[:1])  # sweep still completes
        assert not journaled & set(ids)
        _, snapshot = cluster.metrics_snapshot()
        assert (
            snapshot["service"]["cluster"]["journal"]["quarantined"] == 1
        )
    finally:
        cluster.close(timeout=30)


# ----------------------------------------------------------------------
# Degradation ladder over real HTTP
# ----------------------------------------------------------------------


def test_degradation_ladder_is_observable_on_healthz(tmp_path):
    cluster = boot(tmp_path, "ladder")
    httpd = cluster.make_http_server()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    client = ProverClient(f"http://{host}:{port}", timeout=60.0)
    try:
        health = client.healthz()
        assert (health["status"], health["ladder"]) == ("ok", "healthy")
        assert health["degraded"] is False

        # Warm the router cache while healthy (cache_only rung needs it).
        job = client.prove(**bodies()[0])
        if job["state"] not in ("done", "failed"):
            client.wait(job["job"], timeout=120.0)

        cluster.supervisor.disable_worker(0)
        health = client.healthz()
        assert health["ladder"] == "shed_adhoc"
        assert health["degraded"] is True
        from repro.service import ProverServiceError

        with pytest.raises(ProverServiceError) as err:
            client.prove(goal="forall n, n = n", model=MODEL)
        assert err.value.status == 429  # raw goals shed first

        cluster.supervisor.disable_worker(1)
        health = client.healthz()
        assert health["ladder"] == "cache_only"
        warm = client.prove(**bodies()[0])  # router-cache hit
        assert warm["state"] == "done" and warm["cached"]
        with pytest.raises(ProverServiceError) as err:
            client.prove(**bodies()[2])  # cold: nothing can run it
        assert err.value.status == 503

        text = client.metrics_text()
        assert "repro_cluster_degraded 2" in text
        assert "repro_cluster_worker_restarts_total" in text
        # Router jobs are scheduler jobs, reported like a single process.
        assert 'repro_service_jobs{state="done"}' in text
        assert "repro_service_in_flight 0" in text
    finally:
        client.close()
        httpd.shutdown()
        httpd.server_close()
        cluster.close(timeout=30)
