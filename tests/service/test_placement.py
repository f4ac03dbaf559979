"""Router placement and loss accounting, with stub workers (no processes).

The router places each job on the routable worker with the fewest of
its jobs in flight, the hash ring breaking ties, and forwards it with
one waiting ``POST /prove?wait=``.  A worker that loses the job (a
transport error or a 404 once the forward was sent) costs a counted,
journaled re-placement; a 429/503 refusal costs neither.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.eval.store import OutcomeRecord
from repro.eval.tasks import task_from_json
from repro.service import ProverServiceError, ProverTransportError
from repro.service.cluster import (
    POLL_S,
    REDISPATCH_LIMIT,
    ClusterConfig,
    ProverCluster,
)
from repro.service.scheduler import Job

MODEL = "gpt-4o-mini"
RECORD = OutcomeRecord(
    theorem="plus_0_l", model=MODEL, hinted=False, status="proved", queries=1
).to_json()
RUNNING = {"job": "w-1", "state": "running"}
DONE = {"job": "w-1", "state": "done", "record": RECORD}
FAILED = {"job": "w-1", "state": "failed", "error": "boom"}
GONE = ProverTransportError("worker gone")


def body(index: int) -> dict:
    return {"theorem": f"thm_{index}", "model": MODEL, "fuel": 4}


def refusal(status: int) -> ProverServiceError:
    return ProverServiceError(status, {"error": "busy"})


class StubWorker:
    """A worker client that answers from scripts.

    ``forward`` answers the waiting ``prove`` and ``polls`` the
    long-polls, one entry per call, the last repeating.  An entry is a
    status to return, an exception to raise, or a callable whose result
    is returned.
    """

    def __init__(self, forward=(DONE,), polls=(RUNNING,)) -> None:
        self.forward, self.polls = list(forward), list(polls)
        self.proves = []  # (wait, body) per forward
        self.jobs = []

    def prove(self, wait=None, **task_fields):
        self.proves.append((wait, task_fields))
        return self._answer(self.forward, len(self.proves))

    def job(self, job_id, wait=None):
        self.jobs.append(job_id)
        return self._answer(self.polls, len(self.jobs))

    @staticmethod
    def _answer(script, calls):
        answer = script[min(calls, len(script)) - 1]
        if isinstance(answer, Exception):
            raise answer
        if callable(answer):
            return answer()
        return dict(answer)


@pytest.fixture()
def make_cluster(tmp_path, monkeypatch):
    """A journaled router whose workers are the given stubs."""
    clusters = []

    def make(*workers, journal=True):
        config = ClusterConfig(
            workers=len(workers),
            state_dir=str(tmp_path / f"c{len(clusters)}") if journal else None,
        )
        cluster = ProverCluster(config)
        clusters.append(cluster)
        supervisor = cluster.supervisor
        monkeypatch.setattr(supervisor, "client_for", lambda i: workers[i])
        monkeypatch.setattr(supervisor, "routable", lambda i: True)
        return cluster

    yield make
    for cluster in clusters:
        assert cluster.close(timeout=10.0)


def run(cluster, task_body) -> Job:
    job = cluster.scheduler.submit(task_from_json(task_body), task_body)
    assert job.done.wait(10.0)
    return job


def router_inflight(cluster) -> list:
    """Each worker's router jobs in flight, as ``/metrics`` reports."""
    _, snapshot = cluster.metrics_snapshot()
    states = snapshot["service"]["cluster"]["supervisor"]["states"]
    return [states[str(i)]["router_inflight"] for i in range(len(states))]


def dispatched(cluster, job) -> list:
    """The workers of ``job``'s journaled ``dispatched`` lines."""
    return cluster.journal.entries[job.id].workers


def owner(cluster, task_body) -> int:
    key = task_from_json(task_body).cache_key()
    return cluster.ring.order(key, lambda i: True)[0]


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------


def test_fault_free_job_is_one_waiting_forward(make_cluster):
    worker = StubWorker(forward=[DONE])
    cluster = make_cluster(worker)
    job = run(cluster, body(0))
    assert job.error is None and job.record.to_json() == RECORD
    assert worker.proves == [(POLL_S, body(0))]
    assert worker.jobs == []
    events = [
        json.loads(line)["event"]
        for line in cluster.journal.path.read_text().splitlines()
    ]
    assert events == ["admitted", "dispatched", "done"]


def test_jobs_sharing_a_ring_owner_run_on_different_workers(make_cluster):
    release = threading.Event()

    def held():
        assert release.wait(10.0)
        return dict(DONE)

    workers = [StubWorker(forward=[held]), StubWorker(forward=[held])]
    cluster = make_cluster(*workers, journal=False)
    first = body(0)
    second = next(
        body(i) for i in range(1, 100)
        if owner(cluster, body(i)) == owner(cluster, first)
    )
    home = owner(cluster, first)
    try:
        jobs = [
            cluster.scheduler.submit(task_from_json(b), b)
            for b in (first, second)
        ]
        deadline = time.monotonic() + 10.0
        while sum(len(w.proves) for w in workers) < 2:
            assert time.monotonic() < deadline, "forwards never arrived"
            time.sleep(0.01)
        # The first took its owner; the second found the owner busy.
        assert [len(w.proves) for w in workers] == [1, 1]
        assert workers[home].proves[0][1] == first
        assert router_inflight(cluster) == [1, 1]
    finally:
        release.set()
    for job in jobs:
        assert job.done.wait(10.0) and job.error is None
    assert cluster.metrics.counter("cluster.jobs.placed_off_owner") == 1
    assert router_inflight(cluster) == [0, 0]


def test_tied_counts_keep_each_key_on_its_ring_owner(make_cluster):
    workers = [StubWorker(), StubWorker(), StubWorker()]
    cluster = make_cluster(*workers, journal=False)
    for index in range(12):
        before = [len(w.proves) for w in workers]
        assert run(cluster, body(index)).error is None
        placed = [len(w.proves) - b for w, b in zip(workers, before)]
        assert placed.index(1) == owner(cluster, body(index))
    assert cluster.metrics.counter("cluster.jobs.placed_off_owner") == 0
    assert {owner(cluster, body(i)) for i in range(12)} == {0, 1, 2}


def test_placed_off_owner_is_seeded_for_scrapes(make_cluster):
    cluster = make_cluster(StubWorker(), journal=False)
    _, text = cluster.metrics_text()
    assert "repro_cluster_jobs_placed_off_owner_total 0" in text


def aborting(cluster):
    def poll():
        cluster.scheduler.abort()
        return dict(RUNNING)

    return poll


@pytest.mark.parametrize(
    "forward, polls, error",
    [
        ([DONE], [RUNNING], None),
        ([RUNNING], [RUNNING, DONE], None),
        ([FAILED], [RUNNING], "worker search failed"),
        ([GONE], [RUNNING], "gave up"),
        ([RUNNING], [GONE], "gave up"),
        ([RUNNING], [ProverServiceError(404, {})], "gave up"),
        ([refusal(429), refusal(503), DONE], [RUNNING], None),
        ([ProverServiceError(400, {})], [RUNNING], "rejected"),
        ([RUNNING], [ProverServiceError(500, {})], "status error"),
        ([RUNNING], ["abort"], "cluster aborted"),
    ],
    ids=[
        "done-in-forward", "done-after-polls", "failed", "lost-forward",
        "lost-poll", "forgotten", "refused", "rejected", "poll-error",
        "aborted",
    ],
)
def test_every_way_a_hop_ends_releases_its_worker(
    make_cluster, forward, polls, error
):
    workers = [StubWorker(forward, polls), StubWorker(forward, polls)]
    cluster = make_cluster(*workers)
    if polls == ["abort"]:
        for worker in workers:
            worker.polls = [aborting(cluster)]
    job = run(cluster, body(0))
    if error is None:
        assert job.error is None and job.record.to_json() == RECORD
    else:
        assert error in job.error
    assert router_inflight(cluster) == [0, 0]


class YieldingCounts(list):
    def __getitem__(self, index):
        time.sleep(0)
        return super().__getitem__(index)


def test_concurrent_placements_never_pick_a_busier_worker(make_cluster):
    """16 threads place at once on 16 idle workers, and no hop ends
    until all are placed.

    Each placement must take a worker at the minimum count, which here
    means one job per worker; and every placement must be counted, so
    the counts match the forwards the workers saw.
    """
    n = 16
    release = threading.Event()

    def held():
        assert release.wait(30.0)
        return dict(DONE)

    workers = [StubWorker(forward=[held]) for _ in range(n)]
    cluster = make_cluster(*workers, journal=False)
    # Every read of a count hands the interpreter to another thread, so
    # a choice made outside the placement lock would interleave.
    cluster._inflight = YieldingCounts(cluster._inflight)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(4):
            release.clear()
            start = threading.Barrier(n)
            results, errors = [], []

            def place(index):
                task_body = body(n * round_ + index)
                task = task_from_json(task_body)
                job = Job(f"job-{index}", task.cache_key(), task, task_body)
                try:
                    start.wait(timeout=30.0)
                    results.append(cluster._execute(job))
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [
                threading.Thread(target=place, args=(index,))
                for index in range(n)
            ]
            try:
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 30.0
                while sum(len(w.proves) for w in workers) < n * (round_ + 1):
                    assert time.monotonic() < deadline, "forwards missing"
                    time.sleep(0.01)
                assert [len(w.proves) for w in workers] == [round_ + 1] * n
                assert router_inflight(cluster) == [1] * n
            finally:
                release.set()
                for thread in threads:
                    thread.join(timeout=30.0)
            assert not [thread for thread in threads if thread.is_alive()]
            assert errors == []
            assert len(results) == n
            assert router_inflight(cluster) == [0] * n
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Loss accounting
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "forward, polls",
    [([RUNNING], [GONE]), ([GONE], [RUNNING])],
    ids=["lost-in-a-poll", "lost-in-the-waiting-forward"],
)
def test_lost_placements_are_counted_up_to_the_limit(
    make_cluster, forward, polls
):
    worker = StubWorker(forward, polls)
    cluster = make_cluster(worker)
    job = run(cluster, body(0))
    placements = REDISPATCH_LIMIT + 1
    assert f"gave up after {placements} placements" in job.error
    assert len(worker.proves) == placements
    assert cluster.metrics.counter("cluster.jobs.redispatched") == placements
    assert dispatched(cluster, job) == [0] * placements


def test_refusals_are_not_losses(make_cluster):
    worker = StubWorker(forward=[refusal(429), refusal(429), DONE])
    cluster = make_cluster(worker)
    job = run(cluster, body(0))
    assert job.error is None and job.record.to_json() == RECORD
    assert len(worker.proves) == 3
    assert cluster.metrics.counter("cluster.jobs.redispatched") == 0
    assert dispatched(cluster, job) == [0]
