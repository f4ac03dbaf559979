"""The benchmark's four workloads, driven through the program's public
entry points.

Each workload has a fixed *universe* of cells (the expected-records
file covers all of it).  A run takes a stratified sample of it, sized
from ``--seconds`` through a nominal rate measured on a 2-core x86 box,
and the seed orders (for ``service-open``: schedules) the sample;
``sweep-cpu`` always runs the whole split in order.  So a run does the
same work however fast the program is, and two commits are compared on
identical inputs.

* ``sweep-cpu`` — ``eval.Runner`` over the full gpt-4o test split.
* ``search-latency`` — ``Runner.execute_task`` at pipeline depth 4
  against a simulated 0.08 s endpoint.
* ``service-open`` — ``service.ProverService`` over HTTP, open loop.
* ``cluster-journal`` — ``service.cluster.ProverCluster`` with a
  journal, closed loop.
"""

from __future__ import annotations

import queue
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core import Status
from repro.eval import ExperimentConfig, Runner
from repro.eval.executor import SerialExecutor
from repro.eval.instrumentation import Metrics
from repro.eval.store import RunStore
from repro.eval.tasks import TheoremTask, sweep_tasks, task_from_json
from repro.llm import get_model
from repro.service import ProverClient, ProverService, ServerConfig
from repro.service.client import (
    JobTimeout,
    ProverServiceError,
    ProverTransportError,
)
from repro.service.cluster import ClusterConfig, ProverCluster
from repro.testing.latency import LatencyGenerator

#: A client waits at most this long for one op before counting it as
#: timed out (an error, never dropped).
OP_TIMEOUT_S = 60.0

@dataclass
class Op:
    """One unit of work: a sweep cell or a service job."""

    key: str  # TheoremTask.cache_key() of the cell
    task: Optional[TheoremTask] = None  # runner workloads
    body: Optional[dict] = None  # service workloads (POST /prove body)
    due: float = 0.0  # open loop: scheduled send time, from pass start
    kind: str = "fresh"  # service-open: fresh | repeat | goal


@dataclass
class PassResult:
    """What one measured pass observed."""

    attempted: int
    wall_s: float
    cpu_s: float
    latencies: List[float] = field(default_factory=list)
    records: List[Optional[dict]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def stratified_pick(items: Sequence, cost, count: int) -> list:
    """``count`` items: the middle one of each of ``count`` equal strata
    of ``items`` ranked by ``cost`` (the whole pool again beyond it).

    The pick is the same for every seed.  Drawing different cells per
    seed moved medians by more than any bound worth holding a change to
    (a run has tens to hundreds of ops), so a run's seed only orders
    and schedules this fixed, representative sample.
    """
    ranked = sorted(items, key=cost)
    picked: list = []
    while count > len(ranked):
        picked.extend(ranked)
        count -= len(ranked)
    for index in range(count):
        lo = index * len(ranked) // count
        hi = (index + 1) * len(ranked) // count
        picked.append(ranked[(lo + hi - 1) // 2])
    return picked


def record_failure(record: Optional[dict]) -> Optional[str]:
    if record is None:
        return "no record"
    if record.get("status") == Status.CRASH.value:
        return "CRASH record"
    return None


def _serve(api):
    """Bind ``api`` on an ephemeral port and serve it on a thread."""
    httpd = api.make_http_server()
    thread = threading.Thread(
        target=httpd.serve_forever, name="bench-http", daemon=True
    )
    thread.start()
    host, port = httpd.server_address[:2]
    base_url = f"http://{host}:{port}"
    ProverClient(base_url).healthz()  # the first op can now be issued
    return httpd, thread, base_url


def _stop_http(httpd, thread) -> None:
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10.0)


class Workload:
    """Shared shape: universe, plan, boot, measure, close."""

    name = ""
    #: Project load mode (DESIGN.md §3: it shifts fresh-tvar numbering,
    #: so expected records are generated in the same mode).
    check_proofs = True
    #: Compare whole records (True) or status + revalidation only.
    full_records = False

    def universe(self, project) -> List[Op]:
        raise NotImplementedError

    def plan(self, project, expected: Dict[str, dict], seed: int,
             seconds: float) -> List[Op]:
        raise NotImplementedError

    def boot(self, project, workdir: Path):
        raise NotImplementedError

    def measure(self, state, ops: List[Op], recorder=None) -> PassResult:
        raise NotImplementedError

    def close(self, state) -> dict:
        return {}

    def layer_sources(self, state) -> dict:
        """Program-side counters read after a traced pass (before close)."""
        return {}


# ----------------------------------------------------------------------
# Runner workloads
# ----------------------------------------------------------------------


class SweepCpu(Workload):
    """The paper's batch sweep at zero endpoint latency (CPU-bound)."""

    name = "sweep-cpu"
    check_proofs = True
    full_records = True
    model = "gpt-4o"
    #: Seconds one pass over the 168 cells takes on a 2-core x86 box.
    pass_s = 15.0

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(fuel=64)

    def universe(self, project) -> List[Op]:
        runner = Runner(project, self.config())
        theorems = runner.theorems_for(self.model)
        return [
            Op(key=task.cache_key(), task=task)
            for hinted in (False, True)
            for task in sweep_tasks(theorems, self.model, hinted,
                                    runner.config)
        ]

    def plan(self, project, expected, seed, seconds):
        # The paper's sweep is a fixed input: every seed runs the split in
        # its own order.  (Reordering the cells moved the interpreter's
        # full collections onto other cells and the slowest cells by
        # ~10%.)
        passes = max(1, round(seconds / self.pass_s))
        return self.universe(project) * passes

    def boot(self, project, workdir):
        return {
            "runner": Runner(project, self.config()),
            "executor": SerialExecutor(),
            "workdir": workdir,
        }

    def measure(self, state, ops, recorder=None):
        runner: Runner = state["runner"]
        cells = 2 * len(runner.theorems_for(self.model))
        result = PassResult(attempted=len(ops), wall_s=0.0, cpu_s=0.0)
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        store = None
        for index, op in enumerate(ops):
            if index % cells == 0:
                # Every pass over the split writes a fresh run store.
                store = RunStore(state["workdir"] / f"run-{index}.jsonl")
            frame = recorder.open("bench.op") if recorder else None
            t0 = time.perf_counter()
            try:
                (record,) = runner.run_tasks(
                    [op.task], executor=state["executor"], store=store
                )
                result.records.append(record.to_json())
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                result.records.append(None)
                result.errors.append(f"{op.task.theorem}: {exc!r}")
            result.latencies.append(time.perf_counter() - t0)
            if frame is not None:
                recorder.close(frame)
        result.wall_s = time.perf_counter() - started
        result.cpu_s = cpu_seconds() - cpu0
        result.extra["llm_retries"] = runner.metrics.counter("llm.retries")
        return result


class SearchLatency(Workload):
    """Latency-bound pipelined search: endpoint round-trips dominate."""

    name = "search-latency"
    check_proofs = True
    full_records = False
    model = "gpt-4o"
    fuel = 24
    depth = 4
    overhead_s = 0.08
    pool = 40  # the hardest theorems of the gpt-4o split
    rate = 2.0  # theorems per second on a 2-core x86 box

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(fuel=self.fuel, pipeline_depth=self.depth)

    def universe(self, project):
        runner = Runner(project, self.config())
        ranked = sorted(
            runner.theorems_for(self.model),
            key=lambda t: (-t.proof_tokens, t.name),
        )[: self.pool]
        ops = []
        for theorem in ranked:
            task = TheoremTask.from_config(
                theorem.name, self.model, True, runner.config
            )
            ops.append(Op(key=task.cache_key(), task=task))
        return ops

    def plan(self, project, expected, seed, seconds):
        ops = stratified_pick(
            self.universe(project),
            lambda op: (expected[op.key]["queries"], op.key),
            max(1, round(seconds * self.rate)),
        )
        random.Random(seed).shuffle(ops)
        return ops

    def boot(self, project, workdir):
        return {"runner": Runner(project, self.config())}

    def measure(self, state, ops, recorder=None):
        runner: Runner = state["runner"]
        endpoint = LatencyGenerator(get_model(self.model), self.overhead_s)
        metrics = Metrics()
        result = PassResult(attempted=len(ops), wall_s=0.0, cpu_s=0.0)
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        for op in ops:
            frame = recorder.open("bench.op") if recorder else None
            t0 = time.perf_counter()
            try:
                task_result = runner.execute_task(
                    op.task, model_override=endpoint
                )
                metrics.merge(task_result.metrics)
                result.records.append(task_result.record.to_json())
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                result.records.append(None)
                result.errors.append(f"{op.task.theorem}: {exc!r}")
            result.latencies.append(time.perf_counter() - t0)
            if frame is not None:
                recorder.close(frame)
        result.wall_s = time.perf_counter() - started
        result.cpu_s = cpu_seconds() - cpu0
        result.extra["llm_retries"] = metrics.counter("llm.retries")
        return result


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------


def _cell_body(theorem: str, model: str, hinted: bool, fuel: int) -> dict:
    return {"theorem": theorem, "model": model, "hinted": hinted,
            "fuel": fuel}


def _body_op(body: dict, task: TheoremTask, kind: str = "fresh") -> Op:
    return Op(key=task.cache_key(), task=task, body=body, kind=kind)


class ServiceOpen(Workload):
    """An in-process ProverService over HTTP, fed by an open loop."""

    name = "service-open"
    check_proofs = False
    full_records = False
    model = "gpt-4o-mini"
    fuel = 8
    overhead_s = 0.08
    rate = 5.0  # arrivals per second, below saturation on 2 cores
    repeat_share = 1 / 3  # jobs that repeat an earlier cell
    goal_share = 0.05  # jobs that are ad-hoc goals
    repeat_gap_s = 1.0  # a repeat follows its cell by at least this
    goals = 24  # ad-hoc goal pool (shortest hint-split statements)
    poll_wait_s = 0.05  # long-poll on the oldest outstanding job

    def universe(self, project):
        runner = Runner(project, ExperimentConfig())
        ops = []
        for theorem in runner.splits.test:
            for hinted in (False, True):
                body = _cell_body(theorem.name, self.model, hinted,
                                  self.fuel)
                ops.append(_body_op(body, task_from_json(body)))
        hint_theorems = sorted(
            (t for t in project.theorems
             if t.name in runner.splits.hint_names),
            key=lambda t: (len(t.statement_text), t.name),
        )[: self.goals]
        for theorem in hint_theorems:
            # No key: registering the goal here would spare the measured
            # service its parse.  The job's key comes back with its
            # status; make_expected.py resolves it with goal_task().
            body = {"goal": theorem.statement_text, "model": self.model,
                    "fuel": self.fuel}
            ops.append(Op(key="", body=body, kind="goal"))
        return ops

    @staticmethod
    def goal_task(project, body: dict) -> TheoremTask:
        """The task the service runs for a ``goal`` body."""
        fields = dict(body)
        fields["theorem"] = project.adhoc_theorem(fields.pop("goal")).name
        return task_from_json(fields)

    def plan(self, project, expected, seed, seconds):
        """Fresh cells, repeats of earlier cells, and ad-hoc goals, sent
        at evenly spaced times (``rate`` per second).

        Fresh cells and repeat sources are stratified by expected outcome
        and query count, goals by length; the seed places them in the
        schedule.
        A repeat is sent ``repeat_gap_s`` to twice that after its
        source, when the source has usually finished.
        """
        rng = random.Random(seed)
        universe = self.universe(project)

        def cost(op: Op):
            record = expected[op.key]
            return (record["status"], record["queries"], op.key)

        total = max(4, round(seconds * self.rate))
        n_goal = max(1, round(total * self.goal_share))
        n_repeat = round(total * self.repeat_share)
        fresh = stratified_pick(
            [op for op in universe if op.kind == "fresh"],
            cost,
            total - n_goal - n_repeat,
        )
        repeated = set(id(op) for op in stratified_pick(fresh, cost, n_repeat))
        goals = stratified_pick(
            [op for op in universe if op.kind == "goal"],
            lambda op: (len(op.body["goal"]), op.body["goal"]),
            n_goal,
        )
        # Repeat sources take early positions, leaving room after them.
        gap = self.repeat_gap_s * self.rate
        firsts = fresh + goals
        early = list(range(max(n_repeat, len(firsts) - int(2 * gap))))
        rng.shuffle(early)
        early = early[:n_repeat]
        taken = set(early)
        rest = [i for i in range(len(firsts)) if i not in taken]
        rng.shuffle(rest)
        position = {}
        for op in firsts:
            position[id(op)] = (early if id(op) in repeated else rest).pop()
        slots = [(position[id(op)], op.kind, op) for op in firsts]
        for op in fresh:
            if id(op) in repeated:
                slots.append(
                    (position[id(op)] + gap * (1 + rng.random()), "repeat",
                     op)
                )
        slots.sort(key=lambda slot: slot[0])
        return [
            Op(key=op.key, task=op.task, body=op.body,
               due=index / self.rate, kind=kind)
            for index, (_, kind, op) in enumerate(slots)
        ]

    def server_config(self) -> ServerConfig:
        return ServerConfig(port=0, query_overhead=self.overhead_s)

    def boot(self, project, workdir):
        service = ProverService(self.server_config(), project=project)
        httpd, thread, base_url = _serve(service)
        return {"service": service, "httpd": httpd, "thread": thread,
                "base_url": base_url}

    def measure(self, state, ops, recorder=None):
        return open_loop(state["base_url"], ops, self.poll_wait_s)

    def layer_sources(self, state):
        return {"service_metrics": [ProverClient(state["base_url"]).metrics()]}

    def close(self, state):
        _stop_http(state["httpd"], state["thread"])
        state["service"].close()
        return {}


def open_loop(base_url: str, ops: List[Op], poll_wait_s: float) -> PassResult:
    """Send ``ops`` on their schedule; time each from when it was due.

    One thread submits on the seeded schedule whatever the service is
    doing; one thread long-polls outstanding jobs (the oldest with
    ``?wait=``, the rest without waiting).  A job's latency runs from
    its due time until a thread sees it done, so a stalled send counts
    against every job queued behind it.
    """
    result = PassResult(attempted=len(ops), wall_s=0.0, cpu_s=0.0)
    result.latencies = [None] * len(ops)  # type: ignore[list-item]
    result.records = [None] * len(ops)
    lags = [0.0] * len(ops)
    keys = [op.key for op in ops]  # goal jobs learn theirs from the service
    errors: List[str] = []
    handoff: "queue.Queue" = queue.Queue()
    done_at = [None] * len(ops)
    start = time.perf_counter() + 0.05

    def finish(index: int, status: dict, seen: float) -> None:
        if status.get("state") != "done":
            errors.append(f"job {index} {status.get('state')}: "
                          f"{status.get('error')}")
            return
        done_at[index] = seen
        keys[index] = status.get("key", keys[index])
        result.latencies[index] = seen - (start + ops[index].due)
        result.records[index] = status.get("record")

    def submitter() -> None:
        client = ProverClient(base_url, timeout=OP_TIMEOUT_S, retries=0)
        for index, op in enumerate(ops):
            delay = start + op.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags[index] = time.perf_counter() - (start + op.due)
            try:
                admitted = client.prove(**op.body)
            except (ProverServiceError, ProverTransportError) as exc:
                errors.append(f"job {index}: {exc}")
                continue
            if admitted.get("state") in ("done", "failed"):
                finish(index, admitted, time.perf_counter())
            else:
                handoff.put((index, admitted["job"]))
        handoff.put(None)

    def poller() -> None:
        client = ProverClient(base_url, timeout=OP_TIMEOUT_S, retries=0)
        outstanding: Dict[int, str] = {}
        submitting = True
        while submitting or outstanding:
            try:
                while True:
                    item = handoff.get(block=not outstanding, timeout=0.5)
                    if item is None:
                        submitting = False
                        break
                    outstanding[item[0]] = item[1]
            except queue.Empty:
                pass
            for position, (index, job_id) in enumerate(
                list(outstanding.items())
            ):
                wait = poll_wait_s if position == 0 else 0
                try:
                    status = client.job(job_id, wait=wait)
                except (ProverServiceError, ProverTransportError) as exc:
                    errors.append(f"job {index}: {exc}")
                    del outstanding[index]
                    continue
                now = time.perf_counter()
                if status.get("state") in ("done", "failed"):
                    finish(index, status, now)
                    del outstanding[index]
                elif now - (start + ops[index].due) > OP_TIMEOUT_S:
                    errors.append(f"job {index} timed out on the client")
                    del outstanding[index]

    cpu0 = cpu_seconds()
    threads = [
        threading.Thread(target=submitter, name="bench-submit"),
        threading.Thread(target=poller, name="bench-poll"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.cpu_s = cpu_seconds() - cpu0
    seen = [t for t in done_at if t is not None]
    result.wall_s = (max(seen) - start) if seen else 0.0
    result.errors = errors
    result.latencies = [lat for lat in result.latencies if lat is not None]
    result.extra["lags"] = lags
    result.extra["keys"] = keys
    return result


class ClusterJournal(Workload):
    """A journaled 2-worker ProverCluster, closed loop over cheap cells."""

    name = "cluster-journal"
    check_proofs = False
    full_records = False
    models = ("gpt-4o-mini", "gemini-1.5-flash")
    fuels = (4, 6, 8)
    easy = 48  # easiest theorems of the small-model test split
    clients = 2
    workers = 2
    rate = 25.0  # jobs per second on a 2-core x86 box

    def universe(self, project):
        runner = Runner(project, ExperimentConfig())
        easiest = sorted(
            runner.splits.test, key=lambda t: (t.proof_tokens, t.name)
        )[: self.easy]
        ops = []
        for theorem in easiest:
            for model in self.models:
                for hinted in (False, True):
                    for fuel in self.fuels:
                        body = _cell_body(theorem.name, model, hinted, fuel)
                        ops.append(_body_op(body, task_from_json(body)))
        return ops

    def plan(self, project, expected, seed, seconds):
        universe = self.universe(project)
        ops = stratified_pick(
            universe,
            lambda op: (expected[op.key]["status"],
                        expected[op.key]["queries"], op.key),
            min(len(universe), max(2, round(seconds * self.rate))),
        )
        random.Random(seed).shuffle(ops)
        return ops

    def boot(self, project, workdir):
        cluster = ProverCluster(
            ClusterConfig(port=0, workers=self.workers,
                          state_dir=str(workdir / "cluster"))
        )
        cluster.start()
        httpd, thread, base_url = _serve(cluster)
        return {"cluster": cluster, "httpd": httpd, "thread": thread,
                "base_url": base_url, "children_cpu0": cpu_seconds(
                    resource.RUSAGE_CHILDREN)}

    def measure(self, state, ops, recorder=None):
        result = PassResult(attempted=len(ops), wall_s=0.0, cpu_s=0.0)
        result.latencies = [None] * len(ops)  # type: ignore[list-item]
        result.records = [None] * len(ops)
        cursor = iter(range(len(ops)))
        lock = threading.Lock()

        def client_loop() -> None:
            client = ProverClient(state["base_url"], timeout=OP_TIMEOUT_S,
                                  retries=0)
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                t0 = time.perf_counter()
                try:
                    status = client.prove_and_wait(
                        timeout=OP_TIMEOUT_S, poll=5.0, **ops[index].body
                    )
                except (ProverServiceError, ProverTransportError,
                        JobTimeout) as exc:
                    result.errors.append(f"job {index}: {exc}")
                    continue
                if status.get("state") != "done":
                    result.errors.append(
                        f"job {index} {status.get('state')}: "
                        f"{status.get('error')}"
                    )
                    continue
                result.latencies[index] = time.perf_counter() - t0
                result.records[index] = status.get("record")

        threads = [
            threading.Thread(target=client_loop, name=f"bench-client-{i}")
            for i in range(self.clients)
        ]
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall_s = time.perf_counter() - started
        result.cpu_s = cpu_seconds() - cpu0
        result.latencies = [lat for lat in result.latencies if lat is not None]
        return result

    def layer_sources(self, state):
        cluster: ProverCluster = state["cluster"]
        workers = []
        for index in range(cluster.supervisor.size()):
            client = cluster.supervisor.client_for(index)
            if client is not None:
                workers.append(client.metrics())
        return {
            "service_metrics": workers,
            "router_metrics": ProverClient(state["base_url"]).metrics(),
            "journal_bytes": cluster.journal.path.stat().st_size,
        }

    def close(self, state):
        """Stop the fleet; fold the reaped workers' CPU and peak RSS."""
        cluster: ProverCluster = state["cluster"]
        restarts = cluster.metrics.counter("cluster.worker_restarts")
        _stop_http(state["httpd"], state["thread"])
        cluster.close()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return {
            "worker_cpu_s": (children.ru_utime + children.ru_stime
                             - state["children_cpu0"]),
            "worker_rss_mb": children.ru_maxrss / 1024.0,
            "worker_restarts": restarts,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (SweepCpu(), SearchLatency(), ServiceOpen(), ClusterJournal())
}
