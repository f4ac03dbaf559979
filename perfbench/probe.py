"""Per-layer timing from outside the program.

The traced run installs wrappers around the public entry points of each
layer (class methods, and module functions at the name their callers
look up) and records one span per call.  Nothing in ``src/`` changes:
uninstalling restores every original attribute.

Spans nest per thread.  Each thread keeps its own stack, so a span
opened on a pipeline, batcher or scheduler thread never takes a parent
from another thread (``repro.obs.trace.Tracer`` keeps one stack for
all threads, which is why it is not used here).  When a thread's
outermost span closes, its finished tree is folded into per-name
totals with ``repro.obs.render.stage_summary`` and dropped, so memory
stays bounded however long the run is.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.render import stage_summary

#: Every ``PROMPT_SAMPLE``-th built prompt is re-tokenized (in a
#: ``bench.probe`` span) to estimate the mean prompt length without
#: paying for all.
PROMPT_SAMPLE = 8

_TRUNCATION_MARKER = "(* ...context truncated... *)"


class SpanRecorder:
    """Thread-safe span aggregation: per-name calls, total and self time."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded (also used in freshly forked workers,
        where the parent's locks and open stacks must not be inherited)."""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.rows: Dict[str, Dict[str, float]] = {}
        #: Calls and total time of spans named ``child`` opened directly
        #: under a span named ``parent``: ``(parent, child) -> [n, s]``.
        self.edges: Dict[Tuple[Optional[str], str], List[float]] = {}
        self.counters: Dict[str, float] = {}

    def _stacks(self) -> Tuple[List[list], List[dict]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
        return state

    def open(self, name: str) -> list:
        stack, _ = self._stacks()
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), parent, name, time.perf_counter()]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        elapsed = time.perf_counter() - frame[3]
        stack, finished = self._stacks()
        while stack:
            # Pop to (and including) this frame; a mis-nested exit
            # closes the abandoned inner frames with it.
            if stack.pop() is frame:
                break
        finished.append(
            {
                "span": frame[0],
                "parent": frame[1],
                "name": frame[2],
                "elapsed": elapsed,
            }
        )
        if not stack:
            self._fold(finished)
            finished.clear()

    def _fold(self, spans: List[dict]) -> None:
        rows = stage_summary(spans)
        names = {span["span"]: span["name"] for span in spans}
        edges: Dict[Tuple[Optional[str], str], List[float]] = {}
        for span in spans:
            edge = edges.setdefault(
                (names.get(span["parent"]), span["name"]), [0, 0.0]
            )
            edge[0] += 1
            edge[1] += span["elapsed"]
        with self._lock:
            for row in rows:
                total = self.rows.setdefault(
                    row["name"], {"calls": 0, "total": 0.0, "self": 0.0}
                )
                total["calls"] += row["calls"]
                total["total"] += row["total"]
                total["self"] += row["self"]
            for key, (calls, seconds) in edges.items():
                edge = self.edges.setdefault(key, [0, 0.0])
                edge[0] += calls
                edge[1] += seconds

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------

    def row(self, name: str) -> Dict[str, float]:
        return self.rows.get(name, {"calls": 0, "total": 0.0, "self": 0.0})

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "rows": {k: dict(v) for k, v in self.rows.items()},
                "edges": [
                    [parent, child, calls, seconds]
                    for (parent, child), (calls, seconds) in self.edges.items()
                ],
                "counters": dict(self.counters),
            }

    def merge(self, snapshot: dict) -> None:
        """Fold a worker process's :meth:`snapshot` into this recorder."""
        with self._lock:
            for name, row in snapshot["rows"].items():
                total = self.rows.setdefault(
                    name, {"calls": 0, "total": 0.0, "self": 0.0}
                )
                for key in total:
                    total[key] += row[key]
            for parent, child, calls, seconds in snapshot["edges"]:
                edge = self.edges.setdefault((parent, child), [0, 0.0])
                edge[0] += calls
                edge[1] += seconds
            for name, value in snapshot["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value


def timed(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    after: Optional[Callable] = None,
) -> Callable:
    """``fn`` wrapped in a span; ``after(args, result)`` runs outside it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(frame)
        if after is not None:
            after(args, result)
        return result

    return wrapper


class Probe:
    """Installs (and removes) the layer wrappers for one traced pass."""

    def __init__(self, recorder: SpanRecorder, worker_dump_dir) -> None:
        self.recorder = recorder
        self.worker_dump_dir = worker_dump_dir
        self._saved: List[Tuple[object, str, object]] = []
        self._builds = itertools.count()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(
            owner,
            attr,
            timed(self.recorder, name, owner.__dict__[attr], after),
        )

    def install(self) -> "Probe":
        import repro.corpus.tokenizer as tokenizer
        import repro.eval.runner as runner_module
        import repro.service.supervisor as supervisor
        from repro.core.pipeline import GenerationHandle
        from repro.core.search import BestFirstSearch
        from repro.eval.runner import Runner
        from repro.eval.store import RunStore
        from repro.llm.models import SimulatedModel
        from repro.llm.resilient import ResilientGenerator
        from repro.prompting.prompt import PromptBuilder
        from repro.serapi.checker import ProofChecker
        from repro.service.journal import JobJournal
        from repro.service.server import ProverService
        from repro.testing.latency import LatencyGenerator

        recorder = self.recorder
        original_tokenize = tokenizer.tokenize

        def after_build(args, prompt: str) -> None:
            recorder.count("prompting.builds")
            if prompt.startswith(_TRUNCATION_MARKER):
                recorder.count("prompting.truncated")
            if next(self._builds) % PROMPT_SAMPLE == 0:
                # Its own span, so the sample's cost is charged to the
                # benchmark and not to the caller's self time.
                frame = recorder.open("bench.probe")
                tokens = len(original_tokenize(prompt))
                recorder.close(frame)
                recorder.count("prompting.sampled")
                recorder.count("prompting.sampled_tokens", tokens)

        def after_check(args, result) -> None:
            recorder.count(f"checker.verdict.{result.verdict.value}")

        # Module functions, patched where their callers look them up:
        # count_tokens resolves ``tokenize`` in its own module, and the
        # runner calls ``run_script`` through its module globals.
        self._wrap(tokenizer, "tokenize", "corpus.tokenize")
        self._wrap(runner_module, "run_script", "eval.qed_replay")

        self._wrap(PromptBuilder, "build", "prompting.build", after_build)
        self._wrap(SimulatedModel, "generate", "llm.generate")
        self._wrap(SimulatedModel, "generate_batch", "llm.generate_batch")
        self._wrap(LatencyGenerator, "generate", "llm.endpoint")
        self._wrap(LatencyGenerator, "generate_batch", "llm.endpoint")
        self._wrap(ResilientGenerator, "generate", "llm.resilient")
        self._wrap(BestFirstSearch, "prove", "core.search")
        self._wrap(GenerationHandle, "result", "core.gen_wait")
        self._wrap(ProofChecker, "check", "checker.check", after_check)
        self._wrap(Runner, "execute_task", "eval.task")
        self._wrap(RunStore, "put", "eval.store_put")
        self._wrap(ProverService, "submit", "service.submit")
        for event in ("admitted", "dispatched", "done", "failed"):
            self._wrap(JobJournal, event, "journal.append")

        # The router's worker clients are built in supervisor.py; a
        # timed subclass bound there times exactly the router->worker
        # hop (the forwarded submit, and apart from it the long-polls
        # that wait for the worker) and leaves every other ProverClient
        # (the load generator's) untouched.
        base_client = supervisor.ProverClient

        class RouterClient(base_client):
            prove = timed(recorder, "cluster.forward", base_client.prove)
            job = timed(recorder, "cluster.poll", base_client.job)

        self._patch(supervisor, "ProverClient", RouterClient)

        dump_dir = Path(self.worker_dump_dir)
        original_main = supervisor.worker_main

        def worker_main(spec, conn):
            # Runs in the forked worker: start from an empty recorder
            # and hand the worker's spans back in a file.
            from repro.kernel import cache as kernel_cache

            recorder.reset()
            before = kernel_cache.cache_stats()
            try:
                original_main(spec, conn)
            finally:
                payload = recorder.snapshot()
                payload["kernel_cache"] = kernel_cache.stats_delta(before)
                path = dump_dir / f"worker-{spec.index}-{os.getpid()}.json"
                path.write_text(json.dumps(payload), encoding="utf-8")

        self._patch(supervisor, "worker_main", worker_main)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def merge_worker_dumps(recorder: SpanRecorder, dump_dir) -> Dict[str, dict]:
    """Fold every worker dump into ``recorder``; returns summed kernel
    cache hit/miss deltas of the workers."""
    caches: Dict[str, dict] = {}
    for path in sorted(Path(dump_dir).glob("worker-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        recorder.merge(payload)
        for name, cell in payload.get("kernel_cache", {}).items():
            total = caches.setdefault(name, {"hits": 0, "misses": 0})
            total["hits"] += cell["hits"]
            total["misses"] += cell["misses"]
    return caches


#: Span names that belong to the benchmark, not to a layer.
BENCH_SPANS = ("bench.op", "bench.probe")

KERNEL_CACHES = ("intern", "whnf", "subst_vars", "simpl", "alpha_fp")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    ops: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    load_s: float,
    kernel_cache: Dict[str, dict],
    sources: dict,
) -> Dict[str, float]:
    """Every per-layer metric of the traced pass, by name.

    ``*_s`` metrics are self time (span time minus the time of the
    wrapped calls it made), except the waits — ``llm.endpoint_wait_s``,
    ``core.gen_block_s`` and ``service.queue_wait_s`` — which are total
    time blocked.  Times and counts are sums over the traced measured
    phase; the service figures come from the program's own
    ``/metrics``.  ``bench.attributed_frac`` sums layer self time over
    all threads: on the single-threaded runner workloads it is the share
    of the traced wall the layers account for; where threads overlap it
    exceeds 1.
    """
    rows, edges, counters = recorder.rows, recorder.edges, recorder.counters
    row = recorder.row

    def edge_calls(child: str, skip_parents=()) -> float:
        return sum(
            calls
            for (parent, name), (calls, _) in edges.items()
            if name == child and parent not in skip_parents
        )

    # One round-trip = one call reaching the endpoint (the latency
    # wrapper if present, else the raw simulated model).
    endpoint_parents = ("llm.endpoint", "llm.generate_batch")
    round_trips = (
        row("llm.endpoint")["calls"]
        + edge_calls("llm.generate", endpoint_parents)
        + edge_calls("llm.generate_batch", endpoint_parents)
    )
    generate_calls = row("llm.generate")["calls"]
    checks = row("checker.check")["calls"]

    service = sources.get("service_metrics", [])
    router = sources.get("router_metrics")

    def service_counter(name: str) -> float:
        total = sum(m["metrics"]["counters"].get(name, 0) for m in service)
        if router is not None:
            total += router["metrics"]["counters"].get(name, 0)
        return total

    queue_wait = sum(
        m["metrics"]["stages"].get("service.queue_wait", {}).get("seconds", 0)
        for m in service
    )
    layer_self = sum(
        r["self"] for name, r in rows.items() if name not in BENCH_SPANS
    )
    lags = sorted(sources.get("lags", []))
    metrics = {
        "corpus.load_s": load_s,
        "corpus.tokenize_calls": row("corpus.tokenize")["calls"],
        "corpus.tokenize_s": row("corpus.tokenize")["self"],
        "prompting.build_calls": row("prompting.build")["calls"],
        "prompting.build_s": row("prompting.build")["self"],
        "prompting.prompt_tokens_mean": _ratio(
            counters.get("prompting.sampled_tokens", 0),
            counters.get("prompting.sampled", 0),
        ),
        "prompting.truncated_frac": _ratio(
            counters.get("prompting.truncated", 0),
            counters.get("prompting.builds", 0),
        ),
        "llm.generate_calls": generate_calls,
        "llm.generate_s": row("llm.generate")["self"]
        + row("llm.generate_batch")["self"],
        "llm.round_trips": round_trips,
        "llm.queries_per_round_trip": _ratio(generate_calls, round_trips),
        "llm.endpoint_wait_s": row("llm.endpoint")["self"],
        "llm.retries": sources.get("llm_retries", 0)
        + service_counter("llm.retries"),
        "core.queries_per_op": _ratio(generate_calls, ops),
        "core.search_self_s": row("core.search")["self"],
        "core.gen_block_s": row("core.gen_wait")["total"]
        + edges.get(("core.search", "llm.resilient"), [0, 0.0])[1],
        "checker.checks": checks,
        "checker.check_s": row("checker.check")["self"],
        "checker.valid_frac": _ratio(
            counters.get("checker.verdict.valid", 0), checks
        ),
        "checker.duplicate_frac": _ratio(
            counters.get("checker.verdict.duplicate", 0), checks
        ),
    }
    for name in KERNEL_CACHES:
        cell = kernel_cache.get(name, {"hits": 0, "misses": 0})
        metrics[f"kernel.cache.{name}.hit_rate"] = _ratio(
            cell["hits"], cell["hits"] + cell["misses"]
        )
    metrics.update(
        {
            "eval.qed_replays": row("eval.qed_replay")["calls"],
            "eval.qed_replay_s": row("eval.qed_replay")["self"],
            "eval.store_puts": row("eval.store_put")["calls"],
            "eval.store_put_s": row("eval.store_put")["self"],
            "service.submit_s": row("service.submit")["self"],
            "service.queue_wait_s": queue_wait,
            "service.batch_size_mean": _ratio(
                service_counter("service.batch.queries"),
                service_counter("service.batch.dispatches"),
            ),
            "service.dispatches": service_counter("service.batch.dispatches"),
            "service.cache_hit_frac": _ratio(
                service_counter("service.jobs.cache_hits")
                + service_counter("cluster.jobs.cache_hits"),
                ops,
            ),
            "service.refused": service_counter("service.jobs.rejected")
            + service_counter("cluster.jobs.rejected")
            + service_counter("cluster.jobs.shed"),
            "journal.appends_per_op": _ratio(
                row("journal.append")["calls"], ops
            ),
            "journal.append_s": row("journal.append")["self"],
            "journal.bytes_per_op": _ratio(
                sources.get("journal_bytes", 0), ops
            ),
            "cluster.forward_s": row("cluster.forward")["self"],
            "cluster.worker_restarts": sources.get("worker_restarts", 0),
            "bench.trace_overhead_frac": _ratio(
                traced_wall_s - untraced_wall_s, untraced_wall_s
            ),
            "bench.attributed_frac": _ratio(layer_self, traced_wall_s),
            "loadgen.lag_p90_s": (
                lags[min(len(lags) - 1, int(0.9 * len(lags)))] if lags else 0.0
            ),
        }
    )
    return metrics
