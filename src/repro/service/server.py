"""The prover service HTTP front end.

A stdlib-only (``http.server.ThreadingHTTPServer``) long-lived server
that multiplexes many concurrent proof searches over one model
backend — the deployment shape the ROADMAP's "heavy traffic" north
star implies, and the interface CoqPilot-style tooling would integrate
against.

Routes::

    POST /prove            admit a proof job (theorem id or raw goal)
                           (+ ?wait=SECONDS: answer when the job ends)
    GET  /jobs/<id>        job status + result (+ ?wait=SECONDS long-poll)
    GET  /healthz          liveness + uptime
    GET  /metrics          eval Metrics + service gauges; JSON by default,
                           Prometheus text exposition via
                           ``?format=prometheus`` or ``Accept: text/plain``

``POST /prove`` accepts every :class:`~repro.eval.tasks.TheoremTask`
field (``theorem`` + ``model`` required, the rest default to the sweep
defaults) or ``goal`` — a raw statement string registered as an ad-hoc
theorem via :meth:`~repro.corpus.loader.Project.adhoc_theorem`.
Responses: **202** with a job id (search admitted), **200** when the
job completed instantly from the warm proof cache, **400** on a
malformed request, **404** for an unknown theorem, **429** when
admission control sheds the request, **503** while draining.  With
``?wait=SECONDS`` an admitted job is long-polled before the answer,
exactly as ``GET /jobs/<id>?wait=`` would: the answer is that route's
payload plus ``"job": <id>``, **200** once the job has finished and
**202** while it still runs, so a job that ends within the wait costs
one request.  Every other answer is the same with or without ``wait``.

:class:`Frontend` is what the single-process service and the cluster
router (:mod:`repro.service.cluster`) share: one
:class:`~repro.service.scheduler.Scheduler` over one
:class:`~repro.service.proofcache.ProofCache`, and every route but
``POST /prove``.  They differ in how a body becomes a job and in the
``execute(job)`` the scheduler runs.

The single-process composition root is :class:`ProverService`: one
:class:`~repro.eval.runner.Runner` shared by all job threads, one
:class:`~repro.service.batching.BatchingGenerator` per model (shared
across jobs — that is where cross-search micro-batching happens).
Per-job, the runner still wraps the shared batcher in a fresh
:class:`~repro.llm.resilient.ResilientGenerator`, so retries/breaker
state stay task-local while dispatch is globally batched.
"""

from __future__ import annotations

import json
import math
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import CorpusError, GenerationError
from repro.eval.config import ExperimentConfig
from repro.eval.runner import Runner
from repro.eval.tasks import CACHE_KEY_VERSION, TheoremTask, task_from_json
from repro.llm import get_model
from repro.obs.metrics import Metrics
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import JsonlSink, Tracer
from repro.service.batching import BatchingGenerator
from repro.service.proofcache import ProofCache
from repro.service.scheduler import (
    QueueFullError,
    Scheduler,
    SchedulerConfig,
    ShuttingDownError,
)

__all__ = [
    "Frontend",
    "ServerConfig",
    "ProverService",
    "build_http_server",
    "install_sigterm_drain",
    "serve_forever",
]


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Clients connect in bursts: every client of a closed loop at once,
    # and the router's forwards and long-polls.  Past the stdlib's
    # listen backlog of 5, Linux drops the SYN, and that client waits
    # out TCP's 1 s retransmit timer before it is even accepted.
    request_queue_size = 128
    # A keep-alive connection holds its handler thread until the client
    # hangs up, so closing the server must not wait for those threads;
    # draining admitted jobs is the scheduler's business.
    block_on_close = False


def build_http_server(api, host: str, port: int) -> ThreadingHTTPServer:
    """Bind (but do not serve) the HTTP front end for ``api``.

    ``api`` is a :class:`Frontend`: it exposes the transport-independent
    handlers ``submit(body)``, ``job_status(id, wait=)``, ``health()``,
    ``metrics_snapshot()``, and ``metrics_text()``.  ``port=0`` binds an
    ephemeral port — read it back from ``server.server_address``.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Keep-alive clients reuse the connection, and a response goes
        # out in two writes (headers, then body): with Nagle's
        # algorithm on, the body waits for the client's delayed ACK,
        # about 44 ms per request on a reused loopback connection.
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):  # noqa: N802
            pass  # quiet; service metrics carry the signal

        def _send(
            self, status: int, payload: dict, close: bool = False
        ) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if close:
                # Also sets close_connection: this is the last response.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)

        def _send_text(self, status: int, text: str) -> None:
            data = text.encode("utf-8")
            self.send_response(status)
            self.send_header(
                "Content-Type",
                "text/plain; version=0.0.4; charset=utf-8",
            )
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _wants_prometheus(self, query: dict) -> bool:
            # JSON stays the default (ProverClient, the loadgen, and
            # older scrapers all consume it); Prometheus is opt-in
            # by query param or Accept header.
            fmt = query.get("format", [""])[0].lower()
            if fmt in ("prometheus", "prom", "text"):
                return True
            if fmt:  # explicit ?format= wins over Accept
                return False
            accept = (self.headers.get("Accept") or "").lower()
            return "text/plain" in accept or "openmetrics" in accept

        def do_GET(self):  # noqa: N802
            parsed = urlparse(self.path)
            path = parsed.path.rstrip("/") or "/"
            if path == "/healthz":
                self._send(*api.health())
                return
            if path == "/metrics":
                query = parse_qs(parsed.query)
                if self._wants_prometheus(query):
                    self._send_text(*api.metrics_text())
                else:
                    self._send(*api.metrics_snapshot())
                return
            if path.startswith("/jobs/"):
                job_id = path[len("/jobs/"):]
                try:
                    wait = _wait_seconds(parsed.query)
                except ValueError as exc:
                    self._send(400, {"error": str(exc)})
                    return
                self._send(*api.job_status(job_id, wait=wait))
                return
            self._send(404, {"error": f"no route {path!r}"})

        def do_POST(self):  # noqa: N802
            length = self.headers.get("Content-Length", "0").strip()
            if not (length.isascii() and length.isdigit()):
                # The body's end is unknown (read(-1) would block until
                # the client hangs up), so nothing after it on this
                # connection can be parsed either.
                self._send(
                    400,
                    {"error": f"bad Content-Length {length!r}"},
                    close=True,
                )
                return
            # Read the body before routing: a keep-alive connection
            # must be left at the next request's first byte.
            data = self.rfile.read(int(length))
            parsed = urlparse(self.path)
            path = parsed.path.rstrip("/")
            if path != "/prove":
                self._send(404, {"error": f"no route {path!r}"})
                return
            try:
                wait = _wait_seconds(parsed.query)
            except ValueError as exc:
                self._send(400, {"error": str(exc)})
                return
            try:
                body = json.loads(data.decode("utf-8") or "{}")
            except ValueError as exc:  # bad JSON or bad UTF-8
                self._send(400, {"error": f"bad JSON body: {exc}"})
                return
            status, payload = api.submit(body)
            if wait is not None and status == 202:
                # Long-poll the admitted job here, so a job that ends
                # within the wait costs its caller one request.
                job_id = payload["job"]
                status, payload = api.job_status(job_id, wait=wait)
                if status == 200:
                    payload["job"] = job_id
                    if payload["state"] not in ("done", "failed"):
                        status = 202
            self._send(status, payload)

    return _HTTPServer((host, port), Handler)


def _wait_seconds(query: str) -> Optional[float]:
    """The ``?wait=SECONDS`` of a request, or None; ValueError if bad."""
    values = parse_qs(query).get("wait")
    if values is None:
        return None
    try:
        wait = float(values[0])
    except ValueError:
        raise ValueError("wait must be a number") from None
    if not math.isfinite(wait):
        # float() happily parses "nan"/"inf", which would sail through
        # the long-poll clamp (NaN fails every comparison) into
        # Event.wait(nan).
        raise ValueError("wait must be a finite number")
    return wait


def install_sigterm_drain():
    """Route ``SIGTERM`` through the ``KeyboardInterrupt`` drain path.

    Containerized and CI runs stop processes with SIGTERM, whose
    default disposition is immediate death — admitted jobs and
    unflushed journal/store lines would be lost.  Re-raising it as
    ``KeyboardInterrupt`` funnels both signals into the one graceful
    path: stop accepting, finish admitted jobs, flush stores.  Only
    the main thread can install handlers; elsewhere (tests driving a
    server from a worker thread) this is a no-op.  Returns the
    previous handler, or None when nothing was installed.
    """
    if threading.current_thread() is not threading.main_thread():
        return None

    def _drain(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    return signal.signal(signal.SIGTERM, _drain)


def serve_forever(api) -> int:
    """Serve ``api`` until interrupted, then drain (the CLI entry).

    Both ``Ctrl-C`` and ``SIGTERM`` (what containers and CI send) end
    in the same graceful drain: refuse new work, finish admitted jobs,
    flush the proof cache (and journal), exit 0.
    """
    api.start()
    server = api.make_http_server()
    host, port = server.server_address[:2]
    print(f"{api.describe()}\nlistening on http://{host}:{port}")
    install_sigterm_drain()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ndraining...")
    finally:
        server.shutdown()
        server.server_close()
        api.close()
    return 0


@dataclass(frozen=True)
class ServerConfig:
    """Everything the composition root needs."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 4  # concurrent searches
    max_queued: int = 32  # admission bound beyond in-flight
    max_batch_size: int = 8  # 1 disables batching
    cache_path: Optional[str] = None  # JSONL proof cache (warm restart)
    default_deadline: Optional[float] = None  # per-job wall clock
    fast: bool = True  # trust corpus proofs at load (faster boot)
    # Simulated per-dispatch endpoint overhead (seconds) — models the
    # network round-trip a real API charges per request; batching
    # amortizes it.  0 for pure in-process serving.
    query_overhead: float = 0.0
    # Span-tree JSONL for every executed job (repro.obs); None = no
    # tracing, and job execution pays no tracing cost at all.
    trace_path: Optional[str] = None
    # Intra-search pipelining per job (repro.core.pipeline): selected
    # nodes kept in flight within one search.  1 = serial loop; k >= 2
    # sends up to k of the job's queries to the model in one batch.
    pipeline_depth: int = 1

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")


class Frontend:
    """The routes both front ends share, over one scheduler and cache.

    Subclasses define ``submit(body)`` (a body that passes
    :meth:`parse_body` becomes a job through :meth:`_admit`),
    ``_execute(job)``, ``describe()`` and ``close()``;
    ``_gauges()`` adds their own blocks to ``/metrics`` and ``start()``
    boots whatever must run before the first request.
    """

    def __init__(
        self,
        config,
        cache_path: Optional[str],
        scheduler_config: SchedulerConfig,
        journal=None,
    ) -> None:
        self.config = config
        self.metrics = Metrics()
        self.started_at = time.monotonic()
        self.cache = ProofCache(cache_path, metrics=self.metrics)
        self.scheduler = Scheduler(
            execute=self._execute,
            cache=self.cache,
            config=scheduler_config,
            metrics=self.metrics,
            journal=journal,
        )

    def start(self) -> None:
        pass

    def parse_body(self, body) -> Tuple[TheoremTask, Optional[str]]:
        """The ``POST /prove`` body checks both front ends make.

        Returns the body's task and its raw ``goal`` (None for a
        theorem body); a goal's task names no theorem yet.  Raises
        ``ValueError`` with the 400 message.  What needs the project
        (an unknown theorem, a goal that does not parse) is checked by
        the single process alone: the router has no project loaded.
        """
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        fields = dict(body)
        goal = fields.pop("goal", None)
        if "goal" in body:
            if "theorem" in fields:
                raise ValueError("pass either 'theorem' or 'goal'")
            if not isinstance(goal, str) or not goal.strip():
                raise ValueError("'goal' must be a statement string")
            fields["theorem"] = ""  # named when the goal is registered
        task = task_from_json(fields)
        try:
            get_model(task.model)
        except GenerationError as exc:
            raise ValueError(str(exc)) from exc
        return task, goal

    def _admit(
        self, task, body: Optional[dict] = None, cached_only: bool = False
    ) -> Tuple[int, dict]:
        """Submit to the scheduler: ``(http_status, payload)``.

        ``cached_only`` is the cluster router's cache-only rung: a
        request the proof cache cannot answer gets a 503.
        """
        try:
            job = self.scheduler.submit(task, body, cached_only)
        except QueueFullError as exc:
            return 429, {"error": str(exc)}
        except ShuttingDownError as exc:
            return 503, {"error": str(exc)}
        if job is None:
            return 503, {
                "error": "cluster degraded: no routable workers; "
                "serving proof-cache hits only"
            }
        payload = {
            "job": job.id,
            "state": job.state.value,
            "key": job.key,
            "cached": job.cached,
        }
        if job.finished():
            payload.update(job.to_json())
            return 200, payload
        return 202, payload

    def job_status(
        self, job_id: str, wait: Optional[float] = None
    ) -> Tuple[int, dict]:
        """Handle ``GET /jobs/<id>`` (``wait`` = long-poll seconds)."""
        job = self.scheduler.job(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        if wait is not None and not job.finished():
            # Bounded long-poll: callers get an answer within the wait
            # budget either way and poll again if still running.  The
            # clamp rejects NaN/inf defensively: min/max pass NaN
            # through untouched (every comparison is False), and
            # Event.wait(nan) raises deep inside threading.  The HTTP
            # layer already 400s non-finite values; this guards direct
            # (in-process) callers.
            if not math.isfinite(wait):
                wait = 0.0
            job.done.wait(min(max(wait, 0.0), 60.0))
        return 200, job.to_json()

    def health(self) -> Tuple[int, dict]:
        return 200, {
            "status": "draining" if self.scheduler.draining else "ok",
            "uptime": time.monotonic() - self.started_at,
            "cache_key_version": CACHE_KEY_VERSION,
        }

    def metrics_snapshot(self) -> Tuple[int, dict]:
        """``GET /metrics``: eval metrics + service-level gauges."""
        service = {
            "uptime": time.monotonic() - self.started_at,
            "scheduler": self.scheduler.stats(),
            "proof_cache": self.cache.stats(),
        }
        service.update(self._gauges())
        return 200, {"service": service, "metrics": self.metrics.snapshot()}

    def _gauges(self) -> dict:
        return {}

    def metrics_text(self) -> Tuple[int, str]:
        """``GET /metrics`` in Prometheus text exposition format."""
        _, snapshot = self.metrics_snapshot()
        return 200, render_prometheus(
            snapshot["metrics"], service=snapshot["service"]
        )

    def make_http_server(self) -> ThreadingHTTPServer:
        """Bind (but do not serve) the HTTP front end.

        ``config.port=0`` binds an ephemeral port — read it back from
        ``server.server_address`` (tests and the loadgen do).
        """
        return build_http_server(self, self.config.host, self.config.port)


class ProverService(Frontend):
    """Composition root: runner + batchers + cache + scheduler."""

    def __init__(
        self, config: Optional[ServerConfig] = None, project=None
    ) -> None:
        from repro.corpus.loader import load_project

        config = config or ServerConfig()
        super().__init__(
            config,
            config.cache_path,
            SchedulerConfig(
                workers=config.workers,
                max_queued=config.max_queued,
                default_deadline=config.default_deadline,
            ),
        )
        if project is None:
            project = load_project(check_proofs=not config.fast)
        self.runner = Runner(
            project, ExperimentConfig(pipeline_depth=config.pipeline_depth)
        )
        self._batchers: Dict[str, BatchingGenerator] = {}
        self._batcher_lock = threading.Lock()
        self.trace_sink: Optional[JsonlSink] = (
            JsonlSink(config.trace_path) if config.trace_path else None
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _execute(self, job):
        task = job.task
        generator = self.generator_for(task.model)
        # Traced, one trace per executed job, rooted at a "job" span so
        # the rendered tree shows queueing context above the search.
        tracer = (
            Tracer(trace_id=job.key[:16])
            if self.trace_sink is not None
            else None
        )
        job_metrics = Metrics(tracer)
        with job_metrics.span("job", theorem=task.theorem, model=task.model):
            result = self.runner.execute_task(
                task, model_override=generator, tracer=tracer
            )
        if tracer is not None:
            self.trace_sink.write(tracer.export())
        self.metrics.merge(job_metrics.snapshot())
        self.metrics.merge(result.metrics)
        return result

    def generator_for(self, model_name: str) -> BatchingGenerator:
        """The shared micro-batcher for ``model_name`` (built lazily)."""
        with self._batcher_lock:
            batcher = self._batchers.get(model_name)
            if batcher is None:
                base = get_model(model_name)
                if self.config.query_overhead > 0:
                    from repro.testing.latency import LatencyGenerator

                    base = LatencyGenerator(
                        base, self.config.query_overhead
                    )
                batcher = BatchingGenerator(
                    base,
                    max_batch_size=self.config.max_batch_size,
                    metrics=self.metrics,
                )
                self._batchers[model_name] = batcher
            return batcher

    # ------------------------------------------------------------------
    # Request handling (transport-independent; the HTTP handler and the
    # in-process tests/loadgen call these directly)
    # ------------------------------------------------------------------

    def submit(self, body: dict) -> Tuple[int, dict]:
        """Handle a ``POST /prove`` body: ``(http_status, payload)``."""
        try:
            task, goal = self.parse_body(body)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        if goal is not None:
            try:
                theorem = self.runner.project.adhoc_theorem(goal)
            except Exception as exc:  # parse/elaboration errors
                return 400, {
                    "error": f"goal does not parse: {exc}",
                }
            task = replace(task, theorem=theorem.name)
        try:
            self.runner.project.theorem(task.theorem)
        except CorpusError as exc:
            return 404, {"error": str(exc)}
        # Every search thread starts at the first request.  Submits
        # racing it wait for the spawn, so a burst's searches start
        # together and stay in step for micro-batching; threads started
        # on demand start them one by one behind searches already
        # holding the interpreter lock, and service_loadgen's batched
        # phase fell below 2x unbatched in about half its runs (2-core
        # VM).  The router's jobs wait on sockets: its threads stay on
        # demand.
        self.scheduler.start()
        return self._admit(task)

    def _gauges(self) -> dict:
        from repro.kernel import cache as kernel_cache

        return {
            "batchers": [b.stats() for b in self._batchers.values()],
            "kernel_cache_pins": kernel_cache.pin_count(),
            "kernel_cache": kernel_cache.cache_stats(),
        }

    def describe(self) -> str:
        from repro.llm import available_models

        config = self.config
        batching = (
            f"batching: one dispatch in flight per model, carrying up to "
            f"{config.max_batch_size} of the queries queued behind the last"
            if config.max_batch_size > 1
            else "batching: off, every model query is its own dispatch"
        )
        lines = [
            f"prover service (workers={config.workers}, "
            f"cache={config.cache_path or 'memory'})",
            batching,
            f"models: {', '.join(available_models())}",
        ]
        if config.trace_path:
            lines.append(f"tracing job searches to {config.trace_path}")
        return "\n".join(lines)

    def close(self, timeout: Optional[float] = 30.0) -> bool:
        """Graceful drain: finish admitted jobs, close the batchers and
        the proof-cache store."""
        drained = self.scheduler.shutdown(timeout=timeout)
        with self._batcher_lock:
            for batcher in self._batchers.values():
                batcher.close()
        self.cache.close()
        return drained
