"""A stdlib HTTP client for the prover service.

Thin and dependency-free (``http.client``): the loadgen, the smoke
tests, the cluster router, and any external tool drive the service
through this.

Connections: HTTP/1.1 keep-alive.  The client keeps the connections it
opened in a lock-guarded idle list.  A request takes an idle connection
or opens a new one, and after a complete response puts it back, unless
the server said it will close.  Any exception, a timeout included,
closes the connection instead, so a connection in an unknown state is
never reused.  The list grows only to the peak number of concurrent
callers, and one instance is safe to share across threads.
:meth:`close` (or leaving a ``with`` block) closes the idle
connections; a later request simply opens a new one.

Transport resilience: a worker restart (or any network blip) surfaces
as ``ECONNREFUSED``/``ECONNRESET``/read timeouts mid-call.  Those are
safe to retry — ``POST /prove`` is idempotent (the service
single-flights on :meth:`~repro.eval.tasks.TheoremTask.cache_key`, so
a duplicate submit joins the in-flight job instead of starting a
second search) and every ``GET`` is read-only — so :meth:`_transport`
retries transient transport errors with bounded, deterministic
seeded backoff (:func:`~repro.llm.resilient.stable_jitter`).  HTTP
*error responses* (4xx/5xx) are answers, not transport faults, and
are never retried.  Exhaustion raises :class:`ProverTransportError`;
``client.transport_retries`` counts retries for observability.

One failure is not a fault: a reused connection that the server closed
while it sat idle fails with a ``ConnectionError`` (reset, broken pipe,
``RemoteDisconnected``) before any status line arrives.  That request
is resent once, at once, on a fresh connection, and the resend is not
counted in ``transport_retries``.  A client with ``retries=0`` thus
survives a server that drops idle connections.

Usage::

    with ProverClient("http://127.0.0.1:8421") as client:
        status = client.prove_and_wait(
            theorem="rev_involutive", model="gpt-4o", timeout=120.0
        )
    if status["record"]["status"] == "proved":
        print(status["record"]["generated_proof"])

``prove_and_wait`` submits with ``POST /prove?wait=``: a job that ends
within the wait is answered by that one request, and a longer one is
long-polled with :meth:`ProverClient.wait`.  ``prove()`` without
``wait`` returns the admission payload at once.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.errors import ReproError
from repro.llm.resilient import stable_jitter

__all__ = [
    "ProverClient",
    "ProverServiceError",
    "ProverTransportError",
    "JobTimeout",
]


class ProverServiceError(ReproError):
    """An HTTP error from the service, with its status and payload."""

    def __init__(self, status: int, payload: dict) -> None:
        self.status = status
        self.payload = payload
        super().__init__(
            f"HTTP {status}: {payload.get('error', payload)}"
        )


class ProverTransportError(ReproError):
    """The service could not be reached within the retry budget."""


class JobTimeout(ReproError):
    """A job did not finish within the caller's wait budget."""


class ProverClient:
    """Blocking JSON client over the service's HTTP routes."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        retry_base_delay: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, retries)
        self.retry_base_delay = retry_base_delay
        self.sleep = sleep
        #: Transport retries performed over this client's lifetime.
        self.transport_retries = 0
        scheme, _, rest = self.base_url.partition("://")
        self._netloc, slash, path = rest.partition("/")
        self._prefix = slash + path  # prepended to every route
        self._connection_class = (
            http.client.HTTPSConnection
            if scheme == "https"
            else http.client.HTTPConnection
        )
        # Idle keep-alive connections; see the module docstring.
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close the idle connections (a later request opens a new one)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ProverClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return self._connection_class(self._netloc, timeout=self.timeout)

    def _exchange(
        self, method: str, url: str, data: Optional[bytes], headers: dict
    ) -> Tuple[int, bytes]:
        """One request and its complete response on a pooled connection."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        if connection is None:
            connection = self._connect()
        try:
            try:
                connection.request(method, url, body=data, headers=headers)
                response = connection.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # The server closed the idle connection before any
                # status line came back: resend once on a fresh one.
                connection.close()
                connection = self._connect()
                connection.request(method, url, body=data, headers=headers)
                response = connection.getresponse()
            body = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.append(connection)
        return response.status, body

    def _transport(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        accept: str = "application/json",
    ) -> bytes:
        """The raw body of a 2xx response to ``method path``."""
        data = None
        headers = {"Accept": accept}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.transport_retries += 1
                delay = self.retry_base_delay * 2 ** (attempt - 1)
                self.sleep(
                    delay * (1.0 + stable_jitter(path, attempt))
                )
            try:
                status, payload = self._exchange(
                    method, self._prefix + path, data, headers
                )
            except (OSError, http.client.HTTPException) as exc:
                # ECONNREFUSED/ECONNRESET/timeouts/torn responses — the
                # shapes a restarting worker produces.
                last = exc
                continue
            if status >= 400:
                # A status line came back: this is a response, not a
                # transport fault — surface it without retrying.
                raise ProverServiceError(status, _error_payload(payload))
            return payload
        raise ProverTransportError(
            f"{method} {path} failed after {self.retries + 1} attempts: "
            f"{type(last).__name__}: {last}"
        ) from last

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        data = self._transport(method, path, body)
        return json.loads(data.decode("utf-8"))

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def prove(self, wait: Optional[float] = None, **task_fields) -> dict:
        """``POST /prove``; returns the admission payload (job id).

        Keyword arguments are the task fields (``theorem``/``goal``,
        ``model``, ``hinted``, ``width``, ``fuel``, …).  With ``wait``
        the server holds the answer until the job ends or ``wait``
        seconds pass, and answers with the job's status (as
        :meth:`job` would) plus its ``job`` id.
        """
        path = "/prove"
        if wait is not None:
            path += f"?wait={wait:g}"
        return self._request("POST", path, task_fields)

    def job(self, job_id: str, wait: Optional[float] = None) -> dict:
        """``GET /jobs/<id>``; ``wait`` long-polls server-side."""
        path = f"/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        return self._request("GET", path)

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll: float = 5.0,
    ) -> dict:
        """Block until the job finishes; returns the final status JSON.

        Uses server-side long-polling (bounded by ``poll`` per round
        trip) so the job usually returns on the first response after it
        completes rather than on the next poll tick.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise JobTimeout(
                    f"job {job_id} still unfinished after {timeout:g}s"
                )
            status = self.job(job_id, wait=min(poll, max(remaining, 0.0)))
            if status.get("state") in ("done", "failed"):
                return status

    def prove_and_wait(
        self, timeout: float = 300.0, poll: float = 5.0, **task_fields
    ) -> dict:
        """Submit and block for the result in one call.

        The submit itself waits up to ``poll`` seconds, so a job that
        ends by then (or a warm cache hit) costs one request; a job
        still running is then long-polled for up to ``timeout``.
        """
        status = self.prove(wait=min(poll, timeout), **task_fields)
        if status.get("state") in ("done", "failed"):
            return status
        return self.wait(status["job"], timeout=timeout, poll=poll)

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def metrics_text(self) -> str:
        """``GET /metrics`` in Prometheus text exposition format."""
        return self._transport(
            "GET", "/metrics?format=prometheus", accept="text/plain"
        ).decode("utf-8")


def _error_payload(data: bytes) -> dict:
    """The server's JSON error object, or the raw text wrapped as one."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        payload = None
    if isinstance(payload, dict):
        return payload
    return {"error": data.decode("utf-8", "replace")}
