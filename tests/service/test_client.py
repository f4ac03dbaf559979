"""ProverClient's transport contract: keep-alive pool, resend, retries.

Every test talks to the service's real HTTP handler
(:func:`~repro.service.server.build_http_server`) over loopback, in
front of a stub API that answers at once, and counts the connections
the server accepts.
"""

from __future__ import annotations

import socket
import sys
import threading
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.llm.resilient import stable_jitter
from repro.service import (
    ProverClient,
    ProverServiceError,
    ProverTransportError,
    build_http_server,
)


class EchoApi:
    """The handlers ``build_http_server`` routes to, with no scheduler."""

    def __init__(self) -> None:
        self.release = threading.Event()  # ends every pending long-poll

    def submit(self, body):
        return 202, {"job": "job-1", "state": "queued", "body": body}

    def job_status(self, job_id, wait=None):
        if wait:
            self.release.wait(wait)
        return 200, {"id": job_id, "state": "done"}

    def health(self):
        return 200, {"status": "ok"}

    def metrics_snapshot(self):
        return 200, {"service": {}, "metrics": {}}

    def metrics_text(self):
        return 200, "# TYPE repro_up gauge\nrepro_up 1\n"


@contextmanager
def serving(handler=None):
    """Serve an :class:`EchoApi`; ``handler`` subclasses the handler."""
    api = EchoApi()
    httpd = build_http_server(api, "127.0.0.1", 0)
    if handler is not None:
        httpd.RequestHandlerClass = handler(httpd.RequestHandlerClass)
    accepted = []
    get_request = httpd.get_request

    def counting_get_request():
        request = get_request()
        accepted.append(request[1])
        return request

    httpd.get_request = counting_get_request
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield SimpleNamespace(url=f"http://{host}:{port}", accepted=accepted)
    finally:
        api.release.set()
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


@pytest.fixture()
def server():
    with serving() as served:
        yield served


def refused_port() -> int:
    """A loopback port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# The retry loop
# ----------------------------------------------------------------------


def test_refused_port_backs_off_twice_then_raises():
    sleeps = []
    client = ProverClient(
        f"http://127.0.0.1:{refused_port()}", retries=2, sleep=sleeps.append
    )
    with pytest.raises(ProverTransportError):
        client.healthz()
    assert sleeps == [
        0.05 * (1.0 + stable_jitter("/healthz", 1)),
        0.10 * (1.0 + stable_jitter("/healthz", 2)),
    ]
    assert client.transport_retries == 2


def test_error_response_is_raised_without_a_retry(server):
    sleeps = []
    client = ProverClient(server.url, sleep=sleeps.append)
    try:
        with pytest.raises(ProverServiceError) as excinfo:
            client._request("GET", "/nope")
    finally:
        client.close()
    assert excinfo.value.status == 404
    assert excinfo.value.payload == {"error": "no route '/nope'"}
    assert sleeps == []
    assert client.transport_retries == 0


# ----------------------------------------------------------------------
# Keep-alive
# ----------------------------------------------------------------------


def test_sequential_requests_share_one_connection(server):
    with ProverClient(server.url, retries=0) as client:
        for index in range(50):
            assert client.job(f"job-{index}")["id"] == f"job-{index}"
        assert client.prove(theorem="t", model="m")["body"] == {
            "theorem": "t",
            "model": "m",
        }
        assert client.metrics_text().startswith("# TYPE repro_up gauge")
    assert len(server.accepted) == 1


def test_a_connection_the_response_closes_is_not_pooled():
    def announcing(base):
        class Announcing(base):
            def end_headers(self):
                self.send_header("Connection", "close")
                super().end_headers()

        return Announcing

    with serving(announcing) as served:
        with ProverClient(served.url, retries=0) as client:
            for _ in range(3):
                assert client.healthz() == {"status": "ok"}
                assert client._idle == []
        assert len(served.accepted) == 3


def test_idle_connection_dropped_by_the_server_is_resent_once():
    # The server hangs up after every response without announcing it
    # (as a restarted worker does): each reuse fails before a status
    # line, and the request goes out again on a fresh connection.
    def one_shot(base):
        class OneShot(base):
            def handle(self):
                self.handle_one_request()

        return OneShot

    with serving(one_shot) as served:
        with ProverClient(served.url, retries=0) as client:
            for index in range(3):
                assert client.job(f"job-{index}")["id"] == f"job-{index}"
            assert client.transport_retries == 0
        assert len(served.accepted) == 3


def test_timed_out_request_raises_and_the_next_one_reconnects(server):
    with ProverClient(server.url, timeout=0.2, retries=0) as client:
        with pytest.raises(ProverTransportError):
            client.job("slow", wait=30)
        assert client._idle == []  # never reuse a connection mid-response
        assert client.job("fast")["id"] == "fast"
    assert len(server.accepted) == 2


def test_close_closes_the_idle_connections(server):
    client = ProverClient(server.url)
    try:
        client.healthz()
        (connection,) = client._idle
        client.close()
        assert client._idle == []
        assert connection.sock is None
        client.close()  # idempotent
        assert client.healthz() == {"status": "ok"}  # reconnects
    finally:
        client.close()
    assert len(server.accepted) == 2


def test_one_client_shared_by_many_threads(server):
    threads_n, requests_n = 32, 20
    client = ProverClient(server.url, retries=0)
    wrong, errors = [], []

    def hammer(thread_index):
        try:
            for index in range(requests_n):
                job_id = f"t{thread_index}-r{index}"
                if client.job(job_id)["id"] != job_id:
                    wrong.append(job_id)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(index,))
        for index in range(threads_n)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
        client.close()
    assert not [thread for thread in threads if thread.is_alive()]
    assert errors == []
    assert wrong == []
    assert 1 <= len(server.accepted) <= threads_n
