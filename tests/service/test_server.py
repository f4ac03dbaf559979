"""Prover service end-to-end over real HTTP.

Includes the PR's acceptance differential: for the same task, the
record produced (a) solo by the evaluation runner, (b) by the service
under concurrent micro-batched load, and (c) by a warm-cache replay
must be byte-identical.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.eval.config import ExperimentConfig
from repro.eval.runner import Runner
from repro.eval.tasks import CACHE_KEY_VERSION, TheoremTask
from repro.service import (
    ProverClient,
    ProverServiceError,
    ProverService,
    QueueFullError,
    ServerConfig,
    ShuttingDownError,
)

FUEL = 12  # small budgets keep the e2e searches quick


def boot(project, **overrides):
    overrides.setdefault("port", 0)
    overrides.setdefault("workers", 4)
    overrides.setdefault("max_batch_size", 4)
    service = ProverService(ServerConfig(**overrides), project=project)
    httpd = service.make_http_server()
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    client = ProverClient(f"http://{host}:{port}", timeout=60.0)
    return service, httpd, client


def shut(service, httpd, client):
    client.close()
    httpd.shutdown()
    httpd.server_close()
    assert service.close(timeout=30.0)


@pytest.fixture()
def served(project):
    service, httpd, client = boot(project)
    yield service, client
    shut(service, httpd, client)


class TestRoutes:
    def test_healthz(self, served):
        _, client = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["cache_key_version"] == CACHE_KEY_VERSION
        assert health["uptime"] >= 0

    def test_metrics_exposes_service_gauges(self, served):
        _, client = served
        snapshot = client.metrics()
        service_block = snapshot["service"]
        assert "queue_depth" in service_block["scheduler"]
        assert "in_flight" in service_block["scheduler"]
        assert service_block["proof_cache"]["persistent"] is False
        assert "kernel_cache" in service_block
        assert "metrics" in snapshot

    def test_unknown_route_is_404(self, served):
        _, client = served
        with pytest.raises(ProverServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unknown_theorem_is_404(self, served):
        _, client = served
        with pytest.raises(ProverServiceError) as excinfo:
            client.prove(theorem="no_such_lemma", model="gpt-4o")
        assert excinfo.value.status == 404

    def test_unknown_model_is_400(self, served):
        _, client = served
        with pytest.raises(ProverServiceError) as excinfo:
            client.prove(theorem="rev_involutive", model="gpt-5-turbo")
        assert excinfo.value.status == 400

    def test_unknown_task_field_is_400(self, served):
        _, client = served
        with pytest.raises(ProverServiceError) as excinfo:
            client.prove(
                theorem="rev_involutive", model="gpt-4o", fule=9
            )
        assert excinfo.value.status == 400
        assert "fule" in excinfo.value.payload["error"]

    def test_unknown_job_is_404(self, served):
        _, client = served
        with pytest.raises(ProverServiceError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_raw_goal_is_registered_and_proved(self, served):
        _, client = served
        status = client.prove_and_wait(
            goal="forall n : nat, n = n",
            model="gpt-4o",
            fuel=FUEL,
            timeout=60.0,
        )
        assert status["state"] == "done"
        assert status["task"]["theorem"].startswith("goal_")
        assert status["record"]["status"] == "proved"

    def test_goal_that_does_not_parse_is_400(self, served):
        _, client = served
        with pytest.raises(ProverServiceError) as excinfo:
            client.prove(goal="forall ) mangled (", model="gpt-4o")
        assert excinfo.value.status == 400

    def test_goal_and_theorem_together_is_400(self, served):
        _, client = served
        with pytest.raises(ProverServiceError) as excinfo:
            client.prove(
                goal="forall n : nat, n = n",
                theorem="rev_involutive",
                model="gpt-4o",
            )
        assert excinfo.value.status == 400


class TestWaitValidation:
    """Regression: ``float("nan")`` parses, then sails through the
    min/max long-poll clamp (NaN fails every comparison) straight into
    ``Event.wait(nan)``.  Non-finite waits must be a 400, like any
    other malformed parameter."""

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_wait_is_400(self, served, bad):
        service, client = served
        job = client.prove(
            theorem="rev_involutive", model="gpt-4o", fuel=FUEL
        )
        with pytest.raises(ProverServiceError) as excinfo:
            client._request("GET", f"/jobs/{job['job']}?wait={bad}")
        assert excinfo.value.status == 400
        assert "finite" in excinfo.value.payload["error"]

    def test_non_numeric_wait_is_still_400(self, served):
        _, client = served
        job = client.prove(
            theorem="rev_involutive", model="gpt-4o", fuel=FUEL
        )
        with pytest.raises(ProverServiceError) as excinfo:
            client._request("GET", f"/jobs/{job['job']}?wait=soon")
        assert excinfo.value.status == 400

    def test_in_process_callers_get_the_defensive_clamp(self, project):
        # Direct job_status calls bypass HTTP validation; a NaN there
        # must degrade to "no wait", not crash in threading.
        service = ProverService(ServerConfig(port=0), project=project)
        try:
            _, payload = service.submit(
                {"theorem": "rev_involutive", "model": "gpt-4o",
                 "fuel": FUEL}
            )
            status, body = service.job_status(
                payload["job"], wait=float("nan")
            )
            assert status == 200
            assert body["id"] == payload["job"]
        finally:
            service.close(timeout=30.0)


def count_requests(httpd) -> list:
    """The ``(method, path)`` of every request ``httpd`` serves."""
    seen = []
    base = httpd.RequestHandlerClass

    class Counting(base):
        def do_GET(self):  # noqa: N802
            seen.append(("GET", self.path))
            super().do_GET()

        def do_POST(self):  # noqa: N802
            seen.append(("POST", self.path))
            super().do_POST()

    httpd.RequestHandlerClass = Counting
    return seen


def post_prove(client, query: str, body: dict):
    """``POST /prove<query>``: the HTTP status and the JSON payload."""
    status, data = client._exchange(
        "POST",
        "/prove" + query,
        json.dumps(body).encode("utf-8"),
        {"Content-Type": "application/json"},
    )
    return status, json.loads(data.decode("utf-8"))


class TestWaitingSubmit:
    """``POST /prove?wait=``: a job that ends within the wait is
    answered, record and all, by the one request that submitted it."""

    BODY = {"theorem": "rev_involutive", "model": "gpt-4o", "fuel": FUEL}

    def test_a_job_that_ends_within_the_wait_answers_200(self, project):
        service, httpd, client = boot(project)
        requests = count_requests(httpd)
        try:
            status, payload = post_prove(client, "?wait=30", self.BODY)
        finally:
            shut(service, httpd, client)
        assert status == 200
        assert payload["state"] == "done"
        assert payload["job"] == payload["id"]
        assert payload["record"]["theorem"] == "rev_involutive"
        assert payload["cached"] is False
        assert requests == [("POST", "/prove?wait=30")]

    def test_a_job_still_running_answers_202_with_its_state(self, project):
        # Every model dispatch takes 0.5 s: the search outlives the wait.
        service, httpd, client = boot(project, query_overhead=0.5)
        body = dict(self.BODY, fuel=1)
        try:
            status, payload = post_prove(client, "?wait=0.05", body)
            assert status == 202
            assert payload["state"] in ("queued", "running")
            assert payload["job"] == payload["id"]
            assert payload["task"]["theorem"] == "rev_involutive"
            assert "record" not in payload
            done = client.wait(payload["job"], timeout=60.0)
        finally:
            shut(service, httpd, client)
        assert done["state"] == "done"

    @pytest.mark.parametrize("bad", ["nan", "inf", "abc"])
    def test_bad_wait_is_400_and_admits_nothing(self, served, bad):
        service, client = served
        status, payload = post_prove(client, f"?wait={bad}", self.BODY)
        assert status == 400
        assert payload["error"].startswith("wait must be a")
        assert service.scheduler.stats()["jobs"] == {
            "queued": 0, "running": 0, "done": 0, "failed": 0,
        }

    def test_without_wait_the_answer_is_the_admission(self, served):
        _, client = served
        status, payload = post_prove(client, "", self.BODY)
        assert status == 202
        assert set(payload) == {"job", "state", "key", "cached"}
        client.wait(payload["job"], timeout=60.0)

    def test_answers_other_than_an_admission_ignore_wait(self, served):
        _, client = served
        client.prove_and_wait(timeout=60.0, **self.BODY)
        plain = post_prove(client, "", self.BODY)
        waited = post_prove(client, "?wait=5", self.BODY)
        assert plain[0] == waited[0] == 200  # warm cache hits
        assert set(waited[1]) == set(plain[1])
        assert waited[1]["record"] == plain[1]["record"]
        unknown = dict(self.BODY, theorem="no_such_lemma")
        assert post_prove(client, "?wait=5", unknown)[0] == 404

    def test_prove_and_wait_on_a_fast_job_sends_one_request(self, project):
        service, httpd, client = boot(project)
        requests = count_requests(httpd)
        try:
            status = client.prove_and_wait(
                timeout=60.0, poll=30.0, **self.BODY
            )
        finally:
            shut(service, httpd, client)
        assert status["state"] == "done"
        assert requests == [("POST", "/prove?wait=30")]


class TestListenBacklog:
    def test_a_burst_of_connects_is_queued_not_dropped(self, project):
        """More clients than the stdlib's listen backlog of 5 connect
        at once.  A dropped SYN would leave a connect waiting on TCP's
        retransmit timer, and none completes while nothing accepts."""
        service = ProverService(ServerConfig(port=0), project=project)
        httpd = service.make_http_server()  # bound, not yet accepting
        host, port = httpd.server_address[:2]
        connections = []
        try:
            for _ in range(32):
                connections.append(
                    socket.create_connection((host, port), timeout=5.0)
                )
        finally:
            for connection in connections:
                connection.close()
            httpd.server_close()
            service.close(timeout=30.0)


def raw_exchange(client, request: bytes) -> bytes:
    """Send raw bytes to the server; everything it sends until EOF.

    Raises ``socket.timeout`` when the server neither answers nor
    hangs up within 5 s.
    """
    host, _, port = client.base_url.partition("://")[2].rpartition(":")
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post_with_length(length: str) -> bytes:
    return (
        f"POST /prove HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n{{}}"
    ).encode("ascii")


class TestContentLength:
    """Regression: ``rfile.read(-1)`` reads to EOF, so a negative
    Content-Length held a handler thread until the client hung up; a
    non-integer one got its 400 but left the connection open with the
    body unread, to be parsed as the next request."""

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5", ""])
    def test_bad_length_is_400_and_closes_the_connection(
        self, served, length
    ):
        _, client = served
        response = raw_exchange(client, post_with_length(length))
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close\r\n" in response

    def test_body_of_an_unrouted_post_is_consumed(self, served):
        # Two requests on one connection: the 404's body must not be
        # parsed as the start of the next request.
        _, client = served
        response = raw_exchange(
            client,
            (
                b"POST /nope HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 2\r\n\r\n{}"
                b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                b"Connection: close\r\n\r\n"
            ),
        )
        assert response.startswith(b"HTTP/1.1 404 ")
        assert b"HTTP/1.1 200 " in response
        assert b'"status": "ok"' in response


class TestPrometheusMetrics:
    def test_json_remains_the_default(self, served):
        _, client = served
        snapshot = client.metrics()
        assert "service" in snapshot and "metrics" in snapshot

    def test_format_param_negotiates_prometheus_text(self, served):
        _, client = served
        client.prove_and_wait(
            theorem="rev_involutive", model="gpt-4o", fuel=FUEL,
            timeout=60.0,
        )
        text = client.metrics_text()
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "# TYPE repro_service_uptime_seconds gauge" in text
        assert "# TYPE repro_stage_seconds_total counter" in text
        # The completed job shows up in the counter families.
        assert "repro_service_jobs_completed_total 1" in text
        # One TYPE line per family — the no-duplicate invariant.
        families = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert len(families) == len(set(families))

    def test_accept_header_negotiates_prometheus_text(self, served):
        import urllib.request

        _, client = served
        request = urllib.request.Request(
            client.base_url + "/metrics",
            headers={"Accept": "text/plain"},
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            body = response.read().decode("utf-8")
        assert body.startswith("# HELP")

    def test_explicit_json_format_wins_over_accept(self, served):
        import json as json_mod
        import urllib.request

        _, client = served
        request = urllib.request.Request(
            client.base_url + "/metrics?format=json",
            headers={"Accept": "text/plain"},
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            payload = json_mod.loads(response.read().decode("utf-8"))
        assert "service" in payload


class TestTracedJobs:
    def test_trace_path_records_each_job_as_a_span_tree(
        self, project, tmp_path
    ):
        from repro.obs.trace import load_spans

        trace_path = tmp_path / "jobs.jsonl"
        service, httpd, client = boot(project, trace_path=str(trace_path))
        try:
            status = client.prove_and_wait(
                theorem="rev_involutive", model="gpt-4o", fuel=FUEL,
                timeout=60.0,
            )
            assert status["state"] == "done"
        finally:
            shut(service, httpd, client)
        spans = load_spans(trace_path)
        names = {span["name"] for span in spans}
        assert {"job", "task", "search", "expand", "tactic"} <= names
        (job_span,) = [s for s in spans if s["name"] == "job"]
        assert job_span["parent"] is None
        assert job_span["attrs"]["theorem"] == "rev_involutive"

    def test_traced_record_matches_untraced(self, project, tmp_path):
        body = {"theorem": "rev_involutive", "model": "gpt-4o",
                "fuel": FUEL}
        def stage_calls(client):
            stages = client.metrics()["metrics"]["stages"]
            return {name: cell["calls"] for name, cell in stages.items()}

        service, httpd, client = boot(project)
        try:
            plain = client.prove_and_wait(timeout=60.0, **body)
            plain_calls = stage_calls(client)
        finally:
            shut(service, httpd, client)
        service, httpd, client = boot(
            project, trace_path=str(tmp_path / "t.jsonl")
        )
        try:
            traced = client.prove_and_wait(timeout=60.0, **body)
            traced_calls = stage_calls(client)
        finally:
            shut(service, httpd, client)
        assert traced["record"] == plain["record"]
        # The job's stages are timed whether or not it is traced.
        assert traced_calls == plain_calls
        assert plain_calls["job"] == plain_calls["task"] == 1


class TestErrorMapping:
    """Scheduler refusals map to backpressure status codes."""

    def test_queue_full_maps_to_429(self, project, monkeypatch):
        service = ProverService(ServerConfig(port=0), project=project)

        def full(task, *rest):
            raise QueueFullError("queue full")

        monkeypatch.setattr(service.scheduler, "submit", full)
        status, payload = service.submit(
            {"theorem": "rev_involutive", "model": "gpt-4o"}
        )
        assert status == 429
        service.close(timeout=10.0)

    def test_draining_maps_to_503(self, project, monkeypatch):
        service = ProverService(ServerConfig(port=0), project=project)

        def draining(task, *rest):
            raise ShuttingDownError("draining")

        monkeypatch.setattr(service.scheduler, "submit", draining)
        status, payload = service.submit(
            {"theorem": "rev_involutive", "model": "gpt-4o"}
        )
        assert status == 503
        service.close(timeout=10.0)


class TestSearchThreads:
    def test_every_search_thread_starts_at_the_first_request(self, project):
        # A burst's searches start together (see ProverService.submit).
        service = ProverService(
            ServerConfig(port=0, workers=3), project=project
        )
        try:
            assert not service.scheduler._threads
            status, _ = service.submit(
                {"theorem": "rev_involutive", "model": "gpt-4o", "fuel": 2}
            )
            assert status in (200, 202)
            assert len(service.scheduler._threads) == 3
        finally:
            service.close(timeout=10.0)


class TestDeadline:
    def test_default_deadline_yields_clean_timeout_over_http(self, project):
        service, httpd, client = boot(project, default_deadline=0.001)
        try:
            hard = max(project.theorems, key=lambda t: t.proof_tokens)
            status = client.prove_and_wait(
                theorem=hard.name,
                model="gpt-4o-mini",
                fuel=4096,
                timeout=120.0,
            )
            assert status["state"] == "done"
            assert status["record"]["status"] == "timeout"
        finally:
            shut(service, httpd, client)


class TestWarmCache:
    def test_persistent_cache_survives_a_restart(self, project, tmp_path):
        path = str(tmp_path / "service-cache.jsonl")
        body = {"theorem": "rev_involutive", "model": "gpt-4o", "fuel": FUEL}

        service, httpd, client = boot(project, cache_path=path, workers=2)
        try:
            first = client.prove_and_wait(timeout=120.0, **body)
            assert first["state"] == "done"
        finally:
            shut(service, httpd, client)

        # A fresh process-equivalent: new service, same cache file.
        warm, httpd, client = boot(project, cache_path=path, workers=2)
        try:
            replay = client.prove(**body)
            assert replay["state"] == "done"
            assert replay["cached"] is True
            assert replay["record"] == first["record"]
        finally:
            shut(warm, httpd, client)


class TestRepairKnobs:
    def test_repair_rounds_flow_through_post_prove(self, served):
        # No dedicated route: ``repair_rounds`` is an ordinary task
        # field, so it reaches the runner through task_from_json and is
        # folded into the cache key before admission.
        _, client = served
        body = {
            "theorem": "le_trans",
            "model": "gpt-4o",
            "hinted": True,
            "fuel": 64,
        }
        repaired = client.prove_and_wait(
            repair_rounds=2, timeout=120.0, **body
        )
        assert repaired["state"] == "done"
        assert repaired["record"]["status"] == "repaired"
        assert repaired["record"]["attempts"] == 2

        # Same knobs again: served from the proof cache, byte-equal.
        replay = client.prove(repair_rounds=2, **body)
        assert replay["cached"] is True
        assert replay["record"] == repaired["record"]

        # Different knobs are a different cache key, not a stale hit.
        plain = client.prove_and_wait(timeout=120.0, **body)
        assert plain["record"]["status"] == "stuck"

    def test_attempt_index_is_a_first_class_knob(self, served):
        _, client = served
        body = {
            "theorem": "rev_involutive",
            "model": "gpt-4o",
            "fuel": FUEL,
        }
        base = client.prove_and_wait(timeout=120.0, **body)
        resampled = client.prove_and_wait(attempt=1, timeout=120.0, **body)
        assert base["state"] == resampled["state"] == "done"
        assert base["task"]["attempt"] == 0
        assert resampled["task"]["attempt"] == 1
        assert base["key"] != resampled["key"]


class TestAcceptanceDifferential:
    def test_solo_batched_and_warm_records_are_identical(self, project):
        """The PR's end-to-end determinism gate: same (theorem, model,
        params, CACHE_KEY_VERSION) ⇒ same record — solo runner,
        concurrent batched service, warm-cache replay."""
        ranked = sorted(project.theorems, key=lambda t: t.proof_tokens)
        picks = [ranked[0], ranked[len(ranked) // 2], ranked[-1]]
        bodies = [
            {
                "theorem": theorem.name,
                "model": model,
                "hinted": hinted,
                "fuel": FUEL,
            }
            for theorem in picks
            for model, hinted in (("gpt-4o", False), ("gpt-4o-mini", True))
        ]

        # (a) solo reference: the evaluation runner, no service stack.
        runner = Runner(project, ExperimentConfig())
        solo = {}
        for body in bodies:
            task = TheoremTask(
                theorem=body["theorem"],
                model=body["model"],
                hinted=body["hinted"],
                fuel=body["fuel"],
            )
            solo[task.cache_key()] = runner.execute_task(task).record.to_json()

        # (b) the same cells, concurrently, through HTTP + micro-batching.
        service, httpd, client = boot(project, workers=len(bodies))
        try:
            results = [None] * len(bodies)

            def drive(index):
                results[index] = client.prove_and_wait(
                    timeout=180.0, **bodies[index]
                )

            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(len(bodies))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            for status in results:
                assert status is not None and status["state"] == "done"
                assert status["record"] == solo[status["key"]]

            # (c) warm replay: identical record, served from cache.
            replay = client.prove(**bodies[0])
            assert replay["state"] == "done" and replay["cached"] is True
            assert replay["record"] == solo[replay["key"]]

            # Micro-batching actually engaged under the concurrent load.
            batchers = client.metrics()["service"]["batchers"]
            assert sum(b["queries"] for b in batchers) > 0
        finally:
            shut(service, httpd, client)
