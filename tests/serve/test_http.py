"""Integration tests for the HTTP front-end, over a real ephemeral socket."""

from __future__ import annotations

import http.client
import json
import logging
import socket
import socketserver
import sys
import threading
import urllib.request
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.registry import make_policy
from repro.core.simulation import simulate
from repro.obs import runtime
from repro.serve import (
    CohortNotFound,
    GroupingService,
    HttpClient,
    InvalidRequest,
    ServeConfig,
    ServeError,
    SessionExpired,
    start_server,
)
from repro.serve.http import _Handler


@pytest.fixture
def server():
    service = GroupingService(ServeConfig(workers=2))
    http_server = start_server(service, port=0)
    yield http_server
    http_server.close()


@pytest.fixture
def client(server):
    with HttpClient(server.url, timeout=30.0) as http_client:
        yield http_client


def _connect(server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port, timeout=30.0)


def _call(connection, method, path, payload=None):
    """One request on a kept-alive connection: ``(status, headers, body)``."""
    body = None if payload is None else json.dumps(payload).encode()
    connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.headers, response.read()


class TestEndToEnd:
    def test_server_trajectory_bit_identical_to_offline(self, client):
        """Acceptance: n=120, k=10, star, alpha=8 over real HTTP == simulate()."""
        skills = np.random.default_rng(42).uniform(1.0, 10.0, size=120)
        info = client.create_cohort(skills.tolist(), 10, mode="star", rate=0.5, seed=7)
        result = client.advance_rounds(info["cohort"], 8)
        final = np.array(client.get_cohort(info["cohort"])["skills"])

        reference = simulate(
            make_policy("dygroups", mode="star", rate=0.5),
            skills, k=10, alpha=8, mode="star", rate=0.5, seed=7,
        )
        assert result["rounds"] == 8
        assert np.array_equal(final, reference.final_skills)
        assert result["total_gain"] == float(np.sum(reference.round_gains))
        assert [r["gain"] for r in result["played"]] == [float(g) for g in reference.round_gains]

    def test_clique_cohort_round_trip(self, client):
        skills = list(np.random.default_rng(8).uniform(1.0, 9.0, size=12))
        info = client.create_cohort(skills, 4, mode="clique", seed=2)
        result = client.advance_rounds(info["cohort"], 3)
        assert result["rounds"] == 3
        assert client.delete_cohort(info["cohort"])["rounds"] == 3

    def test_history_round_trips_when_recorded(self, client):
        skills = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        info = client.create_cohort(skills, 2, record_history=True)
        client.advance_rounds(info["cohort"], 2)
        payload = client.get_cohort(info["cohort"])
        assert len(payload["skill_history"]) == 3
        assert payload["skill_history"][0] == skills


class TestOperationalEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert "cache" not in health

    def test_metrics_exposes_http_counters(self, client):
        skills = [1.0, 2.0, 3.0, 4.0]
        info = client.create_cohort(skills, 2)
        client.advance_rounds(info["cohort"], 2)
        client.advance_rounds(info["cohort"], 1)
        snapshot = client.metrics()
        counters = snapshot["counters"]
        assert counters["serve.http.requests"]["value"] >= 3
        assert counters["serve.rounds.advanced"]["value"] == 3
        assert not any(name.startswith("serve.cache.") for name in counters)
        assert snapshot["timers"]["serve.http.request_seconds"]["count"] >= 3

    def test_metrics_exposes_gauges(self, client):
        info = client.create_cohort([1.0, 2.0, 3.0, 4.0], 2)
        client.advance_rounds(info["cohort"], 1)
        snapshot = client.metrics()
        gauges = snapshot["gauges"]
        assert gauges["serve.sessions.active"]["value"] == 1
        # A lone round step never touches the queue: the adaptive
        # scheduler answers it through the inline kernel fall-through.
        assert gauges["serve.scheduler.queue_depth"]["value"] == 0
        counters = snapshot["counters"]
        assert counters["serve.scheduler.step_inline_fallthrough"]["value"] >= 1

    def test_metrics_prometheus_format(self, server, client):
        info = client.create_cohort([1.0, 2.0, 3.0, 4.0], 2)
        client.advance_rounds(info["cohort"], 1)
        with urllib.request.urlopen(server.url + "/metrics?format=prometheus") as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        lines = text.splitlines()
        assert "# TYPE repro_serve_http_requests counter" in lines
        assert "# TYPE repro_serve_sessions_active gauge" in lines
        assert "# TYPE repro_serve_http_request_seconds summary" in lines
        assert any(
            line.startswith('repro_serve_http_request_seconds{quantile="0.99"}')
            for line in lines
        )

    def test_metrics_unknown_format_is_400(self, server):
        with pytest.raises(urllib.request.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/metrics?format=xml")
        assert excinfo.value.code == 400

    def test_request_histogram_retention_is_bounded(self, client):
        """Regression: a long-lived server must not retain unbounded
        per-request latency samples."""
        from repro.obs import runtime
        from repro.serve.config import REQUEST_HISTOGRAM_KEEP

        client.healthz()
        timer = runtime.metrics_registry().timer("serve.http.request_seconds")
        assert timer.keep == REQUEST_HISTOGRAM_KEEP


class TestErrorEnvelopes:
    def test_unknown_cohort_is_typed_404(self, client):
        with pytest.raises(CohortNotFound) as excinfo:
            client.get_cohort("c999999")
        assert excinfo.value.status == 404

    def test_validation_error_is_typed_400(self, client):
        with pytest.raises(InvalidRequest):
            client.create_cohort([1.0, 2.0, 3.0], 2)  # 3 % 2 != 0

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/cohorts",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read())
        assert envelope["error"]["code"] == "invalid_request"

    def test_unroutable_path_is_404_envelope(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/v2/nothing", timeout=10.0)
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, server, client):
        # POST on the cohort resource itself (not .../rounds) is not a route.
        info = client.create_cohort([1.0, 2.0], 1)
        request = urllib.request.Request(
            f"{server.url}/v1/cohorts/{info['cohort']}", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 405
        assert json.loads(excinfo.value.read())["error"]["code"] == "method_not_allowed"

    def test_expired_session_is_410_over_http(self):
        clock_box = {"now": 0.0}
        service = GroupingService(
            ServeConfig(workers=0, session_ttl=5.0), clock=lambda: clock_box["now"]
        )
        server = start_server(service, port=0)
        try:
            with HttpClient(server.url) as client:
                info = client.create_cohort([1.0, 2.0], 1)
                clock_box["now"] = 6.0
                with pytest.raises(SessionExpired) as excinfo:
                    client.get_cohort(info["cohort"])
            assert excinfo.value.status == 410
        finally:
            server.close()


class TestShutdown:
    def test_close_stops_accepting(self, server, client):
        client.healthz()
        server.close()
        with pytest.raises(ServeError), HttpClient(server.url, timeout=2.0) as fresh:
            fresh.healthz()


class TestResponseWrites:
    """Each response leaves in one write on a TCP_NODELAY socket.

    Two writes (headers, then body) let the client's delayed ACK of the
    first segment hold the second back under Nagle, ~40 ms per
    keep-alive response.  These checks count writes, never time them.
    """

    def test_every_response_is_one_sendall_on_a_nodelay_socket(self, server, monkeypatch):
        writes: list[tuple[bytes, int]] = []
        original = socketserver._SocketWriter.write

        def counting_write(writer, data):
            nodelay = writer._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            writes.append((bytes(data), nodelay))
            return original(writer, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", counting_write)
        requests = [
            ("GET", "/healthz", None, 200),
            ("POST", "/v1/cohorts", {"skills": [4.0, 3.0, 2.0, 1.0], "k": 2}, 201),
            ("GET", "/metrics", None, 200),
            ("GET", "/metrics?format=prometheus", None, 200),
            ("GET", "/metrics?format=xml", None, 400),
            ("GET", "/v2/nothing", None, 404),
        ]
        connection = _connect(server)
        try:
            bodies = []
            for method, path, payload, expected in requests:
                status, _, body = _call(connection, method, path, payload)
                assert status == expected, (path, status)
                bodies.append(body)
        finally:
            connection.close()
        assert len(writes) == len(requests)
        for (data, nodelay), body in zip(writes, bodies):
            assert data.startswith(b"HTTP/1.1 ") and data.endswith(b"\r\n\r\n" + body)
            assert nodelay
        assert b"text/plain" in writes[3][0]

    def test_http09_request_gets_the_bare_body(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30.0) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        assert json.loads(data)["status"] == "ok"

    def test_one_keepalive_connection_carries_round_steps_and_history(self, server):
        skills = np.random.default_rng(42).uniform(1.0, 10.0, size=120)
        connection = _connect(server)
        try:
            status, _, body = _call(
                connection,
                "POST",
                "/v1/cohorts",
                {"skills": skills.tolist(), "k": 10, "seed": 7, "record_history": True},
            )
            assert status == 201
            cohort = json.loads(body)["cohort"]
            sock = connection.sock
            for _ in range(20):
                status, headers, _ = _call(
                    connection, "POST", f"/v1/cohorts/{cohort}/rounds", {"rounds": 1}
                )
                assert status == 200
                assert headers.get("Connection", "").lower() != "close"
                assert connection.sock is sock
            status, _, body = _call(connection, "GET", f"/v1/cohorts/{cohort}")
            assert status == 200 and connection.sock is sock
        finally:
            connection.close()
        payload = json.loads(body)
        assert payload["rounds"] == 20 and len(payload["skill_history"]) == 21
        reference = simulate(
            make_policy("dygroups", mode="star", rate=0.5),
            skills, k=10, alpha=20, mode="star", rate=0.5, seed=7,
        )
        assert np.array_equal(np.array(payload["skills"]), reference.final_skills)


class _DeadSocketWriter:
    """A ``wfile`` whose peer is gone: every write raises."""

    def __init__(self) -> None:
        self.writes = 0

    def write(self, data):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")


class TestClientAborts:
    def test_abort_mid_response_is_counted_not_answered_again(self, caplog):
        service = GroupingService(ServeConfig(workers=0))
        handler = _Handler.__new__(_Handler)
        handler.server = SimpleNamespace(service=service)
        handler.client_address = ("127.0.0.1", 0)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "GET /healthz HTTP/1.1"
        handler.command, handler.path = "GET", "/healthz"
        handler.close_connection = False
        handler.wfile = _DeadSocketWriter()
        registry = runtime.metrics_registry()
        aborts = registry.counter("serve.http.client_aborts").value
        errors = registry.counter("serve.http.status.5xx").value
        try:
            with caplog.at_level(logging.DEBUG, logger="repro.serve.http"):
                handler._handle("GET")
        finally:
            service.close()
        assert handler.wfile.writes == 1
        assert handler.close_connection is True
        assert registry.counter("serve.http.client_aborts").value == aborts + 1
        assert registry.counter("serve.http.status.5xx").value == errors
        assert not [record for record in caplog.records if record.levelno >= logging.ERROR]


class TestKeepAliveClient:
    def test_calls_share_one_connection_until_closed(self, client):
        client.healthz()
        connection = client._local.connection
        sock = connection.sock
        for _ in range(5):
            client.healthz()
        assert client._local.connection is connection and connection.sock is sock
        client.close()
        assert connection.sock is None
        assert client.healthz()["status"] == "ok"  # a closed connection reopens

    def test_threads_sharing_one_client_each_get_a_connection(self, client):
        errors: list[Exception] = []

        def hammer():
            try:
                for _ in range(10):
                    client.healthz()
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len({id(connection) for connection in client._connections}) == 8

    def test_connection_error_is_typed_and_next_call_reconnects(self, client, monkeypatch):
        client.healthz()
        connection = client._local.connection
        sock = connection.sock

        def reset():
            raise ConnectionResetError(104, "Connection reset by peer")

        monkeypatch.setattr(connection, "getresponse", reset)
        with pytest.raises(ServeError, match="cannot reach"):
            client.healthz()
        monkeypatch.undo()
        assert connection.sock is None
        assert client.healthz()["status"] == "ok"
        assert connection.sock is not None and connection.sock is not sock

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError, match="http"):
            HttpClient("127.0.0.1:8750")
