"""Clients for the grouping service: in-process and over-the-wire.

Both clients expose the same operations with the same payloads and
raise the same typed :mod:`repro.serve.errors` exceptions, so tests and
benchmarks can swap transports freely:

* :class:`InProcessClient` calls a :class:`~repro.serve.service.GroupingService`
  directly — zero serialization, ideal for closed-loop benchmarks that
  should measure the service and not the socket;
* :class:`HttpClient` speaks the JSON API over persistent
  :mod:`http.client` connections (stdlib only) and rebuilds typed
  errors from the structured envelope.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Mapping, Sequence
from urllib.parse import urlsplit

from repro.analysis import sanitizer as _sanitize
from repro.serve.errors import ServeError, error_from_envelope
from repro.serve.service import GroupingService

__all__ = ["InProcessClient", "HttpClient"]


def _cohort_payload(
    skills: Sequence[float],
    k: int,
    *,
    mode: str = "star",
    rate: float = 0.5,
    policy: str = "dygroups",
    seed: int = 0,
    record_history: bool = False,
) -> dict[str, Any]:
    return {
        "skills": [float(s) for s in skills],
        "k": k,
        "mode": mode,
        "rate": rate,
        "policy": policy,
        "seed": seed,
        "record_history": record_history,
    }


def _join_payload(
    skill: float, *, participant: "str | None", spec: "str | None"
) -> dict[str, Any]:
    payload: dict[str, Any] = {"skill": float(skill)}
    if participant is not None:
        payload["participant"] = participant
    if spec is not None:
        payload["spec"] = spec
    return payload


class InProcessClient:
    """Client facade over a live :class:`GroupingService` in this process."""

    def __init__(self, service: GroupingService) -> None:
        self.service = service

    def create_cohort(
        self,
        skills: Sequence[float],
        k: int,
        *,
        mode: str = "star",
        rate: float = 0.5,
        policy: str = "dygroups",
        seed: int = 0,
        record_history: bool = False,
    ) -> dict[str, Any]:
        """Create a cohort; returns its summary (including the new id)."""
        return self.service.create_cohort(
            _cohort_payload(
                skills,
                k,
                mode=mode,
                rate=rate,
                policy=policy,
                seed=seed,
                record_history=record_history,
            )
        )

    def advance_rounds(self, cohort_id: str, rounds: int = 1) -> dict[str, Any]:
        """Advance ``rounds`` rounds; returns the played records."""
        return self.service.advance_rounds(cohort_id, rounds)

    def get_cohort(self, cohort_id: str) -> dict[str, Any]:
        """Inspect a cohort and its trajectory."""
        return self.service.get_cohort(cohort_id, include_history=True)

    def delete_cohort(self, cohort_id: str) -> dict[str, Any]:
        """Remove a cohort; returns its final summary."""
        return self.service.delete_cohort(cohort_id)

    def join(
        self,
        skill: float,
        *,
        participant: "str | None" = None,
        spec: "str | None" = None,
    ) -> dict[str, Any]:
        """Join the matchmaking queue; returns the participant payload."""
        return self.service.join(_join_payload(skill, participant=participant, spec=spec))

    def participant_status(self, participant_id: str) -> dict[str, Any]:
        """Status of a queued participant (waiting/matched/expired/left)."""
        return self.service.participant_status(participant_id)

    def leave_queue(self, participant_id: str) -> dict[str, Any]:
        """Withdraw a waiting participant; idempotent on resolved ones."""
        return self.service.leave_queue(participant_id)

    def matchmaking(self) -> dict[str, Any]:
        """Matchmaking snapshot: queue depths, specs, condensed cohorts."""
        return self.service.matchmaking_snapshot()

    def healthz(self) -> dict[str, Any]:
        """Service liveness payload."""
        return self.service.healthz()

    def metrics(self) -> dict[str, Any]:
        """Metrics-registry snapshot."""
        return self.service.metrics_snapshot()


class HttpClient:
    """Keep-alive HTTP client for a running grouping server.

    Each calling thread holds one persistent
    :class:`http.client.HTTPConnection` (the scenario load generator
    shares one client across its sender threads).  A connection error
    closes that thread's connection and raises :class:`ServeError`; the
    next call reconnects.  Nothing is retried automatically: a retried
    ``POST …/rounds`` could advance a cohort twice.  :meth:`close` (or
    leaving a ``with`` block) closes every thread's connection.

    Args:
        base_url: server root, e.g. ``"http://127.0.0.1:8750"``.
        timeout: per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"base_url must be an http(s):// URL, got {base_url!r}")
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._host, self._port, self._root = parts.hostname, parts.port, parts.path
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._connections_lock = _sanitize.lock("serve.client.connections")

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(self._host, self._port, timeout=self.timeout)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def _request(
        self, method: str, path: str, payload: "Mapping[str, Any] | None" = None
    ) -> dict[str, Any]:
        body = None if payload is None else json.dumps(payload).encode()
        connection = self._connection()
        try:
            connection.request(
                method, self._root + path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            # A closed HTTPConnection reopens itself on its next request.
            connection.close()
            raise ServeError(f"cannot reach grouping server at {self.base_url}: {error}") from None
        if not 200 <= response.status < 300:
            try:
                envelope = json.loads(raw)
            except ValueError:
                envelope = None
            raise error_from_envelope(envelope, status=response.status)
        return json.loads(raw)

    def close(self) -> None:
        """Close every thread's connection (a later call reconnects)."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def create_cohort(
        self,
        skills: Sequence[float],
        k: int,
        *,
        mode: str = "star",
        rate: float = 0.5,
        policy: str = "dygroups",
        seed: int = 0,
        record_history: bool = False,
    ) -> dict[str, Any]:
        """Create a cohort; returns its summary (including the new id)."""
        return self._request(
            "POST",
            "/v1/cohorts",
            _cohort_payload(
                skills,
                k,
                mode=mode,
                rate=rate,
                policy=policy,
                seed=seed,
                record_history=record_history,
            ),
        )

    def advance_rounds(self, cohort_id: str, rounds: int = 1) -> dict[str, Any]:
        """Advance ``rounds`` rounds; returns the played records."""
        return self._request("POST", f"/v1/cohorts/{cohort_id}/rounds", {"rounds": rounds})

    def get_cohort(self, cohort_id: str) -> dict[str, Any]:
        """Inspect a cohort and its trajectory."""
        return self._request("GET", f"/v1/cohorts/{cohort_id}")

    def delete_cohort(self, cohort_id: str) -> dict[str, Any]:
        """Remove a cohort; returns its final summary."""
        return self._request("DELETE", f"/v1/cohorts/{cohort_id}")

    def join(
        self,
        skill: float,
        *,
        participant: "str | None" = None,
        spec: "str | None" = None,
    ) -> dict[str, Any]:
        """Join the matchmaking queue; returns the participant payload."""
        return self._request(
            "POST", "/v1/join", _join_payload(skill, participant=participant, spec=spec)
        )

    def participant_status(self, participant_id: str) -> dict[str, Any]:
        """Status of a queued participant (waiting/matched/expired/left)."""
        return self._request("GET", f"/v1/participants/{participant_id}")

    def leave_queue(self, participant_id: str) -> dict[str, Any]:
        """Withdraw a waiting participant; idempotent on resolved ones."""
        return self._request("DELETE", f"/v1/participants/{participant_id}")

    def matchmaking(self) -> dict[str, Any]:
        """Matchmaking snapshot: queue depths, specs, condensed cohorts."""
        return self._request("GET", "/v1/matchmaking")

    def healthz(self) -> dict[str, Any]:
        """Server liveness payload."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        """Metrics-registry snapshot from the server process."""
        return self._request("GET", "/metrics")
