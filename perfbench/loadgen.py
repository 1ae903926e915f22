"""Open-loop load over persistent keep-alive HTTP/1.1 connections.

This generator belongs to the benchmark, not to the program, so a
change to the program cannot change how it is measured.  Each
connection is one plain ``http.client.HTTPConnection`` driven by one
thread through a precomputed schedule of operations, each with a due
time.  The thread sleeps until an operation is due and sends it; if the
previous response is still outstanding the operation goes out late.
Every latency is timed from the due time, so a stall also counts
against the requests queued behind it, and the lateness (send − due) is
reported on its own.  An operation that cannot be sent counts as
failed.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any

#: Seconds a request may take before the connection is dropped.
REQUEST_TIMEOUT = 10.0
#: Seconds past a phase's last due time after which unsent work is abandoned.
PHASE_GRACE = 30.0


@dataclass
class Op:
    """One scheduled request."""

    due: float  # seconds after the phase start
    kind: str  # round | create | get | delete | join | scrape
    slot: "int | None" = None  # logical cohort slot on this connection
    payload: "dict[str, Any] | None" = None


@dataclass
class Outcome:
    op: Op
    conn: int
    request_id: str
    due: float  # absolute perf_counter times from here on
    sent: "float | None" = None
    done: "float | None" = None
    status: "int | None" = None
    size: int = 0
    body: "bytes | None" = None
    error: "str | None" = None

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from due time to the end of the response."""
        return self.done - self.due  # type: ignore[operator]

    @property
    def lateness(self) -> float:
        return self.sent - self.due  # type: ignore[operator]

    @property
    def service(self) -> float:
        """Seconds from send to the end of the response."""
        return self.done - self.sent  # type: ignore[operator]


#: Response bodies the caller needs later (cohort ids, replay checks).
_KEEP_BODY = {"create", "get", "delete"}


@dataclass
class Client:
    """One keep-alive connection and the cohorts created through it."""

    host: str
    port: int
    index: int
    cohorts: dict[int, str] = field(default_factory=dict)  # slot -> cohort id
    _conn: "http.client.HTTPConnection | None" = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _request(self, op: Op) -> "tuple[str, str, bytes | None] | None":
        """Method, path and body for ``op``; ``None`` when its cohort is unknown."""
        if op.kind == "scrape":
            return "GET", "/metrics", None
        if op.kind == "join":
            return "POST", "/v1/join", json.dumps(op.payload).encode()
        if op.kind == "create":
            return "POST", "/v1/cohorts", json.dumps(op.payload).encode()
        cohort = self.cohorts.get(op.slot)  # type: ignore[arg-type]
        if cohort is None:
            return None
        if op.kind == "round":
            return "POST", f"/v1/cohorts/{cohort}/rounds", b'{"rounds": 1}'
        if op.kind == "get":
            return "GET", f"/v1/cohorts/{cohort}", None
        if op.kind == "delete":
            return "DELETE", f"/v1/cohorts/{cohort}", None
        raise ValueError(f"unknown operation kind {op.kind!r}")

    def _send(self, outcome: Outcome) -> None:
        op = outcome.op
        request = self._request(op)
        if request is None:
            outcome.error = "unsent: cohort was never created"
            return
        method, path, body = request
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn = self._connection()
        outcome.sent = time.perf_counter()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            outcome.done = time.perf_counter()
            outcome.error = repr(error)
            self.close()
            return
        outcome.done = time.perf_counter()
        outcome.status = response.status
        outcome.size = len(data)
        if op.kind in _KEEP_BODY:
            outcome.body = data
        if op.kind == "create" and response.status == 201:
            self.cohorts[op.slot] = json.loads(data)["cohort"]  # type: ignore[index]
        elif op.kind == "delete" and response.status == 200:
            self.cohorts.pop(op.slot, None)  # type: ignore[arg-type]

    def drive(self, ops: "list[Op]", start: float, outcomes: "list[Outcome]", tracer=None) -> None:
        """Send ``ops`` at ``start + op.due``; append one outcome per op."""
        abandon_at = start + (ops[-1].due if ops else 0.0) + PHASE_GRACE
        for number, op in enumerate(ops):
            outcome = Outcome(op, self.index, f"c{self.index}-{number}", start + op.due)
            outcomes.append(outcome)
            now = time.perf_counter()
            if now > abandon_at:
                outcome.error = "unsent: phase overran its grace period"
                continue
            if outcome.due > now:
                time.sleep(outcome.due - now)
            self._send(outcome)
            if tracer is not None and outcome.done is not None:
                root = tracer.record(
                    f"client.{op.kind}", outcome.due, outcome.done, request_id=outcome.request_id
                )
                tracer.record("loadgen.lateness", outcome.due, outcome.sent, parent=root,
                              request_id=outcome.request_id)
                tracer.record("client.http", outcome.sent, outcome.done, parent=root,
                              request_id=outcome.request_id)


def run_phase(clients: "list[Client]", schedules: "list[list[Op]]", tracer=None) -> list[Outcome]:
    """Drive every client's schedule concurrently, one thread per connection."""
    start = time.perf_counter() + 0.05
    per_client: list[list[Outcome]] = [[] for _ in clients]
    threads = [
        threading.Thread(
            target=client.drive, args=(ops, start, outcomes, tracer), name=f"loadgen-{i}"
        )
        for i, (client, ops, outcomes) in enumerate(zip(clients, schedules, per_client))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for outcomes in per_client for outcome in outcomes]
