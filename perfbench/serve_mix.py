"""Workload ``serve-mix``: the HTTP grouping service under an open-loop mix.

A ``dygroups serve --matchmaking`` subprocess (default ``ServeConfig``
otherwise) takes an open-loop load over two keep-alive HTTP/1.1
connections, on a seeded Poisson schedule computed before the phase
starts.  The requests follow cohort lifecycles: a create (n ∈ {60, 120,
600}, Star or Clique), five one-round steps (``POST …/rounds``), a
``GET`` with history and a ``DELETE``; beside them ``POST /v1/join``
(default spec, n=30 k=5) and a 1/s ``GET /metrics`` scrape.  An
ascending ladder 10·2ⁱ req/s up to 640 req/s stops at the first rate
whose round-step p95 exceeds 100 ms or whose generator lateness grows;
``max_rps`` is the highest rate that also kept errors ≤ 1%.  Its 20 req/s
step is the long reference phase that the latency figures come from.

This path is network- and lock-bound, with writes (create, join,
delete) beside reads (rounds, get, scrape); kernels at n ≤ 600 are a
small share of it.  It is the only workload that exercises
``repro.serve``, ``repro.matchmaking`` and ``/metrics``.
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request

import numpy as np

from perfbench import loadgen
from perfbench.report import OUT_DIR, ROOT, Run

CONNECTIONS = 2
REFERENCE_RATE = 20.0
LADDER = tuple(10.0 * 2**i for i in range(7))  # 10 … 640 req/s
#: Shares of the run length: the reference phase, and each other ladder
#: step.  The reference phase is also the ladder's 20 req/s step, so the
#: step that decides the ladder on this host has hundreds of samples.
REFERENCE_SHARE = 1.0
STEP_SHARE = 0.15
LIMIT_P95_MS = 100.0
LIMIT_ERROR_RATE = 0.01
#: Lateness "grows" when the last quarter of a step runs this much later
#: than the first quarter, on average.
LATENESS_GROWTH_MS = 50.0
SETUP_REPEATS = 9
SCRAPE_PERIOD = 1.0
#: Seconds a server may take to exit after SIGTERM before it is killed.
STOP_GRACE = 10.0
#: Seeds the request structure of every phase: arrival times, kinds,
#: cohort sizes and targets.  Round latency on a keep-alive connection
#: is bimodal here (about 3 ms, or about 44 ms when the server's second
#: write waits for a delayed ACK), and which mode a request lands in
#: depends on the gaps and requests before it.  A fresh structure per
#: workload seed moved mean round latency and p95 by ±15% between seeds;
#: a fixed one by about ±5%.  The workload seed still draws the data.
TRACE_SEED = 20211017

#: The request mix follows a cohort's life: it is created, plays ALPHA
#: one-round steps, is read once with its history, and is deleted.
#: ALPHA = 5 is the paper's default α (``base_spec`` in
#: ``repro.experiments.figures``) and the rounds per cohort of the
#: ``fig05b-rate`` scenario in ``repro.scenarios.spec.CATALOG``.
ALPHA = 5
LIFECYCLE = ("create",) + ("round",) * ALPHA + ("get", "delete")
#: Cohorts each connection keeps in their lifecycle at once:
#: ``fig05b-rate``'s 8 cohorts, split over the two connections.
LIVE_PER_CONNECTION = 4
#: Share of requests that are ``POST /v1/join``: one join per cohort
#: lifecycle.  This share is a choice of this benchmark; nothing in the
#: repository fixes how joins and direct creates mix.
JOIN_SHARE = 1 / (len(LIFECYCLE) + 1)
#: Created cohorts: (n, k).  n=60 k=5 and n=120 k=10 are the catalog's
#: ``saturation-probe`` and ``fig05b-rate`` populations; n=600 takes
#: k=50 to keep their group size of 12.  The seed draws each size, and
#: Star or Clique.
SIZES = ((60, 5), (120, 10), (600, 50))
MODES = ("star", "clique")
RATE = 0.5


# -- server lifecycle -------------------------------------------------------


class Server:
    """One ``dygroups serve --matchmaking`` subprocess on an ephemeral port."""

    def __init__(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT_DIR / "serve-mix.server.log", "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--matchmaking"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port = 0
        self.max_rss_kib = 0

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``/healthz`` first answers 200."""
        line = self.proc.stdout.readline().decode()
        found = re.search(r"127\.0\.0\.1:(\d+)", line)
        if found is None:
            raise RuntimeError(f"server did not report its port: {line!r}")
        self.port = int(found.group(1))
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{self.port}/healthz", timeout=5
                ) as response:
                    response.read()
                    if response.status == 200:
                        return time.perf_counter() - self.started
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def stop(self) -> bool:
        """SIGTERM, reap, and keep the child's peak RSS from its rusage.

        A server still running STOP_GRACE seconds after SIGTERM is killed;
        returns whether it stopped on its own.
        """
        graceful = True
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + STOP_GRACE
            try:
                while True:
                    pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > deadline:
                        graceful = False
                        self.proc.kill()
                        pid, status, usage = os.wait4(self.proc.pid, 0)
                        break
                    time.sleep(0.01)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.max_rss_kib = usage.ru_maxrss
            finally:
                self.proc.stdout.close()
        self._log.close()
        return graceful


def _start_servers() -> "tuple[Server, list[float]]":
    """Spawn SETUP_REPEATS servers in turn; keep the last one running."""
    setups = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = Server()
        try:
            setups.append(server.wait_healthy())
        except RuntimeError:
            server.stop()
            raise
    return server, setups  # type: ignore[return-value]


# -- schedules ---------------------------------------------------------------


class Plan:
    """Seeded generator of each connection's operations, cohort by cohort.

    Each connection keeps LIVE_PER_CONNECTION cohorts in their lifecycle
    (create, ALPHA rounds, get, delete).  A request is a join with
    probability JOIN_SHARE; otherwise it is the next step of one of the
    connection's cohorts, and a finished cohort is replaced by a new
    create.  Cohorts belong to one connection, so one connection's
    requests never race another's.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: per connection: [slot, index of its next LIFECYCLE step]
        self.live: list[list[list[int]]] = [[] for _ in range(CONNECTIONS)]
        self.next_slot = [0] * CONNECTIONS
        #: (connection, slot) -> the create payload (initial skills, k, mode, seed)
        self.cohorts: dict[tuple[int, int], dict] = {}
        self._phase = 0

    def _create(self, conn: int, rng: np.random.Generator, trace: np.random.Generator) -> loadgen.Op:
        slot = self.next_slot[conn]
        self.next_slot[conn] += 1
        self.live[conn].append([slot, 1])
        n, k = SIZES[int(trace.integers(len(SIZES)))]
        payload = {
            "skills": [float(s) for s in rng.lognormal(np.e, np.sqrt(np.e), n)],
            "k": k,
            "mode": MODES[int(rng.integers(len(MODES)))],
            "rate": RATE,
            "seed": int(rng.integers(2**31)),
            "record_history": True,
        }
        self.cohorts[(conn, slot)] = payload
        return loadgen.Op(0.0, "create", slot, payload)

    def _next(self, conn: int, rng: np.random.Generator, trace: np.random.Generator) -> loadgen.Op:
        if trace.random() < JOIN_SHARE:
            skill = float(rng.lognormal(np.e, np.sqrt(np.e)))
            return loadgen.Op(0.0, "join", None, {"skill": skill})
        live = self.live[conn]
        if len(live) < LIVE_PER_CONNECTION:
            return self._create(conn, rng, trace)
        index = int(trace.integers(len(live)))
        slot, step = live[index]
        if step + 1 == len(LIFECYCLE):
            live.pop(index)
        else:
            live[index][1] = step + 1
        return loadgen.Op(0.0, LIFECYCLE[step], slot)

    def initial(self) -> "list[list[loadgen.Op]]":
        rng = np.random.default_rng([self.seed, 0])
        trace = np.random.default_rng([TRACE_SEED, 0])
        return [
            [self._create(c, rng, trace) for _ in range(LIVE_PER_CONNECTION)]
            for c in range(CONNECTIONS)
        ]

    def phase(self, rate: float, seconds: float) -> "list[list[loadgen.Op]]":
        """A Poisson schedule at ``rate`` req/s in total, split over the connections.

        Each connection gets ``rate·seconds/CONNECTIONS`` arrivals whose
        exponential gaps are rescaled so the last lands at ``seconds``
        (a Poisson process conditioned on its arrival count), so every
        phase has a fixed request count and length.  The request
        structure (arrival times, joins, cohort sizes, which cohort takes
        its next step) comes from TRACE_SEED; the workload seed draws the
        data (skills, modes, cohort seeds, join skills).
        """
        self._phase += 1
        rng = np.random.default_rng([self.seed, self._phase])
        trace = np.random.default_rng([TRACE_SEED, round(rate), round(seconds * 1000)])
        schedules = []
        for conn in range(CONNECTIONS):
            count = max(1, round(rate * seconds / CONNECTIONS))
            gaps = trace.exponential(1.0, count)
            ops = []
            for due in np.cumsum(gaps) * (seconds / gaps.sum()):
                op = self._next(conn, rng, trace)
                op.due = float(due)
                ops.append(op)
            if conn == 0:
                scrapes = np.arange(SCRAPE_PERIOD / 2, seconds, SCRAPE_PERIOD)
                ops.extend(loadgen.Op(float(t), "scrape") for t in scrapes)
                ops.sort(key=lambda op: op.due)
            schedules.append(ops)
        return schedules


# -- analysis ---------------------------------------------------------------


def _count(run: Run, outcomes: "list[loadgen.Outcome]") -> None:
    for outcome in outcomes:
        run.attempt(outcome.ok, f"{outcome.op.kind} {outcome.status} {outcome.error or ''}")


def _latencies_ms(outcomes, kind: str) -> list[float]:
    return [o.latency * 1e3 for o in outcomes if o.op.kind == kind and o.ok]


def _figures(outcomes: "list[loadgen.Outcome]") -> "dict[str, float]":
    """Round p95, error rate and lateness growth of one ladder step."""
    rounds = _latencies_ms(outcomes, "round")
    sent = sorted((o for o in outcomes if o.sent is not None), key=lambda o: o.due)
    quarter = max(1, len(sent) // 4)
    early = statistics.mean(o.lateness for o in sent[:quarter])
    late = statistics.mean(o.lateness for o in sent[-quarter:])
    return {
        "p95_ms": float(np.percentile(rounds, 95)) if rounds else float("inf"),
        "error_rate": sum(not o.ok for o in outcomes) / len(outcomes),
        "lateness_growth_ms": 1e3 * (late - early),
    }


def _saturated(figures: "dict[str, float]") -> bool:
    """Round p95 over the limit, or the generator falling behind: the ladder stops."""
    return figures["p95_ms"] > LIMIT_P95_MS or figures["lateness_growth_ms"] > LATENESS_GROWTH_MS


def _within_limit(figures: "dict[str, float]") -> bool:
    return not _saturated(figures) and figures["error_rate"] <= LIMIT_ERROR_RATE


def _achieved_rate(outcomes: "list[loadgen.Outcome]") -> float:
    """Successful requests per second, from the phase start to the last response."""
    done = [o for o in outcomes if o.ok]
    start = outcomes[0].due - outcomes[0].op.due
    return len(done) / (max(o.done for o in done) - start)


def _capacity(steps: "list[tuple[float, dict, float]]") -> float:
    """Request rate at which round p95 reaches LIMIT_P95_MS, from the ladder.

    ``steps`` are ``(rate, figures, achieved)`` in ladder order, ending
    at the step that stopped the ladder.  Between the last rate under the
    p95 limit and the first over it, p95 is interpolated linearly against
    log2(rate), so the figure moves smoothly where the ladder rate would
    jump by 2×.  If the ladder ran out, or stopped because the generator
    fell behind, it is the last step's achieved throughput.  Failed
    requests do not enter it: they count in ``failed``.
    """
    rate, figures, achieved = steps[-1]
    p95 = figures["p95_ms"]
    if p95 <= LIMIT_P95_MS:
        return achieved
    if len(steps) == 1:
        return rate * LIMIT_P95_MS / p95
    low_rate, low_figures, _ = steps[-2]
    low_p95 = low_figures["p95_ms"]
    return low_rate * 2 ** ((LIMIT_P95_MS - low_p95) / (p95 - low_p95))


def _metrics(port: int) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=30) as response:
        return json.loads(response.read())


def _delta(before: dict, after: dict, group: str, name: str, field: str = "value") -> float:
    old = before.get(group, {}).get(name, {}).get(field, 0) or 0
    new = after.get(group, {}).get(name, {}).get(field, 0) or 0
    return float(new) - float(old)


def _mean_delta(before: dict, after: dict, group: str, name: str) -> float:
    count = _delta(before, after, group, name, "count")
    return _delta(before, after, group, name, "total") / count if count else 0.0


# -- correctness --------------------------------------------------------------


class Replayer:
    """Offline ``simulate`` trajectories, one per cohort, grown on demand."""

    def __init__(self) -> None:
        self._cache: dict[tuple, object] = {}

    def trajectory(self, key: tuple, payload: dict, rounds: int):
        from repro.core.simulation import simulate
        from repro.registry import build_policy

        cached = self._cache.get(key)
        if cached is None or cached.alpha < rounds:  # type: ignore[attr-defined]
            mode = payload["mode"]
            cached = simulate(
                build_policy(payload.get("policy", "dygroups"), mode=mode, rate=payload["rate"]),
                np.asarray(payload["skills"], dtype=np.float64),
                k=payload["k"], alpha=max(rounds, 1), mode=mode, rate=payload["rate"],
                seed=payload["seed"], record_groupings=False, record_history=True,
            )
            self._cache[key] = cached
        return cached

    def check(self, key: tuple, payload: dict, described: dict) -> bool:
        """A served cohort description equals the offline trajectory, bit for bit."""
        rounds = int(described["rounds"])
        if rounds == 0:
            return described["skills"] == payload["skills"]
        offline = self.trajectory(key, payload, rounds)
        history = offline.skill_history[: rounds + 1].tolist()  # type: ignore[attr-defined]
        same = (
            described["round_gains"] == offline.round_gains[:rounds].tolist()  # type: ignore[attr-defined]
            and described["skills"] == history[rounds]
        )
        if "skill_history" in described:
            same = same and described["skill_history"] == history
        return same


def _gate(plan: Plan, clients, outcomes: "list[loadgen.Outcome]", server: Server, run: Run) -> None:
    """Every cohort's served trajectory replays bit-equal through ``simulate``."""
    replay = Replayer()
    for outcome in outcomes:
        if outcome.op.kind in ("get", "delete") and outcome.ok:
            key = (outcome.conn, outcome.op.slot)
            described = json.loads(outcome.body)  # type: ignore[arg-type]
            run.check(
                replay.check(key, plan.cohorts[key], described),
                f"cohort {described.get('cohort')} ({outcome.op.kind}) does not replay offline",
            )
    final = [
        [loadgen.Op(0.0, "get", slot) for slot in sorted(client.cohorts)] for client in clients
    ]
    for outcome in loadgen.run_phase(clients, final):
        run.attempt(outcome.ok, f"final get {outcome.status}")
        if outcome.ok:
            key = (outcome.conn, outcome.op.slot)
            described = json.loads(outcome.body)  # type: ignore[arg-type]
            run.check(
                replay.check(key, plan.cohorts[key], described),
                f"cohort {described.get('cohort')} (final get) does not replay offline",
            )
    _check_matchmaking(outcomes, server, replay, run)


def _check_matchmaking(outcomes, server: Server, replay: Replayer, run: Run) -> None:
    """Joins are conserved, and condensed cohorts replay offline after a round."""
    joins = sum(1 for o in outcomes if o.op.kind == "join" and o.ok)
    counters = _metrics(server.port).get("counters", {})
    value = {name: counters.get(f"matchmaking.{name}", {}).get("value", 0)
             for name in ("joins", "matched", "expired", "left")}
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}/v1/matchmaking", timeout=30
    ) as response:
        snapshot = json.loads(response.read())
    run.check(value["joins"] == joins, f"server counted {value['joins']} joins, client {joins}")
    run.check(
        value["matched"] + value["expired"] + value["left"] + snapshot["waiting"] == joins,
        "matchmaking lost or duplicated participants",
    )
    base = f"http://127.0.0.1:{server.port}/v1/cohorts/"
    for spec in snapshot["specs"].values():
        for cohort in spec["cohorts"]:
            try:
                with urllib.request.urlopen(base + cohort, timeout=30) as response:
                    initial = json.loads(response.read())
                request = urllib.request.Request(
                    base + cohort + "/rounds", data=b'{"rounds": 2}', method="POST"
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    json.loads(response.read())
                with urllib.request.urlopen(base + cohort, timeout=30) as response:
                    described = json.loads(response.read())
            except (urllib.error.URLError, OSError) as error:
                run.check(False, f"condensed cohort {cohort}: {error!r}")
                continue
            payload = {key: initial[key] for key in ("skills", "k", "mode", "rate", "seed", "policy")}
            run.check(
                initial["rounds"] == 0 and replay.check(("mm", cohort), payload, described),
                f"condensed cohort {cohort} does not replay offline",
            )


# -- entry points ---------------------------------------------------------------


def _prepare(seed: int, run: Run):
    server, setups = _start_servers()
    clients = [loadgen.Client("127.0.0.1", server.port, i) for i in range(CONNECTIONS)]
    plan = Plan(seed)
    warm = loadgen.run_phase(clients, plan.initial())
    _count(run, warm)
    return server, setups, clients, plan, warm


def _reference(plan: Plan, clients, seconds: float, run: Run, tracer=None):
    schedules = plan.phase(REFERENCE_RATE, REFERENCE_SHARE * seconds)
    outcomes = loadgen.run_phase(clients, schedules, tracer)
    _count(run, outcomes)
    return outcomes


def _close(clients, server: "Server | None", run: Run) -> None:
    for client in clients:
        client.close()
    if server is not None and not server.stop():
        run.info(f"server ignored SIGTERM for {STOP_GRACE:g} s and was killed")


def run_untraced(seed: int, seconds: float, run: Run) -> None:
    server = None
    clients: list = []
    try:
        server, setups, clients, plan, everything = _prepare(seed, run)
        reference: "list[loadgen.Outcome]" = []
        steps = []
        for rate in LADDER:
            if rate == REFERENCE_RATE:
                outcomes = reference = _reference(plan, clients, seconds, run)
            else:
                outcomes = loadgen.run_phase(clients, plan.phase(rate, STEP_SHARE * seconds))
                _count(run, outcomes)
            everything += outcomes
            figures = _figures(outcomes)
            steps.append((rate, figures, _achieved_rate(outcomes)))
            run.info(
                f"ladder {rate:g} req/s: {'within' if _within_limit(figures) else 'MISSES'} "
                f"limit; round p95 {figures['p95_ms']:.1f} ms, errors "
                f"{figures['error_rate']:.3f}, lateness growth "
                f"{figures['lateness_growth_ms']:.1f} ms"
            )
            if _saturated(figures):
                break
        if not reference:  # the ladder stopped below the reference rate
            reference = _reference(plan, clients, seconds, run)
            everything += reference
        _gate(plan, clients, everything, server, run)
    finally:
        _close(clients, server, run)
    rounds = _latencies_ms(reference, "round")
    passed = []  # the ladder's steps up to its first miss of the full limit
    for step in steps:
        if not _within_limit(step[1]):
            break
        passed.append(step)
    run.metric("setup_s", statistics.median(setups), "s")
    run.metric("latency_ms", statistics.mean(rounds), "ms")
    run.metric("latency_tail_ms", float(np.percentile(rounds, 95)), "ms")
    run.metric("throughput_per_s", _capacity(steps), "1/s")
    run.metric("peak_rss_mib", server.max_rss_kib / 1024, "MiB")
    run.show("round_mean_ms", statistics.mean(rounds), "ms", f"from due time, {len(rounds)} rounds")
    run.show("round_p50_ms", statistics.median(rounds), "ms")
    run.show("round_p95_ms", float(np.percentile(rounds, 95)), "ms")
    for kind in ("create", "join", "get", "delete", "scrape"):
        values = _latencies_ms(reference, kind)
        if values:
            run.show(f"{kind}_p95_ms", float(np.percentile(values, 95)), "ms",
                     f"{len(values)} samples")
    run.show("max_rps", passed[-1][0] if passed else 0.0, "req/s",
             f"highest ladder rate within the limit; achieved "
             f"{passed[-1][2] if passed else 0.0:.3f} req/s")
    run.show("capacity_rps", _capacity(steps), "req/s", "rate where round p95 reaches the limit")
    late = [o.lateness * 1e3 for o in reference if o.sent is not None]
    run.show("loadgen.lateness_p95_ms", float(np.percentile(late, 95)), "ms")


def run_traced(seed: int, seconds: float, run: Run, tracer) -> dict[str, float]:
    """Untraced then traced reference phase, half the run length each.

    Layers come from the traced phase's spans and /metrics deltas.
    """
    server = None
    clients: list = []
    try:
        server, setups, clients, plan, everything = _prepare(seed, run)
        plain = _reference(plan, clients, seconds / 2, run)
        before = _metrics(server.port)
        traced = _reference(plan, clients, seconds / 2, run, tracer)
        after = _metrics(server.port)
        _gate(plan, clients, everything + plain + traced, server, run)
    finally:
        _close(clients, server, run)
    handler_ms = 1e3 * _mean_delta(before, after, "timers", "serve.http.request_seconds")
    traced_ms = statistics.mean(_latencies_ms(traced, "round"))
    plain_ms = statistics.mean(_latencies_ms(plain, "round"))
    service_ms = statistics.mean([o.service * 1e3 for o in traced if o.ok])
    advanced = _delta(before, after, "counters", "serve.rounds.advanced")
    hits = _delta(before, after, "counters", "serve.cache.hits")
    misses = _delta(before, after, "counters", "serve.cache.misses")
    scrapes = [o for o in traced if o.op.kind == "scrape" and o.ok]
    joins = [o.service * 1e3 for o in traced if o.op.kind == "join" and o.ok]
    late = [o.lateness * 1e3 for o in traced if o.sent is not None]
    rejected = sum(1 for o in traced if o.status is not None and (o.status == 429 or o.status >= 500))
    layers = {
        "serve.handler_ms": handler_ms,
        "serve.kernel_ms": 1e3 * _mean_delta(before, after, "timers", "serve.scheduler.kernel_seconds"),
        "serve.transport_ms": service_ms - handler_ms,
        "serve.queue_wait_ms": 1e3 * _mean_delta(before, after, "timers", "serve.scheduler.wait_seconds"),
        "serve.batch_size": _mean_delta(before, after, "histograms", "serve.scheduler.step_batch_size"),
        "serve.inline_share": (
            _delta(before, after, "counters", "serve.scheduler.step_inline_fallthrough") / advanced
            if advanced else 0.0
        ),
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.rejections": float(rejected),
        "loadgen.lateness_ms": float(np.percentile(late, 95)) if late else 0.0,
        "matchmaking.join_ms": statistics.mean(joins),
        "matchmaking.cohorts_condensed": _delta(before, after, "counters", "matchmaking.cohorts"),
        "obs.scrape_ms": statistics.mean([o.service * 1e3 for o in scrapes]),
        "obs.metrics_bytes": statistics.mean([float(o.size) for o in scrapes]),
        "bench.trace_overhead": traced_ms / plain_ms,
    }
    rounds = [o for o in traced if o.op.kind == "round" and o.ok]
    run.show("waterfall.round_lateness_ms", statistics.mean(o.lateness * 1e3 for o in rounds), "ms")
    run.show("waterfall.all_requests_handler_ms", handler_ms, "ms", "server, from /metrics")
    run.show("waterfall.all_requests_transport_ms", service_ms - handler_ms, "ms")
    run.show("waterfall.round_e2e_traced_ms", traced_ms, "ms")
    run.show("waterfall.round_e2e_untraced_ms", plain_ms, "ms")
    run.show("setup_s", statistics.median(setups), "s")
    return layers
