"""Workload ``fig5-sweep``: the paper's Fig. 5(b) vary-n sweep.

The bench preset of Fig. 5(b) (Star, Zipf skills, k=5, α=5, r=0.5,
3 runs, all five default algorithms, 10⁴-evaluation LPA budget) through
``sweep_outcomes`` with ``workers = nproc``.  The n grid is trimmed to
its first two points so that several sweeps fit in one run.  It is what
a researcher waits for: it exercises ``repro.experiments.parallel`` and
``repro.baselines`` (LPA is nearly all of the time) and hardly touches
the round kernels, so a kernel change should not move it.

One input's sweep time still spreads between about 2.1 s and 3.1 s
within a run, with the host's load: by the serial costs of the six
(grid point, run) units, the makespan of two workers pulling them in
order is nearly fixed.  The figures use the mean of a run's sweeps, so
the wall time a researcher waits for over the run counts in full.

The timed sweeps always use the preset's own spec seed.  LPA stops after
max(500, 2n) fruitless swaps, so how much it searches depends on the
draws: between spec seeds a sweep took from 1.3 s to 2.7 s here, far
more than any bound could hold.  The workload seed drives the untimed
sweep that precedes them, which the correctness gate checks.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench.report import Run, nproc, ready_seconds

GRID = (100, 500)
#: ``base_spec``'s own seed: the timed sweeps use it, and the gains
#: below were recorded with it.
TIMED_SEED = 7
#: Fresh interpreters behind ``setup_s`` (~0.5 s each).
SETUP_REPEATS = 7
#: In-process pool starts behind ``experiments.pool_start_s``: each is
#: a fork of two processes (~10 ms), so take many.
POOL_START_REPEATS = 50

#: A fresh interpreter imports the sweep path and starts the warm pool
#: (``workers`` forked and warmed); the parent times spawn → "ready".
#: perfbench/README.md says why ``setup_s`` is not the pool start alone.
_SETUP_CHILD = """
import sys
from repro.experiments import parallel
from repro.experiments.sweep import sweep_outcomes
parallel.shared_pool(int(sys.argv[1])).ensure()
print("ready", flush=True)
"""
#: Algorithms cheap enough to re-run serially inside the gate.
CHEAP = ("dygroups", "random", "percentile", "kmeans")

#: Mean total gains per grid point at TIMED_SEED, recorded from the
#: serial sweep of this spec.
RECORDED = {
    100: {
        "dygroups": 5586.697916666667,
        "random": 5102.947916666667,
        "percentile": 5238.989583333333,
        "lpa": 5148.15625,
        "kmeans": 4278.989583333333,
    },
    500: {
        "dygroups": 96709.13541666667,
        "random": 92864.34375,
        "percentile": 93954.96875,
        "lpa": 93441.42708333333,
        "kmeans": 55344.552083333336,
    },
}


def sweep_spec(seed: int):
    from repro.experiments.figures import base_spec

    return base_spec(full=False, runs=None, mode="star", distribution="zipf").with_(seed=seed)


def _gains(outcomes) -> dict[int, dict[str, float]]:
    return {
        o.spec.n: {name: o.gain_of(name) for name in o.spec.algorithms} for o in outcomes
    }


def _pool_start_seconds(workers: int) -> list[float]:
    """Start the shared warm pool POOL_START_REPEATS times; the last one stays up."""
    from repro.experiments import parallel

    seconds = []
    for _ in range(POOL_START_REPEATS):
        parallel.shutdown_shared_pool()
        started = time.perf_counter()
        parallel.shared_pool(workers).ensure()
        seconds.append(time.perf_counter() - started)
    return seconds


def _sweep(spec, workers: int):
    from repro.experiments.sweep import sweep_outcomes

    return sweep_outcomes(spec, "n", GRID, workers=workers)


def _timed_sweeps(seconds: float, workers: int, run: Run, tracer=None):
    """Preset sweeps until ``seconds`` have passed; each must give RECORDED."""
    from repro.experiments import parallel

    spec = sweep_spec(TIMED_SEED)
    pool = parallel.shared_pool(workers)
    durations: list[float] = []
    chunks: list[int] = []
    deadline = time.perf_counter() + seconds
    while not durations or time.perf_counter() < deadline:
        before = pool.chunks_served
        started = time.perf_counter()
        try:
            if tracer is None:
                outcomes = _sweep(spec, workers)
            else:
                with tracer.span("bench.sweep"):
                    outcomes = _sweep(spec, workers)
        except Exception as error:
            run.attempt(False, f"sweep: {error!r}")
            break
        durations.append(time.perf_counter() - started)
        chunks.append(pool.chunks_served - before)
        run.check(_gains(outcomes) == RECORDED,
                  f"seed {TIMED_SEED} sweep gains differ from the recorded values")
    return durations, chunks


def _check_workload_seed(seed: int, workers: int, run: Run) -> None:
    """Untimed sweep at the workload seed (it also warms the pool's workers).

    DyGroups must rank first at every grid point, and the algorithms
    cheap enough to re-run must equal a serial ``run_spec``.
    """
    from repro.experiments.runner import run_spec

    spec = sweep_spec(seed)
    try:
        gains = _gains(_sweep(spec, workers))
    except Exception as error:
        run.check(False, f"seed {seed} sweep: {error!r}")
        return
    for n, by_algo in gains.items():
        others = [value for name, value in by_algo.items() if name != "dygroups"]
        run.check(
            all(by_algo["dygroups"] > value for value in others),
            f"seed {seed}, n={n}: DyGroups does not rank first",
        )
        serial = run_spec(spec.with_(n=n, algorithms=CHEAP, workers=1))
        for name in CHEAP:
            run.check(
                serial.gain_of(name) == by_algo[name],
                f"seed {seed}, n={n}: {name} sweep gain differs from serial run_spec",
            )


def run_untraced(seed: int, seconds: float, run: Run) -> None:
    import resource

    from repro.experiments import parallel

    workers = nproc()
    setups = [ready_seconds(_SETUP_CHILD, workers) for _ in range(SETUP_REPEATS)]
    try:
        _check_workload_seed(seed, workers, run)
        durations, chunks = _timed_sweeps(seconds, workers, run)
    finally:
        parallel.shutdown_shared_pool()
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    sweep_s = statistics.mean(durations)
    specs = len(GRID) * len(sweep_spec(TIMED_SEED).algorithms)
    run.metric("setup_s", statistics.median(setups), "s")
    run.metric("latency_ms", sweep_s * 1e3, "ms")
    run.metric("latency_tail_ms", float(np.percentile(durations, 95)) * 1e3, "ms")
    run.metric("throughput_per_s", specs / sweep_s, "1/s")
    run.metric("peak_rss_mib", peak_kib / 1024, "MiB")
    run.show("sweep_s", sweep_s, "s",
             f"mean of {len(durations)} sweeps, n grid {GRID}, workers={workers}")
    run.show("chunks_per_sweep", statistics.median(chunks), "count")
    run.show("sweep_s.samples", len(durations), "count", " ".join(f"{d:.3f}" for d in durations))
    run.show("setup_s.samples", len(setups), "count", " ".join(f"{s:.4f}" for s in setups))


def run_traced(seed: int, seconds: float, run: Run, tracer) -> dict[str, float]:
    """Untraced then traced sweeps, then serial per-algorithm specs for the layer split."""
    from repro.experiments import parallel
    from repro.experiments.runner import run_spec

    workers = nproc()
    try:
        pool_starts = _pool_start_seconds(workers)
        _check_workload_seed(seed, workers, run)
        plain, chunks = _timed_sweeps(seconds / 2, workers, run)
        tracer.patch_method(parallel.WorkerPool, "map_chunks", "experiments.pool_wait")
        try:
            traced, _ = _timed_sweeps(seconds / 2, workers, run, tracer)
        finally:
            tracer.unpatch()
    finally:
        parallel.shutdown_shared_pool()
    spec = sweep_spec(TIMED_SEED)
    serial: dict[str, float] = {}
    for n in GRID:
        for name in spec.algorithms:
            layer = {"lpa": "baselines.lpa", "kmeans": "baselines.kmeans"}.get(
                name, "core.stacked"
            )
            with tracer.span(layer) as span:
                run_spec(spec.with_(n=n, algorithms=(name,), workers=1))
            serial[layer] = serial.get(layer, 0.0) + span.duration
    sweep_s = statistics.mean(plain)
    roots = tracer.roots("bench.sweep")
    self_s = tracer.self_times(roots)
    per_sweep = {name: value / len(roots) for name, value in self_s.items()}
    run.show("waterfall.pool_wait_s", per_sweep.get("experiments.pool_wait", 0.0), "s/sweep",
             "parent blocked on worker chunks")
    run.show("waterfall.parent_self_s", per_sweep.get("bench.sweep", 0.0), "s/sweep",
             "draws, shared memory, merge")
    run.show("waterfall.e2e_traced_s", statistics.mean(traced), "s/sweep")
    run.show("waterfall.e2e_untraced_s", sweep_s, "s/sweep")
    layers = {
        "baselines.lpa_s": serial.get("baselines.lpa", 0.0),
        "baselines.kmeans_s": serial.get("baselines.kmeans", 0.0),
        "core.stacked_s": serial.get("core.stacked", 0.0),
        "experiments.pool_start_s": statistics.median(pool_starts),
        "experiments.parallel_efficiency": sum(serial.values()) / (sweep_s * workers),
        "experiments.chunks": statistics.median(chunks),
        "bench.trace_overhead": statistics.mean(traced) / sweep_s,
    }
    return layers
