"""Workload ``million-rounds``: DyGroups rounds over one n=10⁶ population.

One trial at n=10⁶, k=1000, lognormal skills (µ=e, σ=√e, drawn here from
the workload seed), run for DyGroups-Star and DyGroups-Clique through
``simulate_many`` with engine ``auto``.  This is where the sort and the
skill updates are nearly all of the time; the worker pool, the HTTP
server and the baselines are never touched.

Each call plays one round and is timed by the benchmark's own clock, so
every figure covers the whole call a user makes, not only the part the
program times itself.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

from perfbench.report import Run, ready_seconds

N = 1_000_000
K = 1000
RATE = 0.5
MODES = ("star", "clique")
SETUP_REPEATS = 5

#: A fresh interpreter imports the package and plays one untimed
#: warm-up round; the parent times spawn → "ready".
_SETUP_CHILD = """
import sys
import numpy as np
import repro
from repro.core.vectorized import simulate_many
from repro.registry import build_policy
seed, n, k = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
skills = np.random.default_rng(seed).lognormal(np.e, np.sqrt(np.e), n)
simulate_many(build_policy("dygroups", mode="star", rate=0.5), skills[None, :],
              k=k, alpha=1, mode="star", rate=0.5, seeds=[seed])
print("ready", flush=True)
"""


def draw_skills(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).lognormal(np.e, np.sqrt(np.e), N)


def working_set_bytes() -> dict[str, int]:
    """Bytes a round touches, computed from array sizes (not measured).

    Star: skills, sort keys, order, members, gathered values, gains and
    the output (7 arrays of n 8-byte items).  Clique additionally holds
    the per-group member and value arrays through its two stable sorts,
    the prefix sum and the increment (6 more).
    """
    return {"star": 7 * 8 * N, "clique": 13 * 8 * N}


def _digest(result) -> str:
    """Bit-exact fingerprint of a trajectory's final skills and round gains."""
    return hashlib.sha256(result.final_skills.tobytes() + result.round_gains.tobytes()).hexdigest()


def _one_round(policy, skills, mode, seed):
    from repro.core.vectorized import simulate_many

    return simulate_many(
        policy, skills[None, :], k=K, alpha=1, mode=mode, rate=RATE, seeds=[seed]
    )


def _timed_calls(policy, skills, mode, seed, budget, run: Run, tracer=None):
    """One-round ``simulate_many`` calls until ``budget`` seconds have passed.

    Returns each call's wall time and the digest of its trajectory; only
    the digest is kept, so the measured process does not accumulate
    result arrays.
    """
    call_seconds: list[float] = []
    digests: list[str] = []
    deadline = time.perf_counter() + budget
    while not call_seconds or time.perf_counter() < deadline:
        started = time.perf_counter()
        try:
            if tracer is None:
                result = _one_round(policy, skills, mode, seed)
            else:
                with tracer.span(f"bench.simulate_many.{mode}"):
                    result = _one_round(policy, skills, mode, seed)
        except Exception as error:  # a failed call is a failed operation
            run.attempt(False, f"simulate_many {mode}: {error!r}")
            break
        call_seconds.append(time.perf_counter() - started)
        run.attempt(True)
        digests.append(_digest(result))
        del result
    return call_seconds, digests


def measure(seed: int, seconds: float, run: Run, *, tracer=None) -> dict[str, dict]:
    """Timed phase for both modes; returns per-mode samples and results."""
    from repro.registry import build_policy

    skills = draw_skills(seed)
    out: dict[str, dict] = {}
    for mode in MODES:
        policy = build_policy("dygroups", mode=mode, rate=RATE)
        calls, digests = _timed_calls(policy, skills, mode, seed, seconds / len(MODES), run, tracer)
        out[mode] = {"calls": calls, "digests": digests, "policy": policy}
    return out


def _gate(seed: int, samples: dict[str, dict], run: Run) -> None:
    """Every call's trajectory is bit-equal to the scalar engine's."""
    from repro.core.vectorized import simulate_many

    skills = draw_skills(seed)
    for mode in MODES:
        digests = samples[mode]["digests"]
        if not run.check(bool(digests), f"{mode}: no completed call to check"):
            continue
        reference = _digest(simulate_many(
            samples[mode]["policy"], skills[None, :], k=K, alpha=1, mode=mode,
            rate=RATE, seeds=[seed], engine="scalar",
        ))
        for index, digest in enumerate(digests):
            run.check(
                digest == reference,
                f"{mode}: call {index} differs from simulate_many(engine='scalar')",
            )


def _warm_up(seed: int) -> None:
    """One untimed call per mode, so lazy imports and caches are filled."""
    from repro.registry import build_policy

    skills = draw_skills(seed)
    for mode in MODES:
        _one_round(build_policy("dygroups", mode=mode, rate=RATE), skills, mode, seed)


def tail_percent(count: int) -> float:
    """The highest percentile of ``count`` samples with ten samples beyond it."""
    return max(0.0, 100.0 * (1.0 - 10.0 / count))


def tail(values: "list[float]") -> float:
    """A run gives a few dozen rounds per mode, too few for a p95."""
    return float(np.percentile(values, tail_percent(len(values))))


def _end_to_end(samples: dict[str, dict]) -> dict[str, float]:
    calls = [s for mode in MODES for s in samples[mode]["calls"]]
    per_mode = {mode: len(samples[mode]["calls"]) / sum(samples[mode]["calls"]) for mode in MODES}
    return {
        "latency_ms": statistics.mean(
            statistics.median(samples[m]["calls"]) * 1e3 for m in MODES
        ),
        "latency_tail_ms": statistics.mean(tail(samples[m]["calls"]) * 1e3 for m in MODES),
        "throughput_per_s": len(calls) / sum(calls),
        "star_rounds_per_s": per_mode["star"],
        "clique_rounds_per_s": per_mode["clique"],
    }


def run_untraced(seed: int, seconds: float, run: Run) -> None:
    import resource

    setups = [ready_seconds(_SETUP_CHILD, seed, N, K) for _ in range(SETUP_REPEATS)]
    _warm_up(seed)
    samples = measure(seed, seconds, run)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = _end_to_end(samples)
    run.metric("setup_s", statistics.median(setups), "s")
    run.metric("latency_ms", e2e["latency_ms"], "ms")
    run.metric("latency_tail_ms", e2e["latency_tail_ms"], "ms")
    run.metric("throughput_per_s", e2e["throughput_per_s"], "1/s")
    run.metric("peak_rss_mib", peak_mib, "MiB")
    for mode in MODES:
        rounds = samples[mode]["calls"]
        run.show(f"{mode}_rounds_per_s", e2e[f"{mode}_rounds_per_s"], "rounds/s",
                 f"n=10^6, {len(rounds)} one-round calls")
        run.show(f"{mode}_round_p50_ms", statistics.median(rounds) * 1e3, "ms")
        run.show(f"{mode}_round_p95_ms", float(np.percentile(rounds, 95)) * 1e3, "ms")
        run.show(f"{mode}_round_tail_ms", tail(rounds) * 1e3, "ms",
                 f"p{tail_percent(len(rounds)):.0f}, the highest with 10 rounds beyond it")
    run.show("setup_s.samples", len(setups), "count", " ".join(f"{s:.4f}" for s in setups))
    _provenance_lines(run)
    _gate(seed, samples, run)


def _provenance_lines(run: Run) -> None:
    from perfbench.report import last_level_cache_bytes

    for mode, size in working_set_bytes().items():
        run.show(f"working_set_bytes.{mode}", size, "B", "computed from array sizes")
    run.show("llc_bytes", float(last_level_cache_bytes() or 0), "B",
             "last-level cache, from getconf; 0 = unknown")


def run_traced(seed: int, seconds: float, run: Run, tracer) -> dict[str, float]:
    """Untraced then traced timed phase, half the run length each.

    Per-layer metrics come from the traced one.
    """
    from repro.core import batch, vectorized
    from repro.engine import stacked

    _warm_up(seed)
    untraced = measure(seed, seconds / 2, run)
    plain = _end_to_end(untraced)
    counts = {
        "core.sort": tracer.patch_function(batch.descending_orders, "core.sort"),
        "core.propose": tracer.patch_method(
            vectorized.VectorizedPolicy, "propose_many", "core.propose"
        ),
        "engine.update": tracer.patch_function(stacked.apply_update_many, "engine.update"),
        "engine.step": tracer.patch_method(stacked.StackedRoundKernel, "step", "engine.step"),
    }
    try:
        samples = measure(seed, seconds / 2, run, tracer=tracer)
    finally:
        tracer.unpatch()
    traced = _end_to_end(samples)
    for layer, count in counts.items():
        if count == 0:
            run.info(f"layer {layer}: no binding found to trace; its metric reads 0")
    layers: dict[str, float] = {}
    for mode in MODES:
        roots = tracer.roots(f"bench.simulate_many.{mode}")
        rounds = len(roots)
        self_s = tracer.self_times(roots)
        per_round = {name: 1e3 * value / rounds for name, value in self_s.items()}
        layers[f"core.sort_ms.{mode}"] = per_round.get("core.sort", 0.0)
        layers[f"core.propose_ms.{mode}"] = per_round.get("core.propose", 0.0)
        layers[f"engine.update_ms.{mode}"] = per_round.get("engine.update", 0.0)
        layers[f"engine.step_ms.{mode}"] = per_round.get("engine.step", 0.0)
        unattributed = per_round.get(f"bench.simulate_many.{mode}", 0.0)
        run.show(f"waterfall.{mode}.layers_self_ms", sum(per_round.values()) - unattributed,
                 "ms/round", "sort + propose + update + step self times")
        run.show(f"waterfall.{mode}.unattributed_ms", unattributed, "ms/round",
                 "simulate_many outside the kernel step")
        run.show(f"waterfall.{mode}.e2e_traced_ms", 1e3 / traced[f"{mode}_rounds_per_s"],
                 "ms/round")
        run.show(f"waterfall.{mode}.e2e_untraced_ms", 1e3 / plain[f"{mode}_rounds_per_s"],
                 "ms/round")
    layers["bench.trace_overhead"] = traced["latency_ms"] / plain["latency_ms"]
    for mode in MODES:
        samples[mode]["digests"] += untraced[mode]["digests"]
    _gate(seed, samples, run)
    return layers
