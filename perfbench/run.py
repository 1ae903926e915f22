"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds nothing: the package under
``src/`` is imported in place (and handed to every child process through
``PYTHONPATH``).  ``--trace 0`` measures the end-to-end metrics of
``BENCHMARK.json`` with tracing off; ``--trace 1`` repeats the timed
phase untraced, then traced, and reports the per-layer metrics plus the
tracing overhead, writing the spans to ``perfbench/out/``;
``perfbench/README.md`` lists which end-to-end figure each layer metric
should move.  Human-readable lines come first; the last line of standard
output is the JSON result.  Every workload checks its outputs for
correctness outside the timed phase.  An operation that could not be
done counts in ``failed``; a failed check counts there too and makes
``correct`` false.  Whichever way the run ends, every process it
started is stopped and waited for before it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Hard stop well inside the 180-second budget of one run.
WALL_LIMIT_SECONDS = 170

def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_alarm(signum, frame) -> None:
    raise TimeoutError(f"run exceeded {WALL_LIMIT_SECONDS} s")


def _child_pids() -> "set[int]":
    """Processes whose parent is this one (any of its threads)."""
    pids: set[int] = set()
    for task in Path("/proc/self/task").glob("*"):
        try:
            pids.update(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            pass
    return pids


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def _stop_children(grace_seconds: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The program's shared-memory transport starts multiprocessing's
    resource tracker, which would outlive the run; it is stopped the
    way the standard library stops it.  Any other child still running
    (a pool worker, the server) gets SIGTERM, then SIGKILL after
    ``grace_seconds``, and is reaped.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        with contextlib.suppress(OSError):
            stop()
    pending = _child_pids()
    for pid in pending:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + grace_seconds
    while pending and time.monotonic() < deadline:
        pending = {pid for pid in pending if not _reaped(pid)}
        time.sleep(0.01)
    for pid in pending:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def main(argv: "list[str] | None" = None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv: "list[str] | None") -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    from perfbench import fig5_sweep, million_rounds, serve_mix
    from perfbench.report import OUT_DIR, Run, provenance
    from perfbench.spans import Tracer

    workloads = {
        "million-rounds": million_rounds,
        "fig5-sweep": fig5_sweep,
        "serve-mix": serve_mix,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    module = workloads[args.workload]
    run = Run(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WALL_LIMIT_SECONDS)
    try:
        if args.trace:
            tracer = Tracer()
            layers = module.run_traced(args.seed, args.seconds, run, tracer)
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(str(span_file))
            run.info(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
            wanted = spec["per_layer"]
            for entry in wanted:
                if entry["name"] not in layers:
                    layers[entry["name"]] = 0.0  # layer not traced on this workload
                run.metric(entry["name"], layers[entry["name"]], entry["unit"])
        else:
            module.run_untraced(args.seed, args.seconds, run)
            wanted = spec["end_to_end"]
    finally:
        signal.alarm(0)

    missing = [e["name"] for e in wanted if e["name"] not in run.metrics]
    wrong_unit = [e["name"] for e in wanted
                  if e["name"] in run.metrics and run.metrics[e["name"]][1] != e["unit"]]
    if missing or wrong_unit:
        print(f"perfbench: workload did not produce {missing}, "
              f"or gave another unit for {wrong_unit}", file=sys.stderr)
        return 1
    for line in run.lines:
        print(line)
    print(f"{'provenance':<15} {json.dumps(provenance(args.seed))}")
    for entry in wanted:
        value, unit = run.metrics[entry["name"]]
        print(f"{args.workload:<15} {entry['name']:<34} {value:>14.6g} {unit}")
    print(f"{args.workload:<15} {'error_rate':<34} {run.failed / max(run.attempted, 1):>14.6g} "
          f"{'ratio':<9}  {run.failed} failed of {run.attempted} attempted")
    for what in run.failures[:20]:
        print(f"{args.workload:<15} # failed: {what}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            e["name"]: {"value": run.metrics[e["name"]][0], "unit": run.metrics[e["name"]][1]}
            for e in wanted
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
