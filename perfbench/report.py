"""Result bookkeeping and provenance for one benchmark run."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


@dataclass
class Run:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    checks_failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def attempt(self, ok: bool, what: str = "") -> bool:
        """Count one attempted operation; a failed one is listed in ``failures``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check(self, ok: bool, what: str) -> bool:
        """A correctness gate: counted like an operation, and a failure makes the run incorrect."""
        if not self.attempt(ok, what):
            self.checks_failed += 1
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def show(self, name: str, value: float, unit: str, note: str = "") -> None:
        """Print-only figure (not part of the JSON result line)."""
        text = f"{self.workload:<15} {name:<34} {value:>14.6g} {unit:<9}"
        self.lines.append(text + (f"  {note}" if note else ""))

    def info(self, text: str) -> None:
        self.lines.append(f"{self.workload:<15} # {text}")

    @property
    def correct(self) -> bool:
        return self.checks_failed == 0


def ready_seconds(script: str, *args: object) -> float:
    """Seconds from spawning ``python -c script args`` until it prints "ready".

    The child is waited for after the time is taken; one that does not
    print "ready" or exits with an error raises ``RuntimeError``.
    """
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed (exit {child.returncode})")
    return elapsed


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes), in path order."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def last_level_cache_bytes() -> "int | None":
    """Largest CPU cache level glibc reports (``getconf``), or ``None``."""
    for level in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            done = subprocess.run(
                ["getconf", level], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        text = done.stdout.strip()
        if done.returncode == 0 and text.isdigit() and int(text) > 0:
            return int(text)
    return None


def provenance(seed: int) -> dict[str, object]:
    import numpy

    return {
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "machine": platform.machine(),
    }
