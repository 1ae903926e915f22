"""Unit tests for the micro-batching scheduler (batching, backpressure)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.batch import propose_batch
from repro.core.local import dygroups_clique_local, dygroups_star_local
from repro.obs import runtime
from repro.serve import scheduler as scheduler_module
from repro.serve.config import ServeConfig
from repro.serve.errors import RequestTimeout, SchedulerSaturated, ServiceClosed
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import GroupingService


def groups_of(grouping):
    return [list(g) for g in grouping]


@pytest.fixture
def skills() -> np.ndarray:
    return np.random.default_rng(5).uniform(1.0, 9.0, size=12)


class TestPropose:
    @pytest.mark.parametrize("mode,reference", [
        ("star", dygroups_star_local), ("clique", dygroups_clique_local),
    ])
    def test_matches_scalar_grouper(self, skills, mode, reference):
        with BatchScheduler(workers=2) as scheduler:
            result = scheduler.propose(skills, 3, mode, timeout=10.0)
        assert groups_of(result) == groups_of(reference(skills, 3))

    def test_concurrent_mixed_shapes(self):
        rng = np.random.default_rng(6)
        jobs = [
            (rng.uniform(1, 9, size=12), 3, "star"),
            (rng.uniform(1, 9, size=12), 4, "clique"),
            (rng.uniform(1, 9, size=20), 5, "star"),
        ] * 8
        with BatchScheduler(workers=3) as scheduler:
            futures = [scheduler.submit(s, k, m) for s, k, m in jobs]
            results = [f.result(timeout=10.0) for f in futures]
        for (s, k, m), grouping in zip(jobs, results):
            reference = dygroups_star_local if m == "star" else dygroups_clique_local
            assert groups_of(grouping) == groups_of(reference(s, k))

    def test_batches_are_recorded(self, skills):
        with BatchScheduler(workers=1) as scheduler:
            for _ in range(4):
                scheduler.propose(skills, 3, "star", timeout=10.0)
        snapshot = runtime.metrics_registry().snapshot()
        assert snapshot["counters"]["serve.scheduler.batches"]["value"] >= 1
        assert snapshot["histograms"]["serve.scheduler.batch_size"]["count"] >= 1

    def test_unbatchable_mode_rejected_eagerly(self, skills):
        with BatchScheduler(workers=1) as scheduler:
            with pytest.raises(ValueError, match="not batchable"):
                scheduler.submit(skills, 3, "ring")

    def test_invalid_propose_resolves_future_with_error(self):
        with BatchScheduler(workers=1) as scheduler:
            future = scheduler.submit(np.array([1.0, 2.0, 3.0]), 2, "star")  # 3 % 2 != 0
            with pytest.raises(ValueError):
                future.result(timeout=10.0)


class _StallingPropose:
    """``propose_batch`` stand-in that parks the worker until released."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, matrix, k, mode):
        self.entered.set()
        assert self.release.wait(timeout=10.0), "stalled propose never released"
        return propose_batch(matrix, k, mode)


@pytest.fixture
def stall(monkeypatch):
    """Park the scheduler's batched proposals (backpressure and wave tests)."""
    stalling = _StallingPropose()
    monkeypatch.setattr(scheduler_module, "propose_batch", stalling)
    return stalling


class TestBackpressure:
    def test_saturation_rejects_not_queues(self, skills, stall):
        scheduler = BatchScheduler(workers=1, queue_depth=2, batch_max=1)
        try:
            blocker = scheduler.submit(skills, 3, "star")
            assert stall.entered.wait(timeout=10.0)  # worker is now parked
            queued = [scheduler.submit(skills, 3, "star") for _ in range(2)]
            with pytest.raises(SchedulerSaturated):
                scheduler.submit(skills, 3, "star")
            with pytest.raises(SchedulerSaturated):
                scheduler.submit(skills, 3, "star")
            snapshot = runtime.metrics_registry().snapshot()
            assert snapshot["counters"]["serve.scheduler.rejections"]["value"] == 2
            stall.release.set()
            # Everything accepted before saturation still completes.
            assert blocker.result(timeout=10.0).k == 3
            for future in queued:
                assert future.result(timeout=10.0).k == 3
        finally:
            scheduler.close()

    def test_timeout_surfaces_as_request_timeout(self, skills, monkeypatch):
        scheduler = BatchScheduler(workers=1)
        scheduler.close()  # workers gone: a hand-queued request never resolves
        monkeypatch.setattr(scheduler, "_closed", False)
        with pytest.raises(RequestTimeout):
            scheduler.propose(skills, 3, "star", timeout=0.05)
        scheduler._closed = True


class TestLifecycle:
    def test_submit_after_close_is_503(self, skills):
        scheduler = BatchScheduler(workers=1)
        scheduler.close()
        with pytest.raises(ServiceClosed):
            scheduler.submit(skills, 3, "star")

    def test_close_is_idempotent(self):
        scheduler = BatchScheduler(workers=2)
        scheduler.close()
        scheduler.close()
        assert scheduler.closed

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BatchScheduler(workers=0)
        with pytest.raises(ValueError):
            BatchScheduler(workers=1, queue_depth=0)
        with pytest.raises(ValueError):
            BatchScheduler(workers=1, batch_max=0)


def _counter(name):
    return runtime.metrics_registry().counter(name).value


def _service_with_cohorts(count, *, n=12, k=3, mode="star", seed=11):
    """A worker-less service holding ``count`` identically-seeded cohorts.

    Identical payloads mean identical trajectories, so any cohort doubles
    as the bit-identity reference for any other.
    """
    service = GroupingService(ServeConfig(workers=0))
    rng = np.random.default_rng(31)
    skills = rng.uniform(1.0, 9.0, size=n).tolist()
    ids = [
        service.create_cohort({"skills": skills, "k": k, "mode": mode, "seed": seed})["cohort"]
        for _ in range(count)
    ]
    return service, [service.store.get(cid) for cid in ids]


class TestAdaptiveSteps:
    def test_lone_step_falls_through_inline(self):
        service, (subject, reference) = _service_with_cohorts(2)
        with service:
            falls = _counter("serve.scheduler.step_inline_fallthrough")
            waves = _counter("serve.scheduler.step_batches")
            with BatchScheduler(workers=1, adaptive=True, parallelism=4) as scheduler:
                records = scheduler.step_rounds(subject, 3)
            assert _counter("serve.scheduler.step_inline_fallthrough") - falls == 3
            assert _counter("serve.scheduler.step_batches") - waves == 0
            expected = [reference.advance_round() for _ in range(3)]
            assert [r["gain"] for r in records] == [r["gain"] for r in expected]
            assert [r["groups"] for r in records] == [r["groups"] for r in expected]

    def test_single_core_gate_forces_inline(self):
        service, sessions = _service_with_cohorts(5)
        reference = sessions[-1]
        with service:
            waves = _counter("serve.scheduler.step_batches")
            with BatchScheduler(
                workers=2, adaptive=True, batch_min=2, parallelism=1
            ) as scheduler:
                barrier = threading.Barrier(4)
                results: dict[int, list] = {}

                def drive(i):
                    barrier.wait(timeout=10.0)
                    results[i] = scheduler.step_rounds(sessions[i], 2)

                threads = [threading.Thread(target=drive, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            assert _counter("serve.scheduler.step_batches") - waves == 0, (
                "parallelism=1 must keep every step off the wave path"
            )
            expected = [reference.advance_round() for _ in range(2)]
            for records in results.values():
                assert [r["gain"] for r in records] == [r["gain"] for r in expected]

    def test_wave_is_bit_identical_to_inline(self, skills, stall):
        service, sessions = _service_with_cohorts(4)
        reference = sessions[-1]
        with service:
            waves = _counter("serve.scheduler.step_batches")
            scheduler = BatchScheduler(
                workers=1, adaptive=True, batch_min=2, parallelism=4
            )
            try:
                # Park the lone worker on a propose request, enqueue three
                # same-configuration multi-round steps behind it, then let
                # the drain stack them into one wave.
                parked = scheduler.submit(skills, 3, "star")
                assert stall.entered.wait(timeout=10.0)
                futures = [scheduler.submit_step(s, 2) for s in sessions[:3]]
                stall.release.set()
                parked.result(timeout=10.0)
                waved = [f.result(timeout=10.0) for f in futures]
            finally:
                scheduler.close()
            assert _counter("serve.scheduler.step_batches") - waves == 1
            expected = [reference.advance_round() for _ in range(2)]
            for records in waved:
                assert [r["gain"] for r in records] == [r["gain"] for r in expected]
                assert [r["groups"] for r in records] == [r["groups"] for r in expected]

    def test_undersized_wave_falls_through_at_drain(self, skills, stall):
        service, (subject, reference) = _service_with_cohorts(2)
        with service:
            falls = _counter("serve.scheduler.step_inline_fallthrough")
            waves = _counter("serve.scheduler.step_batches")
            scheduler = BatchScheduler(
                workers=1, adaptive=True, batch_min=2, parallelism=4
            )
            try:
                parked = scheduler.submit(skills, 3, "star")
                assert stall.entered.wait(timeout=10.0)
                lone = scheduler.submit_step(subject, 2)
                stall.release.set()
                parked.result(timeout=10.0)
                records = lone.result(timeout=10.0)
            finally:
                scheduler.close()
            assert _counter("serve.scheduler.step_batches") - waves == 0
            assert _counter("serve.scheduler.step_inline_fallthrough") - falls == 2
            expected = [reference.advance_round() for _ in range(2)]
            assert [r["gain"] for r in records] == [r["gain"] for r in expected]

    def test_legacy_mode_always_queues(self):
        service, (subject, reference) = _service_with_cohorts(2)
        with service:
            falls = _counter("serve.scheduler.step_inline_fallthrough")
            waves = _counter("serve.scheduler.step_batches")
            with BatchScheduler(workers=1, adaptive=False, parallelism=1) as scheduler:
                records = scheduler.step_rounds(subject, 3)
            # Legacy queues each round separately and never falls through,
            # even on a single core — the pre-adaptive contract.
            assert _counter("serve.scheduler.step_batches") - waves == 3
            assert _counter("serve.scheduler.step_inline_fallthrough") - falls == 0
            expected = [reference.advance_round() for _ in range(3)]
            assert [r["gain"] for r in records] == [r["gain"] for r in expected]

    def test_step_rounds_validation(self):
        service, (subject,) = _service_with_cohorts(1)
        with service:
            with BatchScheduler(workers=1) as scheduler:
                with pytest.raises(ValueError, match="rounds"):
                    scheduler.step_rounds(subject, 0)
                with pytest.raises(ValueError, match="rounds"):
                    scheduler.step_rounds(subject, True)

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="batch_min"):
            BatchScheduler(workers=1, batch_min=1)
        with pytest.raises(ValueError, match="batch_min"):
            BatchScheduler(workers=1, batch_min=True)
        with pytest.raises(ValueError, match="parallelism"):
            BatchScheduler(workers=1, parallelism=0)
        with pytest.raises(ValueError, match="parallelism"):
            BatchScheduler(workers=1, parallelism=True)
