"""Unit tests for repro.obs.metrics (counters/gauges/timers/histograms)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    render_prometheus,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_float_amounts(self):
        counter = Counter("c")
        counter.inc(0.5)
        assert counter.value == pytest.approx(0.5)

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(3)
        assert counter.snapshot() == {"type": "counter", "value": 3}


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        assert gauge.value == 0.0
        gauge.set(3.0)
        gauge.inc()
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == pytest.approx(2.0)

    def test_tracks_high_water_mark(self):
        gauge = Gauge("g")
        gauge.inc(5)
        gauge.dec(5)
        gauge.inc()
        assert gauge.value == pytest.approx(1.0)
        assert gauge.max == pytest.approx(5.0)

    def test_snapshot(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        gauge.dec()
        assert gauge.snapshot() == {"type": "gauge", "value": 1.5, "max": 2.5}


class TestHistogram:
    def test_empty_stats_are_zero(self):
        histogram = Histogram("h")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(95) == 0.0

    def test_summary_stats(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(10.0)
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1.0 and histogram.max == 4.0

    def test_percentile_nearest_rank(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(95) == 95.0
        assert histogram.percentile(100) == 100.0

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError, match="percentile"):
            Histogram("h").percentile(101)

    def test_snapshot_retains_raw_values(self):
        histogram = Histogram("h")
        histogram.observe(1.25)
        snapshot = histogram.snapshot()
        assert snapshot["type"] == "histogram"
        assert snapshot["values"] == [1.25]
        assert snapshot["count"] == 1

    def test_snapshot_while_observing_from_another_thread(self):
        # /metrics snapshots while request threads observe: the snapshot
        # must never iterate the live bounded deque at Python level.
        histogram = Histogram("h", keep=256)
        for value in range(256):
            histogram.observe(float(value))
        stop = threading.Event()

        def observe_forever() -> None:
            value = 0.0
            while not stop.is_set():
                histogram.observe(value)
                value += 1.0

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=observe_forever)
        writer.start()
        try:
            for _ in range(300):
                snapshot = histogram.snapshot()
                assert snapshot["retained"] == len(snapshot["values"]) == 256
                assert snapshot["p50"] in snapshot["values"]
        finally:
            stop.set()
            writer.join(timeout=10.0)
            sys.setswitchinterval(previous)
        assert not writer.is_alive()


class TestTimer:
    def test_time_context_manager_records_a_duration(self):
        timer = Timer("t")
        with timer.time():
            sum(range(1000))
        assert timer.count == 1
        assert timer.values[0] > 0.0

    def test_snapshot_type(self):
        assert Timer("t").snapshot()["type"] == "timer"


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.timer("b") is registry.timer("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert registry.gauge("d") is registry.gauge("d")
        assert len(registry) == 4

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="Counter"):
            registry.timer("x")
        with pytest.raises(ValueError, match="Counter"):
            registry.gauge("x")

    def test_timer_is_not_a_histogram_name(self):
        registry = MetricsRegistry()
        registry.timer("t")
        with pytest.raises(ValueError, match="Timer"):
            registry.histogram("t")

    def test_snapshot_grouped_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc(2)
        registry.timer("a.seconds").observe(0.5)
        registry.histogram("m.sizes").observe(10.0)
        registry.gauge("q.depth").set(4)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "timers", "histograms"}
        assert snapshot["counters"]["z.count"]["value"] == 2
        assert snapshot["gauges"]["q.depth"]["value"] == 4
        assert snapshot["timers"]["a.seconds"]["values"] == [0.5]
        assert snapshot["histograms"]["m.sizes"]["count"] == 1

    def test_snapshot_is_json_able(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.timer("t").observe(0.25)
        assert json.loads(json.dumps(registry.snapshot()))

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert len(registry) == 0
        assert registry.counter("c").value == 0


class TestRenderPrometheus:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("serve.http.requests").inc(3)
        registry.gauge("serve.scheduler.queue_depth").set(2)
        timer = registry.timer("serve.http.request_seconds")
        for value in (0.1, 0.2, 0.3):
            timer.observe(value)
        return registry.snapshot()

    def test_counter_gauge_and_summary_lines(self):
        text = render_prometheus(self._snapshot())
        lines = text.splitlines()
        assert "# TYPE repro_serve_http_requests counter" in lines
        assert "repro_serve_http_requests 3.0" in lines
        assert "# TYPE repro_serve_scheduler_queue_depth gauge" in lines
        assert "repro_serve_scheduler_queue_depth 2.0" in lines
        assert "# TYPE repro_serve_http_request_seconds summary" in lines
        assert any(
            line.startswith('repro_serve_http_request_seconds{quantile="0.95"}')
            for line in lines
        )
        assert "repro_serve_http_request_seconds_count 3.0" in lines
        assert "repro_serve_http_request_seconds_sum 0.6" in lines

    def test_gauge_high_water_mark_sample(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.inc(7)
        gauge.dec(7)
        lines = render_prometheus(registry.snapshot()).splitlines()
        assert "repro_depth 0.0" in lines
        assert "repro_depth_max 7.0" in lines

    def test_names_are_sanitized_and_namespaced(self):
        registry = MetricsRegistry()
        registry.counter("serve.errors.Timeout-ish").inc()
        text = render_prometheus(registry.snapshot(), namespace="app")
        assert "app_serve_errors_Timeout_ish 1.0" in text

    def test_page_ends_with_newline(self):
        assert render_prometheus(self._snapshot()).endswith("\n")
