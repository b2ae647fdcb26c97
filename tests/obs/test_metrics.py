"""Counter/gauge/histogram math and the registry."""

import json

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, Registry


class TestCounter:
    def test_incr_default_and_by(self):
        c = Counter("x")
        c.incr()
        c.incr(41)
        assert c.value == 42


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("g")
        g.set(3)
        g.add(-1.5)
        assert g.value == pytest.approx(1.5)


class TestHistogram:
    def test_empty_histogram_reports_zeros(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.stdev == 0.0
        assert h.percentile(50.0) == 0.0
        assert h.p99 == 0.0
        assert h.summary()["max"] == 0.0

    def test_percentile_out_of_range_raises(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(-0.1)
        with pytest.raises(ValueError):
            h.percentile(100.1)

    def test_single_value_every_percentile(self):
        h = Histogram("h")
        h.observe(7.0)
        assert h.percentile(0.0) == 7.0
        assert h.p50 == 7.0
        assert h.percentile(100.0) == 7.0

    def test_linear_interpolation(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.p50 == pytest.approx(2.5)
        assert h.percentile(25.0) == pytest.approx(1.75)
        assert h.percentile(100.0) == 4.0
        assert h.percentile(0.0) == 1.0

    def test_exact_moments(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.mean == pytest.approx(2.0)
        assert h.stdev == pytest.approx(1.0)  # sample stdev, n-1
        assert h.min_value == 1.0 and h.max_value == 3.0
        assert h.total == pytest.approx(6.0)

    def test_ring_buffer_window(self):
        h = Histogram("h", max_samples=4)
        for v in range(1, 9):  # 1..8; window retains 5,6,7,8
            h.observe(float(v))
        assert h.count == 8
        assert sorted(h.samples) == [5.0, 6.0, 7.0, 8.0]
        # aggregates stay exact over all 8 observations
        assert h.min_value == 1.0 and h.max_value == 8.0
        assert h.total == pytest.approx(36.0)
        # percentiles reflect the recent window
        assert h.percentile(0.0) == 5.0

    def test_max_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram("h", max_samples=0)

    def test_summary_keys(self):
        h = Histogram("h")
        h.observe(1.0)
        assert set(h.summary()) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99"}


class TestRegistry:
    def test_instruments_are_cached_by_name(self):
        reg = Registry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")
        assert reg.gauge("c") is reg.gauge("c")

    def test_conveniences_record(self):
        reg = Registry()
        reg.incr("hits", 2)
        reg.observe("lat", 5.0)
        reg.set_gauge("depth", 3)
        assert reg.count("hits") == 2
        assert reg.histogram("lat").count == 1
        assert reg.gauge("depth").value == 3.0

    def test_count_of_unknown_counter_is_zero(self):
        assert Registry().count("nope") == 0

    def test_timer_records_milliseconds(self):
        reg = Registry()
        with reg.time("op.latency_ms"):
            pass
        h = reg.histogram("op.latency_ms")
        assert h.count == 1
        assert h.min_value >= 0.0

    def test_snapshot_and_json_roundtrip(self):
        reg = Registry()
        reg.incr("c")
        reg.observe("h", 2.0)
        reg.set_gauge("g", 1)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert json.loads(reg.to_json()) == snap

    def test_reset(self):
        reg = Registry()
        reg.incr("c")
        reg.reset()
        assert reg.metric_names() == []
