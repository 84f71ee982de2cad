"""Metrics registry: instruments, label memoization, null fast path."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsHub,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)


class TestCounter:
    def test_inc(self):
        c = Counter("hits", {})
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_snapshot(self):
        c = Counter("hits", {"node": "n0"})
        c.inc()
        assert c.snapshot() == {"type": "counter", "name": "hits",
                                "labels": {"node": "n0"}, "value": 1.0}


class TestGauge:
    def test_tracks_extremes(self):
        g = Gauge("depth", {})
        g.set(5.0)
        g.inc(3.0)
        g.dec(7.0)
        assert g.value == 1.0
        assert g.max == 8.0
        assert g.min == 1.0

    def test_untouched_snapshot_is_zeroed(self):
        snap = Gauge("depth", {}).snapshot()
        assert snap["max"] == 0.0 and snap["min"] == 0.0


class TestHistogram:
    def test_observe_and_mean(self):
        h = Histogram("lat", {})
        for v in (0.02, 0.02, 0.2, 3.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean() == pytest.approx(0.81)

    def test_quantile_returns_bucket_bound(self):
        h = Histogram("lat", {}, buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 0.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 4.0

    def test_overflow_bucket(self):
        h = Histogram("lat", {}, buckets=(1.0,))
        h.observe(99.0)
        assert h.snapshot()["buckets"]["+inf"] == 1
        assert h.quantile(1.0) == float("inf")

    def test_empty_quantile(self):
        h = Histogram("lat", {})
        assert h.quantile(0.9) == 0.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", {}, buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", {}, buckets=(1.0, 1.0))


class TestMetricsHub:
    def test_memoizes_on_name_and_labels(self):
        hub = MetricsHub()
        a = hub.counter("hits", node="n0")
        b = hub.counter("hits", node="n0")
        c = hub.counter("hits", node="n1")
        assert a is b
        assert a is not c
        assert len(hub) == 2

    def test_label_order_is_irrelevant(self):
        hub = MetricsHub()
        assert hub.counter("x", a=1, b=2) is hub.counter("x", b=2, a=1)

    def test_kind_collision_raises(self):
        hub = MetricsHub()
        hub.counter("x")
        with pytest.raises(TypeError):
            hub.gauge("x")

    def test_value_query(self):
        hub = MetricsHub()
        hub.counter("hits", node="n0").inc(4)
        assert hub.value("hits", node="n0") == 4.0
        assert hub.value("hits", node="n9") == 0.0
        assert hub.get("hits", node="n9") is None

    def test_snapshot_sorted(self):
        hub = MetricsHub()
        hub.counter("b")
        hub.counter("a", node="n1")
        hub.counter("a", node="n0")
        names = [(m["name"], m["labels"]) for m in hub.snapshot()]
        assert names == [("a", {"node": "n0"}), ("a", {"node": "n1"}),
                         ("b", {})]

    def test_disabled_hub_hands_out_nulls(self):
        hub = MetricsHub(enabled=False)
        assert hub.counter("x") is NULL_COUNTER
        assert hub.gauge("x") is NULL_GAUGE
        assert hub.histogram("x") is NULL_HISTOGRAM
        # Null mutators are no-ops and register nothing.
        hub.counter("x").inc()
        hub.gauge("x").set(3.0)
        hub.histogram("x").observe(1.0)
        assert len(hub) == 0
        assert hub.snapshot() == []
        assert NULL_COUNTER.value == 0.0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0

    def test_custom_histogram_buckets(self):
        hub = MetricsHub()
        h = hub.histogram("lat", buckets=(1.0, 2.0))
        assert h.bounds == (1.0, 2.0)
        default = hub.histogram("lat2")
        assert default.bounds == DEFAULT_BUCKETS


class TestHistogramQuantileSnapshot:
    """p50/p90/p99 ride along in snapshots (`repro explain --json`)."""

    def test_snapshot_carries_quantiles(self):
        h = Histogram("lat", {}, buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 0.5, 3.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["mean"] == pytest.approx(1.125)
        assert snap["p50"] == 1.0
        assert snap["p90"] == 4.0
        assert snap["p99"] == 4.0

    def test_empty_histogram_quantiles_are_zero(self):
        snap = Histogram("lat", {}).snapshot()
        assert (snap["mean"], snap["p50"], snap["p90"], snap["p99"]) == \
            (0.0, 0.0, 0.0, 0.0)

    def test_overflow_quantile_is_inf(self):
        hub = MetricsHub()
        hub.histogram("lat", buckets=(1.0,)).observe(5.0)
        (snap,) = hub.snapshot()
        assert snap["p99"] == float("inf")


class TestNullInstruments:
    """The shared nulls must be no-ops with all query paths safe."""

    def test_null_counter_inc_is_noop(self):
        NULL_COUNTER.inc()
        NULL_COUNTER.inc(100.0)
        assert NULL_COUNTER.value == 0.0
        assert NULL_COUNTER.kind == "counter"

    def test_null_gauge_mutators_are_noops(self):
        NULL_GAUGE.set(42.0)
        NULL_GAUGE.inc(7.0)
        NULL_GAUGE.dec(3.0)
        assert NULL_GAUGE.value == 0.0
        assert NULL_GAUGE.max == 0.0
        assert NULL_GAUGE.min == 0.0

    def test_null_histogram_observe_is_noop(self):
        NULL_HISTOGRAM.observe(1.5)
        NULL_HISTOGRAM.observe(99.0)
        assert NULL_HISTOGRAM.count == 0
        assert NULL_HISTOGRAM.sum == 0.0
        assert NULL_HISTOGRAM.mean() == 0.0
        # Empty-distribution quantiles are zero, matching a real empty
        # Histogram — callers never need to special-case disabled hubs.
        assert NULL_HISTOGRAM.quantile(0.5) == 0.0
        assert NULL_HISTOGRAM.quantile(0.99) == 0.0

    def test_empty_real_histogram_matches_null_behaviour(self):
        h = Histogram("lat", {})
        assert h.mean() == 0.0
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 0.0

    def test_hub_value_on_histogram_reports_count(self):
        hub = MetricsHub()
        h = hub.histogram("lat", buckets=(1.0, 2.0))
        assert hub.value("lat") == 0
        h.observe(0.5)
        h.observe(1.5)
        assert hub.value("lat") == 2

    def test_hub_value_on_gauge(self):
        hub = MetricsHub()
        hub.gauge("depth").set(7.0)
        assert hub.value("depth") == 7.0
