"""Named RNG streams and time-series recording."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.series import ThroughputSeries


class TestRng:
    def test_same_name_same_stream_object(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_deterministic_across_registries(self):
        a = RngRegistry(7).stream("clients").random(5)
        b = RngRegistry(7).stream("clients").random(5)
        assert np.allclose(a, b)

    def test_streams_independent(self):
        reg = RngRegistry(7)
        a = reg.stream("a").random(5)
        b = reg.stream("b").random(5)
        assert not np.allclose(a, b)

    def test_new_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(7)
        first = reg1.stream("clients").random(3)
        reg2 = RngRegistry(7)
        reg2.stream("something_new").random(100)
        second = reg2.stream("clients").random(3)
        assert np.allclose(first, second)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(2, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")

    def test_exponential_mean(self):
        reg = RngRegistry(3)
        draws = [reg.exponential("e", 2.0) for _ in range(4000)]
        assert abs(np.mean(draws) - 2.0) < 0.15

    def test_exponential_validates_mean(self):
        with pytest.raises(ValueError):
            RngRegistry(1).exponential("e", 0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngRegistry(-1)

    def test_contains(self):
        reg = RngRegistry(1)
        assert "a" not in reg
        reg.stream("a")
        assert "a" in reg


class TestThroughputSeries:
    def test_count_and_rate(self):
        s = ThroughputSeries()
        for t in (0.5, 1.5, 2.5, 3.5):
            s.record(t)
        assert s.count(1.0, 3.0) == 2
        assert s.mean_rate(0.0, 4.0) == pytest.approx(1.0)

    def test_monotonicity_enforced(self):
        s = ThroughputSeries()
        s.record(2.0)
        with pytest.raises(ValueError):
            s.record(1.0)

    def test_recording_goes_on_while_times_is_held(self):
        s = ThroughputSeries()
        s.record(1.0)
        held = s.times
        s.record(2.0)  # a view of the packed buffer would block the resize
        held[0] = 9.0
        assert list(s.times) == [1.0, 2.0] and s.times.dtype == float

    def test_empty_windows(self):
        s = ThroughputSeries()
        assert s.count(0, 10) == 0
        assert s.mean_rate(0, 10) == 0.0
        assert s.mean_rate(5, 5) == 0.0

    def test_bucketize(self):
        s = ThroughputSeries()
        for t in np.arange(0.05, 10.0, 0.1):  # 10 events/second
            s.record(float(t))
        edges, rates = s.bucketize(1.0, 0.0, 10.0)
        assert len(edges) == len(rates) == 10
        assert np.allclose(rates, 10.0)

    def test_bucketize_validates(self):
        s = ThroughputSeries()
        with pytest.raises(ValueError):
            s.bucketize(0.0, 0, 10)
        with pytest.raises(ValueError):
            s.bucketize(1.0, 5, 5)

    def test_count_requires_ordered_window(self):
        s = ThroughputSeries()
        with pytest.raises(ValueError):
            s.count(2, 1)

    def test_bucketize_empty_series_defaults(self):
        s = ThroughputSeries()
        edges, rates = s.bucketize(1.0)
        assert list(edges) == [0.0]
        assert list(rates) == [0.0]

    def test_bucketize_empty_series_explicit_window(self):
        s = ThroughputSeries()
        edges, rates = s.bucketize(2.0, 0.0, 10.0)
        assert len(edges) == 5
        assert np.all(rates == 0.0)

    def test_bucketize_single_event_default_window(self):
        s = ThroughputSeries()
        s.record(3.0)
        edges, rates = s.bucketize(1.0)
        assert edges[0] == 3.0
        assert rates[0] == pytest.approx(1.0)

    def test_bucketize_ragged_last_bin(self):
        # A window that is not a multiple of the bin width still covers
        # every event: the last (partial) bin is kept.
        s = ThroughputSeries()
        for t in (0.5, 1.5, 2.25):
            s.record(t)
        edges, rates = s.bucketize(1.0, 0.0, 2.5)
        assert len(edges) == 3
        assert rates.sum() * 1.0 == pytest.approx(3.0)

    def test_bucketize_window_excluding_all_events(self):
        s = ThroughputSeries()
        s.record(1.0)
        _edges, rates = s.bucketize(1.0, 100.0, 105.0)
        assert np.all(rates == 0.0)
