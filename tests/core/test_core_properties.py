"""Property-based tests for the quantification core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import AvailabilityModel, EnvironmentParams
from repro.core.scaling import scale_template
from repro.core.template import STAGE_NAMES, SevenStageTemplate, Stage
from repro.faults.faultload import FaultCatalog, FaultRate
from repro.faults.types import FaultKind
from repro.press.cache import LruCache

normal = 100.0

stage_durations = st.lists(
    st.floats(min_value=0.0, max_value=500.0), min_size=7, max_size=7
)
stage_tputs = st.lists(
    st.floats(min_value=0.0, max_value=normal), min_size=7, max_size=7
)
#: a fault class that serves above the normal level (its own strategy:
#: scale_template's properties assume throughput <= normal)
above_normal_tputs = st.lists(
    st.floats(min_value=normal, max_value=1.5 * normal), min_size=7, max_size=7
)


def make_template(durations, tputs, self_recovered=True):
    stages = {
        n: Stage(n, d, t) for n, d, t in zip(STAGE_NAMES, durations, tputs)
    }
    return SevenStageTemplate(stages, normal, normal, self_recovered=self_recovered)


class TestModelProperties:
    @settings(max_examples=80, deadline=None)
    @given(durations=stage_durations, tputs=stage_tputs,
           mttf=st.floats(min_value=1e5, max_value=1e9),
           count=st.integers(min_value=1, max_value=16),
           above_durations=stage_durations, above=above_normal_tputs)
    def test_availability_bounded(self, durations, tputs, mttf, count,
                                  above_durations, above):
        catalog = FaultCatalog([FaultRate(FaultKind.NODE_CRASH, mttf, 60.0, count),
                                FaultRate(FaultKind.APP_CRASH, mttf, 60.0, 1)])
        model = AvailabilityModel(catalog, EnvironmentParams(0.0, 0.0))
        result = model.evaluate(
            {FaultKind.NODE_CRASH: make_template(durations, tputs),
             FaultKind.APP_CRASH: make_template(above_durations, above)},
            normal, normal)
        assert 0.0 <= result.availability <= 1.0
        # the signed classes sum to 1 - AA wherever AA is below 1
        assert result.unavailability == pytest.approx(
            max(sum(c.unavailability for c in result.contributions), 0.0),
            abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(durations=stage_durations, tputs=stage_tputs,
           mttf_a=st.floats(min_value=1e6, max_value=1e8),
           factor=st.floats(min_value=1.1, max_value=10.0))
    def test_availability_monotone_in_mttf(self, durations, tputs, mttf_a, factor):
        tpl = {FaultKind.NODE_CRASH: make_template(durations, tputs)}
        env = EnvironmentParams(0.0, 0.0)
        u = []
        for mttf in (mttf_a, mttf_a * factor):
            catalog = FaultCatalog([FaultRate(FaultKind.NODE_CRASH, mttf, 60.0, 2)])
            u.append(AvailabilityModel(catalog, env).evaluate(tpl, normal, normal)
                     .unavailability)
        assert u[1] <= u[0] + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(durations=stage_durations, tputs=stage_tputs)
    def test_degraded_throughput_within_stage_range(self, durations, tputs):
        if sum(durations) <= 0:
            return
        catalog = FaultCatalog([FaultRate(FaultKind.NODE_CRASH, 1e7, 60.0, 1)])
        result = AvailabilityModel(catalog, EnvironmentParams(0.0, 0.0)).evaluate(
            {FaultKind.NODE_CRASH: make_template(durations, tputs)}, normal, normal)
        c = result.contributions[0]
        present = [t for d, t in zip(durations, tputs) if d > 0]
        # C's duration is re-derived from the MTTR, so its throughput is
        # always in play alongside stages with measured durations.
        lo = min(present + [tputs[2]])
        hi = max(present + [tputs[2]])
        assert lo - 1e-9 <= c.degraded_tput <= hi + 1e-9


class TestScalingProperties:
    @settings(max_examples=60, deadline=None)
    @given(durations=stage_durations, tputs=stage_tputs,
           k=st.floats(min_value=1.0, max_value=8.0))
    def test_scaled_fractions_never_worse(self, durations, tputs, k):
        """Scaling up never increases a stage's *fractional* deficit."""
        tpl = make_template(durations, tputs)
        scaled = scale_template(tpl, k)
        for n in STAGE_NAMES:
            frac = tpl.stage(n).throughput / tpl.normal_tput
            frac_k = scaled.stage(n).throughput / scaled.normal_tput
            assert frac_k >= frac - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(durations=stage_durations, tputs=stage_tputs)
    def test_identity_scaling(self, durations, tputs):
        tpl = make_template(durations, tputs)
        scaled = scale_template(tpl, 1.0)
        for n in STAGE_NAMES:
            assert scaled.stage(n).throughput == pytest.approx(tpl.stage(n).throughput)
            assert scaled.stage(n).duration == tpl.stage(n).duration


class TestLruProperties:
    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=32),
           accesses=st.lists(st.integers(min_value=0, max_value=100),
                             min_size=1, max_size=300))
    def test_lru_invariants(self, capacity, accesses):
        cache = LruCache(capacity)
        for fid in accesses:
            if not cache.lookup(fid):
                cache.insert(fid)
            assert len(cache) <= capacity
            assert fid in cache  # just-touched entries are resident
            assert cache.contents()[-1] == fid  # ...and most recent

    @settings(max_examples=40, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=16),
           fids=st.lists(st.integers(min_value=0, max_value=50),
                         min_size=1, max_size=100, unique=True))
    def test_lru_keeps_most_recent_k(self, capacity, fids):
        cache = LruCache(capacity)
        for fid in fids:
            cache.insert(fid)
        expected = fids[-capacity:]
        assert cache.contents() == expected
