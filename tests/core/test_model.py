"""Analytic availability model (phase 2) algebra."""

import pytest

from repro.core.model import AvailabilityModel, EnvironmentParams
from repro.core.template import STAGE_NAMES, SevenStageTemplate, Stage
from repro.faults.faultload import FaultCatalog, FaultRate
from repro.faults.types import FaultKind


def flat_template(normal=100.0, offered=100.0, a=(60.0, 0.0), c_tput=75.0,
                  self_recovered=True):
    stages = {n: Stage(n, 0.0, normal) for n in STAGE_NAMES}
    stages["A"] = Stage("A", a[0], a[1])
    stages["C"] = Stage("C", 0.0, c_tput, provenance="supplied")
    stages["E"] = Stage("E", 0.0, c_tput, provenance="supplied")
    stages["G"] = Stage("G", 0.0, normal)
    return SevenStageTemplate(stages, normal, offered, self_recovered=self_recovered)


def catalog_one(kind=FaultKind.NODE_CRASH, mttf=1e6, mttr=200.0, count=1):
    return FaultCatalog([FaultRate(kind, mttf, mttr, count)])


class TestBasicAlgebra:
    def test_hand_computed_availability(self):
        # One component, MTTF 1e6 s, fault: 60 s at 0 then (200-60) s at 75.
        model = AvailabilityModel(catalog_one())
        result = model.evaluate({FaultKind.NODE_CRASH: flat_template()},
                                normal_tput=100.0, offered_rate=100.0)
        duration = 200.0
        f = duration / 1e6
        avg = (60 * 0 + 140 * 75) / duration
        expected_at = (1 - f) * 100.0 + f * avg
        assert result.average_throughput == pytest.approx(expected_at)
        assert result.availability == pytest.approx(expected_at / 100.0)

    def test_contributions_sum_to_unavailability(self):
        catalog = FaultCatalog([
            FaultRate(FaultKind.NODE_CRASH, 1e6, 200.0, 4),
            FaultRate(FaultKind.SCSI_TIMEOUT, 5e6, 3600.0, 8),
        ])
        templates = {
            # serves above the normal level while it lasts, so it nets
            # against the SCSI dip rather than counting as zero
            FaultKind.NODE_CRASH: flat_template(a=(0.0, 100.0), c_tput=110.0),
            FaultKind.SCSI_TIMEOUT: flat_template(a=(30.0, 10.0), c_tput=50.0),
        }
        result = AvailabilityModel(catalog).evaluate(templates, 100.0, 100.0)
        assert result.by_kind()[FaultKind.NODE_CRASH] < 0
        total = sum(c.unavailability for c in result.contributions)
        assert result.unavailability == pytest.approx(total, rel=1e-9)

    def test_component_count_scales_linearly(self):
        t = {FaultKind.NODE_CRASH: flat_template()}
        u1 = AvailabilityModel(catalog_one(count=1)).evaluate(t, 100, 100).unavailability
        u4 = AvailabilityModel(catalog_one(count=4)).evaluate(t, 100, 100).unavailability
        assert u4 == pytest.approx(4 * u1, rel=1e-6)

    def test_mttf_inverse_proportionality(self):
        t = {FaultKind.NODE_CRASH: flat_template()}
        u_a = AvailabilityModel(catalog_one(mttf=1e6)).evaluate(t, 100, 100).unavailability
        u_b = AvailabilityModel(catalog_one(mttf=2e6)).evaluate(t, 100, 100).unavailability
        assert u_a == pytest.approx(2 * u_b, rel=1e-6)

    def test_perfect_fault_handling_gives_full_availability(self):
        t = {FaultKind.NODE_CRASH: flat_template(a=(0.0, 0.0), c_tput=100.0)}
        result = AvailabilityModel(catalog_one()).evaluate(t, 100, 100)
        assert result.availability == pytest.approx(1.0)

    def test_missing_template_kind_skipped(self):
        result = AvailabilityModel(catalog_one()).evaluate({}, 100, 100)
        assert result.availability == 1.0
        assert result.contributions == []

    def test_operator_path_adds_E_F_cost(self):
        env = EnvironmentParams(operator_response=600.0, reset_duration=20.0)
        t_self = {FaultKind.NODE_CRASH: flat_template(self_recovered=True)}
        t_op = {FaultKind.NODE_CRASH: flat_template(self_recovered=False)}
        u_self = AvailabilityModel(catalog_one(), env).evaluate(t_self, 100, 100).unavailability
        u_op = AvailabilityModel(catalog_one(), env).evaluate(t_op, 100, 100).unavailability
        assert u_op > u_self

    def test_saturated_fault_fraction_rejected(self):
        cat = catalog_one(mttf=150.0, mttr=200.0)  # fault fraction > 1
        with pytest.raises(ValueError):
            AvailabilityModel(cat).evaluate(
                {FaultKind.NODE_CRASH: flat_template()}, 100, 100)

    def test_offered_rate_validated(self):
        with pytest.raises(ValueError):
            AvailabilityModel(catalog_one()).evaluate({}, 100, 0.0)


class TestUnsaturatedAssumption:
    def test_measured_normal_noise_ignored_by_default(self):
        t = {FaultKind.NODE_CRASH: flat_template()}
        model = AvailabilityModel(catalog_one())
        noisy = model.evaluate(t, normal_tput=98.5, offered_rate=100.0)
        clean = model.evaluate(t, normal_tput=100.0, offered_rate=100.0)
        assert noisy.availability == pytest.approx(clean.availability)
        assert noisy.baseline_unavailability > 0.0

    def test_saturated_mode_keeps_measured_normal(self):
        t = {FaultKind.NODE_CRASH: flat_template()}
        model = AvailabilityModel(catalog_one())
        result = model.evaluate(t, 90.0, 100.0, assume_unsaturated=False)
        assert result.availability < 0.95


class TestResultApi:
    def test_contribution_lookup_and_sorting(self):
        catalog = FaultCatalog([
            FaultRate(FaultKind.NODE_CRASH, 1e6, 200.0, 1),
            FaultRate(FaultKind.APP_HANG, 1e5, 200.0, 1),
        ])
        templates = {
            FaultKind.NODE_CRASH: flat_template(),
            FaultKind.APP_HANG: flat_template(),
        }
        result = AvailabilityModel(catalog).evaluate(templates, 100, 100)
        assert result.contributions[0].kind is FaultKind.APP_HANG  # worst first
        assert result.contribution(FaultKind.NODE_CRASH) is not None
        assert result.contribution(FaultKind.SWITCH_DOWN) is None
        assert set(result.by_kind()) == {FaultKind.NODE_CRASH, FaultKind.APP_HANG}

    def test_environment_validation(self):
        with pytest.raises(ValueError):
            EnvironmentParams(operator_response=-1.0)
