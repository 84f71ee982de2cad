"""Error-budget rollups: stage decomposition vs the analytic model."""

import pytest

from repro.core.model import AvailabilityModel, EnvironmentParams
from repro.core.template import STAGE_NAMES, TemplateFitter
from repro.faults.faultload import HOUR, MONTH, FaultCatalog, FaultRate
from repro.faults.types import FaultKind
from repro.obs.attribution import StageAttributor
from repro.obs.budget import build_budget, format_budget

from tests.obs.synth import standard_detected_record

ENV = EnvironmentParams(operator_response=600.0, reset_duration=10.0)


def fitted_template(record=None):
    record = record or standard_detected_record()
    return TemplateFitter().fit(record.to_trace())


def one_kind_catalog(kind=FaultKind.NODE_CRASH, mttf=MONTH, mttr=HOUR,
                     count=4):
    return FaultCatalog([FaultRate(kind=kind, mttf=mttf, mttr=mttr,
                                   count=count)])


def record_budget():
    """One recorded fault's budget, its attribution as the measured view
    (what ``repro explain`` prints)."""
    record = standard_detected_record()
    report = StageAttributor().attribute(record)
    return build_budget({FaultKind(record.fault): report.template},
                        one_kind_catalog(),
                        float(record.timeline["offered_rate"]),
                        version=record.version, environment=ENV,
                        measured=[report])


class TestBuildBudget:
    def test_total_matches_model_unavailability(self):
        template = fitted_template()
        catalog = one_kind_catalog()
        templates = {FaultKind.NODE_CRASH: template}
        budget = build_budget(templates, catalog, offered_rate=100.0,
                              version="SYNTH", environment=ENV)
        model = AvailabilityModel(catalog, ENV).evaluate(
            templates, normal_tput=100.0, offered_rate=100.0,
            version="SYNTH")
        # per-stage clamping can only add; equality when no stage serves
        # above the offered load
        assert budget.total_unavailability == pytest.approx(
            model.unavailability, rel=1e-9)

    def test_lines_are_stage_resolved(self):
        budget = build_budget({FaultKind.NODE_CRASH: fitted_template()},
                              one_kind_catalog(), offered_rate=100.0,
                              environment=ENV)
        stages = {line.stage for line in budget.lines}
        assert stages <= set(STAGE_NAMES)
        assert "C" in stages  # MTTR-supplied stage dominates
        for line in budget.lines:
            assert line.duration > 0
            assert line.cause
            assert line.unavailability >= 0

    def test_sorted_by_contribution(self):
        budget = build_budget({FaultKind.NODE_CRASH: fitted_template()},
                              one_kind_catalog(), offered_rate=100.0,
                              environment=ENV)
        u = [line.unavailability for line in budget.lines]
        assert u == sorted(u, reverse=True)

    def test_objective_and_consumption(self):
        budget = build_budget({FaultKind.NODE_CRASH: fitted_template()},
                              one_kind_catalog(), offered_rate=100.0,
                              environment=ENV, objective=0.99)
        assert budget.budget == pytest.approx(0.01)
        assert budget.consumed == pytest.approx(
            budget.total_unavailability / 0.01)
        assert budget.availability == pytest.approx(
            1.0 - budget.total_unavailability)

    def test_missing_kinds_reported_not_budgeted(self):
        catalog = FaultCatalog([
            FaultRate(FaultKind.NODE_CRASH, MONTH, HOUR, 4),
            FaultRate(FaultKind.APP_CRASH, MONTH, HOUR, 4),
        ])
        budget = build_budget({FaultKind.NODE_CRASH: fitted_template()},
                              catalog, offered_rate=100.0, environment=ENV)
        assert budget.missing_kinds == [FaultKind.APP_CRASH]
        assert all(l.fault is FaultKind.NODE_CRASH for l in budget.lines)

    def test_rollups(self):
        budget = build_budget({FaultKind.NODE_CRASH: fitted_template()},
                              one_kind_catalog(), offered_rate=100.0,
                              environment=ENV)
        assert sum(budget.by_stage().values()) == pytest.approx(
            budget.total_unavailability)

    def test_validation(self):
        with pytest.raises(ValueError, match="offered_rate"):
            build_budget({}, one_kind_catalog(), offered_rate=0.0)
        with pytest.raises(ValueError, match="objective"):
            build_budget({}, one_kind_catalog(), offered_rate=100.0,
                         objective=1.0)


class TestBudgetFromRecords:
    def test_end_to_end_with_explicit_catalog(self):
        budget = record_budget()
        assert budget.version == "SYNTH"
        assert budget.lines
        assert len(budget.measured) == 1
        measured = budget.measured[0]
        assert measured.coverage >= 0.95
        assert measured.agrees_with_fit

    def test_json_round_trip_shape(self):
        payload = record_budget().to_dict()
        assert payload["version"] == "SYNTH"
        assert payload["lines"]
        assert payload["measured"][0]["coverage"] >= 0.95
        import json

        json.dumps(payload)  # must be JSON-serializable


class TestFormatBudget:
    def test_renders_drilldown_and_measurements(self):
        text = format_budget(record_budget())
        assert "unavailability" in text
        assert "stable-degraded-capacity" in text
        assert "per-stage rollup" in text
        assert "measured experiments" in text
        assert "% attributed" in text

    def test_top_truncation(self):
        text = format_budget(record_budget(), top=1)
        assert "(other lines)" in text
