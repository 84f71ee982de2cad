"""Error-budget rollups: stage decomposition vs the analytic model."""

import pytest

from repro.core.model import AvailabilityModel, EnvironmentParams
from repro.core.quantify import VersionAvailability
from repro.core.template import STAGE_NAMES, TemplateFitter
from repro.experiments.configs import version
from repro.faults.faultload import HOUR, MONTH, FaultCatalog, FaultRate
from repro.faults.types import FaultKind
from repro.obs.attribution import StageAttributor
from repro.obs.budget import build_budget, format_budget

from tests.obs.synth import reset_ladder_record, standard_detected_record

ENV = EnvironmentParams(operator_response=600.0, reset_duration=10.0)


def fitted_template(record=None):
    record = record or standard_detected_record()
    return TemplateFitter().fit(record.to_trace())


def one_kind_catalog(kind=FaultKind.NODE_CRASH, mttf=MONTH, mttr=HOUR,
                     count=4):
    return FaultCatalog([FaultRate(kind=kind, mttf=mttf, mttr=mttr,
                                   count=count)])


def evaluate(catalog, templates=None):
    """The model result a budget splits (one fitted node_crash default)."""
    templates = templates or {FaultKind.NODE_CRASH: fitted_template()}
    return AvailabilityModel(catalog, ENV).evaluate(
        templates, normal_tput=100.0, offered_rate=100.0, version="SYNTH")


def record_budget():
    """One recorded fault's budget, its attribution as the measured view
    (what ``repro explain`` prints)."""
    record = standard_detected_record()
    report = StageAttributor().attribute(record)
    catalog = one_kind_catalog()
    result = evaluate(catalog, {FaultKind(record.fault): report.template})
    return build_budget(result, catalog, measured=[report])


def test_stage_budget_uses_the_quantified_environment():
    template = fitted_template(reset_ladder_record())
    assert not template.self_recovered
    spec = version("COOP")
    result = AvailabilityModel(
        spec.catalog(), EnvironmentParams(operator_response=120.0)
    ).evaluate({FaultKind.NODE_CRASH: template}, normal_tput=100.0,
               offered_rate=100.0, version=spec.name)
    va = VersionAvailability(spec=spec, result=result,
                             templates={FaultKind.NODE_CRASH: template},
                             traces={}, normal_tput=100.0, offered_rate=100.0)
    assert va.stage_budget().total_unavailability == pytest.approx(
        va.unavailability, rel=1e-9)


class TestBuildBudget:
    def test_total_matches_model_unavailability(self):
        catalog = one_kind_catalog()
        result = evaluate(catalog)
        budget = build_budget(result, catalog)
        # per-stage clamping can only add; equality when no stage serves
        # above the offered load
        assert budget.total_unavailability == pytest.approx(
            result.unavailability, rel=1e-9)
        assert (budget.version, budget.offered_rate) == ("SYNTH", 100.0)

    def test_lines_are_stage_resolved(self):
        catalog = one_kind_catalog()
        budget = build_budget(evaluate(catalog), catalog)
        stages = {line.stage for line in budget.lines}
        assert stages <= set(STAGE_NAMES)
        assert "C" in stages  # MTTR-supplied stage dominates
        for line in budget.lines:
            assert line.duration > 0
            assert line.cause
            assert line.unavailability >= 0

    def test_sorted_by_contribution(self):
        catalog = one_kind_catalog()
        budget = build_budget(evaluate(catalog), catalog)
        u = [line.unavailability for line in budget.lines]
        assert u == sorted(u, reverse=True)

    def test_objective_and_consumption(self):
        catalog = one_kind_catalog()
        budget = build_budget(evaluate(catalog), catalog, objective=0.99)
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
        budget = build_budget(evaluate(catalog), catalog)
        assert budget.missing_kinds == [FaultKind.APP_CRASH]
        assert all(l.fault is FaultKind.NODE_CRASH for l in budget.lines)

    def test_rollups(self):
        catalog = one_kind_catalog()
        budget = build_budget(evaluate(catalog), catalog)
        assert sum(budget.by_stage().values()) == pytest.approx(
            budget.total_unavailability)

    def test_validation(self):
        catalog = one_kind_catalog()
        with pytest.raises(ValueError, match="objective"):
            build_budget(evaluate(catalog), catalog, objective=1.0)


class TestBudgetFromRecords:
    def test_end_to_end_with_explicit_catalog(self):
        budget = record_budget()
        assert budget.version == "SYNTH"
        assert budget.lines
        assert len(budget.measured) == 1
        measured = budget.measured[0]
        assert measured.coverage >= 0.95

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
