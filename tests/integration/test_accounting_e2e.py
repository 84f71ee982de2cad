"""Availability accounting on a real simulated fault experiment.

This is the acceptance path for the flight recorder + attribution +
budget pipeline: record a (COOP, node crash) experiment as a campaign
cell does, round-trip the artifact through disk, and check that the
replay is bit-identical, >=95% of lost request-seconds are named, and
stage boundaries agree with the template fitter within one sample
interval.
"""

import pytest

from repro.core import QuantifyConfig
from repro.core.quantify import run_cell
from repro.core.template import TemplateFitter
from repro.experiments.configs import version
from repro.faults.campaign import CampaignCell
from repro.faults.types import FaultKind
from repro.obs.attribution import StageAttributor
from repro.obs.budget import build_budget, format_budget
from repro.obs.recorder import FlightRecord, read_record, write_record
from repro.obs.timeline import render_timeline

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def recorded():
    cell = CampaignCell(index=0, version="COOP", fault="node_crash", seed=0)
    return FlightRecord.from_dict(
        run_cell(cell, QuantifyConfig.quick())["record"])


class TestRecordedFlight:
    def test_artifact_round_trip_replays_identically(self, recorded, tmp_path):
        path = tmp_path / "coop-node_crash.json"
        write_record(recorded, path)
        replayed = read_record(path)
        assert replayed.to_dict() == recorded.to_dict()
        original = StageAttributor().attribute(recorded)
        again = StageAttributor().attribute(replayed)
        assert original.to_dict() == again.to_dict()

    def test_attribution_names_95_percent_of_loss(self, recorded):
        report = StageAttributor().attribute(recorded)
        assert report.total_lost > 0
        assert report.coverage >= 0.95

    def test_boundaries_agree_with_fitter(self, recorded):
        report = StageAttributor().attribute(recorded)
        fitted = TemplateFitter().fit(recorded.to_trace())
        assert report.checks, "expected at least one cross-checked stage"
        for check in report.checks:
            assert abs(check.delta) <= check.tolerance, check.stage
        # A/B come straight from the fitted template's measured stages
        by_stage = {c.stage: c for c in report.checks}
        for name in ("A", "B"):
            stage = fitted.stage(name)
            if stage is not None and name in by_stage:
                assert by_stage[name].fit_duration == pytest.approx(
                    stage.duration)

    def test_budget_rolls_up_the_recording(self, recorded):
        report = StageAttributor().attribute(recorded)
        budget = build_budget({FaultKind.NODE_CRASH: report.template},
                              version("COOP").catalog(),
                              recorded.to_trace().offered_rate,
                              version="COOP", measured=[report])
        assert budget.version == "COOP"
        assert budget.availability < 1.0
        assert budget.measured[0].coverage >= 0.95
        text = format_budget(budget)
        assert "node_crash" in text
        assert "per-stage rollup" in text

    def test_timeline_renders_the_recording(self, recorded):
        text = render_timeline(recorded)
        report = StageAttributor().attribute(recorded)
        assert "COOP / node_crash" in text
        assert "INJECT" in text
        assert "REPAIR" in text
        assert f"{report.coverage * 100:.1f}%" in text
