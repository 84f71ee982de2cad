"""Stage attribution on scripted timelines, including the edge cases:
undetected faults (no stage B), no operator reset (no F/G),
zero-throughput windows, and slices being the fitted stages."""

import pytest

from repro.core.template import TemplateFitter
from repro.obs.attribution import RESIDUAL_STAGE, StageAttributor
from repro.obs.trace import Tracer

from tests.obs.synth import (
    detected_at,
    make_record,
    make_trace,
    reset_ladder_record,
    standard_detected_record,
)


def attribute(record):
    return StageAttributor().attribute(record)


class TestDetectedSelfRecovering:
    def test_slices_partition_the_fault_window(self):
        report = attribute(standard_detected_record())
        stages = [s.stage for s in report.slices]
        assert stages[:4] == ["A", "B", "C", "D"]
        # contiguous, gap-free partition from injection to end
        assert report.slices[0].t0 == 60.0
        for prev, cur in zip(report.slices, report.slices[1:]):
            assert cur.t0 == pytest.approx(prev.t1)
        assert report.slices[-1].t1 == 240.0

    def test_stage_a_matches_detection_event(self):
        report = attribute(standard_detected_record())
        a = report.slices[0]
        assert (a.t0, a.t1) == (60.0, 75.0)
        assert a.cause == "undetected-window"

    def test_every_slice_is_fully_named(self):
        report = attribute(standard_detected_record())
        for s in report.slices:
            assert s.fault == "node_crash"
            assert s.component == "n1"
            assert s.cause

    def test_loss_concentrated_in_named_stages(self):
        report = attribute(standard_detected_record())
        assert report.total_lost > 0
        assert report.coverage >= 0.95
        assert report.attributed_lost + report.residual_lost == \
            pytest.approx(report.total_lost)

    def test_slices_are_the_fitted_stages(self):
        for record, measured in ((standard_detected_record(), "ABD"),
                                 (reset_ladder_record(), "ABDFG")):
            report = attribute(record)
            fitted = TemplateFitter().fit(record.to_trace())
            durations = {s.stage: s.duration for s in report.slices}
            for name in measured:
                assert fitted.stage(name).duration > 0
                assert durations[name] == pytest.approx(
                    fitted.stage(name).duration), name

    def test_loss_accounting_against_hand_integral(self):
        # stage A: 15 s at ~1 req/s against 100 offered ~ 1485 req-s lost
        report = attribute(standard_detected_record())
        a = report.slices[0]
        assert a.offered == pytest.approx(1500.0)
        assert a.lost == pytest.approx(1485.0, rel=0.01)


class TestUndetectedFault:
    """Fault repaired before any detection: stage B must not exist."""

    def _record(self):
        segments = [(0, 60, 100.0), (60, 90, 70.0), (90, 95, 85.0),
                    (95, 180, 100.0)]
        trace = make_trace(segments, t_inject=60.0, t_repair=90.0,
                           t_end=180.0)
        return make_record(trace)

    def test_no_stage_b_or_c(self):
        report = attribute(self._record())
        stages = [s.stage for s in report.slices]
        assert "B" not in stages
        assert "C" not in stages
        assert stages[0] == "A"

    def test_stage_a_spans_the_whole_fault(self):
        report = attribute(self._record())
        a = report.slices[0]
        assert (a.t0, a.t1) == (60.0, 90.0)
        assert a.cause == "undetected-fault"

    def test_detection_after_repair_is_noted(self):
        tracer = Tracer()
        marker, event = detected_at(95.0)
        tracer.mark(marker[0], marker[1], marker[2])
        segments = [(0, 60, 100.0), (60, 90, 70.0), (90, 180, 100.0)]
        trace = make_trace(segments, t_inject=60.0, t_repair=90.0,
                           t_end=180.0, markers=tracer.markers)
        report = attribute(make_record(trace, events=[event]))
        assert [s.stage for s in report.slices][0] == "A"
        assert any("after repair" in n for n in report.notes)


class TestNoOperatorReset:
    """Self-recovering experiments must not produce stages F/G."""

    def test_f_g_absent_when_no_reset(self):
        report = attribute(standard_detected_record())
        stages = {s.stage for s in report.slices}
        assert not ({"F", "G"} & stages)
        assert report.self_recovered

    def test_flat_degraded_plateau_becomes_stage_e(self):
        # After repair the service plateaus at 60% of normal and never
        # climbs: not self-recovered, stage E with the operator cause.
        tracer = Tracer()
        marker, event = detected_at(65.0)
        tracer.mark(marker[0], marker[1], marker[2])
        segments = [(0, 60, 100.0), (60, 65, 1.0), (65, 120, 70.0),
                    (120, 240, 60.0)]
        trace = make_trace(segments, t_inject=60.0, t_repair=120.0,
                           t_end=240.0, markers=tracer.markers)
        report = attribute(make_record(trace, events=[event]))
        e = [s for s in report.slices if s.stage == "E"]
        assert e and e[-1].cause == "stable-suboptimal-awaiting-operator"
        assert not report.self_recovered


class TestOperatorReset:
    def test_full_stage_ladder(self):
        report = attribute(reset_ladder_record())
        stages = [s.stage for s in report.slices]
        for required in ("A", "B", "C", "D", "E", "F", "G"):
            assert required in stages
        assert not report.self_recovered

    def test_stage_f_is_the_reset_outage(self):
        report = attribute(reset_ladder_record())
        f = next(s for s in report.slices if s.stage == "F")
        assert f.t0 == 180.0
        assert f.t1 == pytest.approx(190.0)  # config reset_duration
        assert f.cause == "operator-reset-downtime"
        assert f.served == 0  # nothing served during the restart

    def test_coverage_with_reset(self):
        report = attribute(reset_ladder_record())
        assert report.coverage >= 0.95


class TestZeroThroughputWindows:
    def test_totally_dead_fault_window(self):
        # Throughput is exactly zero from injection to repair (no
        # samples at all in the window) and detection never happens.
        segments = [(0, 60, 100.0), (90, 180, 100.0)]
        trace = make_trace(segments, t_inject=60.0, t_repair=90.0,
                           t_end=180.0)
        report = attribute(make_record(trace))
        a = report.slices[0]
        assert a.served == 0
        assert a.lost == pytest.approx(a.offered) == pytest.approx(3000.0)
        assert report.coverage >= 0.95

    def test_zero_throughput_with_detection(self):
        tracer = Tracer()
        marker, event = detected_at(70.0)
        tracer.mark(marker[0], marker[1], marker[2])
        segments = [(0, 60, 100.0), (120, 130, 80.0), (130, 220, 100.0)]
        trace = make_trace(segments, t_inject=60.0, t_repair=120.0,
                           t_end=220.0, markers=tracer.markers)
        report = attribute(make_record(trace, events=[event]))
        # B's target level is ~0; the scan must place boundaries without
        # dividing by zero and keep the partition exact.
        for prev, cur in zip(report.slices, report.slices[1:]):
            assert cur.t0 == pytest.approx(prev.t1)
        assert report.total_lost == pytest.approx(
            sum(s.lost for s in report.slices))

    def test_empty_series_does_not_crash(self):
        trace = make_trace([], t_inject=10.0, t_repair=20.0, t_end=40.0,
                           normal=100.0, offered=100.0)
        report = attribute(make_record(trace))
        assert report.total_lost == pytest.approx(100.0 * 30.0)


class TestConfig:
    def test_residual_is_labelled(self):
        report = attribute(standard_detected_record())
        residual = [s for s in report.slices if s.stage == RESIDUAL_STAGE]
        assert residual and residual[0].cause == "recovered-steady"
