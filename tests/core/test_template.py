"""7-stage template fitting on synthetic throughput timelines."""

import pytest

from repro.core.template import (
    STAGE_NAMES,
    FitConfig,
    SevenStageTemplate,
    Stage,
    TemplateFitter,
)
from repro.faults.campaign import CampaignConfig, ExperimentTrace
from repro.faults.types import FaultComponent, FaultKind
from repro.obs.trace import Tracer
from repro.sim.series import ThroughputSeries


def synth_series(segments, dt=0.02):
    """Build a ThroughputSeries from (t_start, t_end, rate) segments.

    Segments are generated independently (events at start + k/rate), so a
    near-zero-rate segment cannot swallow the ones after it.
    """
    series = ThroughputSeries()
    for start, end, rate in segments:
        if rate <= 0:
            continue
        gap = 1.0 / rate
        if gap > (end - start):
            continue  # too slow to produce an event in this window
        t = start
        while t < end:
            series.record(t)
            t += gap
    return series


def make_trace(segments, t_inject, t_repair, t_end, markers=None,
               normal=100.0, offered=100.0, t_reset=None):
    m = markers if markers is not None else Tracer().markers
    return ExperimentTrace(
        component=FaultComponent(FaultKind.NODE_CRASH, "n1"),
        config=CampaignConfig(),
        series=synth_series(segments),
        markers=m,
        t_inject=t_inject,
        t_repair=t_repair,
        t_end=t_end,
        normal_tput=normal,
        offered_rate=offered,
        t_reset=t_reset,
    )


class TestStageValidation:
    def test_stage_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Stage("Z", 1.0, 1.0)
        with pytest.raises(ValueError):
            Stage("A", -1.0, 1.0)
        with pytest.raises(ValueError):
            Stage("A", 1.0, -1.0)

    def test_template_requires_all_stages(self):
        stages = {n: Stage(n, 0.0, 0.0) for n in STAGE_NAMES[:-1]}
        with pytest.raises(ValueError):
            SevenStageTemplate(stages, 100.0, 100.0)


class TestFitting:
    def test_detected_fault_stage_boundaries(self):
        # normal 100 until 60; drop to 0 during 60..75 (detection at 75);
        # recover to 75 (one node lost) until repair at 150; back to 100.
        tracer = Tracer()
        tracer.mark(75.0, "detected", ("heartbeat", 2, 1))
        trace = make_trace(
            [(0, 60, 100), (60, 75, 0.0), (75, 150, 75.0), (150, 210, 100.0)],
            t_inject=60.0, t_repair=150.0, t_end=210.0, markers=tracer.markers,
        )
        tpl = TemplateFitter().fit(trace)
        assert tpl.stage("A").duration == pytest.approx(15.0)
        assert tpl.stage("A").throughput < 5.0
        assert tpl.stage("C").throughput == pytest.approx(75.0, rel=0.05)
        assert tpl.self_recovered

    def test_undetected_fault_A_extends_through_C(self):
        trace = make_trace(
            [(0, 60, 100), (60, 150, 70.0), (150, 210, 100.0)],
            t_inject=60.0, t_repair=150.0, t_end=210.0,
        )
        tpl = TemplateFitter().fit(trace)
        assert tpl.stage("A").duration == pytest.approx(90.0)
        assert tpl.stage("B").duration == 0.0
        # C continues at the undetected degraded level
        assert tpl.stage("C").throughput == pytest.approx(tpl.stage("A").throughput)

    def test_operator_reset_fills_F_and_G(self):
        tracer = Tracer()
        tracer.mark(65.0, "detected", ("x", 0, 1))
        trace = make_trace(
            [(0, 60, 100), (60, 65, 0.0), (65, 150, 60.0), (150, 200, 60.0),
             (210, 230, 50.0), (230, 260, 100.0)],
            t_inject=60.0, t_repair=150.0, t_end=260.0, markers=tracer.markers,
            t_reset=200.0,
        )
        tpl = TemplateFitter().fit(trace)
        assert not tpl.self_recovered
        assert tpl.stage("F").duration == pytest.approx(10.0)  # reset_duration
        assert tpl.stage("F").throughput < 10.0
        assert tpl.stage("G").duration > 0.0

    def test_resolved_fills_supplied_durations(self):
        tracer = Tracer()
        tracer.mark(75.0, "detected", ("x", 0, 1))
        trace = make_trace(
            [(0, 60, 100), (60, 75, 0.0), (75, 150, 75.0), (150, 210, 100.0)],
            t_inject=60.0, t_repair=150.0, t_end=210.0, markers=tracer.markers,
        )
        tpl = TemplateFitter().fit(trace)
        resolved = tpl.resolved(mttr=300.0, operator_response=600.0, reset_duration=10.0)
        a, b = resolved.stage("A").duration, resolved.stage("B").duration
        assert resolved.stage("C").duration == pytest.approx(300.0 - a - b)
        assert resolved.stage("E").duration == 0.0  # self-recovered

    def test_resolved_operator_path(self):
        stages = {n: Stage(n, 0.0, 50.0) for n in STAGE_NAMES}
        stages["A"] = Stage("A", 20.0, 10.0)
        tpl = SevenStageTemplate(stages, 100.0, 100.0, self_recovered=False)
        resolved = tpl.resolved(mttr=100.0, operator_response=600.0, reset_duration=15.0)
        assert resolved.stage("C").duration == pytest.approx(80.0)
        assert resolved.stage("E").duration == 600.0
        assert resolved.stage("F").duration == 15.0

    def test_resolved_clamps_negative_C(self):
        stages = {n: Stage(n, 0.0, 50.0) for n in STAGE_NAMES}
        stages["A"] = Stage("A", 500.0, 10.0)
        tpl = SevenStageTemplate(stages, 100.0, 100.0)
        resolved = tpl.resolved(mttr=100.0, operator_response=0.0, reset_duration=0.0)
        assert resolved.stage("C").duration == 0.0

    def test_served_and_deficit(self):
        stages = {n: Stage(n, 0.0, 0.0) for n in STAGE_NAMES}
        stages["A"] = Stage("A", 10.0, 40.0)
        stages["C"] = Stage("C", 90.0, 80.0)
        tpl = SevenStageTemplate(stages, 100.0, 100.0)
        assert tpl.served_during_fault() == pytest.approx(10 * 40 + 90 * 80)
        assert tpl.deficit() == pytest.approx(10 * 60 + 90 * 20)
        assert tpl.total_duration == pytest.approx(100.0)

    def test_fit_full_recovery_has_zero_EFG_cost(self):
        tracer = Tracer()
        tracer.mark(61.0, "detected", ("x", 0, 1))
        trace = make_trace(
            [(0, 60, 100), (60, 61, 0.0), (61, 150, 95.0), (150, 210, 100.0)],
            t_inject=60.0, t_repair=150.0, t_end=210.0, markers=tracer.markers,
        )
        tpl = TemplateFitter().fit(trace)
        resolved = tpl.resolved(180.0, 600.0, 10.0)
        for name in ("E", "F", "G"):
            assert resolved.stage(name).duration == 0.0


class TestStabilization:
    def test_immediate_stability_gives_zero(self):
        fitter = TemplateFitter()
        series = synth_series([(0, 100, 50.0)])
        assert fitter._stabilization_time(series, 10.0, 90.0, 50.0, 100.0) == 0.0

    def test_step_change_located(self):
        fitter = TemplateFitter(FitConfig(stable_buckets=3))
        series = synth_series([(0, 30, 10.0), (30, 100, 80.0)])
        t = fitter._stabilization_time(series, 0.0, 100.0, 80.0, 100.0)
        assert t == pytest.approx(30.0, abs=2.0)

    def test_never_stable_returns_window(self):
        fitter = TemplateFitter()
        series = synth_series([(0, 100, 10.0)])
        t = fitter._stabilization_time(series, 0.0, 50.0, 90.0, 100.0)
        assert t == pytest.approx(50.0)


def _detected(t):
    tracer = Tracer()
    tracer.mark(t, "detected", ("x", 0, 1))
    return tracer.markers


def _window_traces():
    """One trace per window shape (detected, undetected, no-reset
    plateau, operator reset), with the stage sequence it must produce."""
    reset = [(0, 60, 100), (60, 65, 0.0), (65, 150, 60.0), (150, 200, 60.0),
             (210, 230, 50.0), (230, 260, 100.0)]
    return {
        "detected": (make_trace(
            [(0, 60, 100), (60, 75, 0.0), (75, 150, 75.0), (150, 210, 100.0)],
            t_inject=60.0, t_repair=150.0, t_end=210.0,
            markers=_detected(75.0)), "ABCD-"),
        "undetected": (make_trace(
            [(0, 60, 100), (60, 150, 70.0), (150, 210, 100.0)],
            t_inject=60.0, t_repair=150.0, t_end=210.0), "AD-"),
        "plateau": (make_trace(
            [(0, 60, 100), (60, 65, 0.0), (65, 120, 70.0), (120, 240, 60.0)],
            t_inject=60.0, t_repair=120.0, t_end=240.0,
            markers=_detected(65.0)), "ABCDE"),
        "reset": (make_trace(
            reset, t_inject=60.0, t_repair=150.0, t_end=260.0,
            markers=_detected(65.0), t_reset=200.0), "ABCDEFG-"),
        # observation ends inside the 10 s reset outage
        "reset cut short": (make_trace(
            reset, t_inject=60.0, t_repair=150.0, t_end=205.0,
            markers=_detected(65.0), t_reset=200.0), "ABCDEFG-"),
    }


class TestFitWindows:
    @pytest.mark.parametrize("shape", list(_window_traces()))
    def test_fit_is_the_template_of_fit_windows(self, shape):
        trace, _ = _window_traces()[shape]
        fitter = TemplateFitter()
        assert fitter.fit(trace) == fitter.fit_windows(trace)[0]

    @pytest.mark.parametrize("shape", list(_window_traces()))
    def test_windows_partition_the_run(self, shape):
        trace, stages = _window_traces()[shape]
        _, windows = TemplateFitter().fit_windows(trace)
        assert "".join(name for name, _, _ in windows) == stages
        # each window starts where the last ended: no gap, no overlap
        ends = [trace.t_inject] + [t1 for _, _, t1 in windows]
        assert [t0 for _, t0, _ in windows] == ends[:-1]
        assert ends[-1] == trace.t_end
        assert all(t0 <= t1 for _, t0, t1 in windows)

    @pytest.mark.parametrize("shape",
                             ["detected", "undetected", "plateau", "reset"])
    def test_measured_stage_windows_last_the_stage_durations(self, shape):
        trace, _ = _window_traces()[shape]
        template, windows = TemplateFitter().fit_windows(trace)
        durations = {name: t1 - t0 for name, t0, t1 in windows}
        for name in "ABDFG":
            assert durations.get(name, 0.0) == pytest.approx(
                template.stage(name).duration), name

    def test_reset_cut_short_ends_f_at_t_end(self):
        trace, _ = _window_traces()["reset cut short"]
        template, windows = TemplateFitter().fit_windows(trace)
        spans = {name: (t0, t1) for name, t0, t1 in windows}
        assert spans["F"] == (200.0, 205.0)
        assert spans["G"] == spans["-"] == (205.0, 205.0)
        assert template.stage("F").duration == 10.0  # the configured reset

