"""Property-based round-trips for the template fitter.

Generate a random-but-well-formed fault episode, synthesize its
throughput timeline, fit it, and check the fitter recovers the stage
structure within tolerance.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.template import TemplateFitter
from repro.obs.trace import Tracer
from tests.core.test_template import make_trace

NORMAL = 100.0


@settings(max_examples=40, deadline=None)
@given(
    detect_delay=st.floats(min_value=5.0, max_value=40.0),
    stall_level=st.floats(min_value=0.0, max_value=0.2),
    degraded_level=st.floats(min_value=0.4, max_value=0.8),
)
def test_detected_fault_round_trip(detect_delay, stall_level, degraded_level):
    """normal -> stall until detection -> degraded until repair -> normal."""
    t_inject, fault_len = 60.0, 120.0
    t_detect = t_inject + detect_delay
    t_repair = t_inject + fault_len
    assume(t_detect < t_repair - 20.0)
    tracer = Tracer()
    tracer.mark(t_detect, "detected", ("x", 0, 1))
    trace = make_trace(
        [(0, t_inject, NORMAL),
         (t_inject, t_detect, stall_level * NORMAL),
         (t_detect, t_repair, degraded_level * NORMAL),
         (t_repair, t_repair + 60.0, NORMAL)],
        t_inject=t_inject, t_repair=t_repair, t_end=t_repair + 60.0,
        markers=tracer.markers,
    )
    tpl = TemplateFitter().fit(trace)
    assert tpl.stage("A").duration == pytest.approx(detect_delay, abs=1e-6)
    assert tpl.stage("A").throughput == pytest.approx(
        stall_level * NORMAL, abs=0.15 * NORMAL)
    assert tpl.stage("C").throughput == pytest.approx(
        degraded_level * NORMAL, abs=0.12 * NORMAL)
    assert tpl.self_recovered


@settings(max_examples=30, deadline=None)
@given(degraded=st.floats(min_value=0.2, max_value=0.7))
def test_undetected_fault_round_trip(degraded):
    trace = make_trace(
        [(0, 60, NORMAL), (60, 180, degraded * NORMAL), (180, 240, NORMAL)],
        t_inject=60.0, t_repair=180.0, t_end=240.0,
    )
    tpl = TemplateFitter().fit(trace)
    assert tpl.stage("A").duration == pytest.approx(120.0)
    assert tpl.stage("B").duration == 0.0
    assert tpl.stage("C").throughput == pytest.approx(tpl.stage("A").throughput)


@settings(max_examples=30, deadline=None)
@given(
    plateau=st.floats(min_value=0.3, max_value=0.85),
    mttr=st.floats(min_value=100.0, max_value=5000.0),
    operator=st.floats(min_value=60.0, max_value=3600.0),
)
def test_flat_plateau_is_charged_the_operator_path(plateau, mttr, operator):
    """A post-repair plateau below the recovered level and not climbing
    must resolve to the operator-path stages, and the resolved template's
    cost must grow with both MTTR and the operator response."""
    tracer = Tracer()
    tracer.mark(70.0, "detected", ("x", 0, 1))
    trace = make_trace(
        [(0, 60, NORMAL), (60, 70, 0.0), (70, 180, plateau * NORMAL),
         (180, 280, plateau * NORMAL)],
        t_inject=60.0, t_repair=180.0, t_end=280.0, markers=tracer.markers,
    )
    tpl = TemplateFitter().fit(trace)
    assert not tpl.self_recovered
    resolved = tpl.resolved(mttr=mttr, operator_response=operator,
                            reset_duration=10.0)
    assert resolved.stage("E").duration == operator
    deficit = resolved.deficit()
    bigger = tpl.resolved(mttr=mttr * 2, operator_response=operator * 2,
                          reset_duration=10.0).deficit()
    assert bigger >= deficit


@settings(max_examples=30, deadline=None)
@given(level=st.floats(min_value=0.94, max_value=1.0))
def test_near_normal_tail_is_self_recovered(level):
    trace = make_trace(
        [(0, 60, NORMAL), (60, 75, 10.0), (75, 180, level * NORMAL),
         (180, 260, level * NORMAL)],
        t_inject=60.0, t_repair=180.0, t_end=260.0,
    )
    tpl = TemplateFitter().fit(trace)
    assert tpl.self_recovered
