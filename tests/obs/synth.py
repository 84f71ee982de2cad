"""Synthetic flight records for the availability-accounting tests.

Builds scripted throughput timelines (no simulation) in the shape the
recorder captures, so attribution/budget/timeline behaviour can be
pinned deterministically and fast.
"""

from repro.faults.campaign import CampaignConfig, ExperimentTrace
from repro.faults.types import FaultComponent, FaultKind
from repro.obs.events import TraceEvent
from repro.obs.recorder import FlightRecord
from repro.obs.trace import Tracer
from repro.sim.series import ThroughputSeries


def synth_series(segments):
    """A ThroughputSeries from (t_start, t_end, rate) segments."""
    series = ThroughputSeries()
    for start, end, rate in segments:
        if rate <= 0:
            continue
        gap = 1.0 / rate
        if gap > (end - start):
            continue
        t = start
        while t < end:
            series.record(t)
            t += gap
    return series


def make_trace(segments, t_inject, t_repair, t_end, markers=None,
               normal=100.0, offered=100.0, t_reset=None,
               kind=FaultKind.NODE_CRASH, config=None):
    return ExperimentTrace(
        component=FaultComponent(kind, "n1"),
        config=config or CampaignConfig(),
        series=synth_series(segments),
        markers=markers if markers is not None else Tracer().markers,
        t_inject=t_inject,
        t_repair=t_repair,
        t_end=t_end,
        normal_tput=normal,
        offered_rate=offered,
        t_reset=t_reset,
        version="SYNTH",
    )


def detected_at(t, mechanism="heartbeat", observer="n2", target="n1"):
    """Matching marker + structured event for one detection."""
    marker = (t, "detected", (mechanism, observer, target))
    event = TraceEvent(time=t, kind="detected", source=observer,
                       data={"mechanism": mechanism, "observer": observer,
                             "target": target})
    return marker, event


def make_record(trace, events=(), seed=0, profile="synth"):
    return FlightRecord.from_experiment(
        trace, events=list(events), seed=seed, profile=profile,
        target=trace.component.target,
    )


def standard_detected_record(normal=100.0, offered=100.0):
    """The canonical detected-and-self-recovering experiment.

    normal until 60, near-zero 60..75 (detection at 75), a 10 s
    reconfiguration transient, degraded at 70 until repair at 150, a
    re-integration transient, back to normal until 240.
    """
    tracer = Tracer()
    marker, event = detected_at(75.0)
    tracer.mark(*marker[:2], marker[2])
    segments = [(0, 60, normal), (60, 75, 1.0), (75, 85, 40.0),
                (85, 150, 70.0), (150, 160, 85.0), (160, 240, normal)]
    trace = make_trace(segments, t_inject=60.0, t_repair=150.0, t_end=240.0,
                       markers=tracer.markers, normal=normal, offered=offered)
    return make_record(trace, events=[event])


def reset_ladder_record():
    """Detected, flat suboptimal after repair, then an operator reset.

    Detection at 65, a reconfiguration transient, degraded through
    repair at 120, flat at 60% until the operator resets at 180, a 10 s
    outage, re-warming until normal at 220.
    """
    tracer = Tracer()
    marker, event = detected_at(65.0)
    tracer.mark(*marker[:2], marker[2])
    segments = [(0, 60, 100.0), (60, 65, 1.0), (65, 75, 40.0),
                (75, 120, 70.0), (120, 130, 85.0), (130, 180, 60.0),
                (190, 220, 80.0), (220, 300, 100.0)]
    trace = make_trace(segments, t_inject=60.0, t_repair=120.0, t_end=300.0,
                       markers=tracer.markers, t_reset=180.0)
    return make_record(trace, events=[event])
