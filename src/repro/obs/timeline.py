"""ASCII timeline rendering of recorded flights and their attributions.

:func:`render_timeline` turns a flight record into a terminal chart:
throughput per bucket, the template stage each bucket was attributed
to, and the fault lifecycle marks — Figure 3/4 of the paper as text —
followed by the per-stage loss table.  It is the lost-requests section
of ``repro explain``, and replays a saved record offline
(``read_record`` -> ``render_timeline``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.report import format_bar
from repro.faults.campaign import ExperimentTrace
from repro.obs.attribution import RESIDUAL_STAGE, AttributionReport, StageAttributor
from repro.obs.recorder import FlightRecord

#: seconds of throughput per chart row
_BUCKET = 5.0
#: columns of the throughput bar
_WIDTH = 40
#: seconds of pre-injection steady state shown, to anchor the eye at
#: the normal level
_LEAD = 15.0

#: fault-lifecycle marks shown beside the chart
_MARKS = (
    ("INJECT", "t_inject"),
    ("DETECT", "t_detect"),
    ("REPAIR", "t_repair"),
    ("RESET", "t_reset"),
)


def throughput_buckets(trace: ExperimentTrace) -> Tuple[np.ndarray, np.ndarray]:
    """The chart's rows as ``(times, rates)``: successes per second in
    ``_BUCKET``-s buckets from ``_LEAD`` s before the injection to the
    run's end (``repro explain --json`` reports the same buckets)."""
    return trace.series.bucketize(_BUCKET, max(trace.t_inject - _LEAD, 0.0),
                                  trace.t_end)


def render_timeline(
    record: FlightRecord,
    report: Optional[AttributionReport] = None,
) -> str:
    """The throughput chart with stage bands and lifecycle marks.

    ``report`` defaults to a fresh attribution of ``record``; pass one in
    to reuse an existing analysis.
    """
    if report is None:
        report = StageAttributor().attribute(record)
    trace = record.to_trace()
    times, rates = throughput_buckets(trace)
    peak = max(float(rates.max()) if len(rates) else 0.0,
               trace.offered_rate, 1.0)

    header = (f"{record.version} / {record.fault} @ {record.target} "
              f"(seed {record.seed}, profile {record.profile or '?'})")
    lines = [
        header,
        f"normal {trace.normal_tput:.1f} req/s, offered "
        f"{trace.offered_rate:.1f} req/s, bucket {_BUCKET:g}s",
        "",
        f"{'t(s)':>8} {'req/s':>8}  {'throughput':<{_WIDTH}} stage",
    ]
    for t, r in zip(times, rates):
        stage = _stage_of(report, t, t + _BUCKET)
        marks = _marks_in(record, t, t + _BUCKET)
        bar = format_bar(float(r), peak, width=_WIDTH)
        suffix = f"  {' '.join(marks)}" if marks else ""
        lines.append(
            f"{t:>8.1f} {float(r):>8.1f}  {bar:<{_WIDTH}} {stage:<5}{suffix}"
        )
    lines.append("")
    lines.extend(format_attribution(report).splitlines())
    return "\n".join(lines)


def format_attribution(report: AttributionReport) -> str:
    """The per-stage loss table and the attribution's notes."""
    lines = [
        f"{'stage':<6} {'window':<17} {'dur(s)':>8} {'lost req-s':>11} "
        f"{'share':>6}  cause",
    ]
    total = report.total_lost
    for s in report.slices:
        share = s.lost / total if total > 0 else 0.0
        window = f"{s.t0:.1f}-{s.t1:.1f}"
        lines.append(
            f"{s.stage:<6} {window:<17} {s.duration:>8.1f} {s.lost:>11.1f} "
            f"{share * 100:>5.1f}%  {s.cause}"
        )
    lines.append(
        f"attributed {report.attributed_lost:.1f} of {total:.1f} lost "
        f"request-seconds ({report.coverage * 100:.1f}%) to named stages"
    )
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _stage_of(report: AttributionReport, t0: float, t1: float) -> str:
    """The stage covering most of bucket [t0, t1) ('.' outside the fault)."""
    best: Tuple[float, str] = (0.0, "")
    for s in report.slices:
        overlap = min(s.t1, t1) - max(s.t0, t0)
        if overlap > best[0]:
            best = (overlap, s.stage)
    if not best[1]:
        return "."
    return "." if best[1] == RESIDUAL_STAGE else best[1]


def _marks_in(record: FlightRecord, t0: float, t1: float) -> List[str]:
    marks = []
    for label, key in _MARKS:
        t = record.timeline.get(key)
        if t is not None and t0 <= float(t) < t1:
            marks.append(label)
    return marks
