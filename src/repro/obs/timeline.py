"""ASCII timeline rendering of recorded flights and their attributions.

:func:`render_timeline` turns a flight record into a terminal chart:
throughput per bucket, the template stage each bucket was attributed
to, and the fault lifecycle marks — Figure 3/4 of the paper as text —
followed by the per-stage loss table and the fit cross-check.  It is
the lost-requests section of ``repro explain``, and replays a saved
record offline (``read_record`` -> ``render_timeline``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.report import format_bar
from repro.obs.attribution import (
    RESIDUAL_STAGE,
    AttributionConfig,
    AttributionReport,
    StageAttributor,
)
from repro.obs.recorder import FlightRecord

#: fault-lifecycle marks shown beside the chart
_MARKS = (
    ("INJECT", "t_inject"),
    ("DETECT", "t_detect"),
    ("REPAIR", "t_repair"),
    ("RESET", "t_reset"),
)


def render_timeline(
    record: FlightRecord,
    report: Optional[AttributionReport] = None,
    bucket: float = 5.0,
    width: int = 40,
    lead: float = 15.0,
) -> str:
    """The throughput chart with stage bands and lifecycle marks.

    ``report`` defaults to a fresh attribution of ``record``; pass one in
    to reuse an existing analysis.  ``lead`` seconds of pre-injection
    steady state anchor the eye at the normal level.
    """
    if bucket <= 0:
        raise ValueError("bucket must be positive")
    if report is None:
        report = StageAttributor(AttributionConfig()).attribute(record)
    trace = record.to_trace()
    t_start = max(trace.t_inject - lead, 0.0)
    times, rates = trace.series.bucketize(bucket, t_start, trace.t_end)
    peak = max(float(rates.max()) if len(rates) else 0.0,
               trace.offered_rate, 1.0)

    header = (f"{record.version} / {record.fault} @ {record.target} "
              f"(seed {record.seed}, profile {record.profile or '?'})")
    lines = [
        header,
        f"normal {trace.normal_tput:.1f} req/s, offered "
        f"{trace.offered_rate:.1f} req/s, bucket {bucket:g}s",
        "",
        f"{'t(s)':>8} {'req/s':>8}  {'throughput':<{width}} stage",
    ]
    for t, r in zip(times, rates):
        stage = _stage_of(report, t, t + bucket)
        marks = _marks_in(record, t, t + bucket)
        bar = format_bar(float(r), peak, width=width)
        suffix = f"  {' '.join(marks)}" if marks else ""
        lines.append(
            f"{t:>8.1f} {float(r):>8.1f}  {bar:<{width}} {stage:<5}{suffix}"
        )
    lines.append("")
    lines.extend(format_attribution(report).splitlines())
    return "\n".join(lines)


def format_attribution(report: AttributionReport) -> str:
    """The per-stage loss table plus the fit cross-check diagnostics."""
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
    if report.checks:
        verdict = "agree" if report.agrees_with_fit else "DISAGREE"
        detail = ", ".join(
            f"{c.stage}: {c.event_duration:.1f}s vs fit "
            f"{c.fit_duration:.1f}s" + ("" if c.agrees else " (!)")
            for c in report.checks
        )
        lines.append(f"fit cross-check ({verdict}): {detail}")
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
