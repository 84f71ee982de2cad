"""Unavailability error budgets: split a model result per fault stage.

An error budget frames availability as a spendable quantity: against an
objective (say 99.9%), the allowed unavailability is ``1 - objective``
and every ``(fault kind, stage, cause)`` pair consumes a share of it.
:func:`build_budget` splits a :class:`~repro.core.model.ModelResult`
over the templates the model resolved, so the budget's total matches
the model's unavailability (up to per-stage clamping of throughputs
above the offered load) under whatever environment the model was
evaluated with.  A whole version's budget is
``VersionAvailability.stage_budget()``; ``repro explain`` budgets the
one fault it injected, with the run's attribution as the measured view.

A stage line's steady-state unavailability contribution is::

    u_{i,s} = n_i * d_s * max(lambda - T_s, 0) / (MTTF_i * lambda)

with ``n_i`` components of mean time to failure ``MTTF_i``, resolved
stage duration ``d_s`` and throughput ``T_s``, and offered load
``lambda`` (the paper's unsaturated-server assumption, as in the model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.core.model import ModelResult
from repro.core.report import format_bar
from repro.core.template import STAGE_NAMES
from repro.faults.faultload import FaultCatalog
from repro.faults.types import FAULT_LABELS, FaultKind
from repro.obs.attribution import STAGE_CAUSES, AttributionReport

#: default availability objective: "three nines"
DEFAULT_OBJECTIVE = 0.999


@dataclass(frozen=True)
class BudgetLine:
    """One (fault kind, stage)'s steady-state unavailability share."""

    fault: FaultKind
    stage: str
    cause: str
    count: int
    mttf: float
    duration: float  # resolved stage duration (s)
    throughput: float  # stage throughput (req/s)
    unavailability: float

    @property
    def label(self) -> str:
        return FAULT_LABELS.get(self.fault, self.fault.value)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fault": self.fault.value, "stage": self.stage,
            "cause": self.cause, "count": self.count, "mttf": self.mttf,
            "duration": self.duration, "throughput": self.throughput,
            "unavailability": self.unavailability,
        }


@dataclass
class BudgetReport:
    """Per-version unavailability budget with stage-level drill-down."""

    version: str
    objective: float
    offered_rate: float
    lines: List[BudgetLine]
    #: attribution reports of the underlying experiments, when the
    #: caller passes them (empty for a whole version's budget)
    measured: List[AttributionReport] = field(default_factory=list)
    #: fault kinds in the catalog the model result has no contribution
    #: for (their share of unavailability is *not* in this budget)
    missing_kinds: List[FaultKind] = field(default_factory=list)

    @property
    def total_unavailability(self) -> float:
        return sum(line.unavailability for line in self.lines)

    @property
    def availability(self) -> float:
        return 1.0 - self.total_unavailability

    @property
    def budget(self) -> float:
        """Allowed unavailability under the objective."""
        return 1.0 - self.objective

    @property
    def consumed(self) -> float:
        """Fraction of the budget spent (>1 means the objective is blown)."""
        return (self.total_unavailability / self.budget
                if self.budget > 0 else float("inf"))

    def by_stage(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for line in self.lines:
            out[line.stage] = out.get(line.stage, 0.0) + line.unavailability
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "objective": self.objective,
            "offered_rate": self.offered_rate,
            "total_unavailability": self.total_unavailability,
            "availability": self.availability,
            "budget": self.budget,
            "consumed": self.consumed,
            "lines": [line.to_dict() for line in self.lines],
            "measured": [m.to_dict() for m in self.measured],
            "missing_kinds": [k.value for k in self.missing_kinds],
        }


def build_budget(
    result: ModelResult,
    catalog: FaultCatalog,
    objective: float = DEFAULT_OBJECTIVE,
    measured: Sequence[AttributionReport] = (),
) -> BudgetReport:
    """Split a model result over the stages of the templates it resolved.

    Kinds in ``catalog`` the result has no contribution for are listed
    in ``missing_kinds``.
    """
    if not 0.0 < objective < 1.0:
        raise ValueError("objective must be in (0, 1)")
    offered = result.offered_rate
    lines: List[BudgetLine] = []
    missing: List[FaultKind] = []
    for rate in catalog:
        contribution = result.contribution(rate.kind)
        if contribution is None:
            missing.append(rate.kind)
            continue
        for name in STAGE_NAMES:
            stage = contribution.template.stage(name)
            if stage.duration <= 0:
                continue
            u = (rate.count * stage.duration
                 * max(offered - stage.throughput, 0.0)
                 / (rate.mttf * offered))
            lines.append(BudgetLine(
                fault=rate.kind,
                stage=name,
                cause=STAGE_CAUSES[name],
                count=rate.count,
                mttf=rate.mttf,
                duration=stage.duration,
                throughput=stage.throughput,
                unavailability=u,
            ))
    lines.sort(key=lambda l: l.unavailability, reverse=True)
    return BudgetReport(
        version=result.version,
        objective=objective,
        offered_rate=offered,
        lines=lines,
        measured=list(measured),
        missing_kinds=missing,
    )


# -- rendering -------------------------------------------------------------
def format_budget(report: BudgetReport) -> str:
    """Human-readable budget with stage drill-down and measured coverage."""
    total = report.total_unavailability
    lines = [
        f"version {report.version}: unavailability {total:.2e} "
        f"(availability {report.availability:.5f})",
        f"objective {report.objective:.5g} -> budget {report.budget:.2e}, "
        f"consumed {report.consumed * 100:.1f}%",
        "",
        f"  {'fault class':<18} {'stage':<5} {'dur(s)':>9} {'tput':>8} "
        f"{'unavail':>10} {'share':>6}  cause",
    ]
    for line in report.lines:
        share = line.unavailability / total if total > 0 else 0.0
        lines.append(
            f"  {line.label:<18} {line.stage:<5} {line.duration:>9.1f} "
            f"{line.throughput:>8.1f} {line.unavailability:>10.2e} "
            f"{share * 100:>5.1f}%  {line.cause}"
        )
    if report.missing_kinds:
        names = ", ".join(k.value for k in report.missing_kinds)
        lines.append(f"  (no recorded template for: {names} — their share "
                     f"is not budgeted)")

    by_stage = report.by_stage()
    if by_stage and total > 0:
        lines.append("")
        lines.append("  per-stage rollup:")
        peak = max(by_stage.values())
        for name in STAGE_NAMES:
            if name not in by_stage:
                continue
            u = by_stage[name]
            lines.append(
                f"    {name}  {u:>10.2e} {u / total * 100:>5.1f}% "
                f"{format_bar(u, peak, width=30)}"
            )

    if report.measured:
        lines.append("")
        lines.append("  measured experiments:")
        for m in report.measured:
            lines.append(
                f"    {m.fault:<18} lost {m.total_lost:>9.1f} req-s, "
                f"{m.coverage * 100:>5.1f}% attributed"
            )
            for note in m.notes:
                lines.append(f"      note: {note}")
    return "\n".join(lines)
