"""Unavailability error budgets: roll stage attributions up per version.

An error budget frames availability as a spendable quantity: against an
objective (say 99.9%), the allowed unavailability is ``1 - objective``
and every ``(fault kind, stage, cause)`` pair consumes a share of it.
:func:`build_budget` computes those shares from fitted templates and a
fault catalog — the same per-stage decomposition the analytic model
(:mod:`repro.core.model`) sums over, so the budget's total matches the
model's unavailability (up to per-stage clamping of throughputs above
the offered load).  A whole version's budget is
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
from typing import Any, Dict, List, Mapping, Sequence

from repro.core.model import EnvironmentParams
from repro.core.report import format_bar
from repro.core.template import STAGE_NAMES, SevenStageTemplate
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
    #: caller passes them (empty when built straight from templates)
    measured: List[AttributionReport] = field(default_factory=list)
    #: fault kinds in the catalog with no recorded template (their share
    #: of unavailability is *not* in this budget)
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
    templates: Mapping[FaultKind, SevenStageTemplate],
    catalog: FaultCatalog,
    offered_rate: float,
    version: str = "",
    environment: EnvironmentParams = EnvironmentParams(),
    objective: float = DEFAULT_OBJECTIVE,
    measured: Sequence[AttributionReport] = (),
) -> BudgetReport:
    """Roll fitted templates + a fault catalog into a stage budget."""
    if offered_rate <= 0:
        raise ValueError("offered_rate must be positive")
    if not 0.0 < objective < 1.0:
        raise ValueError("objective must be in (0, 1)")
    lines: List[BudgetLine] = []
    missing: List[FaultKind] = []
    for rate in catalog:
        template = templates.get(rate.kind)
        if template is None:
            missing.append(rate.kind)
            continue
        resolved = template.resolved(
            mttr=rate.mttr,
            operator_response=environment.operator_response,
            reset_duration=environment.reset_duration,
        )
        for name in STAGE_NAMES:
            stage = resolved.stage(name)
            if stage.duration <= 0:
                continue
            u = (rate.count * stage.duration
                 * max(offered_rate - stage.throughput, 0.0)
                 / (rate.mttf * offered_rate))
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
        version=version,
        objective=objective,
        offered_rate=offered_rate,
        lines=lines,
        measured=list(measured),
        missing_kinds=missing,
    )



# -- rendering -------------------------------------------------------------
def format_budget(report: BudgetReport, top: int = 0) -> str:
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
    shown = report.lines[:top] if top else report.lines
    for line in shown:
        share = line.unavailability / total if total > 0 else 0.0
        lines.append(
            f"  {line.label:<18} {line.stage:<5} {line.duration:>9.1f} "
            f"{line.throughput:>8.1f} {line.unavailability:>10.2e} "
            f"{share * 100:>5.1f}%  {line.cause}"
        )
    if top and len(report.lines) > top:
        rest = sum(l.unavailability for l in report.lines[top:])
        lines.append(f"  {'(other lines)':<18} {'':<5} {'':>9} {'':>8} "
                     f"{rest:>10.2e}")
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
            flag = "" if m.agrees_with_fit else "  [fit disagreement]"
            lines.append(
                f"    {m.fault:<18} lost {m.total_lost:>9.1f} req-s, "
                f"{m.coverage * 100:>5.1f}% attributed{flag}"
            )
            for note in m.notes:
                lines.append(f"      note: {note}")
    return "\n".join(lines)
