"""Online stage attribution: name every lost request-second.

The paper's contribution is *explaining* unavailability, not just
measuring it.  :class:`StageAttributor` walks a recorded single-fault
experiment (a :class:`~repro.obs.recorder.FlightRecord`, or a live
:class:`~repro.faults.campaign.ExperimentTrace`) and partitions the
experiment window ``[t_inject, t_end]`` into contiguous
:class:`LossSlice` windows, each attributed to a
``(fault kind, template stage, component, cause)`` tuple:

=====  =====================================
stage  cause
=====  =====================================
A      ``undetected-window`` (``undetected-fault`` when no detection
       came before the repair)
B      ``reconfiguration-transient``
C      ``stable-degraded-capacity``
D      ``reintegration-transient``
E      ``stable-suboptimal-awaiting-operator`` (``rewarming-tail`` when
       the template self-recovered)
F      ``operator-reset-downtime``
G      ``post-reset-warmup``
``-``  ``recovered-steady``
=====  =====================================

The windows are the ones the template fitter measured its stages over
(:meth:`repro.core.template.TemplateFitter.fit_windows`), so every
boundary is placed once, by the fitter, and a slice's duration is its
fitted stage's.  The lost request-seconds of a slice are integrated per
fit bucket: ``sum over buckets of max(offered * dt - served, 0)``.
Because the slices partition the window exactly, attributed + residual
loss is the total loss by construction; ``coverage`` reports the share
landing in a named template stage (A..G) rather than in the recovered
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.template import FitConfig, SevenStageTemplate, TemplateFitter
from repro.faults.campaign import ExperimentTrace
from repro.obs.events import EventKind
from repro.obs.recorder import FlightRecord

#: canonical cause name per template stage (budget rollups use the same
#: vocabulary, so drill-downs line up between measured and modelled views)
STAGE_CAUSES = {
    "A": "undetected-window",
    "B": "reconfiguration-transient",
    "C": "stable-degraded-capacity",
    "D": "reintegration-transient",
    "E": "stable-suboptimal-awaiting-operator",
    "F": "operator-reset-downtime",
    "G": "post-reset-warmup",
}

#: events that mark a reconfiguration action (used for consistency notes)
RECONFIG_KINDS = (
    EventKind.EXCLUDED,
    EventKind.MEMB_EXCLUDED,
    EventKind.FE_NODE_DOWN,
    EventKind.FME_OFFLINE,
    EventKind.SFME_OFFLINE,
    EventKind.FE_TAKEOVER,
)

RESIDUAL_STAGE = "-"
RESIDUAL_CAUSE = "recovered-steady"


@dataclass(frozen=True)
class LossSlice:
    """One contiguous window attributed to a (stage, component, cause)."""

    stage: str  # "A".."G", or "-" for the recovered residual
    cause: str
    fault: str
    component: str
    t0: float
    t1: float
    offered: float  # request-seconds offered in [t0, t1)
    served: float  # requests served in [t0, t1)
    lost: float  # request-seconds lost (per-bucket clamped)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage, "cause": self.cause, "fault": self.fault,
            "component": self.component, "t0": self.t0, "t1": self.t1,
            "offered": self.offered, "served": self.served, "lost": self.lost,
        }


@dataclass
class AttributionReport:
    """Where one experiment's lost request-seconds went."""

    version: str
    fault: str
    component: str
    slices: List[LossSlice]
    template: SevenStageTemplate
    self_recovered: bool
    notes: List[str] = field(default_factory=list)

    @property
    def attributed_lost(self) -> float:
        """Lost request-seconds landing in a named template stage."""
        return sum(s.lost for s in self.slices if s.stage != RESIDUAL_STAGE)

    @property
    def residual_lost(self) -> float:
        return sum(s.lost for s in self.slices if s.stage == RESIDUAL_STAGE)

    @property
    def total_lost(self) -> float:
        return sum(s.lost for s in self.slices)

    @property
    def coverage(self) -> float:
        """Share of lost request-seconds attributed to a named stage."""
        total = self.total_lost
        return self.attributed_lost / total if total > 0 else 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "fault": self.fault,
            "component": self.component,
            "self_recovered": self.self_recovered,
            "total_lost": self.total_lost,
            "attributed_lost": self.attributed_lost,
            "residual_lost": self.residual_lost,
            "coverage": self.coverage,
            "slices": [s.to_dict() for s in self.slices],
            "notes": list(self.notes),
        }


class StageAttributor:
    """Charges lost request-seconds to the stages the fitter measured."""

    def __init__(self, fit: FitConfig = FitConfig()):
        self._fitter = TemplateFitter(fit)

    # -- entry points ------------------------------------------------------
    def attribute(self, record: FlightRecord) -> AttributionReport:
        """Attribute a recorded flight (live, or read back from disk)."""
        return self.attribute_trace(record.to_trace())

    def attribute_trace(self, trace: ExperimentTrace) -> AttributionReport:
        """Attribute a live (or replayed) experiment trace.

        Each non-empty window of the fit becomes one :class:`LossSlice`.
        Observed markers are compared with the fit: a detection after the
        repair, and a reconfiguration marker after the stage-B window,
        each leave a note.
        """
        template, windows = self._fitter.fit_windows(trace)
        fault = str(trace.component.kind)
        component = trace.component.target
        notes: List[str] = []
        t_detect = trace.t_detect
        undetected = t_detect is None or t_detect > trace.t_repair
        if undetected and t_detect is not None:
            notes.append(
                f"detection at {t_detect:.1f}s arrived after repair "
                f"({trace.t_repair:.1f}s); treating the fault as undetected"
            )

        slices: List[LossSlice] = []
        for stage, t0, t1 in windows:
            if stage == "B":
                self._check_reconfig_markers(trace, t0, t1, notes)
            if t1 - t0 <= 1e-12:
                continue
            if stage == RESIDUAL_STAGE:
                cause = RESIDUAL_CAUSE
            elif stage == "A" and undetected:
                cause = "undetected-fault"
            elif stage == "E" and template.self_recovered:
                cause = "rewarming-tail"
            else:
                cause = STAGE_CAUSES[stage]
            offered, served, lost = self._window_loss(
                trace.series, trace.offered_rate, t0, t1)
            slices.append(LossSlice(stage=stage, cause=cause, fault=fault,
                                    component=component, t0=t0, t1=t1,
                                    offered=offered, served=served,
                                    lost=lost))

        return AttributionReport(
            version=trace.version,
            fault=fault,
            component=component,
            slices=slices,
            template=template,
            self_recovered=template.self_recovered,
            notes=notes,
        )

    # -- internals ---------------------------------------------------------
    def _window_loss(self, series, offered: float, t0: float, t1: float):
        """Integrate (offered, served, lost) request-seconds over [t0, t1)."""
        bucket = self._fitter.config.bucket
        nb = max(int(math.ceil((t1 - t0) / bucket - 1e-9)), 1)
        offered_rs = served = lost = 0.0
        for i in range(nb):
            a = t0 + i * bucket
            b = min(a + bucket, t1)
            n = float(series.count(a, b))
            off = offered * (b - a)
            offered_rs += off
            served += n
            lost += max(off - n, 0.0)
        return offered_rs, served, lost

    def _check_reconfig_markers(
        self,
        trace: ExperimentTrace,
        t_detect: float,
        b_end: float,
        notes: List[str],
    ) -> None:
        """Reconfiguration actions should land in (or right at) stage B."""
        slack = self._fitter.config.bucket
        for t, label, _ in trace.markers.entries:
            if label in RECONFIG_KINDS and t_detect <= t <= trace.t_repair:
                if t > b_end + slack:
                    notes.append(
                        f"reconfiguration event {label!r} at {t:.1f}s "
                        f"falls after the stage-B window (ends "
                        f"{b_end:.1f}s)"
                    )
