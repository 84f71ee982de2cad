"""Online stage attribution: name every lost request-second.

The paper's contribution is *explaining* unavailability, not just
measuring it.  :class:`StageAttributor` walks a recorded single-fault
experiment (a :class:`~repro.obs.recorder.FlightRecord`, or a live
:class:`~repro.faults.campaign.ExperimentTrace`) and partitions the
experiment window ``[t_inject, t_end]`` into contiguous
:class:`LossSlice` windows, each attributed to a
``(fault kind, template stage, component, cause)`` tuple:

=====  =====================================  ===========================
stage  cause                                  boundary source
=====  =====================================  ===========================
A      ``undetected-window`` /                injection -> first
       ``undetected-fault``                   ``detected`` marker
B      ``reconfiguration-transient``          stabilization scan at the
                                              degraded tail level
C      ``stable-degraded-capacity``           repair time
D      ``reintegration-transient``            stabilization scan at the
                                              post-repair tail level
E      ``stable-suboptimal-awaiting-          operator reset event (or
       operator`` / ``rewarming-tail``        end of observation)
F      ``operator-reset-downtime``            reset event + configured
                                              reset duration
G      ``post-reset-warmup``                  stabilization scan at the
                                              normal level
``-``  ``recovered-steady``                   whatever remains
=====  =====================================  ===========================

The lost request-seconds of a slice are integrated per sample interval:
``sum over buckets of max(offered * dt - served, 0)``.  Because the
slices partition the window exactly, attributed + residual loss is the
total loss by construction; ``coverage`` reports the share landing in a
named template stage (A..G) rather than in the recovered residual.

Every attribution also re-fits the 7-stage template on the same data and
cross-checks the measured stage durations against the fit
(:class:`BoundaryCheck`).  The two tiers share one stabilization scan
(:func:`repro.core.template.stabilization_time`), so disagreement beyond
one sample interval indicates schema drift or a fitter/attributor bug —
which is exactly why it is reported as a diagnostic instead of silently
trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.template import (
    FitConfig,
    SevenStageTemplate,
    TemplateFitter,
    stabilization_time,
)
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
class AttributionConfig:
    """Knobs of the attribution pass."""

    #: loss-integration sample interval (seconds); also the agreement
    #: tolerance unit for the fit cross-check
    bucket: float = 1.0
    #: fit configuration used for the cross-check template
    fit: FitConfig = field(default_factory=FitConfig)
    #: boundary disagreement beyond this many sample intervals is flagged
    tolerance_buckets: float = 1.0


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


@dataclass(frozen=True)
class BoundaryCheck:
    """Fit cross-check for one measured stage duration."""

    stage: str
    event_duration: float  # attribution's event/series-derived duration
    fit_duration: float  # TemplateFitter's duration
    tolerance: float

    @property
    def delta(self) -> float:
        return self.event_duration - self.fit_duration

    @property
    def agrees(self) -> bool:
        return abs(self.delta) <= self.tolerance

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage, "event_duration": self.event_duration,
            "fit_duration": self.fit_duration, "delta": self.delta,
            "tolerance": self.tolerance, "agrees": self.agrees,
        }


@dataclass
class AttributionReport:
    """Where one experiment's lost request-seconds went."""

    version: str
    fault: str
    component: str
    slices: List[LossSlice]
    checks: List[BoundaryCheck]
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

    @property
    def agrees_with_fit(self) -> bool:
        return all(c.agrees for c in self.checks)

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
            "agrees_with_fit": self.agrees_with_fit,
            "slices": [s.to_dict() for s in self.slices],
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
        }


class StageAttributor:
    """Attributes lost request-seconds to template stages."""

    def __init__(self, config: AttributionConfig = AttributionConfig()):
        self.config = config
        self._fitter = TemplateFitter(config.fit)

    # -- entry points ------------------------------------------------------
    def attribute(self, record: FlightRecord) -> AttributionReport:
        """Attribute a recorded flight (live, or read back from disk)."""
        return self.attribute_trace(record.to_trace())

    def attribute_trace(self, trace: ExperimentTrace) -> AttributionReport:
        """Attribute a live (or replayed) experiment trace.

        Detection is the first ``detected`` marker after injection, and
        reconfiguration markers are checked for consistency with the
        stage-B window.
        """
        cfg = self.config
        fitcfg = cfg.fit
        series = trace.series
        normal = max(trace.normal_tput, 1e-9)
        offered = trace.offered_rate
        fault = str(trace.component.kind)
        component = trace.component.target
        notes: List[str] = []

        template = self._fitter.fit(trace)

        # -- detection boundary --------------------------------------------
        t_detect = trace.t_detect
        undetected = t_detect is None or t_detect > trace.t_repair
        if t_detect is not None and t_detect > trace.t_repair:
            notes.append(
                f"detection at {t_detect:.1f}s arrived after repair "
                f"({trace.t_repair:.1f}s); treating the fault as undetected"
            )
        checks: List[BoundaryCheck] = []
        tol = cfg.tolerance_buckets * fitcfg.bucket

        def mk(stage, cause, t0, t1, *, stage_label=None):
            if t1 - t0 <= 1e-12:
                return None
            off, served, lost = self._window_loss(series, offered, t0, t1)
            return LossSlice(stage=stage_label or stage, cause=cause,
                             fault=fault, component=component,
                             t0=t0, t1=t1, offered=off, served=served,
                             lost=lost)

        slices: List[Optional[LossSlice]] = []

        # -- stages A..C: injection through repair -------------------------
        if undetected:
            d_a = trace.t_repair - trace.t_inject
            slices.append(mk("A", "undetected-fault",
                             trace.t_inject, trace.t_repair))
        else:
            d_a = t_detect - trace.t_inject
            slices.append(mk("A", STAGE_CAUSES["A"], trace.t_inject, t_detect))
            c_level = series.mean_rate(
                max(t_detect, trace.t_repair - fitcfg.steady_window),
                trace.t_repair,
            )
            d_b = stabilization_time(series, t_detect, trace.t_repair,
                                     c_level, normal, fitcfg)
            slices.append(mk("B", STAGE_CAUSES["B"],
                             t_detect, t_detect + d_b))
            slices.append(mk("C", STAGE_CAUSES["C"],
                             t_detect + d_b, trace.t_repair))
            checks.append(BoundaryCheck("B", d_b,
                                        template.stage("B").duration, tol))
            self._check_reconfig_markers(trace, t_detect, t_detect + d_b,
                                         notes)
        checks.insert(0, BoundaryCheck("A", d_a,
                                       template.stage("A").duration, tol))

        # -- stage D and the post-repair window ----------------------------
        post_end = trace.t_reset if trace.t_reset is not None else trace.t_end
        e_level = series.mean_rate(
            max(trace.t_repair, post_end - fitcfg.steady_window), post_end
        )
        d_d = stabilization_time(series, trace.t_repair, post_end,
                                 e_level, normal, fitcfg)
        slices.append(mk("D", STAGE_CAUSES["D"],
                         trace.t_repair, trace.t_repair + d_d))
        checks.append(BoundaryCheck("D", d_d,
                                    template.stage("D").duration, tol))

        e_from = trace.t_repair + d_d
        if trace.t_reset is not None:
            slices.append(mk("E", STAGE_CAUSES["E"], e_from, trace.t_reset))
            f_end = min(trace.t_reset + trace.config.reset_duration,
                        trace.t_end)
            slices.append(mk("F", STAGE_CAUSES["F"], trace.t_reset, f_end))
            checks.append(BoundaryCheck("F", f_end - trace.t_reset,
                                        template.stage("F").duration, tol))
            d_g = stabilization_time(series, f_end, trace.t_end,
                                     normal, normal, fitcfg)
            slices.append(mk("G", STAGE_CAUSES["G"], f_end, f_end + d_g))
            checks.append(BoundaryCheck("G", d_g,
                                        template.stage("G").duration, tol))
            slices.append(mk(RESIDUAL_STAGE, RESIDUAL_CAUSE,
                             f_end + d_g, trace.t_end))
        elif template.self_recovered and e_level >= \
                fitcfg.recovered_level * normal:
            # Fully back to normal: everything after stage D is the
            # recovered residual (loss there is sampling noise).
            slices.append(mk(RESIDUAL_STAGE, RESIDUAL_CAUSE,
                             e_from, trace.t_end))
        else:
            # Still below normal at the end of observation: either a
            # re-warming climb (self-recovering) or a flat suboptimal
            # plateau that would eventually draw an operator.
            cause = ("rewarming-tail" if template.self_recovered
                     else STAGE_CAUSES["E"])
            slices.append(mk("E", cause, e_from, trace.t_end,
                             stage_label="E"))

        return AttributionReport(
            version=trace.version,
            fault=fault,
            component=component,
            slices=[s for s in slices if s is not None],
            checks=checks,
            template=template,
            self_recovered=template.self_recovered,
            notes=notes,
        )

    # -- internals ---------------------------------------------------------
    def _window_loss(self, series, offered: float, t0: float, t1: float):
        """Integrate (offered, served, lost) request-seconds over [t0, t1)."""
        bucket = self.config.bucket
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
        slack = self.config.tolerance_buckets * self.config.fit.bucket
        for t, label, _ in trace.markers.entries:
            if label in RECONFIG_KINDS and t_detect <= t <= trace.t_repair:
                if t > b_end + slack:
                    notes.append(
                        f"reconfiguration event {label!r} at {t:.1f}s "
                        f"falls after the stage-B window (ends "
                        f"{b_end:.1f}s)"
                    )
