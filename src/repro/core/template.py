"""The 7-stage piece-wise-linear fault template (Figure 2) and its fitter.

Stages::

    A  fault occurs ........ error detected        (degraded, undetected)
    B  detection ........... server stabilizes     (reconfiguration transient)
    C  stable degraded ..... component recovers    (duration = MTTR - A - B)
    D  recovery ............ server stabilizes     (re-integration transient)
    E  stable suboptimal ... operator reset        (splintered etc.)
    F  reset in progress                           (service restart)
    G  post-reset transient. normal operation      (cache re-warming)

Per the methodology, each stage has a duration and an average throughput.
Throughputs are always measured; durations are measured where the
experiment exhibits them (A, B, D, G) and *supplied* environmental values
otherwise (C from the component's MTTR, E from the operator response
time, F from the reset procedure).  Stages a fault does not exhibit get
zero duration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.faults.campaign import ExperimentTrace

STAGE_NAMES = ("A", "B", "C", "D", "E", "F", "G")

#: which stage durations come from environmental assumptions rather than
#: the injection experiment
SUPPLIED_STAGES = {"C": "mttr", "E": "operator_response", "F": "reset_duration"}


@dataclass(frozen=True)
class Stage:
    """One template stage: how long, and at what average throughput."""

    name: str
    duration: float  # seconds; for C/E/F this is a placeholder the model resolves
    throughput: float  # requests/second
    provenance: str = "measured"  # "measured" | "supplied" | "absent"

    def __post_init__(self) -> None:
        if self.name not in STAGE_NAMES:
            raise ValueError(f"unknown stage {self.name!r}")
        if self.duration < 0 or self.throughput < 0:
            raise ValueError("stage duration/throughput must be non-negative")


@dataclass(frozen=True)
class SevenStageTemplate:
    """A fitted template for one (system version, fault type) pair."""

    stages: Dict[str, Stage]
    normal_tput: float
    offered_rate: float
    version: str = ""
    fault: str = ""
    #: True when the system returned to normal without operator help; the
    #: model then zeroes stages E-G.
    self_recovered: bool = True

    def __post_init__(self) -> None:
        missing = set(STAGE_NAMES) - set(self.stages)
        if missing:
            raise ValueError(f"template missing stages {sorted(missing)}")

    def stage(self, name: str) -> Stage:
        return self.stages[name]

    def resolved(self, mttr: float, operator_response: float, reset_duration: float) -> "SevenStageTemplate":
        """Fill in the supplied durations (model phase).

        Stage C covers the time the component remains broken after
        detection and stabilization: ``max(MTTR - dA - dB, 0)``.  If the
        system self-recovered, stages E-G are absent; otherwise E lasts
        until the operator reacts and F for the reset itself.
        """
        a, b = self.stages["A"].duration, self.stages["B"].duration
        c_dur = max(mttr - a - b, 0.0)
        out = dict(self.stages)
        out["C"] = replace(out["C"], duration=c_dur, provenance="supplied")
        if self.self_recovered:
            for name in ("E", "F", "G"):
                out[name] = replace(out[name], duration=0.0, provenance="absent")
        else:
            out["E"] = replace(out["E"], duration=operator_response, provenance="supplied")
            out["F"] = replace(out["F"], duration=reset_duration, provenance="supplied")
        return replace(self, stages=out)

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.stages.values())

    def served_during_fault(self) -> float:
        """Requests served across all stages (area under the template)."""
        return sum(s.duration * s.throughput for s in self.stages.values())

    def deficit(self) -> float:
        """Requests *lost* relative to the offered load across the template."""
        return sum(
            s.duration * max(self.offered_rate - s.throughput, 0.0)
            for s in self.stages.values()
        )


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the fitting procedure."""

    bucket: float = 1.0  # rate-estimation granularity (seconds)
    stable_band: float = 0.12  # |rate - target| <= band * normal => stable
    stable_buckets: int = 4  # consecutive in-band buckets => stabilized
    steady_window: float = 15.0  # tail window used to measure C and E levels
    #: at or above this fraction of normal the service counts as recovered
    recovered_level: float = 0.93
    #: below that, it still counts as recovering if the rate is climbing by
    #: at least this fraction of normal between the middle and the tail of
    #: the post-repair window (cache re-specialization approaches the
    #: fault-free level asymptotically); a *flat* degraded plateau is what
    #: eventually draws an operator reset
    climb_margin: float = 0.04


class TemplateFitter:
    """Fits an :class:`ExperimentTrace` to the 7-stage template."""

    def __init__(self, config: FitConfig = FitConfig()):
        self.config = config

    def fit(self, trace: ExperimentTrace) -> SevenStageTemplate:
        return self.fit_windows(trace)[0]

    def fit_windows(
        self, trace: ExperimentTrace,
    ) -> Tuple[SevenStageTemplate, List[Tuple[str, float, float]]]:
        """The fitted template and the ``(stage, t0, t1)`` windows its
        stages were measured over.

        The windows are in time order and partition ``[t_inject, t_end]``
        (some may be empty): A; then B and C when a detection came before
        the repair; D; then E, F, G and the recovered residual ``-`` after
        an operator reset, or else one ``-`` window when the post-repair
        tail is back at ``recovered_level`` of normal and one E window
        otherwise.  F ends at the configured reset's end or at ``t_end``,
        whichever comes first.
        """
        cfg = self.config
        series = trace.series
        normal = max(trace.normal_tput, 1e-9)

        t_detect = trace.t_detect
        undetected = t_detect is None or t_detect > trace.t_repair
        if undetected:
            t_detect = trace.t_repair  # nothing noticed: A spans the fault

        # -- A: fault -> detection ------------------------------------------
        d_a = t_detect - trace.t_inject
        t_a = series.mean_rate(trace.t_inject, t_detect) if d_a > 0 else 0.0
        windows = [("A", trace.t_inject, t_detect)]

        if undetected:
            # No reconfiguration ever happens: the system stays at the
            # stage-A degraded level for the component's whole MTTR, so
            # stage C (whose duration the model sets to MTTR - A - B)
            # continues at the same throughput and B does not exist.
            t_c, d_b, t_b = t_a, 0.0, t_a
        else:
            # -- C level: steady degraded rate at the fault-window tail ----
            c_from = max(t_detect, trace.t_repair - cfg.steady_window)
            t_c = series.mean_rate(c_from, trace.t_repair)
            # -- B: detection -> stabilization at the C level ----------------
            d_b = self._stabilization_time(series, t_detect, trace.t_repair, t_c, normal)
            t_b = series.mean_rate(t_detect, t_detect + d_b) if d_b > 0 else t_c
            windows += [("B", t_detect, t_detect + d_b),
                        ("C", t_detect + d_b, trace.t_repair)]

        # -- post-repair window ---------------------------------------------------
        post_end = trace.t_reset if trace.t_reset is not None else trace.t_end
        e_from = max(trace.t_repair, post_end - cfg.steady_window)
        t_e = series.mean_rate(e_from, post_end)
        d_d = self._stabilization_time(series, trace.t_repair, post_end, t_e, normal)
        t_d = series.mean_rate(trace.t_repair, trace.t_repair + d_d) if d_d > 0 else t_e
        d_end = trace.t_repair + d_d
        windows.append(("D", trace.t_repair, d_end))

        if trace.t_reset is not None:
            self_recovered = False
        elif t_e >= cfg.recovered_level * normal:
            self_recovered = True
        else:
            # Degraded but possibly still climbing (re-warming tail):
            # compare the start of the post-repair window with its tail.
            span = post_end - trace.t_repair
            early = series.mean_rate(trace.t_repair, trace.t_repair + span / 3.0)
            self_recovered = t_e >= early + cfg.climb_margin * normal

        # -- F/G: operator reset and post-reset warm-up ----------------------------
        if trace.t_reset is not None:
            f_end = trace.t_reset + trace.config.reset_duration
            t_f = series.mean_rate(trace.t_reset, f_end)
            # G ends when service returns to *normal* (cache re-warming
            # after the restart); if it never does within the observation
            # window, the whole window counts as transient.
            d_g = self._stabilization_time(series, f_end, trace.t_end, normal, normal)
            t_g = series.mean_rate(f_end, f_end + d_g) if d_g > 0 else normal
            d_f = trace.config.reset_duration
            # a run cut short inside the reset outage ends F at t_end
            # (and leaves G at zero)
            g_from = min(f_end, trace.t_end)
            windows += [("E", d_end, trace.t_reset),
                        ("F", trace.t_reset, g_from),
                        ("G", g_from, g_from + d_g),
                        ("-", g_from + d_g, trace.t_end)]
        else:
            t_f = t_g = 0.0
            d_f = d_g = 0.0
            # back at the recovered level: the rest is the residual;
            # still below it: a re-warming climb or a flat plateau (E)
            tail = "-" if t_e >= cfg.recovered_level * normal else "E"
            windows.append((tail, d_end, trace.t_end))

        stages = {
            "A": Stage("A", d_a, t_a),
            "B": Stage("B", d_b, t_b),
            "C": Stage("C", 0.0, t_c, provenance="supplied"),  # duration from MTTR
            "D": Stage("D", d_d, t_d),
            "E": Stage("E", 0.0, t_e, provenance="supplied"),  # duration from operator
            "F": Stage("F", d_f, t_f),
            "G": Stage("G", d_g, t_g),
        }
        template = SevenStageTemplate(
            stages=stages,
            normal_tput=trace.normal_tput,
            offered_rate=trace.offered_rate,
            version=trace.version,
            fault=str(trace.component),
            self_recovered=self_recovered,
        )
        return template, windows

    # ------------------------------------------------------------------
    def _stabilization_time(
        self,
        series,
        start: float,
        end: float,
        target: float,
        normal: float,
    ) -> float:
        """Seconds after ``start`` until the rate settles at ``target``.

        The rate is bucketized; stabilization is the first run of
        ``stable_buckets`` consecutive buckets within ``stable_band`` of
        the target (band floor relative to normal throughput keeps the
        test meaningful when the target is ~0).
        """
        config = self.config
        if end - start < config.bucket:
            return 0.0
        _, rates = series.bucketize(config.bucket, start, end)
        band = max(config.stable_band * normal,
                   config.stable_band * max(target, 1.0))
        run = 0
        for i, rate in enumerate(rates):
            if abs(rate - target) <= band:
                run += 1
                if run >= config.stable_buckets:
                    return max((i + 1 - run) * config.bucket, 0.0)
            else:
                run = 0
        return end - start  # never stabilized inside the window
