"""Per-figure/table reproduction entry points.

Every table and figure of the paper's evaluation has a function here that
runs the necessary experiments (through a shared :class:`Evaluation`
cache, since several figures reuse the same version quantifications) and
returns a :class:`FigureOutput` with structured rows plus a printable
text rendering.  The benchmark harness prints these.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.model import AvailabilityModel, ModelResult
from repro.core.predictions import predict_templates
from repro.core.quantify import (
    QuantifyConfig,
    VersionAvailability,
    measure_fault_free,
    quantify_version,
    run_single_fault,
)
from repro.core.report import format_comparison
from repro.core.scaling import scale_catalog, scale_template
from repro.core.template import STAGE_NAMES
from repro.experiments.configs import version
from repro.faults.types import FAULT_LABELS, FaultKind


@dataclass
class FigureOutput:
    """One reproduced figure/table."""

    name: str
    title: str
    rows: List[dict]
    text: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"== {self.name}: {self.title} ==\n{self.text}"


class Evaluation:
    """Shared cache of quantifications for one configuration."""

    def __init__(self, config: Optional[QuantifyConfig] = None,
                 jobs: int = 1):
        self.config = config or QuantifyConfig.from_env()
        self.jobs = max(1, int(jobs))
        self._va: Dict[str, VersionAvailability] = {}
        self._ff: Dict[str, dict] = {}

    def va(self, name: str) -> VersionAvailability:
        if name not in self._va:
            self._va[name] = quantify_version(name, self.config,
                                              jobs=self.jobs)
        return self._va[name]

    def fault_free(self, name: str) -> dict:
        if name not in self._ff:
            self._ff[name] = measure_fault_free(version(name), self.config)
        return self._ff[name]

    def model_with_catalog(self, base: VersionAvailability, catalog,
                           label: str) -> ModelResult:
        """Re-evaluate a measured version under a transformed fault catalog."""
        model = AvailabilityModel(catalog, self.config.environment)
        return model.evaluate(base.templates, base.normal_tput,
                              base.offered_rate, version=label)

    def predicted(self, name: str) -> ModelResult:
        """Paper Fig 7 'modeled from COOP' bars: predict a version's
        availability using only COOP's measurements."""
        coop = self.va("COOP")
        spec = version(name)
        templates = predict_templates(coop.templates, spec)
        model = AvailabilityModel(spec.catalog(), self.config.environment)
        return model.evaluate(templates, coop.normal_tput, coop.offered_rate,
                              version=f"{name}(pred)")


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

def fig1a(ev: Evaluation) -> FigureOutput:
    """Unavailability and throughput of INDEP, FE-X-INDEP, COOP."""
    rows = []
    for name in ("INDEP", "FE-X-INDEP", "COOP"):
        va = ev.va(name)
        ff = ev.fault_free(name)
        rows.append({
            "version": name,
            "throughput": ff["throughput"],
            "offered": ff["offered"],
            "unavailability": va.unavailability,
            "availability": va.availability,
        })
    coop, indep = rows[2], rows[0]
    ratio_u = coop["unavailability"] / max(indep["unavailability"], 1e-12)
    ratio_t = coop["throughput"] / max(indep["throughput"], 1e-12)
    lines = [f"{'version':<12}{'tput(req/s)':>12}{'unavail':>12}{'avail':>10}"]
    for r in rows:
        lines.append(f"{r['version']:<12}{r['throughput']:>12.1f}"
                     f"{r['unavailability']:>12.5f}{r['availability']:>10.5f}")
    lines.append(f"COOP/INDEP: throughput x{ratio_t:.2f} (paper ~3x), "
                 f"unavailability x{ratio_u:.1f} (paper ~10x)")
    return FigureOutput("fig1a", "Independent vs Cooperative", rows, "\n".join(lines))


def fig1b(ev: Evaluation) -> FigureOutput:
    """Theoretical improvement from HW and/or SW added to COOP."""
    from repro.faults.faultload import table1_catalog

    coop = ev.va("COOP")
    # HW: RAID everywhere + backup switch, modeled over COOP's templates.
    base_cat = table1_catalog(n_nodes=4)
    hw = ev.model_with_catalog(coop, base_cat.with_raid().with_backup_switch(), "COOP+HW")
    sw = ev.va("FME-NOFE")
    swhw_full = ev.va("FME")
    swhw = ev.model_with_catalog(
        swhw_full,
        table1_catalog(n_nodes=swhw_full.spec.server_count, with_frontend=True)
        .with_raid().with_backup_switch().with_redundant_frontend(),
        "COOP+SW+HW",
    )
    rows = [
        {"config": "COOP", "unavailability": coop.unavailability},
        {"config": "HW", "unavailability": hw.unavailability},
        {"config": "SW", "unavailability": sw.unavailability},
        {"config": "SW+HW", "unavailability": swhw.unavailability},
    ]
    lines = [f"{'config':<10}{'unavail':>12}"]
    lines += [f"{r['config']:<10}{r['unavailability']:>12.5f}" for r in rows]
    lines.append("expected shape: HW alone barely helps; SW recovers most; "
                 "SW+HW approaches four nines")
    return FigureOutput("fig1b", "HW vs SW improvement over COOP", rows, "\n".join(lines))


# ---------------------------------------------------------------------------
# Figure 2: the 7-stage template itself
# ---------------------------------------------------------------------------

def fig2(ev: Evaluation) -> FigureOutput:
    """Render the fitted 7-stage template for COOP under a disk fault."""
    va = ev.va("COOP")
    tpl = va.templates[FaultKind.SCSI_TIMEOUT].resolved(
        mttr=3600.0,  # Table 1: SCSI timeout repairs take one hour
        operator_response=ev.config.environment.operator_response,
        reset_duration=ev.config.environment.reset_duration,
    )
    rows = [
        {"stage": n, "duration": tpl.stage(n).duration,
         "throughput": tpl.stage(n).throughput,
         "provenance": tpl.stage(n).provenance}
        for n in STAGE_NAMES
    ]
    lines = [f"{'stage':<7}{'duration(s)':>12}{'tput':>9}  provenance"]
    for r in rows:
        lines.append(f"{r['stage']:<7}{r['duration']:>12.1f}{r['throughput']:>9.1f}"
                     f"  {r['provenance']}")
    return FigureOutput("fig2", "7-stage template (COOP, SCSI timeout)", rows,
                        "\n".join(lines))


# ---------------------------------------------------------------------------
# Figure 4: throughput timeline under a disk fault
# ---------------------------------------------------------------------------

def fig4(ev: Evaluation) -> FigureOutput:
    trace, world = run_single_fault(version("COOP"), FaultKind.SCSI_TIMEOUT, ev.config)
    start = max(trace.t_inject - 20.0, 0.0)
    times, rates = trace.series.bucketize(5.0, start, trace.t_end)
    peak = max(float(rates.max()), 1.0)
    rows = [{"t": float(t), "rate": float(r)} for t, r in zip(times, rates)]
    lines = []
    for r in rows:
        marks = []
        for label, t_ev in (("INJECT", trace.t_inject), ("REPAIR", trace.t_repair),
                            ("RESET", trace.t_reset)):
            if t_ev is not None and r["t"] <= t_ev < r["t"] + 5.0:
                marks.append(label)
        bar = "#" * int(r["rate"] / peak * 50)
        lines.append(f"{r['t']:7.0f} {r['rate']:7.1f} {bar} {' '.join(marks)}")
    splintered = [sorted(s.coop) for s in world.servers]
    lines.append(f"final cooperation sets: {splintered}")
    return FigureOutput("fig4", "COOP throughput under a disk fault", rows,
                        "\n".join(lines))


# ---------------------------------------------------------------------------
# Figures 6-8: unavailability ladders
# ---------------------------------------------------------------------------

def fig6(ev: Evaluation) -> FigureOutput:
    from repro.faults.faultload import table1_catalog

    coop = ev.va("COOP")
    fex = ev.va("FE-X")
    raid_sw = ev.model_with_catalog(
        coop, table1_catalog(4).with_raid().with_backup_switch(), "RAID+switch")
    all_hw = ev.model_with_catalog(
        fex,
        table1_catalog(n_nodes=5, with_frontend=True)
        .with_raid().with_backup_switch().with_redundant_frontend(),
        "All HW",
    )
    results = [coop.result, fex.result, raid_sw, all_hw]
    rows = [{"config": r.version or n, "unavailability": r.unavailability}
            for r, n in zip(results, ("COOP", "FE-X", "RAID+switch", "All HW"))]
    return FigureOutput("fig6", "Unavailability under additional hardware", rows,
                        format_comparison(results))


FIG7_VERSIONS = ("COOP", "FE-X", "MEM", "QMON", "MQ", "FME")


def fig7(ev: Evaluation) -> FigureOutput:
    rows = []
    results = []
    for name in FIG7_VERSIONS:
        measured = ev.va(name)
        predicted = ev.predicted(name) if name != "COOP" else measured.result
        results.append(measured.result)
        rows.append({
            "version": name,
            "predicted_unavail": predicted.unavailability,
            "measured_unavail": measured.unavailability,
            "by_kind": {k.value: u for k, u in measured.result.by_kind().items()},
        })
    coop_u = rows[0]["measured_unavail"]
    lines = [format_comparison(results, "measured, by fault class"), ""]
    lines.append(f"{'version':<8}{'predicted':>12}{'measured':>12}{'vs COOP':>10}")
    for r in rows:
        red = 1.0 - r["measured_unavail"] / coop_u
        lines.append(f"{r['version']:<8}{r['predicted_unavail']:>12.5f}"
                     f"{r['measured_unavail']:>12.5f}{red:>9.0%}")
    lines.append("paper: MQ cuts ~87% of COOP's unavailability, FME ~94%")
    return FigureOutput("fig7", "HA techniques, predicted vs measured", rows,
                        "\n".join(lines))


def fig8(ev: Evaluation) -> FigureOutput:
    from repro.faults.faultload import table1_catalog

    fme = ev.va("FME")
    sfme = ev.va("S-FME")
    cmon = ev.va("C-MON")
    base_cat = table1_catalog(n_nodes=cmon.spec.server_count, with_frontend=True)
    xsw = ev.model_with_catalog(cmon, base_cat.with_backup_switch(), "X-SW")
    xswraid = ev.model_with_catalog(
        cmon, base_cat.with_backup_switch().with_raid(), "X-SW-RAID")
    results = [fme.result, sfme.result, cmon.result, xsw, xswraid]
    rows = [{"config": label, "unavailability": r.unavailability,
             "availability": r.availability,
             "by_kind": {k.value: u for k, u in r.by_kind().items()}}
            for label, r in zip(("FME", "S-FME", "C-MON", "X-SW", "X-SW-RAID"), results)]
    text = format_comparison(results)
    text += "\npaper: S-FME cuts ~40% vs FME; X-SW reaches ~99.98% (four-nines class)"
    return FigureOutput("fig8", "Stronger FME + hardware variants", rows, text)


# ---------------------------------------------------------------------------
# Figures 9-10: scaling
# ---------------------------------------------------------------------------

def _scaled_result(ev: Evaluation, name: str, k: int) -> ModelResult:
    """Section 6.3 extrapolation of a measured version to a k-times cluster."""
    va = ev.va(name)
    templates = {kind: scale_template(tpl, float(k))
                 for kind, tpl in va.templates.items()}
    model = AvailabilityModel(scale_catalog(va.spec.catalog(), k), ev.config.environment)
    return model.evaluate(templates, va.normal_tput * k, va.offered_rate * k,
                          version=f"{name}x{k}")


def fig9(ev: Evaluation, measure_direct: bool = True) -> FigureOutput:
    """FME scaling: scaled model vs direct 8-node measurements.

    The paper's 8-node runs come in two memory configurations: per-node
    memory scaled linearly (128 MB each, our 120-file caches) and total
    cluster memory held constant (64 MB each at 8 nodes, our 60-file
    caches).  The scaled-model extrapolation always starts from the
    4-node 128 MB measurements.
    """
    base = ev.va("FME")
    rows = [{"config": "FME-4 (measured)", "unavailability": base.unavailability}]
    for k, label in ((2, "FME-8 (scaled model)"), (4, "FME-16 (scaled model)")):
        scaled = AvailabilityModel(
            scale_catalog(base.spec.catalog(), k), ev.config.environment
        ).evaluate(
            {kind: scale_template(t, float(k)) for kind, t in base.templates.items()},
            base.normal_tput * k, base.offered_rate * k, version=f"FMEx{k}",
        )
        rows.append({"config": label, "unavailability": scaled.unavailability})
    if measure_direct:
        spec8 = version("FME").with_nodes(8)
        for cache_label, cache_files in (("128MB", 120), ("64MB", 60)):
            cfg = ev.config
            if cache_files != cfg.profile.press.cache_files:
                cfg = QuantifyConfig(
                    profile=cfg.profile.with_cache_files(cache_files),
                    seed=cfg.seed, campaign=cfg.campaign,
                    environment=cfg.environment, fit=cfg.fit)
            direct = quantify_version(spec8, cfg, jobs=ev.jobs)
            rows.append({"config": f"FME-8 {cache_label} (direct)",
                         "unavailability": direct.unavailability})
    lines = [f"{'config':<26}{'unavail':>10}"]
    lines += [f"{r['config']:<26}{r['unavailability']:>10.5f}" for r in rows]
    lines.append("paper: FME unavailability stays roughly constant with cluster "
                 "size; scaled model within ~25% of the 8-node measurement")
    return FigureOutput("fig9", "Scaling FME to 8/16 nodes", rows, "\n".join(lines))


def fig10(ev: Evaluation) -> FigureOutput:
    rows = []
    base = ev.va("COOP")
    for k, label in ((1, "COOP-4"), (2, "COOP-8"), (4, "COOP-16")):
        if k == 1:
            u = base.unavailability
        else:
            scaled = AvailabilityModel(
                scale_catalog(base.spec.catalog(), k), ev.config.environment
            ).evaluate(
                {kind: scale_template(t, float(k)) for kind, t in base.templates.items()},
                base.normal_tput * k, base.offered_rate * k, version=label,
            )
            u = scaled.unavailability
        rows.append({"config": label, "unavailability": u})
    lines = [f"{'config':<10}{'unavail':>10}" ]
    lines += [f"{r['config']:<10}{r['unavailability']:>10.5f}" for r in rows]
    r4, r8, r16 = (r["unavailability"] for r in rows)
    lines.append(f"growth: 8/4 = x{r8 / r4:.2f}, 16/8 = x{r16 / r8:.2f} "
                 "(paper: roughly doubles at each step)")
    return FigureOutput("fig10", "Scaling COOP to 8/16 nodes", rows, "\n".join(lines))


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1(ev: Evaluation) -> FigureOutput:
    from repro.faults.faultload import DAY, table1_catalog

    catalog = table1_catalog(n_nodes=4, with_frontend=True)
    rows = [{
        "fault": FAULT_LABELS[r.kind], "mttf_days": r.mttf / DAY,
        "mttr_minutes": r.mttr / 60.0, "count": r.count,
    } for r in catalog]
    lines = [f"{'fault':<18}{'MTTF(days)':>12}{'MTTR(min)':>10}{'count':>7}"]
    for r in rows:
        lines.append(f"{r['fault']:<18}{r['mttf_days']:>12.1f}"
                     f"{r['mttr_minutes']:>10.1f}{r['count']:>7}")
    return FigureOutput("table1", "Fault loads (Table 1)", rows, "\n".join(lines))


def _ncsl_of_source(source: str) -> int:
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            count += 1
    return count


def ncsl_of(obj) -> int:
    """Non-comment source lines of a module/class/function."""
    return _ncsl_of_source(inspect.getsource(obj))


def table2(ev: Evaluation) -> FigureOutput:
    """Implementation effort (NCSL of *our* HA subsystems) vs gains."""
    import repro.ha.fme as fme_mod
    import repro.ha.membership as memb_mod
    import repro.ha.memclient as memc_mod
    from repro.press.server import PressServer

    membership_ncsl = ncsl_of(memb_mod) + ncsl_of(memc_mod)
    # The queue-monitoring policy proper (telemetry accounting in the
    # _dispatch_to_peer wrapper is not HA implementation effort).
    qmon_ncsl = ncsl_of(PressServer._dispatch_policy)
    fme_ncsl = ncsl_of(fme_mod)

    coop_u = ev.va("COOP").unavailability
    rows = []
    for label, names, ncsl in (
        ("Membership", "MEM", membership_ncsl),
        ("Queue Monitoring + Membership", "MQ", membership_ncsl + qmon_ncsl),
        ("Queue Monitoring + Membership + FME", "FME",
         membership_ncsl + qmon_ncsl + fme_ncsl),
    ):
        u = ev.va(names).unavailability
        rows.append({"enhancement": label, "ncsl": ncsl,
                     "reduction": 1.0 - u / coop_u})
    lines = [f"{'enhancement':<38}{'NCSL':>6}{'reduction':>11}"]
    for r in rows:
        lines.append(f"{r['enhancement']:<38}{r['ncsl']:>6}{r['reduction']:>10.0%}")
    lines.append("paper: 1638 NCSL total for a 94% reduction (11% of COOP's code)")
    return FigureOutput("table2", "Effort vs unavailability reduction", rows,
                        "\n".join(lines))


#: registry used by the benchmark harness
ALL_FIGURES: Dict[str, Callable[[Evaluation], FigureOutput]] = {
    "fig1a": fig1a,
    "fig1b": fig1b,
    "fig2": fig2,
    "fig4": fig4,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "table1": table1,
    "table2": table2,
}
