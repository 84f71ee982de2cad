"""End-to-end quantification pipeline: build -> inject -> fit -> model.

``quantify_version`` is the whole methodology for one system version:
for every injectable fault kind it builds a fresh deployment, runs a
single-fault campaign (phase 1), fits the 7-stage template, and finally
evaluates the analytic model (phase 2) against the version's fault
catalog.  This is what the figure-reproduction entry points call.

Phase-1 experiments are independent by construction, so the pipeline
is a grid of cells with one path for every ``jobs``:
:func:`campaign_cells` enumerates the (version, fault, seed) grid as
picklable :class:`~repro.faults.campaign.CampaignCell` specs,
:func:`run_cell` executes one cell into a JSON-safe document, and
:func:`quantify_from_cell_docs` merges documents back into a
:class:`VersionAvailability` in grid order.  :mod:`repro.parallel`
runs the cells, in this process or on a spawn pool, and the merged
result is the same either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.model import AvailabilityModel, EnvironmentParams, ModelResult
from repro.core.template import FitConfig, SevenStageTemplate, TemplateFitter
from repro.experiments.configs import VersionSpec, version as version_by_name
from repro.experiments.profiles import SMALL, ScaleProfile
from repro.experiments.runner import build_world
from repro.faults.campaign import (
    CampaignCell,
    CampaignConfig,
    ExperimentTrace,
    SingleFaultCampaign,
)
from repro.faults.types import FaultKind

#: schema of the JSON-safe cell document :func:`run_cell` produces
CELL_DOC_SCHEMA = 1


def _default_campaign() -> CampaignConfig:
    # Warm-up must cover the client ramp plus cache fill; the fault stays
    # active long enough for stage C to stabilize even with slow (25 s)
    # heartbeat+queue detection paths.
    return CampaignConfig(
        warmup=90.0,
        normal_window=20.0,
        fault_active=90.0,
        post_repair_observe=100.0,
        reset_duration=10.0,
        post_reset_observe=60.0,
    )


def _quick_campaign() -> CampaignConfig:
    return CampaignConfig(
        warmup=75.0,
        normal_window=15.0,
        fault_active=60.0,
        post_repair_observe=75.0,
        reset_duration=10.0,
        post_reset_observe=40.0,
    )


@dataclass(frozen=True)
class QuantifyConfig:
    """Everything the pipeline needs besides the version spec."""

    profile: ScaleProfile = SMALL
    seed: int = 0
    campaign: CampaignConfig = field(default_factory=_default_campaign)
    environment: EnvironmentParams = field(default_factory=EnvironmentParams)
    fit: FitConfig = field(default_factory=FitConfig)
    kinds: Optional[tuple] = None  # default: all injectable

    def __post_init__(self) -> None:
        # Mirrors RngRegistry: a negative master seed must fail at
        # configuration time, not deep inside a campaign.
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @classmethod
    def quick(cls, **overrides) -> "QuantifyConfig":
        """Shorter experiment windows (tests / smoke benches)."""
        return cls(campaign=_quick_campaign(), **overrides)

    @classmethod
    def from_env(cls) -> "QuantifyConfig":
        """Full-length runs unless REPRO_QUICK is set."""
        if os.environ.get("REPRO_QUICK"):
            return cls.quick()
        return cls()


@dataclass
class VersionAvailability:
    """Quantification output for one system version."""

    spec: VersionSpec
    result: ModelResult
    templates: Dict[FaultKind, SevenStageTemplate]
    traces: Dict[FaultKind, ExperimentTrace]
    normal_tput: float
    offered_rate: float
    #: flight records per fault kind (populated by ``keep_records=True``)
    records: Dict[FaultKind, "FlightRecord"] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        return self.result.availability

    @property
    def unavailability(self) -> float:
        return self.result.unavailability

    def stage_budget(self, objective: float = 0.999,
                     environment: Optional[EnvironmentParams] = None):
        """Roll the fitted templates into an unavailability error budget
        with stage-level drill-down (see :mod:`repro.obs.budget`)."""
        from repro.obs.budget import build_budget

        return build_budget(
            self.templates,
            self.spec.catalog(),
            offered_rate=self.offered_rate,
            version=self.spec.name,
            environment=environment or EnvironmentParams(),
            objective=objective,
        )


def measure_fault_free(
    spec: VersionSpec,
    config: QuantifyConfig = QuantifyConfig(),
) -> Dict[str, float]:
    """Fault-free throughput/availability (Figure 1a's throughput bars)."""
    world = build_world(spec, config.profile, seed=config.seed)
    cfg = config.campaign
    world.env.run(until=cfg.warmup + cfg.normal_window)
    win = world.stats.window(cfg.warmup, cfg.warmup + cfg.normal_window)
    return {
        "throughput": win["success_rate"],
        "offered": world.offered_rate,
        "availability": win["availability"],
    }


def run_single_fault(
    spec: VersionSpec,
    kind: FaultKind,
    config: QuantifyConfig = QuantifyConfig(),
    target: Optional[str] = None,
    telemetry=None,
    tiebreak_seed=None,
    monitor=None,
):
    """One phase-1 experiment; returns (trace, world).

    ``telemetry`` is handed to :func:`build_world` — pass an enabled
    :class:`~repro.obs.telemetry.Telemetry` to capture the structured
    trace and metrics of the run (``repro explain`` does).
    ``tiebreak_seed`` and ``monitor`` are likewise passed through
    (``repro sanitize --vary tiebreak`` sets the first).
    """
    world = build_world(spec, config.profile, seed=config.seed,
                        telemetry=telemetry, tiebreak_seed=tiebreak_seed,
                        monitor=monitor)
    world.reset_downtime = config.campaign.reset_duration
    campaign = SingleFaultCampaign(world, config.campaign)
    trace = campaign.run(kind, target or world.default_target(kind))
    trace.version = spec.name
    return trace, world


def quantify_version(
    spec: Union[str, VersionSpec],
    config: QuantifyConfig = QuantifyConfig(),
    keep_records: bool = False,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> VersionAvailability:
    """Run the full two-phase methodology for one version.

    This is :func:`repro.parallel.quantify_grid` for one spec: ``jobs``
    only decides where the cells run (in this process when ``jobs <=
    1``), never the result.  With ``keep_records=True`` every phase-1
    experiment is also kept as a replayable
    :class:`~repro.obs.recorder.FlightRecord` (``records``), so the
    campaign can be re-analyzed offline without re-simulating.
    ``progress`` receives one line per completed cell.
    """
    # Imported lazily: repro.parallel imports this module.
    from repro.parallel import quantify_grid

    if isinstance(spec, str):
        spec = version_by_name(spec)
    return quantify_grid([spec], config, jobs=jobs, keep_records=keep_records,
                         progress=progress)[spec.name]


# ---------------------------------------------------------------------------
# cell-level API (the unit of the grid)


def campaign_cells(
    spec: Union[str, VersionSpec],
    config: QuantifyConfig = QuantifyConfig(),
    start_index: int = 0,
) -> List[CampaignCell]:
    """Enumerate one version's phase-1 grid as picklable cell specs.

    One cell per fault kind, in the order of the deployment's injectable
    kinds (or ``config.kinds``).  ``start_index`` offsets the indices
    when several versions' cells are concatenated into one grid.

    :func:`run_cell` looks a cell's version up by name, so a spec its
    name does not resolve to (say, a registered version with a field
    replaced) raises :class:`ValueError`, as does a ``config.kinds``
    entry the version cannot inject, before any cell runs.
    """
    if isinstance(spec, str):
        spec = version_by_name(spec)
    try:
        resolves = version_by_name(spec.name) == spec
    except KeyError:
        resolves = False
    if not resolves:
        raise ValueError(
            f"version spec {spec.name!r} is not what its name resolves to; "
            f"a campaign cell names its version, so only registered "
            f"versions and their with_nodes() variants can run")
    probe_world = build_world(spec, config.profile, seed=config.seed)
    injectable = probe_world.injectable_kinds()
    kinds = list(config.kinds or injectable)
    foreign = [kind.value for kind in kinds if kind not in injectable]
    if foreign:
        raise ValueError(
            f"{spec.name} cannot inject {', '.join(foreign)}; it can inject "
            f"{', '.join(kind.value for kind in injectable)}")
    return [
        CampaignCell(index=start_index + i, version=spec.name,
                     fault=kind.value, seed=config.seed)
        for i, kind in enumerate(kinds)
    ]


def run_cell(cell: CampaignCell, config: QuantifyConfig) -> Dict[str, Any]:
    """Execute one campaign cell and return a JSON-safe cell document.

    The document wraps a full :class:`~repro.obs.recorder.FlightRecord`
    dict — samples, markers, and structured trace events — so the parent
    process can re-fit the template, rebuild the trace, and keep the
    record without ever re-simulating.  Every cell of every grid runs
    through it, in this process or in a :mod:`repro.parallel` worker;
    the record replay is lossless, so where a cell ran cannot change
    the fitted templates.
    """
    from repro.obs.recorder import FlightRecord
    from repro.obs.telemetry import Telemetry

    spec = version_by_name(cell.version)
    if cell.seed != config.seed:
        config = replace(config, seed=cell.seed)
    telemetry = Telemetry()
    trace, world = run_single_fault(spec, cell.kind, config,
                                    target=cell.target, telemetry=telemetry)
    record = FlightRecord.from_experiment(
        trace,
        events=telemetry.tracer.events,
        seed=config.seed,
        profile=config.profile.name,
        target=cell.target or world.default_target(cell.kind),
    )
    return {
        "schema": CELL_DOC_SCHEMA,
        "cell": cell.to_dict(),
        "record": record.to_dict(),
    }


def quantify_from_cell_docs(
    spec: Union[str, VersionSpec],
    config: QuantifyConfig,
    docs: Sequence[Dict[str, Any]],
    keep_records: bool = False,
) -> VersionAvailability:
    """Merge executed cell documents into a :class:`VersionAvailability`.

    ``docs`` must already be in grid (cell-index) order — the executor
    returns them that way regardless of completion order.  This is the
    one place a grid is fitted and modelled: fit each replayed trace,
    average the normal throughputs in grid order, then evaluate the
    analytic model.
    """
    from repro.obs.recorder import FlightRecord, merge_records

    if isinstance(spec, str):
        spec = version_by_name(spec)
    for doc in docs:
        schema = int(doc.get("schema", 0))
        if schema > CELL_DOC_SCHEMA:
            raise ValueError(
                f"cell document schema {schema} is newer than supported "
                f"({CELL_DOC_SCHEMA}); upgrade the tooling")
    fitter = TemplateFitter(config.fit)
    probe_world = build_world(spec, config.profile, seed=config.seed)
    catalog = probe_world.catalog
    offered = probe_world.offered_rate

    merged = merge_records(
        [FlightRecord.from_dict(doc["record"]) for doc in docs])
    templates: Dict[FaultKind, SevenStageTemplate] = {}
    traces: Dict[FaultKind, ExperimentTrace] = {}
    records: Dict[FaultKind, "FlightRecord"] = {}
    normals: List[float] = []
    for fault, record in merged.items():
        kind = FaultKind(fault)
        trace = record.to_trace()
        templates[kind] = fitter.fit(trace)
        traces[kind] = trace
        normals.append(trace.normal_tput)
        if keep_records:
            records[kind] = record

    normal = sum(normals) / len(normals) if normals else 0.0
    model = AvailabilityModel(catalog, config.environment)
    result = model.evaluate(templates, normal_tput=normal,
                            offered_rate=offered, version=spec.name)
    return VersionAvailability(
        spec=spec,
        result=result,
        templates=templates,
        traces=traces,
        normal_tput=normal,
        offered_rate=offered,
        records=records,
    )
