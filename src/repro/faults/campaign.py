"""Phase-1 experiment driver: single-fault injection with observation.

Reproduces the paper's measurement discipline: the service is warmed to a
stable throughput, one fault is injected and left active long enough to
trigger every template stage, the fault is repaired, post-repair behaviour
is observed, and — if the service remains degraded (e.g. a splintered
COOP cluster) — an operator reset is performed and post-reset behaviour is
observed.  The result is an :class:`ExperimentTrace` that the 7-stage
template fitter (:mod:`repro.core.template`) consumes.

The driver expects a *world* object exposing::

    world.env        -- simulation Environment
    world.stats      -- workload stats with a ``.series`` ThroughputSeries
    world.telemetry  -- Telemetry whose tracer the injector and the
                        servers mark into (``world.markers`` views it)
    world.injector   -- FaultInjector
    world.operator_reset() -- full service restart (stage F)

(see :class:`repro.experiments.runner.World`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.faults.types import FaultComponent, FaultKind
from repro.obs.trace import Markers
from repro.sim.series import ThroughputSeries


@dataclass(frozen=True)
class CampaignConfig:
    """Timing of a single-fault experiment (all seconds)."""

    warmup: float = 60.0  # paper: 5 min warm to 90% of saturation
    normal_window: float = 20.0  # tail of warmup used to measure T_normal
    fault_active: float = 60.0  # how long the fault stays before repair
    post_repair_observe: float = 45.0  # window to measure stages D/E
    operator_threshold: float = 0.75  # below this fraction of normal -> reset
    reset_duration: float = 10.0  # stage F length (service restart)
    post_reset_observe: float = 45.0  # window to measure stage G + recovery

    def __post_init__(self) -> None:
        if self.normal_window > self.warmup:
            raise ValueError("normal_window cannot exceed warmup")
        if not 0.0 < self.operator_threshold <= 1.0:
            raise ValueError("operator_threshold must be in (0, 1]")
        for name in ("warmup", "fault_active", "post_repair_observe",
                     "reset_duration", "post_reset_observe"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class CampaignCell:
    """One self-contained cell of a campaign grid: (version, fault, seed).

    Cells are the unit of fan-out for the parallel executor
    (:mod:`repro.parallel`): every field is a plain value, so a cell
    round-trips through its document's JSON, and ``index`` fixes the cell's
    position in the grid — results are merged in index order, never in
    completion order, which is what keeps a parallel run byte-identical
    to a serial one.
    """

    index: int
    version: str
    fault: str  # FaultKind value
    seed: int
    target: Optional[str] = None  # None: the world's default target

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("cell index must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        FaultKind(self.fault)  # unknown fault values fail at build time

    @property
    def kind(self) -> FaultKind:
        return FaultKind(self.fault)

    @property
    def cell_id(self) -> str:
        """Stable merge key: grid position plus the cell coordinates."""
        return f"{self.index:04d}:{self.version}:{self.fault}:{self.seed}"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CampaignCell":
        return cls(
            index=int(d["index"]),
            version=str(d["version"]),
            fault=str(d["fault"]),
            seed=int(d["seed"]),
            target=d.get("target"),
        )


@dataclass
class ExperimentTrace:
    """Everything phase 2 needs to know about one injection experiment."""

    component: FaultComponent
    config: CampaignConfig
    series: ThroughputSeries
    markers: Markers
    t_inject: float
    t_repair: float
    t_end: float
    normal_tput: float
    offered_rate: float
    t_reset: Optional[float] = None
    version: str = ""

    @property
    def t_detect(self) -> Optional[float]:
        """First detection/recovery-action marker after injection.

        Any subsystem noticing the fault marks ``detected`` (ring
        exclusion, membership exclusion, queue-monitor trip, Mon removing
        a node from the front-end, FME enforcement).
        """
        times = [t for t, _ in self.markers.all("detected") if t >= self.t_inject]
        return min(times) if times else None

    def rate(self, t0: float, t1: float) -> float:
        return self.series.mean_rate(t0, t1)


class SingleFaultCampaign:
    """Runs single-fault experiments against a built world."""

    def __init__(self, world, config: CampaignConfig = CampaignConfig()):
        self.world = world
        self.config = config

    def run(self, kind: FaultKind, target: str) -> ExperimentTrace:
        """Warm up, inject one fault, observe through repair (and operator
        reset if the service stays degraded), and return the trace.

        The world must be freshly built: the campaign assumes the clock
        starts at (or before) the beginning of warmup.
        """
        cfg = self.config
        env = self.world.env
        env.run(until=env.now + cfg.warmup)
        t_warm_end = env.now
        normal = self.world.stats.series.mean_rate(
            t_warm_end - cfg.normal_window, t_warm_end
        )

        fault = self.world.injector.inject(kind, target)
        t_inject = env.now
        env.run(until=t_inject + cfg.fault_active)
        self.world.injector.repair(fault)
        t_repair = env.now

        env.run(until=t_repair + cfg.post_repair_observe)
        # Operator model: watch the tail of the post-repair window; if the
        # service has not recovered to near-normal, reset it (stage F).
        tail = min(cfg.post_repair_observe, 20.0)
        post_rate = self.world.stats.series.mean_rate(env.now - tail, env.now)
        t_reset: Optional[float] = None
        if normal > 0 and post_rate < cfg.operator_threshold * normal:
            t_reset = env.now
            self.world.telemetry.tracer.mark(t_reset, "operator_reset", fault.component)
            self.world.operator_reset()
            env.run(until=t_reset + cfg.reset_duration + cfg.post_reset_observe)

        return ExperimentTrace(
            component=fault.component,
            config=cfg,
            series=self.world.stats.series,
            markers=self.world.markers,
            t_inject=t_inject,
            t_repair=t_repair,
            t_end=env.now,
            normal_tput=normal,
            offered_rate=getattr(self.world, "offered_rate", normal),
            t_reset=t_reset,
            version=getattr(self.world, "version", ""),
        )
