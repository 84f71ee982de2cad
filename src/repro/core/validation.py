"""Empirical validation of the analytic model (beyond-paper experiment).

The paper's phase-2 model rests on assumptions it can only argue for
(single faults at a time, uncorrelated arrivals, additivity of degraded
fractions).  Because our substrate is a simulator, we can *check* them:
run a long horizon with random exponential fault arrivals drawn from a
catalog, measure the achieved availability directly, and compare it with
what phase 1 + phase 2 predicted for the same catalog.

Table-1 timescales (MTTFs of weeks-months) are unsimulatable directly,
so validation uses an explicitly synthetic catalog with compressed MTTFs
(minutes-hours) and realistic MTTRs — the model is evaluated under the
*same* catalog, so the comparison is apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.core.model import AvailabilityModel, EnvironmentParams, ModelResult
from repro.core.quantify import QuantifyConfig, run_single_fault
from repro.core.template import TemplateFitter
from repro.experiments.configs import version as version_by_name
from repro.experiments.runner import World, build_world
from repro.faults.faultload import FaultCatalog, FaultRate
from repro.faults.types import FaultKind


def validation_catalog(n_nodes: int = 4, disks_per_node: int = 2,
                       with_frontend: bool = False) -> FaultCatalog:
    """Compressed fault load: ~10-20 faults in an hour of simulated time
    while keeping the single-fault-at-a-time fraction comfortably < 1."""
    rates = [
        FaultRate(FaultKind.NODE_CRASH, 12_000.0, 120.0, n_nodes),
        FaultRate(FaultKind.NODE_FREEZE, 12_000.0, 120.0, n_nodes),
        FaultRate(FaultKind.APP_CRASH, 15_000.0, 90.0, n_nodes),
        FaultRate(FaultKind.APP_HANG, 15_000.0, 90.0, n_nodes),
        FaultRate(FaultKind.SCSI_TIMEOUT, 40_000.0, 240.0, n_nodes * disks_per_node),
    ]
    if with_frontend:
        rates.append(FaultRate(FaultKind.FRONTEND_FAILURE, 30_000.0, 120.0, 1))
    return FaultCatalog(rates)


#: operator behaviour compressed to the validation timescale (the driver
#: resets a stagnant-degraded service ~1 minute after each repair)
VALIDATION_ENVIRONMENT = EnvironmentParams(operator_response=75.0,
                                           reset_duration=10.0)


@dataclass
class ValidationResult:
    """Predicted vs directly-measured availability under one catalog."""

    version: str
    predicted: ModelResult
    measured_availability: float
    horizon: float
    faults_injected: int
    fault_log: List[Tuple[float, FaultKind]] = field(default_factory=list)

    @property
    def predicted_availability(self) -> float:
        return self.predicted.availability

    @property
    def measured_unavailability(self) -> float:
        return 1.0 - self.measured_availability

    @property
    def ratio(self) -> float:
        """measured / predicted unavailability (1.0 = perfect model)."""
        pred_u = max(self.predicted.unavailability, 1e-12)
        return self.measured_unavailability / pred_u


def _fault_load_driver(world: World, catalog: FaultCatalog,
                       rng: np.random.Generator, horizon: float,
                       recovery_wait: float, operator_threshold: float,
                       log: List[Tuple[float, FaultKind]]):
    """Generate the paper's expected fault load: exponential arrivals per
    component class, queued so a single fault is in effect at a time,
    with the campaign's operator policy applied after each repair."""
    env = world.env
    rates = [(r.kind, r.class_rate) for r in catalog]
    total_rate = sum(rate for _, rate in rates)
    probs = np.array([rate for _, rate in rates]) / total_rate
    kinds = [kind for kind, _ in rates]
    timeout = env.timeout
    # env.now advances across this loop's yields: reading it into a
    # local would freeze simulated time
    while env.now < horizon:
        gap = float(rng.exponential(1.0 / total_rate))
        yield timeout(gap)
        if env.now >= horizon:
            return
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        target = world.default_target(kind)
        mttr = catalog[kind].mttr
        log.append((env.now, kind))
        fault = world.injector.inject(kind, target)
        yield timeout(mttr)
        world.injector.repair(fault)
        # Post-repair: give the service time to recover; if it stays
        # degraded (splintered), the operator resets it — the same policy
        # the single-fault campaigns apply.
        yield timeout(recovery_wait)
        t0, t1 = env.now - min(recovery_wait, 20.0), env.now
        normal = world.offered_rate
        if world.stats.series.mean_rate(t0, t1) < operator_threshold * normal:
            world.telemetry.tracer.mark(env.now, "operator_reset", fault.component)
            world.operator_reset()
            yield env.timeout(60.0)


def validate_model(
    version_name: str,
    horizon: float = 7200.0,
    config: Optional[QuantifyConfig] = None,
) -> ValidationResult:
    """Phase 1 + 2 under the compressed catalog, then measure directly."""
    if config is None:
        config = QuantifyConfig.quick(environment=VALIDATION_ENVIRONMENT)
    spec = version_by_name(version_name)
    catalog = validation_catalog(
        n_nodes=spec.server_count, with_frontend=spec.frontend)

    # Phase 1: fit templates with fault_active == the catalog's MTTRs.
    fitter = TemplateFitter(config.fit)
    templates = {}
    normals = []
    for rate in catalog:
        campaign = replace(config.campaign, fault_active=rate.mttr)
        trace, _ = run_single_fault(spec, rate.kind,
                                    replace(config, campaign=campaign))
        templates[rate.kind] = fitter.fit(trace)
        normals.append(trace.normal_tput)
    normal = sum(normals) / len(normals)

    # Phase 2: the analytic prediction under the same catalog, at the
    # offered rate of the direct measurement's world.
    world = build_world(spec, config.profile, seed=config.seed + 1)
    model = AvailabilityModel(catalog, config.environment)
    predicted = model.evaluate(templates, normal, world.offered_rate,
                               version=version_name)

    # Direct measurement: random arrivals over the horizon.
    rng = world.rngs.stream("faultload")
    log: List[Tuple[float, FaultKind]] = []
    warmup = config.campaign.warmup
    world.env.run(until=warmup)
    world.env.process(
        _fault_load_driver(world, catalog, rng, warmup + horizon,
                           recovery_wait=60.0,
                           operator_threshold=config.campaign.operator_threshold,
                           log=log),
        name="faultload",
    )
    world.env.run(until=warmup + horizon)
    window = world.stats.window(warmup, warmup + horizon)
    return ValidationResult(
        version=version_name,
        predicted=predicted,
        measured_availability=window["availability"],
        horizon=horizon,
        faults_injected=len(log),
        fault_log=log,
    )
