"""Validation-module plumbing (the expensive end-to-end path runs in
benchmarks/test_model_validation.py)."""

import numpy as np
import pytest

from repro.core import validation
from repro.core.validation import (
    VALIDATION_ENVIRONMENT,
    ValidationResult,
    _fault_load_driver,
    validation_catalog,
)
from repro.core.model import ModelResult
from repro.core.quantify import QuantifyConfig
from repro.faults.faultload import FaultCatalog, FaultRate
from repro.faults.injector import FaultInjector
from repro.faults.types import FaultComponent, FaultKind
from repro.hardware.host import Host
from repro.obs.telemetry import Telemetry
from repro.sim.series import ThroughputSeries
from tests.obs.synth import standard_detected_record


class TestValidationCatalog:
    def test_counts_track_topology(self):
        cat = validation_catalog(n_nodes=4, disks_per_node=2)
        assert cat[FaultKind.NODE_CRASH].count == 4
        assert cat[FaultKind.SCSI_TIMEOUT].count == 8
        assert FaultKind.FRONTEND_FAILURE not in cat
        assert FaultKind.FRONTEND_FAILURE in validation_catalog(with_frontend=True)

    def test_compressed_but_subcritical(self):
        """The catalog's fault fractions must stay well below 1 even with
        the operator path charged on every fault."""
        cat = validation_catalog(n_nodes=5, disks_per_node=2)
        env = VALIDATION_ENVIRONMENT
        slack = env.operator_response + env.reset_duration + 60.0
        total = sum(r.count * (r.mttr + slack) / r.mttf for r in cat)
        assert total < 0.6


def fault_load_world(env, telemetry):
    """The slice of a World that `_fault_load_driver` reads: one node, n1,
    offered 100 req/s, and an empty throughput series."""

    class W:
        pass

    class Stats:
        series = ThroughputSeries()

    world = W()
    world.env = env
    world.telemetry = telemetry
    world.offered_rate = 100.0
    world.injector = FaultInjector(env, {"n1": Host(env, "n1", 1)},
                                   telemetry=telemetry)
    world.default_target = lambda kind: "n1"
    world.operator_reset = lambda: None
    world.stats = Stats()
    return world


class TestFaultLoadDriver:
    def test_serializes_faults_and_logs_them(self, env, telemetry, markers):
        """Faults queue: a new fault starts only after the previous repair
        + recovery wait, per the paper's model assumption."""
        catalog = FaultCatalog([FaultRate(FaultKind.NODE_FREEZE, 50.0, 5.0, 1)])
        world = fault_load_world(env, telemetry)

        def feed():  # keep the rate "healthy" so no operator resets happen
            while True:
                yield env.timeout(0.01)
                world.stats.series.record(env.now)

        env.process(feed())
        log = []
        rng = np.random.default_rng(5)
        env.process(_fault_load_driver(world, catalog, rng, horizon=400.0,
                                       recovery_wait=5.0, operator_threshold=0.5,
                                       log=log))
        env.run(until=400.0)
        assert len(log) >= 2
        # Never two active faults at once.
        injected = markers.all("fault_injected")
        repaired = markers.all("fault_repaired")
        events = sorted([(t, +1) for t, _ in injected] + [(t, -1) for t, _ in repaired])
        active = 0
        for _, delta in events:
            active += delta
            assert 0 <= active <= 1

    def test_operator_reset_marks_the_fault_component(self, env):
        """With no throughput the operator resets after every repair; the
        reset is marked with the fault's component, as a campaign marks it,
        so its trace event names the fault and the target."""
        telemetry = Telemetry()
        world = fault_load_world(env, telemetry)
        catalog = FaultCatalog([FaultRate(FaultKind.NODE_FREEZE, 50.0, 5.0, 1)])
        env.process(_fault_load_driver(world, catalog, np.random.default_rng(5),
                                       horizon=400.0, recovery_wait=5.0,
                                       operator_threshold=0.5, log=[]))
        env.run(until=400.0)
        resets = telemetry.tracer.markers.all("operator_reset")
        assert resets
        assert {data for _, data in resets} == {
            FaultComponent(FaultKind.NODE_FREEZE, "n1")}
        for event in telemetry.tracer.events_of("operator_reset"):
            assert event.data == {"fault": "node_freeze", "target": "n1"}

    def test_result_ratio(self):
        result = ValidationResult(
            version="X",
            predicted=ModelResult("X", 100.0, 100.0, 99.0, 0.99),
            measured_availability=0.98,
            horizon=100.0,
            faults_injected=3,
        )
        assert result.ratio == pytest.approx(2.0)
        assert result.measured_unavailability == pytest.approx(0.02)


def test_validate_model_measures_on_the_config_seed(monkeypatch):
    """Phase 1 runs under ``config.seed``; the one world validation builds
    is the direct measurement's, on ``config.seed + 1``."""
    trace = standard_detected_record().to_trace()
    phase1_seeds, world_seeds = [], []

    def run_single_fault(spec, kind, config):
        phase1_seeds.append(config.seed)
        return trace, None

    build_world = validation.build_world

    def recording_build_world(spec, profile, seed=0, **kwargs):
        world_seeds.append(seed)
        return build_world(spec, profile, seed=seed, **kwargs)

    monkeypatch.setattr(validation, "run_single_fault", run_single_fault)
    monkeypatch.setattr(validation, "build_world", recording_build_world)
    config = QuantifyConfig.quick(seed=5, environment=VALIDATION_ENVIRONMENT)
    validation.validate_model("INDEP", horizon=30.0, config=config)
    assert set(phase1_seeds) == {5}
    assert world_seeds == [6]
