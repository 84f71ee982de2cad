"""Injector edge cases and illegal transitions."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.types import FaultKind
from repro.hardware.host import Host
from repro.sim.kernel import SimulationError


@pytest.fixture
def world(env, telemetry):
    hosts = {f"n{i}": Host(env, f"n{i}", i) for i in range(2)}
    injector = FaultInjector(env, hosts, telemetry=telemetry)
    return injector, hosts


class TestEdges:
    def test_freeze_a_crashed_node_rejected(self, world):
        injector, hosts = world
        injector.inject(FaultKind.NODE_CRASH, "n0")
        with pytest.raises(SimulationError):
            injector.inject(FaultKind.NODE_FREEZE, "n0")

    def test_same_kind_on_different_targets_allowed(self, world):
        injector, hosts = world
        injector.inject(FaultKind.NODE_CRASH, "n0")
        injector.inject(FaultKind.NODE_CRASH, "n1")
        assert len(injector.active_faults()) == 2

    def test_reinjection_after_repair_allowed(self, world):
        injector, hosts = world
        fault = injector.inject(FaultKind.NODE_FREEZE, "n0")
        injector.repair(fault)
        fault2 = injector.inject(FaultKind.NODE_FREEZE, "n0")
        assert fault2.active

    def test_network_fault_without_network_rejected(self, world):
        injector, hosts = world
        with pytest.raises(ValueError):
            injector.inject(FaultKind.LINK_DOWN, "n0")
        with pytest.raises(ValueError):
            injector.inject(FaultKind.SWITCH_DOWN, "switch0")

    def test_app_fault_without_resolver_rejected(self, world):
        injector, hosts = world
        with pytest.raises(ValueError):
            injector.inject(FaultKind.APP_CRASH, "n0")

    def test_handle_tracks_times(self, env, world):
        injector, hosts = world
        env.run(until=5.0)
        fault = injector.inject(FaultKind.NODE_FREEZE, "n0")
        assert fault.injected_at == 5.0 and fault.active
        env.run(until=9.0)
        injector.repair(fault)
        assert fault.repaired_at == 9.0 and not fault.active

    def test_crash_then_boot_then_freeze(self, env, world):
        injector, hosts = world
        fault = injector.inject(FaultKind.NODE_CRASH, "n0")
        injector.repair(fault)  # boots the node
        injector.inject(FaultKind.NODE_FREEZE, "n0")
        assert hosts["n0"].is_frozen
