"""Fault injector mechanics against the hardware substrate."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.types import FaultComponent, FaultKind
from repro.hardware.disk import Disk, DiskParams
from repro.hardware.host import Host, NodeService
from repro.net.network import ClusterNetwork


class DummyApp(NodeService):
    service_name = "press"

    def __init__(self, host):
        super().__init__(host)
        self.started = 0

    def start(self):
        if self.fault_latched or not self.group.alive or not self.host.is_up:
            return
        self.started += 1


class DummyFrontend:
    def __init__(self):
        self.down = False

    def fail(self):
        self.down = True

    def repair(self):
        self.down = False


@pytest.fixture
def world(env, telemetry):
    net = ClusterNetwork(env)
    hosts = {}
    disks = {}
    for i in range(2):
        h = Host(env, f"n{i}", i)
        net.attach(h)
        d = Disk(env, h, 0, DiskParams())
        DummyApp(h)
        h.start_all()
        hosts[h.name] = h
        disks[d.name] = d
    fe = DummyFrontend()
    injector = FaultInjector(
        env, hosts, network=net, disks=disks,
        frontends={"fe0": fe},
        app_of=lambda h: h.services["press"],
        telemetry=telemetry,
    )
    return injector, hosts, disks, net, fe


class TestInjectRepair:
    def test_link_down(self, world):
        injector, hosts, _, net, _ = world
        f = injector.inject(FaultKind.LINK_DOWN, "n0")
        assert not net.link(hosts["n0"]).up
        injector.repair(f)
        assert net.link(hosts["n0"]).up

    def test_switch_down(self, world):
        injector, _, _, net, _ = world
        f = injector.inject(FaultKind.SWITCH_DOWN, "switch0")
        assert not net.switch.up
        injector.repair(f)
        assert net.switch.up

    def test_scsi(self, world):
        injector, _, disks, _, _ = world
        f = injector.inject(FaultKind.SCSI_TIMEOUT, "n0.disk0")
        assert disks["n0.disk0"].faulty
        injector.repair(f)
        assert not disks["n0.disk0"].faulty

    def test_node_crash_and_boot(self, world):
        injector, hosts, _, _, _ = world
        app = hosts["n0"].services["press"]
        f = injector.inject(FaultKind.NODE_CRASH, "n0")
        assert not hosts["n0"].is_up
        injector.repair(f)
        assert hosts["n0"].is_up
        assert app.started == 2

    def test_node_freeze(self, world):
        injector, hosts, _, _, _ = world
        f = injector.inject(FaultKind.NODE_FREEZE, "n0")
        assert hosts["n0"].is_frozen and not hosts["n0"].pingable
        injector.repair(f)
        assert not hosts["n0"].is_frozen

    def test_app_crash_latched_until_repair(self, world):
        injector, hosts, _, _, _ = world
        app = hosts["n0"].services["press"]
        f = injector.inject(FaultKind.APP_CRASH, "n0")
        assert app.fault_latched and not app.group.alive
        app.force_restart()  # e.g. FME tries: must fail
        assert app.started == 1
        injector.repair(f)
        assert app.started == 2 and not app.fault_latched

    def test_app_hang(self, world):
        injector, hosts, _, _, _ = world
        app = hosts["n0"].services["press"]
        f = injector.inject(FaultKind.APP_HANG, "n0")
        assert app.group.frozen
        injector.repair(f)
        assert not app.group.frozen

    def test_frontend(self, world):
        injector, _, _, _, fe = world
        f = injector.inject(FaultKind.FRONTEND_FAILURE, "fe0")
        assert fe.down
        injector.repair(f)
        assert not fe.down


class TestBookkeeping:
    def test_double_injection_rejected(self, world):
        injector, *_ = world
        injector.inject(FaultKind.NODE_CRASH, "n0")
        with pytest.raises(ValueError):
            injector.inject(FaultKind.NODE_CRASH, "n0")

    def test_markers_recorded(self, env, world, markers):
        injector, *_ = world
        f = injector.inject(FaultKind.NODE_CRASH, "n0")
        injector.repair(f)
        assert markers.first("fault_injected") == 0.0
        assert markers.first("fault_repaired") == 0.0
        (_, comp), = markers.all("fault_injected")
        assert comp == FaultComponent(FaultKind.NODE_CRASH, "n0")

    def test_inject_for_schedules_repair(self, env, world):
        injector, hosts, *_ = world
        injector.inject_for(FaultKind.NODE_FREEZE, "n0", duration=5.0)
        env.run(until=4.9)
        assert hosts["n0"].is_frozen
        env.run(until=5.1)
        assert not hosts["n0"].is_frozen

    def test_active_faults(self, world):
        injector, *_ = world
        f = injector.inject(FaultKind.NODE_CRASH, "n0")
        assert injector.active_faults() == [f]
        injector.repair(f)
        assert injector.active_faults() == []

    def test_repair_idempotent(self, world):
        injector, *_ = world
        f = injector.inject(FaultKind.NODE_CRASH, "n0")
        injector.repair(f)
        injector.repair(f)

    def test_unknown_targets(self, world):
        injector, *_ = world
        with pytest.raises(KeyError):
            injector.inject(FaultKind.NODE_CRASH, "nope")
        with pytest.raises(KeyError):
            injector.inject(FaultKind.SCSI_TIMEOUT, "nope")
        with pytest.raises(KeyError):
            injector.inject(FaultKind.FRONTEND_FAILURE, "nope")
