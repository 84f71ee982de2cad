"""Shared-view client library and the FME daemon."""

import pytest

from repro.ha.fme import FmeConfig, FmeDaemon
from repro.ha.memclient import MembershipClient, SharedView
from repro.hardware.disk import Disk, DiskParams
from repro.hardware.host import Host, NodeService
from repro.sim.kernel import Event


class TestSharedView:
    def test_publish_bumps_version_on_change_only(self):
        v = SharedView()
        v.publish({1, 2})
        ver = v.version
        v.publish({1, 2})
        assert v.version == ver
        v.publish({1})
        assert v.version == ver + 1

    def test_snapshot_is_a_copy(self):
        v = SharedView()
        v.publish({1})
        snap = v.snapshot()
        snap.add(99)
        assert v.members == {1}


class TestMembershipClient:
    def test_callbacks_on_view_changes(self, env):
        view = SharedView()
        view.publish({0, 1})
        ins, outs = [], []
        MembershipClient(env, view, ins.append, outs.append, poll_interval=1.0)
        env.run(until=2)
        assert sorted(ins) == [0, 1]
        view.publish({0, 2})
        env.run(until=4)
        assert 2 in ins and 1 in outs

    def test_node_down_forwarded_to_daemon(self, env):
        class FakeDaemon:
            def __init__(self):
                self.reports = []

            def report_down(self, nid):
                self.reports.append(nid)

        daemon = FakeDaemon()
        client = MembershipClient(env, SharedView(), lambda n: None, lambda n: None,
                                  daemon=daemon)
        client.node_down(3)
        assert daemon.reports == [3]

    def test_stop(self, env):
        view = SharedView()
        ins = []
        client = MembershipClient(env, view, ins.append, lambda n: None)
        client.stop()
        view.publish({5})
        env.run(until=5)
        assert ins == []


class ProbeApp(NodeService):
    """App whose probe responsiveness is directly controllable."""

    service_name = "press"

    def __init__(self, host):
        super().__init__(host)
        self.responsive = True
        self.starts = 0

    def start(self):
        if self.fault_latched or not self.group.alive or not self.host.is_up:
            return
        self.starts += 1
        self.responsive = True

    def on_crash(self):
        self.responsive = False

    def on_hang(self):
        self.responsive = False

    def on_resume(self):
        self.responsive = True

    def http_probe(self):
        ev = Event(self.env)
        if self.responsive and self.group.is_runnable() and self.host.is_up:
            ev.succeed(delay=0.001)
        return ev


@pytest.fixture
def node(env, telemetry):
    host = Host(env, "n1", 1)
    Disk(env, host, 0, DiskParams(seek_time=0.001, jitter=0.0))
    Disk(env, host, 1, DiskParams(seek_time=0.001, jitter=0.0))
    app = ProbeApp(host)
    fme = FmeDaemon(host, app, FmeConfig(probe_interval=2.0, probe_timeout=0.5,
                                         confirm_delay=0.2, reboot_poll=1.0,
                                         reboot_delay=1.0),
                    telemetry=telemetry)
    host.start_all()
    return host, app, fme


class TestFme:
    def test_healthy_node_untouched(self, env, node):
        host, app, fme = node
        env.run(until=30)
        assert fme.enforcements == 0
        assert app.starts == 1

    def test_hang_converted_to_crash_restart(self, env, node, markers):
        host, app, fme = node
        env.run(until=1)
        app.inject_hang()
        env.run(until=10)
        assert fme.enforcements >= 1
        assert markers.first("fme_restart") is not None
        assert app.starts == 2
        assert app.responsive

    def test_disk_fault_takes_node_offline(self, env, node, markers):
        host, app, fme = node
        env.run(until=1)
        host.disks[0].set_faulty()
        app.inject_hang()  # disk death manifests as the app wedging
        env.run(until=12)
        assert markers.first("fme_offline") is not None
        assert not host.is_up

    def test_node_boots_after_disk_repair(self, env, node):
        host, app, fme = node
        env.run(until=1)
        host.disks[0].set_faulty()
        app.inject_hang()
        env.run(until=12)
        assert not host.is_up
        host.disks[0].repair()
        env.run(until=20)
        assert host.is_up
        assert app.starts == 2  # restarted by the boot

    def test_disk_fault_with_responsive_app_waits(self, env, node):
        """Paper: FME only takes the node offline when the disk failure has
        led to an application hang or crash."""
        host, app, fme = node
        env.run(until=1)
        host.disks[0].set_faulty()
        env.run(until=10)
        assert host.is_up  # app still answering probes

    def test_latched_app_crash_not_fixed_by_restart(self, env, node):
        host, app, fme = node
        env.run(until=1)
        app.inject_crash()
        env.run(until=15)
        assert app.starts == 1  # restarts refused while the fault persists
        app.repair_crash()
        env.run(until=20)
        assert app.responsive

    def test_transient_blip_not_enforced(self, env, node):
        """One failed probe followed by recovery must not trigger action."""
        host, app, fme = node
        env.run(until=1.9)
        app.responsive = False

        def recover():
            yield env.timeout(0.25)
            app.responsive = True

        env.process(recover())
        env.run(until=10)
        assert fme.enforcements == 0
