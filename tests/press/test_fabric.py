"""Cluster fabric: connection establishment and the control channel."""

import pytest

from repro.hardware.disk import Disk, DiskParams
from repro.hardware.host import Host
from repro.net.network import ClusterNetwork
from repro.press.fabric import ClusterFabric
from repro.press.server import PressServer
from repro.sim.rng import RngRegistry
from repro.workload.trace import SyntheticTrace, TraceConfig
from tests.press.test_press_servers import FAST


@pytest.fixture
def setup(env):
    rngs = RngRegistry(1)
    net = ClusterNetwork(env)
    fabric = ClusterFabric(env, net)
    trace = SyntheticTrace(TraceConfig(n_files=50, file_size=1000), rngs.stream("t"))
    servers = []
    for i in range(3):
        host = Host(env, f"n{i}", i)
        net.attach(host)
        Disk(env, host, 0, DiskParams(seek_time=0.001, jitter=0.0))
        Disk(env, host, 1, DiskParams(seek_time=0.001, jitter=0.0))
        srv = PressServer(host, i, FAST, trace, fabric)
        srv.start()
        servers.append(srv)
    return net, fabric, servers


class TestRegistry:
    def test_servers_registered(self, setup):
        _, fabric, servers = setup
        assert sorted(fabric.node_ids()) == [0, 1, 2]
        assert fabric.server(1) is servers[1]
        assert fabric.server(99) is None


class TestOpenConnection:
    def test_successful_connect_adds_link_on_both(self, env, setup):
        _, fabric, servers = setup
        conn = fabric.open_connection(servers[0], 1)
        assert conn is not None
        assert 0 in servers[1].links  # acceptor adopted it
        env.run(until=1.0)

    def test_connect_to_dead_app_fails(self, env, setup):
        _, fabric, servers = setup
        servers[1].inject_crash()
        assert fabric.open_connection(servers[0], 1) is None

    def test_connect_to_unknown_fails(self, setup):
        _, fabric, servers = setup
        assert fabric.open_connection(servers[0], 42) is None

    def test_connect_over_dead_link_fails(self, setup):
        net, fabric, servers = setup
        net.link(servers[1].host).up = False
        assert fabric.open_connection(servers[0], 1) is None

    def test_connect_to_frozen_host_fails(self, setup):
        _, fabric, servers = setup
        servers[1].host.freeze()
        assert fabric.open_connection(servers[0], 1) is None


class TestControlChannel:
    def test_broadcast_reaches_all_alive(self, env, setup):
        _, fabric, servers = setup
        fabric.control_broadcast(servers[0], "node_dead", 7)
        env.run(until=0.1)
        # control loop consumed them; verify via a fresh broadcast counting
        # raw deliveries instead:
        before = [s.ctl_q.level for s in servers]
        assert all(level == 0 for level in before)  # drained by control loop

    def test_broadcast_skips_dead_servers(self, env, setup):
        _, fabric, servers = setup
        servers[2].inject_crash()
        fabric.control_broadcast(servers[0], "rejoin")
        env.run(until=0.1)  # must not raise / leak into a dead inbox

    def _freeze_control_plane(self, env, server):
        """Let startup traffic drain, then stop the receiver's control
        loop so later deliveries stay observable in the inbox."""
        env.run(until=env.now + 0.05)
        for proc in list(server.group.processes):
            proc.kill()
        return server.ctl_q.level

    def test_control_send_respects_network(self, env, setup):
        net, fabric, servers = setup
        base = self._freeze_control_plane(env, servers[1])
        net.link(servers[1].host).up = False
        fabric.control_send(servers[0], 1, "hb")
        env.run(until=env.now + 0.1)
        assert servers[1].ctl_q.level == base  # dropped on the dead link

    def test_control_send_delivers(self, env, setup):
        _, fabric, servers = setup
        base = self._freeze_control_plane(env, servers[1])
        fabric.control_send(servers[0], 1, "hb")
        env.run(until=env.now + 0.1)
        assert servers[1].ctl_q.level == base + 1
