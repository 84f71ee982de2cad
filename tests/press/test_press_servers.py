"""PRESS cooperative server and INDEP variant: behavioural unit tests.

These use small purpose-built worlds (not the full experiment profiles)
so individual mechanisms are observable quickly.
"""

import pytest

from repro.hardware.disk import Disk, DiskParams
from repro.hardware.host import Host
from repro.net.message import Message
from repro.net.network import ClusterNetwork
from repro.obs.telemetry import Telemetry
from repro.press.config import PressConfig
from repro.press.fabric import ClusterFabric
from repro.press.indep import IndepServer
from repro.press.server import PressServer, bootstrap_cluster
from repro.sim.kernel import SimulationError
from repro.sim.rng import RngRegistry
from repro.workload.client import Request
from repro.workload.trace import SyntheticTrace, TraceConfig

FAST = PressConfig(
    cache_files=20,
    cpu_parse=1e-4,
    cpu_serve=1e-4,
    cpu_forward=1e-4,
    cpu_remote_serve=1e-4,
    cpu_response=1e-4,
    cpu_disk_done=1e-4,
    cpu_control=1e-5,
    send_queue_capacity=16,
    disk_queue_capacity=8,
    main_queue_capacity=32,
    conn_window=8,
    startup_grace=1.0,
)


def build_cluster(env, n=3, config=FAST, n_files=100):
    rngs = RngRegistry(7)
    telemetry = Telemetry.disabled()
    net = ClusterNetwork(env)
    fabric = ClusterFabric(env, net)
    trace = SyntheticTrace(TraceConfig(n_files=n_files, file_size=1000), rngs.stream("t"))
    servers = []
    for i in range(n):
        host = Host(env, f"n{i}", i)
        net.attach(host)
        Disk(env, host, 0, DiskParams(seek_time=0.002, jitter=0.0))
        Disk(env, host, 1, DiskParams(seek_time=0.002, jitter=0.0))
        srv = PressServer(host, i, config, trace, fabric, telemetry=telemetry)
        srv.start()
        servers.append(srv)
    bootstrap_cluster(servers)
    return servers, net, fabric, telemetry.tracer.markers, trace


def submit(env, server, fid):
    req = Request(env, fid, 1000)
    assert server.try_accept(req)
    return req


class TestServing:
    def test_local_miss_served_from_disk_and_cached(self, env):
        servers, *_ = build_cluster(env)
        req = submit(env, servers[0], 5)
        env.run(until=1.0)
        assert req.response.triggered
        assert 5 in servers[0].cache

    def test_cache_broadcast_updates_peer_directories(self, env):
        servers, *_ = build_cluster(env)
        submit(env, servers[0], 5)
        env.run(until=1.0)
        assert servers[1].directory.holders(5) == {0}
        assert servers[2].directory.holders(5) == {0}

    def test_second_request_forwarded_to_holder(self, env):
        servers, *_ = build_cluster(env)
        submit(env, servers[0], 5)
        env.run(until=1.0)
        served_before = servers[0].requests_served
        req = submit(env, servers[1], 5)
        env.run(until=2.0)
        assert req.response.triggered
        assert servers[1].requests_served == 1  # initial node responds
        # service node 0 did not fetch from disk again
        assert sum(d.ops_served for d in servers[0].host.disks) == 1

    def test_load_piggybacked(self, env):
        servers, *_ = build_cluster(env)
        submit(env, servers[0], 5)
        env.run(until=1.0)
        submit(env, servers[1], 5)
        env.run(until=2.0)
        assert 1 in servers[0].loads  # node 0 learned node 1's load

    def test_accept_backlog_limit(self, env):
        servers, *_ = build_cluster(env, config=FAST.with_(accept_backlog=2))
        s = servers[0]
        reqs = [Request(env, i, 1000) for i in range(3)]
        assert s.try_accept(reqs[0])
        assert s.try_accept(reqs[1])
        assert not s.try_accept(reqs[2])

    def test_not_listening_when_down(self, env):
        servers, *_ = build_cluster(env)
        servers[0].inject_crash()
        assert not servers[0].listening
        assert not servers[0].try_accept(Request(env, 1, 1000))

    def test_http_probe_answered_when_healthy(self, env):
        servers, *_ = build_cluster(env)
        ev = servers[0].http_probe()
        env.run(until=0.5)
        assert ev.triggered

    def test_http_probe_unanswered_when_hung(self, env):
        servers, *_ = build_cluster(env)
        servers[0].inject_hang()
        ev = servers[0].http_probe()
        env.run(until=5.0)
        assert not ev.triggered

    def test_expired_request_dropped_at_parse(self, env):
        servers, *_ = build_cluster(env)
        req = Request(env, 5, 1000)
        req.expired = True
        servers[0].try_accept(req)
        env.run(until=1.0)
        assert not req.response.triggered
        assert servers[0].client_pending == 0

    def test_miss_coalescing(self, env):
        servers, *_ = build_cluster(env)
        reqs = [submit(env, servers[0], 7) for _ in range(5)]
        env.run(until=1.0)
        assert all(r.response.triggered for r in reqs)
        assert sum(d.ops_served for d in servers[0].host.disks) == 1


class TestReconfiguration:
    def test_app_crash_detected_via_connection_reset(self, env, ):
        servers, net, fabric, markers, _ = build_cluster(env)
        env.run(until=2.0)
        servers[1].inject_crash()
        env.run(until=4.0)
        assert sorted(servers[0].coop) == [0, 2]
        assert sorted(servers[2].coop) == [0, 2]
        reasons = {d[0] for _, d in markers.all("detected")}
        assert "conn_reset" in reasons

    def test_node_crash_detected_via_heartbeats(self, env):
        servers, net, fabric, markers, _ = build_cluster(env)
        env.run(until=2.0)
        servers[1].host.crash()
        env.run(until=25.0)
        assert sorted(servers[0].coop) == [0, 2]
        reasons = {d[0] for _, d in markers.all("detected")}
        assert "heartbeat" in reasons

    def test_rejoin_after_app_restart(self, env):
        servers, *_ = build_cluster(env)
        env.run(until=2.0)
        servers[1].inject_crash()
        env.run(until=5.0)
        servers[1].repair_crash()
        env.run(until=20.0)
        for s in servers:
            assert sorted(s.coop) == [0, 1, 2]

    def test_rejoin_after_node_reboot(self, env):
        servers, *_ = build_cluster(env)
        env.run(until=2.0)
        servers[1].host.crash()
        env.run(until=25.0)
        servers[1].host.boot()
        env.run(until=45.0)
        for s in servers:
            assert sorted(s.coop) == [0, 1, 2]

    def test_frozen_node_splinters_no_reintegration(self, env):
        servers, *_ = build_cluster(env)
        env.run(until=2.0)
        servers[1].host.freeze()
        env.run(until=25.0)
        assert sorted(servers[0].coop) == [0, 2]
        servers[1].host.unfreeze()
        env.run(until=80.0)
        # base PRESS never re-admits a node that did not restart
        assert sorted(servers[0].coop) == [0, 2]
        assert sorted(servers[1].coop) == [1]

    def test_excluded_node_directory_dropped(self, env):
        servers, *_ = build_cluster(env)
        submit(env, servers[1], 5)
        env.run(until=2.0)
        assert servers[0].directory.holders(5) == {1}
        servers[1].inject_crash()
        env.run(until=5.0)
        assert servers[0].directory.holders(5) == set()

    def test_stale_node_dead_announcement_ignored(self, env):
        servers, net, fabric, markers, _ = build_cluster(env)
        env.run(until=2.0)
        # n1 is excluded; its later announcements must not be honored
        servers[1].inject_crash()
        env.run(until=4.0)
        servers[0].ctl_q.force_put(Message("node_dead", 1, 0, 2))
        env.run(until=6.0)
        assert 2 in servers[0].coop


class TestSendLoop:
    def _quiet_link(self, env):
        servers, net, *_ = build_cluster(env)
        env.run(until=2.0)
        link = servers[0].links[1]
        assert not link.in_flight and link.send_q.level == 0
        msg = Message("cache_sync", 0, 1, {"fids": [], "load": 0})
        return servers, net, link, msg

    def test_send_ends_one_hop_after_delivery(self, env):
        # The loop clears in_flight one same-instant hop after the peer's
        # buffer accepts the message: a callback queued at the delivery
        # instant ahead of that hop still sees the send in flight, and one
        # queued after it does not.
        servers, net, link, msg = self._quiet_link(env)
        seen = []

        def after_hop(_):
            seen.append(("after", link.in_flight))

        def ahead_of_hop(_):
            seen.append(("ahead", link.in_flight))
            env.event().succeed().add_callback(after_hop)

        def at_delivery(_):
            # Fires right after the transfer, while the accepting put is
            # still queued; queues its check behind that put.
            seen.append(("delivery", link.in_flight))
            env.event().succeed().add_callback(ahead_of_hop)

        assert link.send_q.try_put(msg)
        # Created once the loop has taken msg and started its transfer.
        env.event().succeed().add_callback(
            lambda _: env.timeout(net.transfer_time(msg.size)).add_callback(at_delivery))
        env.run(until=3.0)
        assert seen == [("delivery", True), ("ahead", True), ("after", False)]

    @pytest.mark.parametrize("freeze_at", ["transfer", "delivery"])
    def test_reset_held_by_a_freeze_does_not_kill_the_loop(self, env, freeze_at):
        # The node freezes mid-transfer or as the peer accepts the message;
        # the held wait then ends (its delivery is held) and the connection
        # is reset (the interrupt is held behind it).  On thaw the send
        # raises ConnectionClosed or returns, and the interrupt, replayed
        # after the send ended, must neither escape the loop nor resume it
        # a second time.
        servers, net, link, msg = self._quiet_link(env)
        freeze = servers[0].host.freeze
        assert link.send_q.try_put(msg)
        if freeze_at == "transfer":
            env.run(until=env.now + net.transfer_time(msg.size) / 2)
            freeze()
        else:
            env.event().succeed().add_callback(
                lambda _: env.timeout(net.transfer_time(msg.size)).add_callback(
                    lambda _: freeze()))
        env.run(until=env.now + 0.5)
        assert link.in_flight
        link.conn.reset()
        env.run(until=env.now + 0.1)
        servers[0].host.unfreeze()
        env.run(until=env.now + 1.0)
        assert not link.in_flight
        assert 1 not in servers[0].coop


class TestUnhandledItems:
    """Each PRESS dispatcher fails the run on an item it has no branch
    for, naming the host and the item: a dropped peer message must not
    read as a fault."""

    def test_main_loop_rejects_an_unknown_tag(self, env):
        servers, *_ = build_cluster(env)
        servers[0].main_q.force_put(("bogus", None))
        with pytest.raises(SimulationError, match=r"^n0: .*'bogus'"):
            env.run(until=1.0)

    def test_peer_handler_rejects_a_control_kind(self, env):
        servers, *_ = build_cluster(env)
        servers[0].main_q.force_put(("net", Message("hb", 1, 0)))
        with pytest.raises(SimulationError, match=r"^n0: .*'hb'"):
            env.run(until=1.0)

    def test_control_loop_rejects_a_membership_kind(self, env):
        servers, *_ = build_cluster(env)
        servers[0].ctl_q.force_put(Message("mhb", 1, 0))
        with pytest.raises(SimulationError, match=r"^n0: .*'mhb'"):
            env.run(until=1.0)


class TestIndep:
    def build(self, env, n=2):
        rngs = RngRegistry(7)
        trace = SyntheticTrace(TraceConfig(n_files=100, file_size=1000), rngs.stream("t"))
        servers = []
        for i in range(n):
            host = Host(env, f"n{i}", i)
            Disk(env, host, 0, DiskParams(seek_time=0.002, jitter=0.0))
            Disk(env, host, 1, DiskParams(seek_time=0.002, jitter=0.0))
            srv = IndepServer(host, i, FAST, trace)
            srv.start()
            servers.append(srv)
        return servers

    def test_serves_locally(self, env):
        servers = self.build(env)
        req = submit(env, servers[0], 3)
        env.run(until=1.0)
        assert req.response.triggered
        assert 3 in servers[0].cache

    def test_no_cross_node_effects(self, env):
        servers = self.build(env)
        submit(env, servers[0], 3)
        env.run(until=1.0)
        assert 3 not in servers[1].cache
        assert sum(d.ops_served for d in servers[1].host.disks) == 0

    def test_crash_restart_resets_cache(self, env):
        servers = self.build(env)
        submit(env, servers[0], 3)
        env.run(until=1.0)
        servers[0].inject_crash()
        servers[0].repair_crash()
        assert 3 not in servers[0].cache

    def test_miss_coalescing(self, env):
        servers = self.build(env)
        reqs = [submit(env, servers[0], 9) for _ in range(4)]
        env.run(until=1.0)
        assert all(r.response.triggered for r in reqs)
        assert sum(d.ops_served for d in servers[0].host.disks) == 1

    def test_probe(self, env):
        servers = self.build(env)
        ev = servers[0].http_probe()
        env.run(until=0.5)
        assert ev.triggered

    def test_main_loop_rejects_peer_traffic(self, env):
        # INDEP has no peers: a ("net", msg) item has no branch
        servers = self.build(env)
        servers[0].main_q.force_put(("net", Message("fwd_req", 1, 0)))
        with pytest.raises(SimulationError, match=r"^n0: .*'net'"):
            env.run(until=1.0)
