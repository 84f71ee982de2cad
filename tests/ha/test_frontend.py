"""Front-end request distribution + Mon monitoring."""

import pytest

from repro.ha.frontend import FrontEnd, FrontEndConfig, MonMode
from repro.hardware.host import Host, NodeService
from repro.workload.client import Request


class FakeBackend(NodeService):
    service_name = "press"

    def __init__(self, host):
        super().__init__(host)
        self._listening = True

    def start(self):
        pass

    @property
    def listening(self):
        return self._listening and self.group.alive and self.host.is_up


@pytest.fixture
def world(env, telemetry):
    hosts = [Host(env, f"n{i}", i) for i in range(3)]
    backends = [FakeBackend(h) for h in hosts]
    fe_host = Host(env, "fe0", 100)
    fe = FrontEnd(env, fe_host, backends, FrontEndConfig(), telemetry=telemetry)
    return hosts, backends, fe


def picks(env, fe, n=6):
    return [fe.pick(Request(env, 0, 1)) for _ in range(n)]


class TestRouting:
    def test_round_robin(self, env, world):
        hosts, backends, fe = world
        chosen = picks(env, fe, 6)
        assert chosen == backends * 2

    def test_skips_detected_down_nodes(self, env, world):
        hosts, backends, fe = world
        hosts[0].crash()
        env.run(until=16)  # 3 pings x 5 s
        assert backends[0] not in picks(env, fe, 6)
        assert not fe.is_routed(backends[0])

    def test_detection_takes_three_lost_pings(self, env, world):
        hosts, backends, fe = world
        hosts[0].crash()
        env.run(until=11)  # only 2 probes so far
        assert backends[0] in picks(env, fe, 6)

    def test_node_readmitted_after_recovery(self, env, world):
        hosts, backends, fe = world
        hosts[0].crash()
        env.run(until=16)
        hosts[0].boot()
        env.run(until=22)
        assert backends[0] in picks(env, fe, 6)

    def test_ping_mode_blind_to_app_crash(self, env, world):
        hosts, backends, fe = world
        backends[0].inject_crash()
        env.run(until=30)
        assert backends[0] in picks(env, fe, 6)  # Mon pings: OS still answers

    def test_empty_table_returns_none(self, env, world):
        hosts, backends, fe = world
        for h in hosts:
            h.crash()
        env.run(until=16)
        assert fe.pick(Request(env, 0, 1)) is None


class TestConnectionMonitoring:
    @pytest.fixture
    def cmon(self, env, telemetry):
        hosts = [Host(env, f"n{i}", i) for i in range(2)]
        backends = [FakeBackend(h) for h in hosts]
        fe_host = Host(env, "fe0", 100)
        cfg = FrontEndConfig(mode=MonMode.CONNECTION)
        return hosts, backends, FrontEnd(env, fe_host, backends, cfg,
                                         telemetry=telemetry)

    def test_detects_app_crash_fast(self, env, cmon):
        hosts, backends, fe = cmon
        backends[0].inject_crash()
        env.run(until=2.5)  # 2 probes x 1 s
        assert backends[0] not in picks(env, fe, 4)

    def test_readmits_after_app_restart(self, env, cmon):
        hosts, backends, fe = cmon
        backends[0].inject_crash()
        env.run(until=3)
        backends[0].repair_crash()
        env.run(until=5)
        assert backends[0] in picks(env, fe, 4)


class TestFrontendFailure:
    def test_failure_blocks_routing(self, env, world):
        _, _, fe = world
        fe.fail()
        assert fe.pick(Request(env, 0, 1)) is None

    def test_redundant_takeover(self, env, world, markers):
        _, backends, fe = world
        fe.fail()
        env.run(until=9)
        assert fe.pick(Request(env, 0, 1)) is None
        env.run(until=11)
        assert fe.pick(Request(env, 0, 1)) in backends
        assert markers.first("fe_takeover") == pytest.approx(10.0)

    def test_non_redundant_stays_down(self, env, telemetry):
        hosts = [Host(env, "n0", 0)]
        backends = [FakeBackend(hosts[0])]
        fe = FrontEnd(env, Host(env, "fe0", 100), backends,
                      FrontEndConfig(redundant=False), telemetry=telemetry)
        fe.fail()
        env.run(until=60)
        assert fe.pick(Request(env, 0, 1)) is None
        fe.repair()
        assert fe.pick(Request(env, 0, 1)) is backends[0]

    def test_fail_idempotent(self, world):
        _, _, fe = world
        fe.fail()
        fe.fail()


class TestSfmeHooks:
    def test_force_offline_overrides_mon(self, env, world):
        hosts, backends, fe = world
        fe.force_offline(backends[1])
        assert backends[1] not in picks(env, fe, 6)
        fe.allow_online(backends[1])
        assert backends[1] in picks(env, fe, 6)
