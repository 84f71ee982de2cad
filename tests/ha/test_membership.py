"""Membership service: exclusion, join, partitions, merge, divergence."""

import pytest

from repro.ha.membership import (
    MembershipConfig,
    MembershipDaemon,
    MembershipNetwork,
    bootstrap_membership,
)
from repro.hardware.host import Host
from repro.net.message import Message
from repro.net.network import ClusterNetwork
from repro.sim.kernel import SimulationError


@pytest.fixture
def cluster(env, telemetry):
    net = ClusterNetwork(env)
    mnet = MembershipNetwork(net)
    hosts, daemons = [], []
    for i in range(4):
        h = Host(env, f"n{i}", i)
        net.attach(h)
        d = MembershipDaemon(h, i, mnet, MembershipConfig(), telemetry=telemetry)
        d.start()
        hosts.append(h)
        daemons.append(d)
    bootstrap_membership(daemons)
    return net, hosts, daemons


def views(daemons):
    return [sorted(d.view) for d in daemons]


class TestSteadyState:
    def test_stable_without_faults(self, env, cluster):
        _, _, daemons = cluster
        env.run(until=120)
        assert views(daemons) == [[0, 1, 2, 3]] * 4

    def test_view_published(self, env, cluster):
        _, _, daemons = cluster
        env.run(until=30)
        for d in daemons:
            assert d.shared_view.snapshot() == set(d.view)


class TestExclusion:
    def test_crashed_node_excluded(self, env, cluster):
        _, hosts, daemons = cluster
        env.run(until=10)
        hosts[1].crash()
        env.run(until=60)
        for d in (daemons[0], daemons[2], daemons[3]):
            assert sorted(d.view) == [0, 2, 3]

    def test_detection_within_loss_threshold(self, env, cluster, markers):
        _, hosts, daemons = cluster
        env.run(until=10)
        hosts[1].crash()
        env.run(until=60)
        detect = markers.first("detected")
        assert detect is not None and detect <= 10 + 3 * 5.0 + 5.0

    def test_frozen_node_excluded_then_rejoins_on_thaw(self, env, cluster):
        _, hosts, daemons = cluster
        env.run(until=10)
        hosts[1].freeze()
        env.run(until=60)
        assert sorted(daemons[0].view) == [0, 2, 3]
        hosts[1].unfreeze()
        env.run(until=160)
        assert views(daemons) == [[0, 1, 2, 3]] * 4

    def test_rebooted_node_rejoins(self, env, cluster):
        _, hosts, daemons = cluster
        env.run(until=10)
        hosts[1].crash()
        env.run(until=60)
        hosts[1].boot()
        env.run(until=120)
        assert views(daemons) == [[0, 1, 2, 3]] * 4

    def test_node_down_report_triggers_exclusion(self, env, cluster):
        _, hosts, daemons = cluster
        env.run(until=10)
        hosts[1].crash()
        daemons[0].report_down(1)
        env.run(until=20)
        assert 1 not in daemons[0].view


class TestPartition:
    def test_partition_forms_subgroups(self, env, cluster):
        net, hosts, daemons = cluster
        env.run(until=10)
        net.link(hosts[3]).up = False
        env.run(until=80)
        assert sorted(daemons[0].view) == [0, 1, 2]
        assert sorted(daemons[3].view) == [3]

    def test_partition_heals_and_merges(self, env, cluster):
        net, hosts, daemons = cluster
        env.run(until=10)
        net.link(hosts[3]).up = False
        env.run(until=80)
        net.link(hosts[3]).up = True
        env.run(until=200)
        assert views(daemons) == [[0, 1, 2, 3]] * 4

    def test_switch_down_forms_singletons(self, env, cluster):
        net, hosts, daemons = cluster
        env.run(until=10)
        net.switch.up = False
        env.run(until=120)
        assert views(daemons) == [[0], [1], [2], [3]]

    def test_switch_repair_reforms_full_group(self, env, cluster):
        net, hosts, daemons = cluster
        env.run(until=10)
        net.switch.up = False
        env.run(until=120)
        net.switch.up = True
        env.run(until=400)
        assert views(daemons) == [[0, 1, 2, 3]] * 4


class TestDivergence:
    def test_daemon_survives_app_level_faults(self, env, cluster):
        """The membership view is blind to application death — the exact
        divergence FME exists to resolve (paper Section 4.4)."""
        _, hosts, daemons = cluster
        env.run(until=10)
        # an application crash on n1 does not touch the membd group
        other = hosts[1].add_group("press")
        other.crash()
        env.run(until=60)
        assert views(daemons) == [[0, 1, 2, 3]] * 4

    def test_versions_monotone(self, env, cluster):
        _, hosts, daemons = cluster
        seen = {d.node_id: d.version for d in daemons}
        env.run(until=10)
        hosts[1].crash()
        env.run(until=60)
        hosts[1].boot()
        env.run(until=150)
        for d in daemons:
            assert d.version >= seen[d.node_id]


class TestDispatch:
    def test_unhandled_kind_fails_the_run(self, env, cluster):
        # a valid wire kind the daemon has no _on_ handler for
        _, _, daemons = cluster
        daemons[2].inbox.force_put(Message("hb", 1, 2))
        with pytest.raises(SimulationError, match=r"^n2: .*'hb'"):
            env.run(until=10)
