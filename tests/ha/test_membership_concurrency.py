"""Membership protocol under adversarial timing."""

from repro.ha.membership import (
    MembershipConfig,
    MembershipDaemon,
    MembershipNetwork,
    bootstrap_membership,
)
from repro.hardware.host import Host
from repro.net.network import ClusterNetwork


def build(env, n=5, telemetry=None):
    net = ClusterNetwork(env)
    mnet = MembershipNetwork(net)
    hosts, daemons = [], []
    for i in range(n):
        h = Host(env, f"n{i}", i)
        net.attach(h)
        d = MembershipDaemon(h, i, mnet, MembershipConfig(), telemetry=telemetry)
        d.start()
        hosts.append(h)
        daemons.append(d)
    bootstrap_membership(daemons)
    return net, hosts, daemons


def consistent(daemons, expect):
    alive = [d for d in daemons if d.group.alive and d.host.is_up]
    return all(sorted(d.view) == sorted(expect) for d in alive)


class TestConcurrentEvents:
    def test_two_simultaneous_crashes(self, env):
        """Both ring neighbours of two victims coordinate exclusions at
        once; the 2PC version ordering must still converge."""
        net, hosts, daemons = build(env)
        env.run(until=10)
        hosts[1].crash()
        hosts[3].crash()
        env.run(until=90)
        assert consistent(daemons, [0, 2, 4])

    def test_crash_during_join(self, env):
        net, hosts, daemons = build(env)
        env.run(until=10)
        hosts[1].crash()
        env.run(until=50)
        hosts[1].boot()
        # another node dies while n1 is mid-rejoin
        hosts[2].crash()
        env.run(until=160)
        assert consistent(daemons, [0, 1, 3, 4])

    def test_rapid_flap(self, env):
        """A node that crashes, reboots, and crashes again must not wedge
        the group."""
        net, hosts, daemons = build(env)
        env.run(until=10)
        hosts[1].crash()
        env.run(until=40)
        hosts[1].boot()
        env.run(until=55)
        hosts[1].crash()
        env.run(until=120)
        assert consistent(daemons, [0, 2, 3, 4])
        hosts[1].boot()
        env.run(until=240)
        assert consistent(daemons, [0, 1, 2, 3, 4])

    def test_three_way_partition_and_heal(self, env):
        net, hosts, daemons = build(env)
        env.run(until=10)
        net.link(hosts[2]).up = False
        net.link(hosts[4]).up = False
        env.run(until=110)
        assert sorted(daemons[0].view) == [0, 1, 3]
        assert sorted(daemons[2].view) == [2]
        assert sorted(daemons[4].view) == [4]
        net.link(hosts[2]).up = True
        net.link(hosts[4]).up = True
        env.run(until=320)
        assert consistent(daemons, [0, 1, 2, 3, 4])

    def test_majority_partition_keeps_lowest_id_group(self, env):
        net, hosts, daemons = build(env)
        env.run(until=10)
        net.switch.up = False
        env.run(until=130)
        net.switch.up = True
        env.run(until=500)
        # merge rule: everyone converges into the group containing n0
        assert consistent(daemons, [0, 1, 2, 3, 4])
        assert sorted(daemons[0].view) == [0, 1, 2, 3, 4]

    def test_view_versions_strictly_increase_per_install(self, env, telemetry):
        net, hosts, daemons = build(env, telemetry=telemetry)
        seen = {d.node_id: [d.version] for d in daemons}

        def snapshot():
            while True:
                yield env.timeout(1.0)
                for d in daemons:
                    if d.version != seen[d.node_id][-1]:
                        seen[d.node_id].append(d.version)

        env.process(snapshot())
        env.run(until=10)
        hosts[1].crash()
        env.run(until=60)
        hosts[1].boot()
        env.run(until=150)
        for versions in seen.values():
            assert versions == sorted(versions)
