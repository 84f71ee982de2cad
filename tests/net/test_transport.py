"""TCP-like connection semantics: flow control, blocking, reset."""

import pytest

from repro.hardware.host import Host
from repro.net.network import ClusterNetwork
from repro.net.transport import CLOSED, Connection, ConnectionClosed


@pytest.fixture
def setup(env):
    net = ClusterNetwork(env)
    a, b = Host(env, "a", 0), Host(env, "b", 1)
    net.attach(a)
    net.attach(b)
    conn = Connection(env, net, a, b, window=4)
    return net, a, b, conn


class TestDelivery:
    def test_send_recv_in_order(self, env, setup):
        net, a, b, conn = setup
        received = []

        def sender():
            for i in range(5):
                yield from conn.endpoint(a).send(i, 128, proc)

        def receiver():
            while len(received) < 5:
                msg = yield conn.endpoint(b).recv()
                received.append(msg)

        proc = env.process(sender())
        env.process(receiver())
        env.run(until=1)
        assert received == [0, 1, 2, 3, 4]

    def test_window_backpressure(self, env, setup):
        net, a, b, conn = setup
        done = []

        def sender():
            for i in range(6):
                yield from conn.endpoint(a).send(i, 128, proc)
                done.append((env.now, i))

        proc = env.process(sender())
        env.run(until=5)
        # Window of 4: the 5th message blocks until the reader drains.
        assert len(done) == 4

        def reader():
            while True:
                yield conn.endpoint(b).recv()

        env.process(reader())
        env.run(until=10)
        assert len(done) == 6

    def test_send_blocks_while_peer_down(self, env, setup):
        net, a, b, conn = setup
        done = []

        def sender():
            yield from conn.endpoint(a).send("x", 128, proc)
            done.append(env.now)

        b.freeze()
        proc = env.process(sender())
        env.run(until=5)
        assert done == []
        b.unfreeze()
        env.run(until=6)
        assert len(done) == 1

    def test_send_blocks_while_link_down(self, env, setup):
        net, a, b, conn = setup
        done = []

        def sender():
            yield from conn.endpoint(a).send("x", 128, proc)
            done.append(env.now)

        net.link(a).up = False
        proc = env.process(sender())
        env.run(until=3)
        assert done == []
        net.link(a).up = True
        env.run(until=4)
        assert len(done) == 1


class TestReset:
    def test_blocked_sender_aborted(self, env, setup):
        net, a, b, conn = setup
        outcome = []

        def sender():
            b.freeze()
            try:
                yield from conn.endpoint(a).send("x", 128, proc)
                outcome.append("sent")
            except ConnectionClosed:
                outcome.append("closed")

        proc = env.process(sender())
        env.run(until=1)
        conn.reset()
        env.run(until=2)
        assert outcome == ["closed"]

    def test_reader_gets_closed_sentinel(self, env, setup):
        net, a, b, conn = setup
        got = []

        def reader():
            msg = yield conn.endpoint(b).recv()
            got.append(msg)

        env.process(reader())
        env.run(until=1)
        conn.reset()
        env.run(until=2)
        assert got == [CLOSED]

    def test_buffered_data_discarded_on_reset(self, env, setup):
        net, a, b, conn = setup

        def sender():
            yield from conn.endpoint(a).send("data", 128, proc)

        proc = env.process(sender())
        env.run(until=1)
        conn.reset()
        got = []

        def reader():
            msg = yield conn.endpoint(b).recv()
            got.append(msg)

        env.process(reader())
        env.run(until=2)
        assert got == [CLOSED]

    def test_send_after_reset_fails(self, env, setup):
        net, a, b, conn = setup
        conn.reset()
        outcome = []

        def sender():
            try:
                yield from conn.endpoint(a).send("x", 128, proc)
            except ConnectionClosed:
                outcome.append("closed")

        proc = env.process(sender())
        env.run(until=1)
        assert outcome == ["closed"]

    def test_reset_during_send_raises_in_sender(self, env, setup):
        net, a, b, conn = setup
        ep = conn.endpoint(a)
        outcome = []

        def sender():
            try:
                yield from ep.send("x", 128, proc)
                outcome.append("sent")
            except ConnectionClosed:
                outcome.append(("closed", env.now))

        proc = env.process(sender())
        halfway = net.transfer_time(128) / 2
        env.run(until=halfway)
        assert list(ep._senders) == [proc]  # registered while in flight
        conn.reset()
        env.run(until=1)
        assert outcome == [("closed", halfway)]
        assert not ep._senders

    def test_completed_send_leaves_no_sender(self, env, setup):
        net, a, b, conn = setup
        ep = conn.endpoint(a)

        def sender():
            yield from ep.send("x", 128, proc)

        proc = env.process(sender())
        env.run(until=1)
        assert proc.ok and not ep._senders

    def test_reset_idempotent(self, env, setup):
        _, _, _, conn = setup
        conn.reset()
        conn.reset()

    def test_peer_of(self, setup):
        net, a, b, conn = setup
        assert conn.peer_of(a) is b
        assert conn.peer_of(b) is a
