"""Transport ordering and reliability properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.host import Host
from repro.net.network import ClusterNetwork
from repro.net.transport import CLOSED, Connection, ConnectionClosed
from repro.sim.kernel import Environment


def build(window):
    env = Environment()
    net = ClusterNetwork(env)
    a, b = Host(env, "a", 0), Host(env, "b", 1)
    net.attach(a)
    net.attach(b)
    return env, net, a, b, Connection(env, net, a, b, window=window)


@settings(max_examples=40, deadline=None)
@given(
    n_msgs=st.integers(min_value=1, max_value=40),
    window=st.integers(min_value=1, max_value=8),
    consumer_delay=st.floats(min_value=0.0, max_value=0.05),
)
def test_fifo_delivery_under_any_window(n_msgs, window, consumer_delay):
    env, net, a, b, conn = build(window)
    received = []

    def sender():
        for i in range(n_msgs):
            yield from conn.endpoint(a).send(i, 128, proc)

    def receiver():
        while len(received) < n_msgs:
            msg = yield conn.endpoint(b).recv()
            received.append(msg)
            if consumer_delay:
                yield env.timeout(consumer_delay)

    proc = env.process(sender())
    env.process(receiver())
    env.run(until=60.0)
    assert received == list(range(n_msgs))


@settings(max_examples=30, deadline=None)
@given(
    n_msgs=st.integers(min_value=2, max_value=20),
    outage_at=st.floats(min_value=0.001, max_value=0.05),
    outage_len=st.floats(min_value=0.1, max_value=2.0),
)
def test_no_loss_across_a_transient_outage(n_msgs, outage_at, outage_len):
    """Messages sent while the path flaps are delayed, never lost."""
    env, net, a, b, conn = build(window=4)
    received = []

    def sender():
        for i in range(n_msgs):
            yield from conn.endpoint(a).send(i, 128, proc)

    def receiver():
        while len(received) < n_msgs:
            msg = yield conn.endpoint(b).recv()
            received.append(msg)

    def outage():
        yield env.timeout(outage_at)
        net.link(b).up = False
        yield env.timeout(outage_len)
        net.link(b).up = True

    proc = env.process(sender())
    env.process(receiver())
    env.process(outage())
    env.run(until=outage_at + outage_len + 30.0)
    assert received == list(range(n_msgs))


@settings(max_examples=30, deadline=None)
@given(reset_after=st.integers(min_value=0, max_value=10))
def test_reset_is_always_terminal_for_the_reader(reset_after):
    env, net, a, b, conn = build(window=4)
    got = []

    def sender():
        try:
            for i in range(20):
                yield from conn.endpoint(a).send(i, 128, proc)
        except ConnectionClosed:
            pass

    def receiver():
        while True:
            msg = yield conn.endpoint(b).recv()
            got.append(msg)
            if msg is CLOSED:
                return

    def resetter():
        for _ in range(reset_after):
            yield env.timeout(0.0005)
        conn.reset()

    proc = env.process(sender())
    env.process(receiver())
    env.process(resetter())
    env.run(until=10.0)
    assert got and got[-1] is CLOSED
    payload = got[:-1]
    assert payload == sorted(payload)  # prefix, in order, no duplicates
    assert len(set(payload)) == len(payload)
