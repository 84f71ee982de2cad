"""TCP-like connections: windowed, blocking, resettable.

Semantics chosen to reproduce the paper's fault propagation:

* ``send`` completes only when the message lands in the peer's bounded
  receive buffer.  While the path is down or the peer's OS is not running,
  the send **blocks and retries** (TCP retransmission), and while the
  peer's buffer is full it blocks on flow control.  Either way the
  sender's upstream queues back up — the stall-propagation mechanism.
* ``reset`` (called when a node is excluded from the cooperation set, or
  when an application restarts) aborts all blocked sends with
  :class:`ConnectionClosed` and delivers a :data:`CLOSED` sentinel to the
  reader, discarding buffered data.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sim.kernel import Environment
from repro.sim.process import Interrupt, Process
from repro.sim.store import Store
from repro.net.network import ClusterNetwork


class ConnectionClosed(Exception):
    """A send or recv was aborted because the connection was reset."""


class _Closed:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<CLOSED>"


#: Sentinel delivered to a reader when its connection is reset.
CLOSED = _Closed()

#: How often a blocked sender re-probes an unreachable peer (TCP RTO analog).
RETRY_INTERVAL = 0.2


class Connection:
    """A bidirectional connection between two hosts."""

    __slots__ = ("env", "net", "open", "_endpoints")

    def __init__(
        self,
        env: Environment,
        net: ClusterNetwork,
        host_a,
        host_b,
        window: int = 64,
    ):
        self.env = env
        self.net = net
        self.open = True
        self._endpoints = {
            host_a: Endpoint(self, host_a, host_b),
            host_b: Endpoint(self, host_b, host_a),
        }
        for ep in self._endpoints.values():
            ep.buffer = Store(env, capacity=window, name=f"conn[{ep.host.name}].rx")

    def endpoint(self, host) -> "Endpoint":
        return self._endpoints[host]

    def peer_of(self, host):
        for h in self._endpoints:
            if h is not host:
                return h
        raise KeyError(host)

    def reset(self) -> None:
        """Abort everything in flight; readers get CLOSED, senders get
        ConnectionClosed.  Idempotent."""
        if not self.open:
            return
        self.open = False
        for ep in self._endpoints.values():
            # Each interrupted send leaves _senders as it raises.
            for proc in ep._senders:
                proc.interrupt("connection reset")
            ep.buffer.clear()
            ep.buffer.force_put(CLOSED)


class Endpoint:
    """One side of a connection."""

    __slots__ = ("conn", "host", "peer", "buffer", "_senders")

    def __init__(self, conn: Connection, host, peer):
        self.conn = conn
        self.host = host
        self.peer = peer
        self.buffer: Optional[Store] = None  # this side's receive buffer
        # Processes with a send in flight, in the order they began it.
        self._senders: Dict[Process, None] = {}

    # -- sending ------------------------------------------------------------
    def send(self, msg: Any, size: int, proc: Process):
        """Send ``msg`` from the sending process ``proc``, which runs this
        generator with ``yield from``.

        Returns when the message is accepted by the peer's receive buffer,
        and raises :class:`ConnectionClosed` if the connection is reset
        first.  ``proc`` is registered with the endpoint while the send is
        in flight, so :meth:`Connection.reset` can interrupt it.
        """
        env = self.conn.env
        net = self.conn.net
        # Wire span for traced messages: transfer time + unreachable
        # retries + flow-control blocking all land on this hop.
        ctx = getattr(msg, "ctx", None)
        spans = env.spans if ctx is not None else None
        span = None
        if spans is not None:
            span = spans.start("net", "network", self.host.name, ctx,
                               dst=self.peer.name,
                               kind=getattr(msg, "kind", None))
        peer = self.peer  # never rebound after connect; skip the lookups
        self._senders[proc] = None
        try:
            while True:
                if not self.conn.open:
                    raise ConnectionClosed(f"to {peer.name}")
                if net.reachable(self.host, peer):
                    yield env.timeout(net.transfer_time(size))
                    if not self.conn.open:
                        raise ConnectionClosed(f"to {peer.name}")
                    if net.reachable(self.host, peer):
                        remote = self.conn.endpoint(peer).buffer
                        yield remote.put(msg)  # flow control: blocks while full
                        if span is not None:
                            spans.finish(span, outcome="delivered")
                        return
                else:
                    yield env.timeout(RETRY_INTERVAL)
        except Interrupt:
            raise ConnectionClosed(f"to {self.peer.name}") from None
        finally:
            self._senders.pop(proc, None)
            # Reset/kill while in flight: close the hop at abort time.
            if span is not None and spans.is_open(span):
                spans.finish(span, outcome="reset")

    # -- receiving -----------------------------------------------------------
    def recv(self):
        """Event yielding the next message, or :data:`CLOSED` after reset.

        Single-reader: PRESS has exactly one receive thread per connection.
        """
        assert self.buffer is not None
        return self.buffer.get()

    @property
    def pending(self) -> int:
        """Messages buffered on this side, waiting to be read."""
        assert self.buffer is not None
        return self.buffer.level
