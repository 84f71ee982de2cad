"""Wire messages exchanged inside the cluster.

``WIRE_KINDS`` is the canonical protocol vocabulary: every kind any
component may put on the wire, grouped by plane.  ``Message.__init__``
asserts membership, so a misspelled kind fails the instant it is
constructed.  The other half is at the receiver: every dispatcher
(PRESS's main, peer-message and control loops, INDEP's main loop, the
membership daemon) raises ``SimulationError`` on a valid kind it has
no branch for, so a message on the wrong queue fails the run rather
than vanishing at dispatch.
"""

from __future__ import annotations

from typing import Any

#: Every kind that may appear on the cluster wire.
#:
#: PRESS data plane (peer links):
#:   ``cache_sync``   directory exchange: cached fids + load sample
#:   ``fwd_req``      forward a client request to the caching node
#:   ``fwd_resp``     forwarded-request response (the file comes back)
#:   ``conn_closed``  synthetic: a peer link was torn down
#:
#: PRESS control plane (heartbeat ring / membership):
#:   ``hb``           ring heartbeat
#:   ``node_dead``    exclusion notice for a silent node
#:   ``rejoin``       a recovered node announces itself
#:   ``config``       membership configuration push
#:   ``cache_add``    directory delta: node now caches fid
#:   ``cache_del``    directory delta: node evicted fid
#:
#: HA membership protocol (three-round reconfiguration):
#:   ``mhb``          membership heartbeat
#:   ``prepare``      round 1: propose a new configuration
#:   ``ack``          round 2: acknowledge the proposal
#:   ``commit``       round 3: install the configuration
#:   ``probe``        liveness probe toward a suspect
#:   ``join``         multicast solicitation from a joining node
#:   ``offer``        current member answers a join solicitation
#:   ``join_req``     joining node requests admission from a member
#:
#: Self-delivery (both planes):
#:   ``tick``         local timer message a daemon posts to its own inbox
WIRE_KINDS = frozenset(
    {
        "cache_sync",
        "fwd_req",
        "fwd_resp",
        "conn_closed",
        "hb",
        "node_dead",
        "rejoin",
        "config",
        "cache_add",
        "cache_del",
        "mhb",
        "prepare",
        "ack",
        "commit",
        "probe",
        "join",
        "offer",
        "join_req",
        "tick",
    }
)


class Message:
    """A typed intra-cluster message.

    ``kind`` must be a member of :data:`WIRE_KINDS`; ``size`` in bytes
    feeds the network transfer-time model.  ``ctx`` is the optional
    trace context (the sender's :class:`~repro.obs.spans.Span`): it
    threads causal request tracing across the wire so the receiver can
    parent its spans correctly.  ``None`` (the default, and always the
    value when tracing is off) costs the hot path nothing.
    """

    __slots__ = ("kind", "src", "dst", "payload", "size", "ctx")

    def __init__(self, kind: str, src: Any, dst: Any, payload: Any = None,
                 size: int = 128, ctx: Any = None):
        assert kind in WIRE_KINDS, f"unknown wire kind {kind!r}"
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        self.ctx = ctx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Msg {self.kind} {self.src}->{self.dst}>"
