"""Robust group membership service (Section 4.2).

A variation of the three-round timed-asynchronous membership algorithm
(Cristian & Schmuck): daemons arrange themselves in a logical ring,
monitor both ring neighbours with heartbeats, exclude a silent neighbour
via a two-phase commit coordinated by the detector, and admit new/merged
members through a multicast join.  Network partitions yield independent
sub-groups which re-merge (lowest-minimum-id group wins) once the
network heals — the re-integration capability base PRESS lacks.

The daemon is an OS process of its own (its ProcGroup is separate from
PRESS's), so it keeps answering heartbeats while the *application* is
hung or crashed — the exact view divergence Section 4.4 dissects.

The current group is published to the node's :class:`~repro.ha.memclient.SharedView`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.hardware.host import Host, NodeService
from repro.ha.memclient import SharedView
from repro.net.message import Message
from repro.net.network import ClusterNetwork
from repro.obs.events import EventKind
from repro.obs.telemetry import Telemetry
from repro.sim.kernel import SimulationError
from repro.sim.store import Store

JOIN_MCAST = "membership.join"


@dataclass(frozen=True)
class MembershipConfig:
    heartbeat_interval: float = 5.0
    loss_threshold: int = 3
    ack_timeout: float = 2.0  # two-phase-commit prepare->commit window
    merge_interval: float = 10.0  # partition-heal probing
    tick: float = 1.0


class MembershipNetwork:
    """Registry mapping node ids to (host, inbox) for daemon unicast."""

    __slots__ = ("net", "_daemons")

    def __init__(self, net: ClusterNetwork):
        self.net = net
        self._daemons: Dict[int, "MembershipDaemon"] = {}

    def register(self, daemon: "MembershipDaemon") -> None:
        self._daemons[daemon.node_id] = daemon

    def send(self, src: "MembershipDaemon", dst_id: int, kind: str, payload=None) -> None:
        dst = self._daemons.get(dst_id)
        if dst is None or not dst.group.alive or not dst.host.is_up:
            return
        msg = Message(kind, src.node_id, dst_id, payload)
        self.net.datagram(src.host, dst.host, msg, dst.inbox)

    def multicast(self, src: "MembershipDaemon", kind: str, payload=None) -> None:
        for dst in self._daemons.values():
            if dst is src or not dst.group.alive or not dst.host.is_up:
                continue
            msg = Message(kind, src.node_id, dst.node_id, payload)
            self.net.datagram(src.host, dst.host, msg, dst.inbox)


class MembershipDaemon(NodeService):
    """One membership daemon per node."""

    __slots__ = ("node_id", "mnet", "config", "_tracer",
                 "_g_view_size", "_g_view_version", "_c_exclusions",
                 "shared_view", "inbox", "view", "version", "_hb_seen",
                 "_last_hb_sent", "_last_merge", "_pending", "_joining",
                 "_join_deadline", "_join_cooldown")

    service_name = "membd"

    def __init__(
        self,
        host: Host,
        node_id: int,
        mnet: MembershipNetwork,
        config: MembershipConfig = MembershipConfig(),
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(host)
        self.node_id = node_id
        self.mnet = mnet
        self.config = config
        tm = telemetry if telemetry is not None else Telemetry.disabled()
        self._tracer = tm.tracer
        m = tm.metrics
        self._g_view_size = m.gauge("memb_view_size", node=host.name)
        self._g_view_version = m.gauge("memb_view_version", node=host.name)
        self._c_exclusions = m.counter("memb_exclusions_started", node=host.name)
        self.shared_view = SharedView()
        self.inbox = self.group.own_store(Store(self.env, name=f"{host.name}.membq"))
        self._reset_state()
        mnet.register(self)

    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self.view: Set[int] = {self.node_id}
        self.version = 0
        self._hb_seen: Dict[int, float] = {}
        self._last_hb_sent = -1e18
        self._last_merge = -1e18
        self._pending: Optional[dict] = None  # in-flight 2PC this node coordinates
        self._joining = False
        self._join_deadline = 0.0
        self._join_cooldown = -1e18  # ignore further offers while one join runs

    def start(self) -> None:
        if not self.group.alive or not self.host.is_up:
            return
        self._reset_state()
        self._publish()
        self.env.process(self._timer(), owner=self.group, name=f"{self.host.name}.memb.t")
        self.env.process(self._loop(), owner=self.group, name=f"{self.host.name}.memb")
        self._solicit_join()

    def on_crash(self) -> None:
        self.shared_view.publish(set())

    # ------------------------------------------------------------------
    def _publish(self) -> None:
        self.shared_view.publish(self.view)

    def _timer(self):
        while True:
            yield self.env.timeout(self.config.tick)
            self.inbox.force_put(Message("tick", self.node_id, self.node_id))

    def _loop(self):
        while True:
            msg = yield self.inbox.get()
            handler = getattr(self, f"_on_{msg.kind}", None)
            if handler is None:
                raise SimulationError(f"{self.host.name}: no membership handler for {msg.kind!r}")
            handler(msg)

    # -- periodic duties ----------------------------------------------------
    def _on_tick(self, _msg: Message) -> None:
        cfg = self.config
        now = self.env.now
        if now - self._last_hb_sent >= cfg.heartbeat_interval:
            self._last_hb_sent = now
            for nbr in sorted(self._neighbors()):
                self.mnet.send(self, nbr, "mhb")
        for nbr in sorted(self._neighbors()):
            last = self._hb_seen.setdefault(nbr, now)
            if now - last > cfg.loss_threshold * cfg.heartbeat_interval:
                self._begin_exclusion(nbr)
        if self._pending is not None and now >= self._pending["deadline"]:
            self._commit_pending()
        if self._joining and now >= self._join_deadline:
            self._joining = False  # no offers: keep running as singleton
        if len(self.view) == 1 and now - self._last_merge >= cfg.merge_interval:
            self._solicit_join()
        elif now - self._last_merge >= cfg.merge_interval:
            # Periodic partition-heal probe from the group's minimum member.
            if self.node_id == min(self.view):
                self._last_merge = now
                self.mnet.multicast(self, "probe", {"min_id": min(self.view),
                                                    "members": sorted(self.view)})

    def _neighbors(self) -> Set[int]:
        members = sorted(self.view)
        if len(members) < 2:
            return set()
        idx = members.index(self.node_id)
        return {members[(idx - 1) % len(members)], members[(idx + 1) % len(members)]}

    # -- heartbeats ------------------------------------------------------------
    def _on_mhb(self, msg: Message) -> None:
        self._hb_seen[msg.src] = self.env.now

    # -- exclusion (detector coordinates a 2PC) ----------------------------------
    def _begin_exclusion(self, target: int) -> None:
        if self._pending is not None or target not in self.view:
            return
        self._c_exclusions.inc()
        self._tracer.mark(self.env.now, "detected", ("membership", self.node_id, target))
        others = self.view - {self.node_id, target}
        self._pending = {
            "kind": "remove",
            "target": target,
            "version": self.version + 1,
            "acks": set(),
            "others": others,
            "deadline": self.env.now + self.config.ack_timeout,
        }
        for member in sorted(others):
            self.mnet.send(self, member, "prepare", {
                "kind": "remove", "target": target, "version": self.version + 1,
            })
        if not others:
            self._commit_pending()

    def _on_prepare(self, msg: Message) -> None:
        payload = msg.payload
        if payload["version"] > self.version:
            self.mnet.send(self, msg.src, "ack", {"version": payload["version"]})

    def _on_ack(self, msg: Message) -> None:
        if self._pending is not None and msg.payload["version"] == self._pending["version"]:
            self._pending["acks"].add(msg.src)
            if self._pending["acks"] >= self._pending["others"]:
                self._commit_pending()

    def _commit_pending(self) -> None:
        op = self._pending
        self._pending = None
        if op is None:
            return
        if op["version"] <= self.version:
            # A concurrent operation (e.g. a join committed by another
            # coordinator) superseded ours while we were collecting acks;
            # committing the stale view would fork the group.
            return
        if op["kind"] == "remove":
            members = op["acks"] | {self.node_id}
        else:  # add
            members = (self.view | {op["target"]}) & (op["acks"] | {self.node_id, op["target"]})
        payload = {"members": sorted(members), "version": op["version"]}
        for member in payload["members"]:
            if member != self.node_id:
                self.mnet.send(self, member, "commit", payload)
        self._install(members, op["version"])

    def _on_commit(self, msg: Message) -> None:
        payload = msg.payload
        if payload["version"] > self.version:
            self._install(set(payload["members"]), payload["version"])

    def _install(self, members: Set[int], version: int) -> None:
        excluded = self.node_id not in members
        if excluded:
            # We were excluded (e.g. our partition lost): restart as a
            # singleton and immediately ask to be let back in — if we are
            # healthy again the group will re-admit us; if not, the join
            # times out harmlessly.
            members = {self.node_id}
        old_neighbors = self._neighbors()
        dropped = self.view - members
        added = members - self.view
        self.view = members
        self.version = version
        now = self.env.now
        # Heartbeat-loss counting starts fresh for *new* ring neighbours:
        # they never pointed their heartbeats at us before this view.
        for nbr in sorted(self._neighbors() - old_neighbors):
            self._hb_seen[nbr] = now
        for nid in sorted(dropped):
            self._hb_seen.pop(nid, None)
        self._publish()
        self._g_view_size.set(len(members))
        self._g_view_version.set(version)
        self._tracer.emit(EventKind.MEMB_VIEW, source=self.host.name,
                          members=sorted(members), version=version,
                          dropped=sorted(dropped), added=sorted(added))
        if dropped:
            self._tracer.mark(now, "memb_excluded", sorted(dropped))
        if added - {self.node_id}:
            self._tracer.mark(now, "memb_added", sorted(added))
        if excluded:
            self._solicit_join()

    # -- join / merge -------------------------------------------------------------
    def _solicit_join(self) -> None:
        self._last_merge = self.env.now
        self._joining = True
        self._join_deadline = self.env.now + self.config.ack_timeout
        self.mnet.multicast(self, "join", {"id": self.node_id})

    def _on_join(self, msg: Message) -> None:
        # Every current member replies; the joiner picks one coordinator.
        if msg.src in self.view:
            return
        self.mnet.send(self, msg.src, "offer", {"members": sorted(self.view)})

    def _on_offer(self, msg: Message) -> None:
        offer_members = set(msg.payload["members"])
        now = self.env.now
        if now < self._join_cooldown:
            return  # a join handshake is already in flight; every member
            # replies to a join multicast, so duplicate offers are expected
        if self._joining:
            self._joining = False
            self._join_cooldown = now + self.config.ack_timeout
            self.mnet.send(self, msg.src, "join_req", {"id": self.node_id})
            return
        # Merge rule: a group abandons itself into a group whose minimum id
        # is lower (total order => convergence after partitions heal).
        if offer_members and min(offer_members) < min(self.view) and msg.src not in self.view:
            self._leave_and_join(msg.src)

    def _on_join_req(self, msg: Message) -> None:
        target = msg.payload["id"]
        if self._pending is not None or target in self.view:
            return
        others = self.view - {self.node_id}
        self._pending = {
            "kind": "add",
            "target": target,
            "version": self.version + 1,
            "acks": set(),
            "others": others,
            "deadline": self.env.now + self.config.ack_timeout,
        }
        for member in sorted(others):
            self.mnet.send(self, member, "prepare", {
                "kind": "add", "target": target, "version": self.version + 1,
            })
        if not others:
            self._commit_pending()

    def _on_probe(self, msg: Message) -> None:
        payload = msg.payload
        if msg.src in self.view:
            return
        if min(self.view) < payload["min_id"]:
            # Our group outranks the prober's: invite it over.
            self.mnet.send(self, msg.src, "offer", {"members": sorted(self.view)})

    def _leave_and_join(self, coordinator_id: int) -> None:
        # Local reset only: the version must NOT advance past the target
        # group's, or their add-commit would be rejected as stale.
        self.view = {self.node_id}
        self._publish()
        self._join_cooldown = self.env.now + self.config.ack_timeout
        self.mnet.send(self, coordinator_id, "join_req", {"id": self.node_id})

    # -- application interface (NodeDown) ----------------------------------------------
    def report_down(self, nid: int) -> None:
        """Application-reported failure: treat like a heartbeat timeout."""
        if nid in self.view and nid != self.node_id:
            self._begin_exclusion(nid)


def bootstrap_membership(daemons) -> None:
    """Install the full group on every daemon (clean simultaneous launch)."""
    members = {d.node_id for d in daemons}
    for daemon in daemons:
        daemon._install(set(members), daemon.version + 1)
