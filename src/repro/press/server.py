"""The cooperative PRESS server process.

One instance per node.  Thread structure mirrors Figure 3 of the paper:

* a **main coordinating thread** consuming a single bounded event queue
  (client requests, intra-cluster messages, disk completions);
* per-peer **send threads** draining bounded send queues into TCP
  connections, and **receive threads** pushing inbound messages onto the
  main queue (blocking when it is full — TCP backpressure);
* **disk helper threads** doing blocking device I/O from a bounded disk
  queue;
* a **control thread** handling heartbeats, exclusion, the rejoin
  protocol and (when enabled) membership-view reconciliation.  Heartbeat
  emission is gated on main-thread progress, so a node whose main thread
  is stalled (full queue, disk fault) stops heartbeating and is detected
  by its ring successor — the dynamics of Figure 4.

In the base configuration the main thread **blocks** on full send/disk
queues, propagating one node's stall to the whole cluster.  With
``queue_monitoring`` enabled the send path becomes the self-monitoring
two-threshold queue of Section 4.3.  With ``use_membership`` the
cooperation set additionally follows the external membership service's
published view (Section 4.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.hardware.host import Host, NodeService
from repro.net.message import Message
from repro.net.transport import CLOSED, Connection, ConnectionClosed
from repro.obs.events import EventKind
from repro.obs.telemetry import Telemetry
from repro.press.cache import CacheDirectory, LruCache
from repro.press.config import PressConfig
from repro.press.fabric import ClusterFabric
from repro.sim.conditions import AnyOf
from repro.sim.kernel import Event, SimulationError
from repro.sim.process import Interrupt
from repro.sim.store import Store
from repro.workload.client import Request

#: byte sizes for the network transfer-time model
_REQ_MSG_SIZE = 256
_CTL_MSG_SIZE = 128


class DiskFetch:
    """A pending disk read: either for a local client or a remote peer."""

    __slots__ = ("fid", "request", "origin", "reqid", "ctx")

    def __init__(self, fid: int, request: Optional[Request] = None,
                 origin: Optional[int] = None, reqid: Optional[int] = None,
                 ctx=None):
        self.fid = fid
        self.request = request
        self.origin = origin
        self.reqid = reqid
        # Trace context: the requester's span at creation; _to_disk
        # replaces it with this fetch's own open "disk" span so
        # _handle_disk_done can close it.  None when tracing is off.
        self.ctx = ctx


class PeerLink:
    """This node's communication state for one cooperating peer."""

    __slots__ = ("peer_id", "conn", "endpoint", "send_q", "pending_requests",
                 "in_flight", "probe_counter", "sender", "receiver")

    def __init__(self, server: "PressServer", peer_id: int, conn: Connection):
        self.peer_id = peer_id
        self.conn = conn
        self.endpoint = conn.endpoint(server.host)
        self.send_q = Store(
            server.env,
            capacity=server.config.send_queue_capacity,
            name=f"{server.host.name}->n{peer_id}.sq",
        )
        self.pending_requests = 0  # fwd_req messages queued or in flight
        self.in_flight = False
        self.probe_counter = 0
        self.sender = None
        self.receiver = None

    @property
    def total_backlog(self) -> int:
        return self.send_q.backlog + (1 if self.in_flight else 0)


class PressServer(NodeService):
    """Cooperative PRESS on one node."""

    __slots__ = ("node_id", "config", "trace", "fabric", "_tracer",
                 "_spans", "_c_hits", "_c_misses", "_c_evict", "_c_served",
                 "_c_forwards", "_c_remote", "_c_disk", "_c_reroutes",
                 "_c_drops", "_c_qmon", "_c_excl", "_c_hb", "main_q", "ctl_q",
                 "disk_q", "shared_view", "_running", "cache", "directory",
                 "_sat_last", "pending_fetch", "coop", "links", "loads",
                 "fwd_pending", "_q_spans", "_fwd_spans", "client_pending",
                 "_next_reqid", "_progress", "_progress_at_hb", "_hb_seen",
                 "_last_hb_sent", "_joined", "_last_rejoin",
                 "_seen_view_version", "_grace_until", "_warm_mode",
                 "_warm_streak", "requests_served")

    service_name = "press"

    #: minimum spacing (sim seconds) between queue_saturated trace events
    #: for the same queue — saturation is an *episode*, not per message
    _SAT_EMIT_INTERVAL = 5.0

    def __init__(
        self,
        host: Host,
        node_id: int,
        config: PressConfig,
        trace,
        fabric: ClusterFabric,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(host)
        self.node_id = node_id
        self.config = config
        self.trace = trace
        self.fabric = fabric
        tm = telemetry if telemetry is not None else Telemetry.disabled()
        self._tracer = tm.tracer
        self._spans = tm.spans
        m, node = tm.metrics, host.name
        self._c_hits = m.counter("press_cache_hits", node=node)
        self._c_misses = m.counter("press_cache_misses", node=node)
        self._c_evict = m.counter("press_cache_evictions", node=node)
        self._c_served = m.counter("press_requests_served", node=node)
        self._c_forwards = m.counter("press_forwards", node=node)
        self._c_remote = m.counter("press_remote_serves", node=node)
        self._c_disk = m.counter("press_disk_fetches", node=node)
        self._c_reroutes = m.counter("press_send_reroutes", node=node)
        self._c_drops = m.counter("press_send_drops", node=node)
        self._c_qmon = m.counter("press_qmon_exclusions", node=node)
        self._c_excl = m.counter("press_exclusions", node=node)
        self._c_hb = m.counter("press_heartbeats_sent", node=node)
        # Queues live for the lifetime of the server object; their contents
        # are volatile (cleared on process crash).
        self.main_q = self.group.own_store(
            Store(self.env, capacity=config.main_queue_capacity, name=f"{host.name}.mainq")
        )
        self.ctl_q = self.group.own_store(
            Store(self.env, name=f"{host.name}.ctlq")
        )
        self.disk_q = self.group.own_store(
            Store(self.env, capacity=config.disk_queue_capacity, name=f"{host.name}.diskq")
        )
        #: optional membership shared-memory segment (set by the runner for
        #: membership-enabled versions); must expose .version and .members
        self.shared_view = None
        self._running = False
        self._reset_state()
        fabric.register(self)

    # ------------------------------------------------------------------
    # state & lifecycle
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        self.cache = LruCache(self.config.cache_files, hits=self._c_hits,
                              misses=self._c_misses, evictions=self._c_evict)
        self.directory = CacheDirectory()
        self._sat_last: Dict[str, float] = {}
        # In-flight miss coalescing: fid -> [DiskFetch waiters].  One disk
        # read satisfies every concurrent request for the same file.
        self.pending_fetch: Dict[int, List[DiskFetch]] = {}
        self.coop: Set[int] = {self.node_id}
        self.links: Dict[int, PeerLink] = {}
        self.loads: Dict[int, int] = {}
        self.fwd_pending: Dict[int, Request] = {}
        # Open spans for traced requests, keyed on deterministic ids:
        # req_id -> main-queue wait span, reqid -> peer-fetch span.
        # Empty whenever tracing is off.
        self._q_spans: Dict[int, object] = {}
        self._fwd_spans: Dict[int, object] = {}
        self.client_pending = 0
        self._next_reqid = 0
        self._progress = 0
        self._progress_at_hb = -1
        self._hb_seen: Dict[int, float] = {}
        self._last_hb_sent = -1e18
        self._joined = False
        self._last_rejoin = -1e18
        self._seen_view_version = -1
        self._grace_until = -1e18
        # Warm-up mode: non-blocking (shedding) sends and no heartbeat-loss
        # exclusions until the cache is demonstrably warm; see
        # PressConfig.startup_grace and _control_tick.
        self._warm_mode = True
        self._warm_streak = 0
        self.requests_served = 0

    def start(self) -> None:
        if self._running or self.fault_latched or not self.host.is_up:
            return
        if not self.group.alive:
            return
        self._reset_state()
        self._running = True
        self._tracer.emit(EventKind.SERVER_START, source=self.host.name,
                          node_id=self.node_id)
        self._grace_until = self.env.now + self.config.startup_grace
        self._warm_mode = True
        env = self.env
        env.process(self._main_loop(), owner=self.group, name=f"{self.host.name}.main")
        env.process(self._control_loop(), owner=self.group, name=f"{self.host.name}.ctl")
        env.process(self._control_timer(), owner=self.group, name=f"{self.host.name}.tick")
        for i in range(self.config.disk_threads):
            env.process(self._disk_loop(), owner=self.group, name=f"{self.host.name}.disk{i}")
        # A restarted process announces itself so the cluster re-admits it
        # (Section 3's rejoin protocol); the very first start is wired
        # statically by bootstrap_cluster instead.
        self._broadcast_rejoin()

    def on_crash(self) -> None:
        # On an *application* crash the OS is still up and resets the
        # process's TCP connections (RST): peers notice the break at once.
        # On a *node* crash there is no RST — peers block on their sends
        # until the heartbeat ring times out (Section 3).
        if self._running:
            self._tracer.emit(EventKind.SERVER_CRASH, source=self.host.name,
                              node_id=self.node_id)
        self._running = False
        if self.host.is_up:
            for link in self.links.values():
                link.conn.reset()
        self.links.clear()
        self.coop = {self.node_id}
        self.fwd_pending.clear()
        self._q_spans.clear()  # their spans stay open; analysis clamps them
        self._fwd_spans.clear()
        self.client_pending = 0

    # ------------------------------------------------------------------
    # public interfaces (clients, FME, monitoring)
    # ------------------------------------------------------------------
    @property
    def listening(self) -> bool:
        return self._running and self.group.alive and self.host.is_up

    @property
    def load(self) -> int:
        """Open client connections: the paper's load metric."""
        return self.client_pending

    def try_accept(self, req: Request) -> bool:
        if not self.listening:
            return False
        if self.client_pending >= self.config.accept_backlog:
            return False
        self.client_pending += 1
        if req.ctx is not None:
            # Queue-wait span: accepted -> dequeued by the main thread.
            # peek() keeps the LRU recency and hit/miss counters untouched.
            self._q_spans[req.req_id] = self._spans.start(
                "mainq", "queue", self.host.name, ctx=req.ctx,
                cached=self.cache.peek(req.fid))
        self.main_q.force_put(("client", req))
        return True

    def http_probe(self) -> Event:
        """FME's local HTTP probe: succeeds when the main loop serves it."""
        ev = Event(self.env)
        if self.listening:
            self.main_q.force_put(("probe", ev))
        return ev

    def coop_view(self) -> Set[int]:
        """Current cooperation set (used by S-FME's global monitor)."""
        return set(self.coop)

    # ------------------------------------------------------------------
    # cluster wiring
    # ------------------------------------------------------------------
    def accept_connection(self, conn: Connection, from_id: int) -> None:
        """Inbound connect from a peer (fabric calls this on the listener)."""
        old = self.links.pop(from_id, None)
        if old is not None:
            self._teardown_link(old)
        rejoining = from_id not in self.coop
        self._adopt_link(from_id, conn)
        self._enqueue_cache_sync(from_id)
        if rejoining and self._joined:
            self._tracer.mark(self.env.now, "reintegrated", from_id)

    def _adopt_link(self, peer_id: int, conn: Connection) -> None:
        link = PeerLink(self, peer_id, conn)
        link.sender = self.env.process(
            self._send_loop(link), owner=self.group, name=f"{self.host.name}.snd{peer_id}"
        )
        link.receiver = self.env.process(
            self._recv_loop(link), owner=self.group, name=f"{self.host.name}.rcv{peer_id}"
        )
        self.links[peer_id] = link
        self.coop.add(peer_id)
        self._hb_seen[peer_id] = self.env.now
        self._joined = True
        self._refresh_pred_grace()

    def _enqueue_cache_sync(self, peer_id: int) -> None:
        link = self.links.get(peer_id)
        if link is None:
            return
        fids = self.cache.contents()
        msg = Message("cache_sync", self.node_id, peer_id, {"fids": fids, "load": self.load},
                      size=_CTL_MSG_SIZE + 16 * len(fids))
        link.send_q.try_put(msg)

    # ------------------------------------------------------------------
    # main coordinating thread
    # ------------------------------------------------------------------
    def _main_loop(self):
        cfg = self.config
        while True:
            kind, item = yield self.main_q.get()
            self._progress += 1
            if kind == "client":
                yield from self._handle_client(item)
            elif kind == "net":
                yield from self._handle_net(item)
            elif kind == "disk":
                yield from self._handle_disk_done(item)
            elif kind == "probe":
                yield self.env.timeout(cfg.cpu_control)
                if not item.triggered:
                    item.succeed()
            else:
                raise SimulationError(
                    f"{self.host.name}: main loop has no branch for work item {kind!r}")

    def _handle_client(self, req: Request):
        cfg = self.config
        if req.ctx is not None:
            self._spans.finish(self._q_spans.pop(req.req_id, None))
        yield self.env.timeout(cfg.cpu_parse)
        if req.expired:  # client gave up while we were queued
            # Commutative counter: every writer does a synchronous
            # += / -= between yields, so any interleaving sums the same.
            self.client_pending -= 1
            return
        if self.cache.lookup(req.fid):
            serve = self._spans.start("serve", "service", self.host.name,
                                      ctx=req.ctx, cache="hit")
            yield self.env.timeout(cfg.cpu_serve)
            self._spans.finish(serve)
            self._respond(req)
            return
        target = self._pick_service_node(req.fid)
        if target is not None:
            yield from self._forward(req, target)
        else:
            yield from self._to_disk(DiskFetch(req.fid, request=req,
                                               ctx=req.ctx))

    def _pick_service_node(self, fid: int) -> Optional[int]:
        # Sorted so equal-load ties break toward the lowest node id on
        # every run, not by set-iteration order.
        holders = sorted(
            h for h in self.directory.holders(fid)
            if h != self.node_id and h in self.links
        )
        if not holders:
            return None
        best = min(holders, key=lambda h: self.loads.get(h, 0))
        # Locality wins unless the holder is badly overloaded relative to us.
        if self.loads.get(best, 0) > self.load + self.config.load_slack:
            return None
        return best

    def _forward(self, req: Request, target: int):
        cfg = self.config
        yield self.env.timeout(cfg.cpu_forward)
        link = self.links.get(target)
        if link is None:  # excluded while we were parsing
            yield from self._to_disk(DiskFetch(req.fid, request=req,
                                               ctx=req.ctx))
            return
        self._c_forwards.inc()
        self._next_reqid += 1
        reqid = self._next_reqid
        # Peer-fetch span: forward decision -> fwd_resp (or give-up); the
        # context rides on the message so the remote side parents under it.
        fetch_span = self._spans.start("peer_fetch", "network",
                                       self.host.name, ctx=req.ctx,
                                       target=target)
        msg = Message("fwd_req", self.node_id, target,
                      {"fid": req.fid, "reqid": reqid, "load": self.load},
                      size=_REQ_MSG_SIZE, ctx=fetch_span)
        disposition = self._dispatch_to_peer(link, msg, is_request=True)
        if disposition == "blockingly":
            # reqid is unique per request and _handle_net only pops the
            # id it is answering: the writers touch disjoint keys.
            self.fwd_pending[reqid] = req
            if fetch_span is not None:
                self._fwd_spans[reqid] = fetch_span
            link.pending_requests += 1
            # COOP: the main thread blocks here (bounded by the OS send
            # timeout; see PressConfig.send_block_timeout).
            delivered = yield from self._blocking_enqueue(link, msg)
            if not delivered:
                link.pending_requests = max(0, link.pending_requests - 1)
                self.fwd_pending.pop(reqid, None)
                self._spans.finish(self._fwd_spans.pop(reqid, None),
                                   outcome="undelivered")
                yield from self._to_disk(DiskFetch(req.fid, request=req,
                                                   ctx=req.ctx))
        elif disposition == "sent":
            self.fwd_pending[reqid] = req
            if fetch_span is not None:
                self._fwd_spans[reqid] = fetch_span
        else:  # rerouted or peer declared failed: serve from our own disk
            self._spans.finish(fetch_span, outcome=disposition)
            yield from self._to_disk(DiskFetch(req.fid, request=req,
                                               ctx=req.ctx))

    def _dispatch_to_peer(self, link: PeerLink, msg: Message, is_request: bool) -> str:
        """Queue-monitoring policy (Section 4.3) or blocking enqueue."""
        disposition = self._dispatch_policy(link, msg, is_request)
        if disposition == "reroute":
            self._c_reroutes.inc()
            self._note_queue_pressure(link.send_q.name, "reroute")
        elif disposition == "dropped":
            self._c_drops.inc()
            self._note_queue_pressure(link.send_q.name, "dropped")
        elif disposition == "failed":
            self._c_qmon.inc()
            self._note_queue_pressure(link.send_q.name, "qmon_failed")
        return disposition

    def _note_queue_pressure(self, queue: str, action: str) -> None:
        """Trace a saturation episode, at most once per interval per queue."""
        tracer = self._tracer
        if not tracer.enabled:
            return
        now = self.env.now
        if now - self._sat_last.get(queue, -1e18) >= self._SAT_EMIT_INTERVAL:
            self._sat_last[queue] = now
            tracer.emit(EventKind.QUEUE_SATURATED, source=self.host.name,
                        queue=queue, action=action)

    def _dispatch_policy(self, link: PeerLink, msg: Message, is_request: bool) -> str:
        cfg = self.config
        if not cfg.queue_monitoring:
            if self._warm_mode:
                # Warm-up mode: a cold cluster under full load jams every
                # queue at once; blocking here would wedge the whole mesh
                # with no faulty node to exclude.  Shed to the local disk
                # instead until caches fill.
                if link.send_q.try_put(msg):
                    if is_request:
                        link.pending_requests += 1
                    return "sent"
                return "reroute" if is_request else "dropped"
            return "blockingly"
        if (link.total_backlog >= cfg.qmon_fail_total
                or link.pending_requests >= cfg.qmon_fail_requests):
            self._exclude(link.peer_id, "qmon", announce=False)
            return "failed"
        if is_request and link.pending_requests >= cfg.qmon_reroute_threshold:
            link.probe_counter += 1
            if link.probe_counter % cfg.qmon_probe_interval != 0:
                return "reroute"
        if link.send_q.try_put(msg):
            if is_request:
                link.pending_requests += 1
            return "sent"
        return "reroute" if is_request else "dropped"

    def _to_disk(self, fetch: DiskFetch):
        if fetch.ctx is not None:
            # Swap the requester's context for this fetch's own open
            # "disk" span (queue + device + coalesced wait time);
            # _handle_disk_done closes it.
            fetch.ctx = self._spans.start("disk", "disk", self.host.name,
                                          ctx=fetch.ctx, fid=fetch.fid)
        waiters = self.pending_fetch.get(fetch.fid)
        if waiters is not None:
            waiters.append(fetch)  # a read for this file is already queued
            return
        # _handle_disk_done pops a fid only after its disk read
        # completes, so the pop is ordered after this put through the
        # disk queue — never a same-instant race on the same key.
        self.pending_fetch[fetch.fid] = [fetch]
        self._c_disk.inc()
        # The disk queue put blocks when full — a node with a dead disk
        # stalls itself here no matter which HA techniques are enabled.
        yield self.disk_q.put(fetch.fid)

    def _handle_net(self, msg: Message):
        cfg = self.config
        payload = msg.payload or {}
        if "load" in payload:
            # Load gossip is last-writer-wins per source key; a
            # one-tick-stale estimate only biases the balancing
            # heuristic, never correctness.
            self.loads[msg.src] = payload["load"]
        if msg.kind == "fwd_req":
            self._c_remote.inc()
            remote = self._spans.start("remote_serve", "service",
                                       self.host.name, ctx=msg.ctx)
            yield self.env.timeout(cfg.cpu_remote_serve)
            fid = payload["fid"]
            if self.cache.lookup(fid):
                self._spans.finish(remote, cache="hit")
                yield from self._send_fwd_resp(msg.src, payload["reqid"],
                                               fid, ctx=msg.ctx)
            else:
                self._spans.finish(remote, cache="miss")
                yield from self._to_disk(
                    DiskFetch(fid, origin=msg.src, reqid=payload["reqid"],
                              ctx=msg.ctx)
                )
        elif msg.kind == "fwd_resp":
            yield self.env.timeout(cfg.cpu_response)
            req = self.fwd_pending.pop(payload["reqid"], None)
            self._spans.finish(self._fwd_spans.pop(payload["reqid"], None),
                               outcome="ok")
            if req is not None:
                self._respond(req)
        elif msg.kind == "cache_add":
            yield self.env.timeout(cfg.cpu_control)
            # Directory add/remove are idempotent per-(node, fid) set
            # ops; gossip vs control-channel replays reconcile through
            # the periodic cache_sync exchange.
            self.directory.add(msg.src, payload["fid"])
        elif msg.kind == "cache_del":
            yield self.env.timeout(cfg.cpu_control)
            self.directory.remove(msg.src, payload["fid"])
        elif msg.kind == "cache_sync":
            yield self.env.timeout(cfg.cpu_control)
            self.directory.replace_node(msg.src, payload["fids"])
        else:
            raise SimulationError(
                f"{self.host.name}: no handler for peer message {msg.kind!r}")

    def _send_fwd_resp(self, origin: int, reqid: int, fid: int, ctx=None):
        link = self.links.get(origin)
        if link is None:
            return
        msg = Message("fwd_resp", self.node_id, origin,
                      {"reqid": reqid, "fid": fid, "load": self.load},
                      size=self.trace.file_size(fid), ctx=ctx)
        disposition = self._dispatch_to_peer(link, msg, is_request=False)
        if disposition == "blockingly":
            yield from self._blocking_enqueue(link, msg)
            # an undeliverable response is dropped; the client times out

    def _blocking_enqueue(self, link: PeerLink, msg: Message):
        """Enqueue with the OS send timeout; returns True if accepted."""
        if link.send_q.try_put(msg):
            return True
        put_ev = link.send_q.put(msg)
        deadline = self.env.timeout(self.config.send_block_timeout)
        yield AnyOf(self.env, [put_ev, deadline])
        if put_ev.triggered:
            return True
        put_ev.cancel()
        return False

    def _handle_disk_done(self, fid: int):
        cfg = self.config
        yield self.env.timeout(cfg.cpu_disk_done)
        waiters = self.pending_fetch.pop(fid, [])
        for fetch in waiters:
            self._spans.finish(fetch.ctx)
        # One cached copy cluster-wide (PRESS's global memory management):
        # a locally-fetched file that some peer already caches is served
        # from disk but *not* cached again — whether the local fetch came
        # from warm-up shedding or a queue-monitor reroute, caching it
        # would duplicate entries, evict useful ones and churn the
        # directory.  A fetch serving a *forwarded* request is different:
        # the peers chose us as the service node for this file, so we must
        # cache it or every future request would hit our disk again.
        serves_remote = any(f.origin is not None for f in waiters)
        cache_it = (
            serves_remote
            or not any(h != self.node_id for h in self.directory.holders(fid))
        )
        if cache_it:
            evicted = self.cache.insert(fid)
            # Blame the cooperation overhead on the request that caused it.
            ctx = next((f.ctx for f in waiters if f.ctx is not None), None)
            yield from self._broadcast_cache_update("cache_add", fid, ctx=ctx)
            if evicted is not None:
                yield from self._broadcast_cache_update("cache_del", evicted,
                                                        ctx=ctx)
        for fetch in waiters:
            if fetch.request is not None:
                if fetch.request.expired:
                    # The client gave up while the read was queued: close
                    # the connection without assembling a reply.
                    self.client_pending -= 1
                    continue
                yield self.env.timeout(cfg.cpu_serve)
                self._respond(fetch.request)
            elif fetch.origin is not None:
                yield from self._send_fwd_resp(fetch.origin, fetch.reqid,
                                               fetch.fid, ctx=fetch.ctx)

    def _broadcast_cache_update(self, kind: str, fid: int, ctx=None):
        # Caching actions are broadcast as datagrams on the control plane:
        # locality information is advisory (lost updates only cost a stale
        # directory entry) and must keep flowing even when the data-path
        # queues are congested, or the cluster could never dedup its way
        # out of a cold start.
        yield self.env.timeout(self.config.cpu_control)
        self.fabric.control_broadcast(
            self, kind, {"fid": fid, "load": self.load}, size=_CTL_MSG_SIZE,
            ctx=ctx
        )

    def _respond(self, req: Request) -> None:
        self.client_pending -= 1
        self.requests_served += 1
        self._c_served.inc()
        req.respond()

    # ------------------------------------------------------------------
    # helper threads
    # ------------------------------------------------------------------
    def _send_loop(self, link: PeerLink):
        env = self.env
        while True:
            msg = yield link.send_q.get()
            link.in_flight = True
            try:
                try:
                    yield from link.endpoint.send(msg, msg.size, link.sender)
                    closed = False
                except ConnectionClosed:
                    closed = True
                # End the send one same-instant hop after it returns or
                # raises: what is queued for this instant before the hop
                # still sees it in flight (tests/sim/test_event_sequence.py
                # pins the slot).
                hop = env.event().succeed()
                while True:
                    try:
                        yield hop
                        break
                    except Interrupt:
                        # A reset held by a freeze and replayed after the
                        # send it was aimed at had ended: nothing to abort.
                        pass
                if closed:
                    self.ctl_q.force_put(Message("conn_closed", link.peer_id, self.node_id))
                    return
            finally:
                link.in_flight = False
                if msg.kind == "fwd_req":
                    link.pending_requests = max(0, link.pending_requests - 1)

    def _recv_loop(self, link: PeerLink):
        while True:
            msg = yield link.endpoint.recv()
            if msg is CLOSED:
                self.ctl_q.force_put(Message("conn_closed", link.peer_id, self.node_id))
                return
            yield self.main_q.put(("net", msg))  # blocks when main is stalled

    def _disk_loop(self):
        disks = self.host.disks
        while True:
            fid = yield self.disk_q.get()
            disk = disks[fid % len(disks)]
            sub = disk.submit(self.trace.file_size(fid))
            yield sub.enqueued
            yield sub.done
            self.main_q.force_put(("disk", fid))

    # ------------------------------------------------------------------
    # control thread: heartbeats, exclusion, rejoin, membership
    # ------------------------------------------------------------------
    def _control_timer(self):
        while True:
            yield self.env.timeout(1.0)
            self.ctl_q.force_put(Message("tick", self.node_id, self.node_id))

    def _control_loop(self):
        while True:
            msg = yield self.ctl_q.get()
            # Per-iteration bindings: msg fields are immutable, and
            # self.coop is only rebound between iterations (rejoin).
            kind = msg.kind
            src = msg.src
            payload = msg.payload
            coop = self.coop
            if kind == "tick":
                self._control_tick()
            elif kind == "hb":
                self._hb_seen[src] = self.env.now
            elif kind == "node_dead":
                # Only honor reconfiguration announcements from current
                # members: a splintered node mis-declaring healthy peers
                # dead must not take down the surviving sub-cluster.
                target = payload
                if (src in coop and target != self.node_id
                        and target in coop):
                    self._exclude(target, "announced", announce=False)
            elif kind == "conn_closed":
                if src in self.links:
                    self._exclude(src, "conn_reset", announce=True)
            elif kind == "rejoin":
                self._handle_rejoin(src)
            elif kind == "config":
                self._handle_config(payload)
            elif kind in ("cache_add", "cache_del"):
                if src in coop and src != self.node_id:
                    payload = payload or {}
                    if "load" in payload:
                        self.loads[src] = payload["load"]
                    if kind == "cache_add":
                        self.directory.add(src, payload["fid"])
                    else:
                        self.directory.remove(src, payload["fid"])
            else:
                raise SimulationError(
                    f"{self.host.name}: no handler for control message {kind!r}")

    def _control_tick(self) -> None:
        cfg = self.config
        now = self.env.now
        if self._warm_mode and now >= self._grace_until:
            # Exit warm-up once the in-flight miss set stays small: the
            # cache is carrying the load and normal (blocking) cooperative
            # operation is safe again.  A hard cap bounds the mode for
            # nodes hovering at the threshold.
            if len(self.pending_fetch) <= 8:
                self._warm_streak += 1
                if self._warm_streak >= 3:
                    self._warm_mode = False
            else:
                self._warm_streak = 0
            if now >= self._grace_until + cfg.startup_grace:
                self._warm_mode = False
        if cfg.ring_detection:
            self._heartbeat_duty(now)
        if cfg.use_membership and self.shared_view is not None:
            self._reconcile_membership()
        if not self._joined and now - self._last_rejoin >= cfg.rejoin_retry:
            self._broadcast_rejoin()
        if self.fwd_pending:
            # Reap forwards whose client has given up (response lost to an
            # exclusion or a dropped message): their connections close, so
            # the accept slots must be returned.
            alive = {}
            for rid, req in self.fwd_pending.items():
                if req.expired:
                    self.client_pending -= 1
                    self._spans.finish(self._fwd_spans.pop(rid, None),
                                       outcome="expired")
                else:
                    alive[rid] = req
            self.fwd_pending = alive

    def _heartbeat_duty(self, now: float) -> None:
        cfg = self.config
        succ = self._ring_neighbor(+1)
        if succ is not None and now - self._last_hb_sent >= cfg.heartbeat_interval:
            # Watchdog gating: only heartbeat if the main thread is making
            # progress (or is simply idle).  A stalled main loop silences
            # the node, which is what lets peers detect it.
            if self._progress != self._progress_at_hb or self.main_q.level < 4:
                self.fabric.control_send(self, succ, "hb")
                self._c_hb.inc()
                self._progress_at_hb = self._progress
                self._last_hb_sent = now
        if self._warm_mode:
            return  # cold-start warm-up: don't mistake the burst for death
        pred = self._ring_neighbor(-1)
        if pred is not None:
            last = self._hb_seen.get(pred, now)
            if now - last > cfg.heartbeat_loss_threshold * cfg.heartbeat_interval:
                self._exclude(pred, "heartbeat", announce=True)

    def _enter_warm_mode(self, grace: float) -> None:
        self._warm_mode = True
        self._warm_streak = 0
        self._grace_until = max(self._grace_until, self.env.now + grace)

    def _refresh_pred_grace(self) -> None:
        """Restart the heartbeat-loss count for a *new* ring predecessor.

        After a reconfiguration the node's predecessor changes; the old
        predecessor never sent us heartbeats (it pointed elsewhere), so
        counting losses from its stale timestamp would cascade exclusions
        around the ring.
        """
        pred = self._ring_neighbor(-1)
        if pred is not None:
            prev = self._hb_seen.get(pred, -1e18)
            self._hb_seen[pred] = max(prev, self.env.now)

    def _ring_neighbor(self, direction: int) -> Optional[int]:
        members = sorted(self.coop)
        if len(members) < 2:
            return None
        idx = members.index(self.node_id)
        return members[(idx + direction) % len(members)]

    # -- exclusion ------------------------------------------------------------
    def _exclude(self, peer_id: int, reason: str, announce: bool) -> None:
        if peer_id == self.node_id:
            return
        link = self.links.pop(peer_id, None)
        in_coop = peer_id in self.coop
        if link is None and not in_coop:
            return
        self._c_excl.inc()
        self._tracer.mark(self.env.now, "detected", (reason, self.node_id, peer_id))
        self._tracer.mark(self.env.now, "excluded", (self.node_id, peer_id))
        # Reconfiguration brings a re-warming burst (the excluded node's
        # cached files must be re-fetched): ride it out in warm-up mode so
        # the survivors shed to their disks instead of wedging each other.
        self._enter_warm_mode(grace=5.0)
        self.coop.discard(peer_id)
        self._hb_seen.pop(peer_id, None)
        self.loads.pop(peer_id, None)
        self.directory.drop_node(peer_id)
        if link is not None:
            self._teardown_link(link)
        self._refresh_pred_grace()
        if announce and self.config.ring_detection:
            # Ring-mode reconfiguration broadcast.  In membership mode the
            # external service owns the global view; local exclusions stay
            # local and the published view drives everyone else.
            self.fabric.control_broadcast(self, "node_dead", peer_id)

    def _teardown_link(self, link: PeerLink) -> None:
        link.conn.reset()  # peers' readers see CLOSED; blocked sends abort
        if link.sender is not None:
            link.sender.kill()
        if link.receiver is not None:
            link.receiver.kill()
        link.send_q.release_putters()  # unblock our own stalled main thread
        link.send_q.clear()

    # -- rejoin protocol --------------------------------------------------------
    def _broadcast_rejoin(self) -> None:
        self._last_rejoin = self.env.now
        self.fabric.control_broadcast(self, "rejoin")

    def _handle_rejoin(self, from_id: int) -> None:
        if from_id == self.node_id:
            return
        # The active node with the lowest id answers with the configuration.
        if self.node_id == min(self.coop):
            self.fabric.control_send(
                self, from_id, "config", {"members": sorted(self.coop)}
            )

    def _handle_config(self, payload) -> None:
        members = [m for m in payload["members"] if m != self.node_id]
        if self._joined:
            return  # already part of a cluster; ignore stray configs
        for m in members:
            if m in self.links:
                continue
            conn = self.fabric.open_connection(self, m, window=self.config.conn_window)
            if conn is not None:
                self._adopt_link(m, conn)
                self._enqueue_cache_sync(m)
        if self.links:
            self._tracer.mark(self.env.now, "rejoined", self.node_id)

    # -- membership reconciliation (Section 4.4) ---------------------------------
    def _reconcile_membership(self) -> None:
        view = self.shared_view
        members = set(view.members)
        if self.node_id not in members:
            return  # our own daemon doesn't (yet) list us; nothing to do
        # NodeOut: peers the membership service dropped.
        for peer in sorted(self.coop - members):
            if peer != self.node_id:
                self._exclude(peer, "membership", announce=False)
        # NodeIn: peers the service lists that we do not cooperate with.
        for peer in sorted(members - self.coop):
            self._membership_add(peer)

    def _membership_add(self, peer_id: int) -> None:
        if peer_id == self.node_id or peer_id in self.links:
            return
        # Lower id initiates the connection; the other side waits for the
        # inbound connect (avoids crossed duplicate connections).
        if self.node_id > peer_id:
            return
        conn = self.fabric.open_connection(self, peer_id, window=self.config.conn_window)
        if conn is not None:
            was_out = peer_id not in self.coop
            self._adopt_link(peer_id, conn)
            self._enqueue_cache_sync(peer_id)
            if was_out:
                self._tracer.mark(self.env.now, "reintegrated", peer_id)


def bootstrap_cluster(servers: List[PressServer]) -> None:
    """Statically wire the initial cooperation set (cluster bring-up).

    Every server must already be started.  Creates one connection per
    pair and installs the full membership everywhere, mirroring a clean
    simultaneous launch.
    """
    for i, a in enumerate(servers):
        for b in servers[i + 1:]:
            conn = Connection(a.env, a.fabric.net, a.host, b.host,
                              window=a.config.conn_window)
            a._adopt_link(b.node_id, conn)
            b._adopt_link(a.node_id, conn)
    for srv in servers:
        srv._joined = True
