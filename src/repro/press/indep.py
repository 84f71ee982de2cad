"""INDEP: the non-cooperative baseline version of PRESS.

Server processes run completely independently (paper Figure 1a): each
node serves every request it receives from its own cache or its own
disks.  The full document set is replicated at each node, so any node can
serve any file.  There is no intra-cluster communication at all — which
is exactly why faults do not propagate and availability stays high, at a
large cost in throughput (each node's small cache must absorb the whole
working set).
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.host import Host, NodeService
from repro.obs.events import EventKind
from repro.obs.telemetry import Telemetry
from repro.press.cache import LruCache
from repro.press.config import PressConfig
from repro.sim.kernel import Event, SimulationError
from repro.sim.store import Store
from repro.workload.client import Request


class IndepServer(NodeService):
    """One independent server process."""

    __slots__ = ("node_id", "config", "trace", "_tracer",
                 "_c_hits", "_c_misses", "_c_evict", "_c_served", "_c_disk",
                 "main_q", "disk_q", "_running", "cache", "client_pending",
                 "requests_served", "pending_fetch")

    service_name = "press"  # same application slot as the cooperative server

    def __init__(
        self,
        host: Host,
        node_id: int,
        config: PressConfig,
        trace,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(host)
        self.node_id = node_id
        self.config = config
        self.trace = trace
        tm = telemetry if telemetry is not None else Telemetry.disabled()
        self._tracer = tm.tracer
        m, node = tm.metrics, host.name
        self._c_hits = m.counter("press_cache_hits", node=node)
        self._c_misses = m.counter("press_cache_misses", node=node)
        self._c_evict = m.counter("press_cache_evictions", node=node)
        self._c_served = m.counter("press_requests_served", node=node)
        self._c_disk = m.counter("press_disk_fetches", node=node)
        self.main_q = self.group.own_store(
            Store(self.env, capacity=config.main_queue_capacity, name=f"{host.name}.mainq")
        )
        self.disk_q = self.group.own_store(
            Store(self.env, capacity=config.disk_queue_capacity, name=f"{host.name}.diskq")
        )
        self._running = False
        self._reset_state()

    def _reset_state(self) -> None:
        self.cache = LruCache(self.config.cache_files, hits=self._c_hits,
                              misses=self._c_misses, evictions=self._c_evict)
        self.client_pending = 0
        self.requests_served = 0
        # In-flight miss coalescing: fid -> [waiting requests].
        self.pending_fetch = {}

    def start(self) -> None:
        if self._running or self.fault_latched or not self.host.is_up:
            return
        if not self.group.alive:
            return
        self._reset_state()
        self._running = True
        self._tracer.emit(EventKind.SERVER_START, source=self.host.name,
                          node_id=self.node_id)
        self.env.process(self._main_loop(), owner=self.group, name=f"{self.host.name}.main")
        for i in range(self.config.disk_threads):
            self.env.process(self._disk_loop(), owner=self.group, name=f"{self.host.name}.disk{i}")

    def on_crash(self) -> None:
        if self._running:
            self._tracer.emit(EventKind.SERVER_CRASH, source=self.host.name,
                              node_id=self.node_id)
        self._running = False
        self.client_pending = 0

    # -- client interface ---------------------------------------------------
    @property
    def listening(self) -> bool:
        return self._running and self.group.alive and self.host.is_up

    @property
    def load(self) -> int:
        return self.client_pending

    def try_accept(self, req: Request) -> bool:
        if not self.listening:
            return False
        if self.client_pending >= self.config.accept_backlog:
            return False
        self.client_pending += 1
        self.main_q.force_put(("client", req))
        return True

    def http_probe(self) -> Event:
        ev = Event(self.env)
        if self.listening:
            self.main_q.force_put(("probe", ev))
        return ev

    # -- threads -------------------------------------------------------------
    def _main_loop(self):
        cfg = self.config
        timeout = self.env.timeout  # bound once; called on every event
        while True:
            kind, item = yield self.main_q.get()
            if kind == "client":
                yield timeout(cfg.cpu_parse)
                if item.expired:
                    self.client_pending -= 1
                    continue
                fid = item.fid
                if self.cache.lookup(fid):
                    yield timeout(cfg.cpu_serve)
                    self._respond(item)
                else:
                    waiters = self.pending_fetch.get(fid)
                    if waiters is not None:
                        waiters.append(item)
                    else:
                        self.pending_fetch[fid] = [item]
                        self._c_disk.inc()
                        yield self.disk_q.put(fid)  # blocks when disks stall
            elif kind == "disk":
                yield timeout(cfg.cpu_disk_done)
                self.cache.insert(item)
                for req in self.pending_fetch.pop(item, []):
                    if req.expired:
                        self.client_pending -= 1
                        continue
                    yield timeout(cfg.cpu_serve)
                    self._respond(req)
            elif kind == "probe":
                yield timeout(cfg.cpu_control)
                if not item.triggered:
                    item.succeed()
            else:
                raise SimulationError(
                    f"{self.host.name}: main loop has no branch for work item {kind!r}")

    def _disk_loop(self):
        disks = self.host.disks
        while True:
            fid = yield self.disk_q.get()
            disk = disks[fid % len(disks)]
            sub = disk.submit(self.trace.file_size(fid))
            yield sub.enqueued
            yield sub.done
            self.main_q.force_put(("disk", fid))

    def _respond(self, req: Request) -> None:
        self.client_pending -= 1
        self.requests_served += 1
        self._c_served.inc()
        req.respond()
