"""Tier servers and the replicated database of the bookstore.

Every tier is a pool of worker threads draining a bounded input queue;
a worker that must call the next tier *blocks* on that tier's queue —
the same backpressure primitive as PRESS's send queues, which is what
makes single-component faults propagate across tiers and produce
7-stage-template behaviour for the whole service.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional

from repro.hardware.host import Host, NodeService
from repro.obs.telemetry import Telemetry
from repro.sim.conditions import AnyOf
from repro.sim.kernel import Environment, Event
from repro.sim.store import Store
from repro.bookstore.config import BookstoreConfig

#: least-loaded key, built once — dispatch() runs per job and must not
#: allocate a fresh closure each time
_BACKLOG = attrgetter("queue.backlog")


class Job:
    """One unit of tier work (page render, transaction, query).

    ``done`` triggers with True on success and False on failure, so an
    upstream worker waiting on a failed sub-job is released immediately
    instead of sitting out its whole tier timeout (which would let one
    broken downstream tier starve unrelated traffic of workers).
    """

    __slots__ = ("kind", "done", "created", "queries")

    def __init__(self, env: Environment, kind: str, queries: int = 1):
        self.kind = kind
        self.done = Event(env)
        self.created = env.now
        self.queries = queries

    def complete(self) -> None:
        if not self.done.triggered:
            self.done.succeed(True)

    def fail(self) -> None:
        if not self.done.triggered:
            self.done.succeed(False)

    @property
    def succeeded(self) -> bool:
        return self.done.triggered and bool(self.done.value)


class Dispatcher:
    """Routes jobs to the least-loaded *alive* server of a tier pool.

    A full target queue blocks the caller (backpressure); no alive
    target means waiting and retrying until the tier timeout expires.
    """

    __slots__ = ("env", "config", "servers", "_rr")

    def __init__(self, env: Environment, config: BookstoreConfig):
        self.env = env
        self.config = config
        self.servers: List["TierServer"] = []
        self._rr = 0  # rotates least-loaded ties so idle pools round-robin

    def attach(self, server: "TierServer") -> None:
        self.servers.append(server)

    def candidates(self) -> List["TierServer"]:
        return [s for s in self.servers if s.accepting]

    #: how long to keep retrying when *no* server of the tier is alive
    #: before failing fast (a worker must not sit on "no primary" for the
    #: whole tier timeout and starve unrelated work behind it)
    NO_TARGET_PATIENCE = 0.1

    def dispatch(self, job: Job):
        """Generator: returns True once the job is queued, False on timeout."""
        env = self.env
        deadline = env.now + self.config.tier_timeout
        empty_deadline = env.now + min(self.NO_TARGET_PATIENCE,
                                       self.config.tier_timeout)
        while env.now < deadline:
            targets = self.candidates()
            if targets:
                self._rr += 1
                rotated = targets[self._rr % len(targets):] + \
                    targets[:self._rr % len(targets)]
                target = min(rotated, key=_BACKLOG)
                put_ev = target.queue.put(job)
                timeout = env.timeout(max(deadline - env.now, 0.0))
                yield AnyOf(env, [put_ev, timeout])
                if put_ev.triggered:
                    return True
                put_ev.cancel()
                return False
            if self.env.now >= empty_deadline:
                return False  # fail fast: the whole tier is gone right now
            yield env.timeout(0.05)
        return False


class TierServer(NodeService):
    """A generic staged server (web or application tier)."""

    __slots__ = ("tier", "config", "downstream", "queue",
                 "_running", "jobs_done")

    def __init__(
        self,
        host: Host,
        tier: str,
        config: BookstoreConfig,
        downstream: Optional[Dispatcher] = None,
    ):
        self.tier = tier
        super().__init__(host, name=tier)
        self.config = config
        self.downstream = downstream
        self.queue = self.group.own_store(
            Store(self.env, capacity=config.queue_capacity, name=f"{host.name}.{tier}q")
        )
        self._running = False
        self.jobs_done = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._running or self.fault_latched or not self.host.is_up:
            return
        if not self.group.alive:
            return
        self._running = True
        for i in range(self.config.workers_per_node):
            self.env.process(self._worker(), owner=self.group,
                             name=f"{self.host.name}.{self.tier}.w{i}")

    def on_crash(self) -> None:
        self._running = False

    @property
    def accepting(self) -> bool:
        return self._running and self.group.alive and self.host.is_up

    @property
    def listening(self) -> bool:  # workload.client protocol
        return self.accepting

    # -- work -------------------------------------------------------------
    def service_time(self) -> float:
        return self.config.web_cpu if self.tier == "web" else self.config.app_cpu

    def _worker(self):
        cfg = self.config
        while True:
            job = yield self.queue.get()
            yield self.env.timeout(self.service_time())
            ok = True
            if self.downstream is not None:
                for _ in range(job.queries):
                    # Job.kind is a diagnostic label here — bookstore routing
                    # is positional (per-tier queue), not kind-dispatched.
                    sub = Job(self.env, "down", queries=1)
                    queued = yield from self.downstream.dispatch(sub)
                    if not queued:
                        ok = False
                        break
                    deadline = self.env.timeout(cfg.tier_timeout)
                    yield AnyOf(self.env, [sub.done, deadline])
                    if not sub.succeeded:
                        ok = False
                        break
            if ok:
                self.jobs_done += 1
                job.complete()
            else:
                job.fail()  # release upstream waiters immediately


class WebServer(TierServer):
    """Web tier: the client-facing entry point (workload.client protocol)."""

    def __init__(self, host, config, downstream, rng=None):
        super().__init__(host, "web", config, downstream)
        self.rng = rng
        self.client_pending = 0

    def try_accept(self, req) -> bool:
        if not self.accepting:
            return False
        if self.queue.backlog >= self.config.queue_capacity:
            return False
        order = (self.rng.random() < self.config.order_fraction
                 if self.rng is not None else False)
        queries = (self.config.order_queries if order
                   else self.config.browse_queries)
        # label only; the web tier never dispatches on Job.kind
        job = Job(self.env, "page", queries=queries)

        def _finish(evt):
            if evt.value and not req.expired:
                req.respond()

        job.done.add_callback(_finish)
        return self.queue.try_put(job)

    @property
    def load(self) -> int:
        return self.queue.backlog


class DbServer(TierServer):
    """Database node: queries hit the buffer pool or the local disks."""

    def __init__(self, host, config, cluster: "DbCluster", rng=None):
        super().__init__(host, "db", config, downstream=None)
        self.cluster = cluster
        self.rng = rng

    def start(self) -> None:
        if self._running:
            return
        super().start()
        if self._running:
            self.cluster.on_db_start(self)

    def service_time(self) -> float:
        return self.config.db_cpu

    def _worker(self):
        cfg = self.config
        disks = self.host.disks
        i = 0
        while True:
            job = yield self.queue.get()
            yield self.env.timeout(cfg.db_cpu)
            miss = (self.rng.random() < cfg.db_miss_ratio
                    if self.rng is not None else False)
            if miss and disks:
                i += 1
                disk = disks[i % len(disks)]
                sub = disk.submit(cfg.db_disk_bytes)
                yield sub.enqueued
                yield sub.done  # a faulty disk wedges the worker here
            self.jobs_done += 1
            job.complete()


class DbCluster(Dispatcher):
    """Primary/replica database with heartbeat-driven failover.

    Queries go to the primary only.  Each replica monitors the primary's
    heartbeats (emitted by the primary's database *process*, so a node
    crash, freeze or process death silences them — but a disk fault does
    not: the database wedges while still heartbeating, the same
    blind spot PRESS's membership service has).
    """

    __slots__ = ("_tracer", "primary", "_promoting", "_hb_seen")

    def __init__(self, env, config: BookstoreConfig,
                 telemetry: Optional[Telemetry] = None):
        super().__init__(env, config)
        tm = telemetry if telemetry is not None else Telemetry.disabled()
        self._tracer = tm.tracer
        self.primary: Optional[DbServer] = None
        self._promoting = False
        self._hb_seen = env.now

    # -- routing --------------------------------------------------------------
    def candidates(self) -> List[TierServer]:
        if self.primary is not None and self.primary.accepting:
            return [self.primary]
        return []

    # -- membership -------------------------------------------------------------
    def attach(self, server: DbServer) -> None:
        super().attach(server)
        if self.primary is None:
            self.primary = server

    def on_db_start(self, server: DbServer) -> None:
        """(Re)spawn the node's heartbeat/monitor role; called from
        DbServer.start so a rebooted node resumes its duties."""
        self.env.process(self._heartbeat_duty(server), owner=server.group,
                         name=f"{server.host.name}.db.hb")

    def _heartbeat_duty(self, server: DbServer):
        """Runs on every db node: primaries emit heartbeats, replicas
        watch them and promote themselves when the primary goes silent."""
        cfg = self.config
        while True:
            yield self.env.timeout(cfg.db_heartbeat)
            if server is self.primary:
                # Both writers (_heartbeat_duty and _promote) refresh
                # the watchdog to env.now, so same-instant order cannot
                # change the stored value.
                self._hb_seen = self.env.now
            else:
                silent = self.env.now - self._hb_seen
                if (silent > cfg.db_loss_threshold * cfg.db_heartbeat
                        and not self._promoting and server.accepting):
                    yield from self._promote(server)

    def _promote(self, server: DbServer):
        self._promoting = True
        old = self.primary
        self._tracer.mark(self.env.now, "detected",
                          ("db_failover", server.host.name,
                           old.host.name if old else "?"))
        self._tracer.mark(self.env.now, "db_failover", server.host.name)
        yield self.env.timeout(self.config.db_promotion_time)  # log replay
        self.primary = server
        self._hb_seen = self.env.now
        self._promoting = False
