"""Auction tiers, the master/replica data cluster, and the world builder."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.bookstore.tiers import Dispatcher, Job, TierServer
from repro.faults.faultload import FaultCatalog, FaultRate, MINUTE, MONTH, WEEK
from repro.faults.injector import FaultInjector
from repro.faults.types import FaultKind
from repro.hardware.disk import Disk, DiskParams
from repro.hardware.host import Host
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Markers
from repro.sim.conditions import AnyOf
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.workload.client import ClientConfig, ClientPool, DnsRouter, Request
from repro.workload.stats import RequestStats
from repro.workload.trace import SyntheticTrace, TraceConfig


@dataclass(frozen=True)
class AuctionConfig:
    """Topology and timing of the auction deployment."""

    web_nodes: int = 2
    app_nodes: int = 2
    data_replicas: int = 2  # read replicas besides the master

    web_cpu: float = 2.5e-3
    app_cpu: float = 5.0e-3
    data_cpu: float = 4.0e-3
    data_miss_ratio: float = 0.05
    data_disk_bytes: int = 4096

    queue_capacity: int = 64
    workers_per_node: int = 4
    tier_timeout: float = 8.0

    heartbeat: float = 2.0
    loss_threshold: int = 3
    election_time: float = 6.0  # leader election + log catch-up

    def with_(self, **changes) -> "AuctionConfig":
        return replace(self, **changes)


class _RouterView(Dispatcher):
    """A Dispatcher view over the data cluster for one operation class."""

    def __init__(self, cluster: "AuctionDataCluster", op: str):
        super().__init__(cluster.env, cluster.config)
        self.cluster = cluster
        self.op = op

    def candidates(self) -> List[TierServer]:
        if self.op == "write":
            master = self.cluster.master
            return [master] if master is not None and master.accepting else []
        return [s for s in self.cluster.servers if s.accepting]


class AuctionDataCluster:
    """Master + read replicas with heartbeat-driven leader election."""

    __slots__ = ("env", "config", "_tracer", "servers", "master", "_electing",
                 "_hb_seen", "reads", "writes")

    def __init__(self, env: Environment, config: AuctionConfig,
                 telemetry: Optional[Telemetry] = None):
        self.env = env
        self.config = config
        tm = telemetry if telemetry is not None else Telemetry.disabled()
        self._tracer = tm.tracer
        self.servers: List[TierServer] = []
        self.master: Optional[TierServer] = None
        self._electing = False
        self._hb_seen = env.now
        self.reads = _RouterView(self, "read")
        self.writes = _RouterView(self, "write")

    def attach(self, server: "AuctionDataServer") -> None:
        self.servers.append(server)
        if self.master is None:
            self.master = server

    def on_data_start(self, server: "AuctionDataServer") -> None:
        self.env.process(self._role_duty(server), owner=server.group,
                         name=f"{server.host.name}.auction.role")

    def _role_duty(self, server: "AuctionDataServer"):
        cfg = self.config
        while True:
            yield self.env.timeout(cfg.heartbeat)
            if server is self.master:
                # Both writers (_role_duty and _elect) refresh the
                # watchdog to env.now, so same-instant order cannot
                # change the stored value.
                self._hb_seen = self.env.now
            else:
                silent = self.env.now - self._hb_seen
                if (silent > cfg.loss_threshold * cfg.heartbeat
                        and not self._electing and server.accepting
                        and self._wins_election(server)):
                    yield from self._elect(server)

    def _wins_election(self, server: "AuctionDataServer") -> bool:
        """Highest-id healthy replica becomes the new master."""
        alive = [s for s in self.servers
                 if s is not self.master and s.accepting]
        return bool(alive) and server is max(alive, key=lambda s: s.host.node_id)

    def _elect(self, server: "AuctionDataServer"):
        self._electing = True
        old = self.master
        self._tracer.mark(self.env.now, "detected",
                          ("auction_election", server.host.name,
                           old.host.name if old else "?"))
        self._tracer.mark(self.env.now, "auction_election", server.host.name)
        yield self.env.timeout(self.config.election_time)
        self.master = server
        self._hb_seen = self.env.now
        self._electing = False


class AuctionDataServer(TierServer):
    """One data node (master or replica depending on the cluster's view)."""

    def __init__(self, host, config: AuctionConfig, cluster: AuctionDataCluster,
                 rng=None):
        bridge = _tier_config_bridge(config)
        super().__init__(host, "data", bridge, downstream=None)
        self.auction_config = config
        self.cluster = cluster
        self.rng = rng

    def start(self) -> None:
        if self._running:
            return
        super().start()
        if self._running:
            self.cluster.on_data_start(self)

    def _worker(self):
        cfg = self.auction_config
        disks = self.host.disks
        i = 0
        while True:
            job = yield self.queue.get()
            yield self.env.timeout(cfg.data_cpu)
            miss = (self.rng.random() < cfg.data_miss_ratio
                    if self.rng is not None else False)
            if miss and disks:
                i += 1
                sub = disks[i % len(disks)].submit(cfg.data_disk_bytes)
                yield sub.enqueued
                yield sub.done
            self.jobs_done += 1
            job.complete()


class AuctionAppServer(TierServer):
    """Application tier: routes reads to replicas, writes to the master."""

    def __init__(self, host, config: AuctionConfig, data: AuctionDataCluster):
        bridge = _tier_config_bridge(config)
        super().__init__(host, "app", bridge, downstream=None)
        self.auction_config = config
        self.data = data

    def _worker(self):
        cfg = self.auction_config
        while True:
            job = yield self.queue.get()
            yield self.env.timeout(cfg.app_cpu)
            # "write" reaches Job.kind through the op-class table in
            # build_auction.
            router = self.data.writes if job.kind == "write" else self.data.reads
            sub = Job(self.env, job.kind)
            queued = yield from router.dispatch(sub)
            ok = queued
            if queued:
                deadline = self.env.timeout(cfg.tier_timeout)
                yield AnyOf(self.env, [sub.done, deadline])
                ok = sub.succeeded
            if ok:
                self.jobs_done += 1
                job.complete()
            else:
                job.fail()


class AuctionWebServer(TierServer):
    """Web tier: one op-tagged entry point per operation class is wrapped
    around this server (see :class:`OpEntryPoint`)."""

    def __init__(self, host, config: AuctionConfig, downstream: Dispatcher):
        bridge = _tier_config_bridge(config)
        super().__init__(host, "web", bridge, downstream=downstream)
        self.auction_config = config

    def accept_op(self, req: Request, op: str) -> bool:
        if not self.accepting:
            return False
        job = Job(self.env, op)

        def _finish(evt):
            if evt.value and not req.expired:
                req.respond()

        job.done.add_callback(_finish)
        return self.queue.try_put(job)

    def _worker(self):
        cfg = self.auction_config
        while True:
            job = yield self.queue.get()
            yield self.env.timeout(cfg.web_cpu)
            sub = Job(self.env, job.kind)
            queued = yield from self.downstream.dispatch(sub)
            ok = queued
            if queued:
                deadline = self.env.timeout(cfg.tier_timeout)
                yield AnyOf(self.env, [sub.done, deadline])
                ok = sub.succeeded
            if ok:
                self.jobs_done += 1
                job.complete()
            else:
                job.fail()


class OpEntryPoint:
    """Backend adapter tagging every accepted request with one op class."""

    def __init__(self, server: AuctionWebServer, op: str):
        self.server = server
        self.op = op

    @property
    def host(self):
        return self.server.host

    @property
    def listening(self):
        return self.server.listening

    def try_accept(self, req: Request) -> bool:
        return self.server.accept_op(req, self.op)


def _tier_config_bridge(config: AuctionConfig):
    """TierServer expects a BookstoreConfig-shaped object; bridge the
    shared fields."""
    from repro.bookstore.config import BookstoreConfig

    return BookstoreConfig(
        web_cpu=config.web_cpu,
        app_cpu=config.app_cpu,
        db_cpu=config.data_cpu,
        queue_capacity=config.queue_capacity,
        workers_per_node=config.workers_per_node,
        tier_timeout=config.tier_timeout,
    )


def auction_catalog(config: AuctionConfig) -> FaultCatalog:
    n = config.web_nodes + config.app_nodes + 1 + config.data_replicas
    return FaultCatalog([
        FaultRate(FaultKind.NODE_CRASH, 2 * WEEK, 3 * MINUTE, n),
        FaultRate(FaultKind.NODE_FREEZE, 2 * WEEK, 3 * MINUTE, n),
        FaultRate(FaultKind.APP_CRASH, 2 * MONTH, 3 * MINUTE, n),
        FaultRate(FaultKind.APP_HANG, 2 * MONTH, 3 * MINUTE, n),
    ])


@dataclass
class AuctionWorld:
    """Campaign-compatible world with per-class (read/write) accounting."""

    env: Environment
    rngs: RngRegistry
    telemetry: Telemetry
    config: AuctionConfig
    hosts: List[Host]
    web: List[AuctionWebServer]
    app: List[AuctionAppServer]
    data: List[AuctionDataServer]
    data_cluster: AuctionDataCluster
    injector: FaultInjector
    stats: RequestStats  # aggregate (reads + writes)
    read_stats: RequestStats
    write_stats: RequestStats
    offered_rate: float
    catalog: FaultCatalog
    version: str = "AUCTION"
    reset_downtime: float = 10.0

    @property
    def markers(self) -> Markers:
        return self.telemetry.tracer.markers

    @property
    def servers(self):
        return [*self.web, *self.app, *self.data]

    def host_by_name(self, name: str) -> Host:
        for host in self.hosts:
            if host.name == name:
                return host
        raise KeyError(name)

    def operator_reset(self) -> None:
        for srv in self.servers:
            if srv.host.is_up and srv.group.alive:
                srv.group.crash()
                srv.on_crash()
        env = self.env

        def _bring_up():
            yield env.timeout(self.reset_downtime)
            for srv in self.servers:
                if srv.host.is_up and not srv.fault_latched:
                    if not srv.group.alive:
                        srv.group.revive()
                    srv.start()

        env.process(_bring_up(), name="auction-reset")

    def default_target(self, kind: FaultKind) -> str:
        return self.data_cluster.master.host.name

    def injectable_kinds(self) -> List[FaultKind]:
        return list(self.catalog.kinds())


def build_auction(
    config: AuctionConfig = AuctionConfig(),
    read_rate: float = 100.0,
    write_rate: float = 25.0,
    seed: int = 0,
) -> AuctionWorld:
    env = Environment()
    rngs = RngRegistry(seed)
    telemetry = Telemetry.disabled()

    data_cluster = AuctionDataCluster(env, config, telemetry)
    app_dispatcher = Dispatcher(env, _tier_config_bridge(config))

    hosts: List[Host] = []
    web: List[AuctionWebServer] = []
    app: List[AuctionAppServer] = []
    data: List[AuctionDataServer] = []
    idx = 0

    def new_host(prefix: str) -> Host:
        nonlocal idx
        host = Host(env, f"{prefix}{idx}", idx)
        idx += 1
        hosts.append(host)
        return host

    for _ in range(config.web_nodes):
        web.append(AuctionWebServer(new_host("web"), config, app_dispatcher))
    for _ in range(config.app_nodes):
        server = AuctionAppServer(new_host("app"), config, data_cluster)
        app.append(server)
        app_dispatcher.attach(server)
    for _ in range(1 + config.data_replicas):
        host = new_host("data")
        Disk(env, host, 0, DiskParams(seek_time=0.010),
             rngs.stream(f"disk.{host.name}"))
        server = AuctionDataServer(host, config, data_cluster,
                                   rng=rngs.stream(f"miss.{host.name}"))
        data.append(server)
        data_cluster.attach(server)

    for host in hosts:
        host.start_all()

    trace = SyntheticTrace(TraceConfig(n_files=200, file_size=2048),
                           rngs.stream("items"))
    stats = RequestStats()
    read_stats, write_stats = RequestStats(), RequestStats()

    class Tee(RequestStats):
        """Record into the class stats and the aggregate simultaneously."""

        def __init__(self, target: RequestStats):
            super().__init__()
            self._target = target

        def record_issue(self, time):
            self._target.record_issue(time)
            stats.record_issue(time)

        def record_success(self, time):
            self._target.record_success(time)
            stats.record_success(time)

        def record_failure(self, time, outcome):
            self._target.record_failure(time, outcome)
            stats.record_failure(time, outcome)

    for op, rate, class_stats, stream in (
        ("read", read_rate, read_stats, "readers"),
        ("write", write_rate, write_stats, "writers"),
    ):
        entries = [OpEntryPoint(s, op) for s in web]
        ClientPool(env, trace, DnsRouter(entries), Tee(class_stats),
                   ClientConfig(request_rate=rate, ramp_time=5.0),
                   rngs.stream(stream)).start()

    injector = FaultInjector(
        env,
        hosts={h.name: h for h in hosts},
        app_of=lambda host: next(host.services[n] for n in ("web", "app", "data")
                                 if n in host.services),
        telemetry=telemetry,
    )
    return AuctionWorld(
        env=env, rngs=rngs, telemetry=telemetry, config=config, hosts=hosts,
        web=web, app=app, data=data, data_cluster=data_cluster,
        injector=injector, stats=stats, read_stats=read_stats,
        write_stats=write_stats, offered_rate=read_rate + write_rate,
        catalog=auction_catalog(config),
    )
