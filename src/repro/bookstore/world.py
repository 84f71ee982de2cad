"""Bookstore deployment builder (campaign-compatible world)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.bookstore.config import BookstoreConfig
from repro.bookstore.tiers import DbCluster, DbServer, Dispatcher, TierServer, WebServer
from repro.faults.injector import FaultInjector
from repro.faults.faultload import FaultCatalog, FaultRate, HOUR, MINUTE, MONTH, WEEK, YEAR
from repro.faults.types import FaultKind
from repro.hardware.disk import Disk, DiskParams
from repro.hardware.host import Host
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Markers
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.workload.client import ClientConfig, ClientPool, DnsRouter
from repro.workload.stats import RequestStats
from repro.workload.trace import SyntheticTrace, TraceConfig


def bookstore_catalog(config: BookstoreConfig) -> FaultCatalog:
    """A Table-1-style fault load for the 3-tier deployment."""
    n = config.total_nodes
    db_nodes = 1 + config.db_replicas
    return FaultCatalog([
        FaultRate(FaultKind.NODE_CRASH, 2 * WEEK, 3 * MINUTE, n),
        FaultRate(FaultKind.NODE_FREEZE, 2 * WEEK, 3 * MINUTE, n),
        FaultRate(FaultKind.APP_CRASH, 2 * MONTH, 3 * MINUTE, n),
        FaultRate(FaultKind.APP_HANG, 2 * MONTH, 3 * MINUTE, n),
        FaultRate(FaultKind.SCSI_TIMEOUT, 1 * YEAR, 1 * HOUR, 2 * db_nodes),
    ])


@dataclass
class BookstoreWorld:
    """Same protocol as :class:`repro.experiments.runner.World`."""

    env: Environment
    rngs: RngRegistry
    telemetry: Telemetry
    config: BookstoreConfig
    hosts: List[Host]
    web: List[WebServer]
    app: List[TierServer]
    db: List[DbServer]
    db_cluster: DbCluster
    disks: Dict[str, Disk]
    injector: FaultInjector
    stats: RequestStats
    offered_rate: float
    catalog: FaultCatalog
    version: str = "BOOKSTORE"
    reset_downtime: float = 10.0

    @property
    def markers(self) -> Markers:
        return self.telemetry.tracer.markers

    @property
    def servers(self) -> List[TierServer]:
        return [*self.web, *self.app, *self.db]

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
                if not srv.host.is_up or srv.fault_latched:
                    continue
                if not srv.group.alive:
                    srv.group.revive()
                srv.start()

        env.process(_bring_up(), name="bookstore-reset")

    def default_target(self, kind: FaultKind) -> str:
        """Faults land on the most interesting component of each kind:
        node-level faults on an app node, disk faults on the db primary."""
        if kind is FaultKind.SCSI_TIMEOUT:
            return f"{self.db[0].host.name}.disk0"
        if kind in (FaultKind.APP_CRASH, FaultKind.APP_HANG):
            return self.app[0].host.name
        return self.app[0].host.name

    def db_target(self, kind: FaultKind) -> str:
        """Inject against the database primary instead."""
        if kind is FaultKind.SCSI_TIMEOUT:
            return f"{self.db[0].host.name}.disk0"
        return self.db[0].host.name

    def injectable_kinds(self) -> List[FaultKind]:
        return list(self.catalog.kinds())


def build_bookstore(
    config: BookstoreConfig = BookstoreConfig(),
    rate: float = 120.0,
    seed: int = 0,
) -> BookstoreWorld:
    env = Environment()
    rngs = RngRegistry(seed)
    telemetry = Telemetry.disabled()

    db_cluster = DbCluster(env, config, telemetry)
    app_dispatcher = Dispatcher(env, config)

    hosts: List[Host] = []
    disks: Dict[str, Disk] = {}
    web: List[WebServer] = []
    app: List[TierServer] = []
    db: List[DbServer] = []
    idx = 0

    def new_host(prefix: str) -> Host:
        nonlocal idx
        host = Host(env, f"{prefix}{idx}", idx)
        idx += 1
        hosts.append(host)
        return host

    for _ in range(config.web_nodes):
        host = new_host("web")
        web.append(WebServer(host, config, app_dispatcher,
                             rng=rngs.stream(f"mix.{host.name}")))
    for _ in range(config.app_nodes):
        host = new_host("app")
        server = TierServer(host, "app", config, downstream=db_cluster)
        app.append(server)
        app_dispatcher.attach(server)
    for _ in range(1 + config.db_replicas):
        host = new_host("db")
        for d in range(2):
            disk = Disk(env, host, d, DiskParams(seek_time=0.012),
                        rngs.stream(f"disk.{host.name}.{d}"))
            disks[disk.name] = disk
        server = DbServer(host, config, db_cluster,
                          rng=rngs.stream(f"dbmiss.{host.name}"))
        db.append(server)
        db_cluster.attach(server)

    for host in hosts:
        host.start_all()

    stats = RequestStats()
    trace = SyntheticTrace(TraceConfig(n_files=100, file_size=4096),
                           rngs.stream("pages"))
    client_cfg = ClientConfig(request_rate=rate, ramp_time=10.0)
    ClientPool(env, trace, DnsRouter(web), stats, client_cfg,
               rngs.stream("clients")).start()

    def app_of(host: Host):
        # the single tier service installed on this host
        for name in ("web", "app", "db"):
            if name in host.services:
                return host.services[name]
        raise KeyError(host.name)

    injector = FaultInjector(
        env,
        hosts={h.name: h for h in hosts},
        disks=disks,
        app_of=app_of,
        telemetry=telemetry,
    )
    return BookstoreWorld(
        env=env, rngs=rngs, telemetry=telemetry, config=config, hosts=hosts,
        web=web, app=app, db=db, db_cluster=db_cluster, disks=disks,
        injector=injector, stats=stats, offered_rate=rate,
        catalog=bookstore_catalog(config),
    )
