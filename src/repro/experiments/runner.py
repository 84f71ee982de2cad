"""World builder: assemble a complete deployment for a version spec.

A :class:`World` bundles everything a phase-1 campaign needs: the
simulated cluster (hosts, disks, network), the server processes, the HA
subsystems the version enables, the client workload, the fault injector,
and the telemetry whose tracer keeps the markers.  Build one world per
experiment — worlds are cheap and single-use (the campaign perturbs them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.configs import VersionSpec
from repro.experiments.profiles import ScaleProfile
from repro.faults.faultload import FaultCatalog
from repro.faults.injector import FaultInjector
from repro.faults.types import FaultKind
from repro.ha.fme import FmeConfig, FmeDaemon, SfmeMonitor
from repro.ha.frontend import FrontEnd, FrontEndConfig, MonMode
from repro.ha.membership import (
    MembershipConfig,
    MembershipDaemon,
    MembershipNetwork,
    bootstrap_membership,
)
from repro.hardware.disk import Disk
from repro.hardware.host import Host
from repro.net.network import ClusterNetwork
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Markers
from repro.press.config import PressConfig
from repro.press.fabric import ClusterFabric
from repro.press.indep import IndepServer
from repro.press.server import PressServer, bootstrap_cluster
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.workload.client import ClientConfig, ClientPool, DnsRouter
from repro.workload.stats import RequestStats
from repro.workload.trace import SyntheticTrace


@dataclass(slots=True)
class World:
    """A live deployment plus its instrumentation."""

    version: str
    spec: VersionSpec
    profile: ScaleProfile
    env: Environment
    rngs: RngRegistry
    net: ClusterNetwork
    hosts: List[Host]
    servers: List
    disks: Dict[str, Disk]
    injector: FaultInjector
    stats: RequestStats
    offered_rate: float
    catalog: FaultCatalog
    frontend: Optional[FrontEnd] = None
    membership_daemons: List[MembershipDaemon] = field(default_factory=list)
    fme_daemons: List[FmeDaemon] = field(default_factory=list)
    sfme: Optional[SfmeMonitor] = None
    reset_downtime: float = 10.0
    telemetry: Telemetry = field(default_factory=Telemetry)
    #: master RNG seed the world was built with (flight-record provenance)
    seed: int = 0

    @property
    def markers(self) -> Markers:
        return self.telemetry.tracer.markers

    def host_by_name(self, name: str) -> Host:
        for host in self.hosts:
            if host.name == name:
                return host
        raise KeyError(name)

    def server_on(self, host_name: str):
        return self.host_by_name(host_name).services["press"]

    # -- operator model ----------------------------------------------------
    def operator_reset(self) -> None:
        """Full service restart: the operator's stage-F action.

        Kills and restarts every reachable server process with fresh state
        and re-forms the cooperation set (a clean bring-up), which is what
        resolves splintered configurations in the base versions.
        """
        for srv in self.servers:
            if srv.host.is_up and srv.group.alive:
                srv.group.crash()
                srv.on_crash()

        env = self.env

        def _bring_up():
            yield env.timeout(self.reset_downtime)
            restarted = []
            for srv in self.servers:
                if not srv.host.is_up or srv.fault_latched:
                    continue
                if not srv.group.alive:
                    srv.group.revive()
                srv.start()
                if getattr(srv, "_running", False):
                    restarted.append(srv)
            if self.spec.cooperative and len(restarted) > 1:
                bootstrap_cluster(restarted)

        env.process(_bring_up(), name="operator-reset")

    # -- fault-target conveniences ---------------------------------------------
    def default_target(self, kind: FaultKind) -> str:
        """A sensible injection target for each fault kind (the paper
        injects one fault on one component; node n1 is the guinea pig)."""
        if kind is FaultKind.SWITCH_DOWN:
            return "switch0"
        if kind is FaultKind.FRONTEND_FAILURE:
            return "fe0"
        if kind is FaultKind.SCSI_TIMEOUT:
            return "n1.disk0"
        return "n1"

    def injectable_kinds(self) -> List[FaultKind]:
        """Fault kinds that exist in this configuration."""
        kinds = [
            FaultKind.LINK_DOWN,
            FaultKind.SWITCH_DOWN,
            FaultKind.SCSI_TIMEOUT,
            FaultKind.NODE_CRASH,
            FaultKind.NODE_FREEZE,
            FaultKind.APP_CRASH,
            FaultKind.APP_HANG,
        ]
        if not self.spec.cooperative:
            # Independent servers do not use the cluster network.
            kinds = [k for k in kinds
                     if k not in (FaultKind.LINK_DOWN, FaultKind.SWITCH_DOWN)]
        if self.frontend is not None:
            kinds.append(FaultKind.FRONTEND_FAILURE)
        return kinds


def build_world(
    spec: VersionSpec,
    profile: ScaleProfile,
    seed: int = 0,
    rate: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
    tiebreak_seed: Optional[int] = None,
    monitor=None,
) -> World:
    """Construct a ready-to-run deployment for ``spec``.

    ``rate`` overrides the offered load; by default cooperative versions
    are loaded at ~90% of 4-node COOP saturation and independent versions
    at ~90% of INDEP saturation, both scaled linearly with cluster size
    (Section 6.3's scaling assumption).

    ``telemetry`` defaults to an enabled bundle (tracing + metrics, no
    profiler); pass ``Telemetry.disabled()`` for zero-overhead runs or
    ``Telemetry(profile_time=True)`` to profile the kernel.

    ``tiebreak_seed`` perturbs same-instant event order (the
    ``tiebreak`` variant of ``repro sanitize``; see
    :mod:`repro.analysis.differential`) and ``monitor`` attaches a kernel
    monitor.  A ``monitor`` replaces any profiler ``telemetry`` would
    attach, so don't combine it with ``Telemetry(profile_time=True)``.
    """
    env = Environment(tiebreak_seed=tiebreak_seed)
    telemetry = telemetry if telemetry is not None else Telemetry()
    telemetry.attach(env)
    if monitor is not None:
        env.set_monitor(monitor)
    rngs = RngRegistry(seed)
    net = ClusterNetwork(env)
    fabric = ClusterFabric(env, net)
    trace_cfg = profile.trace
    if spec.n_nodes != 4:
        # Section 6.3 assumes the bottleneck stays the same as the cluster
        # grows, which requires the data set to grow with it (the paper
        # sized files so that misses persisted at 5 nodes); otherwise a
        # bigger cluster's cache swallows the working set and faults stop
        # propagating.
        from dataclasses import replace as _replace

        factor = spec.n_nodes / 4.0
        trace_cfg = _replace(trace_cfg, n_files=int(round(trace_cfg.n_files * factor)))
    trace = SyntheticTrace(trace_cfg, rngs.stream("trace"))

    press_cfg: PressConfig = profile.press.with_(
        queue_monitoring=spec.queue_monitoring,
        use_membership=spec.membership,
        ring_detection=spec.ring_detection,
    )
    if not spec.cooperative:
        press_cfg = press_cfg.with_(disk_queue_capacity=profile.indep_disk_queue)

    hosts: List[Host] = []
    servers: List = []
    disks: Dict[str, Disk] = {}
    for i in range(spec.server_count):
        host = Host(env, f"n{i}", i)
        net.attach(host)
        for d in range(2):
            disk = Disk(env, host, d, profile.disk, rngs.stream(f"disk.{i}.{d}"))
            disks[disk.name] = disk
        if spec.cooperative:
            server = PressServer(host, i, press_cfg, trace, fabric,
                                 telemetry=telemetry)
        else:
            server = IndepServer(host, i, press_cfg, trace,
                                 telemetry=telemetry)
        hosts.append(host)
        servers.append(server)

    membership_daemons: List[MembershipDaemon] = []
    if spec.membership:
        mnet = MembershipNetwork(net)
        for host, server in zip(hosts, servers):
            daemon = MembershipDaemon(host, server.node_id, mnet, MembershipConfig(),
                                      telemetry=telemetry)
            server.shared_view = daemon.shared_view
            membership_daemons.append(daemon)

    fme_daemons: List[FmeDaemon] = []
    if spec.fme:
        for host, server in zip(hosts, servers):
            fme_daemons.append(FmeDaemon(host, server, FmeConfig(),
                                         telemetry=telemetry))

    for host in hosts:
        host.start_all()
    if spec.cooperative:
        bootstrap_cluster(servers)
    if spec.membership:
        bootstrap_membership(membership_daemons)

    frontend: Optional[FrontEnd] = None
    sfme: Optional[SfmeMonitor] = None
    if spec.frontend:
        fe_host = Host(env, "fe0", 1000)
        fe_cfg = FrontEndConfig(
            mode=MonMode.CONNECTION if spec.fe_conn_monitoring else MonMode.PING
        )
        frontend = FrontEnd(env, fe_host, servers, fe_cfg,
                            telemetry=telemetry)
        if spec.sfme:
            sfme = SfmeMonitor(env, frontend, servers, telemetry=telemetry)

    router = frontend if frontend is not None else DnsRouter(servers)

    if rate is None:
        base = profile.coop_rate if spec.cooperative else profile.indep_rate
        rate = base * (spec.n_nodes / 4.0)
    stats = RequestStats()
    client_cfg = ClientConfig(
        request_rate=rate,
        connect_timeout=profile.client.connect_timeout,
        request_timeout=profile.client.request_timeout,
        network_rtt=profile.client.network_rtt,
        ramp_time=profile.client.ramp_time,
        ramp_start=profile.client.ramp_start,
    )
    pool = ClientPool(env, trace, router, stats, client_cfg, rngs.stream("clients"),
                      telemetry=telemetry)
    pool.start()

    injector = FaultInjector(
        env,
        hosts={h.name: h for h in hosts},
        network=net,
        disks=disks,
        frontends={"fe0": frontend} if frontend is not None else {},
        app_of=lambda host: host.services["press"],
        telemetry=telemetry,
    )

    return World(
        version=spec.name,
        spec=spec,
        profile=profile,
        env=env,
        rngs=rngs,
        net=net,
        hosts=hosts,
        servers=servers,
        disks=disks,
        injector=injector,
        stats=stats,
        offered_rate=rate,
        catalog=spec.catalog(),
        frontend=frontend,
        membership_daemons=membership_daemons,
        fme_daemons=fme_daemons,
        sfme=sfme,
        telemetry=telemetry,
        seed=seed,
    )
