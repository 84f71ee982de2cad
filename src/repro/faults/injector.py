"""The fault injector (Mendosus equivalent).

Applies and repairs concrete faults against the simulated cluster.  The
injector is deliberately ignorant of PRESS: it is wired with lookup
tables (hosts, disks, network, front-ends, and an ``app_of`` resolver for
application-level faults) so it can drive any service built on the
substrate, matching Mendosus's role as a generic SAN-based test-bed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.faults.types import FaultComponent, FaultKind
from repro.hardware.host import Host, NodeService
from repro.net.network import ClusterNetwork
from repro.obs.telemetry import Telemetry
from repro.sim.kernel import Environment


@dataclass
class ActiveFault:
    """Handle for an injected-but-not-yet-repaired fault."""

    component: FaultComponent
    injected_at: float
    repaired_at: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.repaired_at is None


class FaultInjector:
    """Inject/repair the eight fault kinds of Table 1."""

    __slots__ = ("env", "hosts", "network", "disks", "frontends", "app_of",
                 "_tracer", "_metrics", "_counters", "_active")

    def __init__(
        self,
        env: Environment,
        hosts: Dict[str, Host],
        network: Optional[ClusterNetwork] = None,
        disks: Optional[Dict[str, object]] = None,
        frontends: Optional[Dict[str, object]] = None,
        app_of: Optional[Callable[[Host], NodeService]] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.env = env
        self.hosts = hosts
        self.network = network
        self.disks = disks or {}
        self.frontends = frontends or {}
        self.app_of = app_of
        tm = telemetry if telemetry is not None else Telemetry.disabled()
        self._tracer = tm.tracer
        self._metrics = tm.metrics
        self._counters: Dict[tuple, object] = {}
        self._active: Dict[FaultComponent, ActiveFault] = {}

    # -- public API ----------------------------------------------------------
    def inject(self, kind: FaultKind, target: str) -> ActiveFault:
        comp = FaultComponent(kind, target)
        if comp in self._active and self._active[comp].active:
            raise ValueError(f"{comp} already active")
        self._apply(comp)
        fault = ActiveFault(comp, self.env.now)
        self._active[comp] = fault
        self._counter("faults_injected", kind).inc()
        self._tracer.mark(self.env.now, "fault_injected", comp)
        return fault

    def repair(self, fault: ActiveFault) -> None:
        if not fault.active:
            return
        self._undo(fault.component)
        fault.repaired_at = self.env.now
        self._counter("faults_repaired", fault.component.kind).inc()
        self._tracer.mark(self.env.now, "fault_repaired", fault.component)

    def inject_for(self, kind: FaultKind, target: str, duration: float) -> ActiveFault:
        """Inject now and schedule the repair ``duration`` seconds later."""
        fault = self.inject(kind, target)

        def _repair_later():
            yield self.env.timeout(duration)
            self.repair(fault)

        self.env.process(_repair_later(), name=f"repair-{kind.value}")
        return fault

    def _counter(self, name: str, kind: FaultKind):
        """Per-(name, kind) counter, bound once: the registry lookup
        happens on the first fault of each kind, not on every event."""
        ctr = self._counters.get((name, kind))
        if ctr is None:
            ctr = self._metrics.counter(name, kind=kind.value)
            self._counters[(name, kind)] = ctr
        return ctr

    def active_faults(self):
        return [f for f in self._active.values() if f.active]

    # -- fault mechanics ----------------------------------------------------------
    def _apply(self, comp: FaultComponent) -> None:
        kind, target = comp.kind, comp.target
        if kind is FaultKind.LINK_DOWN:
            self._require_network().link(self._host(target)).up = False
        elif kind is FaultKind.SWITCH_DOWN:
            self._require_network().switch.up = False
        elif kind is FaultKind.SCSI_TIMEOUT:
            self._disk(target).set_faulty()
        elif kind is FaultKind.NODE_CRASH:
            self._host(target).crash()
        elif kind is FaultKind.NODE_FREEZE:
            self._host(target).freeze()
        elif kind is FaultKind.APP_CRASH:
            self._app(target).inject_crash()
        elif kind is FaultKind.APP_HANG:
            self._app(target).inject_hang()
        elif kind is FaultKind.FRONTEND_FAILURE:
            self._frontend(target).fail()
        else:  # pragma: no cover - exhaustive
            raise ValueError(f"unknown fault kind {kind}")

    def _undo(self, comp: FaultComponent) -> None:
        kind, target = comp.kind, comp.target
        if kind is FaultKind.LINK_DOWN:
            self._require_network().link(self._host(target)).up = True
        elif kind is FaultKind.SWITCH_DOWN:
            self._require_network().switch.up = True
        elif kind is FaultKind.SCSI_TIMEOUT:
            self._disk(target).repair()
        elif kind is FaultKind.NODE_CRASH:
            self._host(target).boot()
        elif kind is FaultKind.NODE_FREEZE:
            self._host(target).unfreeze()
        elif kind is FaultKind.APP_CRASH:
            self._app(target).repair_crash()
        elif kind is FaultKind.APP_HANG:
            self._app(target).repair_hang()
        elif kind is FaultKind.FRONTEND_FAILURE:
            self._frontend(target).repair()
        else:  # pragma: no cover - exhaustive
            raise ValueError(f"unknown fault kind {kind}")

    # -- lookups ----------------------------------------------------------
    def _host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError(f"no host {name!r}") from None

    def _disk(self, name: str):
        try:
            return self.disks[name]
        except KeyError:
            raise KeyError(f"no disk {name!r}") from None

    def _frontend(self, name: str):
        try:
            return self.frontends[name]
        except KeyError:
            raise KeyError(f"no front-end {name!r}") from None

    def _app(self, host_name: str) -> NodeService:
        if self.app_of is None:
            raise ValueError("injector not configured with an app resolver")
        return self.app_of(self._host(host_name))

    def _require_network(self) -> ClusterNetwork:
        if self.network is None:
            raise ValueError("injector not configured with a network")
        return self.network
