"""Fault Model Enforcement (Sections 4.5, 6.2).

The designers' abstract fault model covers node crashes, application
crashes, and unreachable nodes.  Faults outside the model — disk
failures, application hangs — make the views of the membership service
and the queue monitor diverge (the daemon stays healthy while the app is
stuck), producing remove/re-add oscillation.  FME *enforces* the model
by actively converting un-modeled faults into modeled ones:

* per-node daemon probes the local disks directly (SCSI Generic
  analog) and the local application with small HTTP requests;
* disk failed AND application unresponsive  -> take the whole node
  offline for repair (=> node crash, which everything already handles;
  the node reboots once the disk is fixed);
* application unresponsive but disks fine -> kill and restart the
  application (=> crash-restart, which triggers the rejoin protocol).

:class:`SfmeMonitor` is the stronger S-FME variant of Section 6.2: a
global watcher that compares every backend's cooperation set against the
majority view and takes *isolated* nodes out of the front-end's rotation,
eliminating the losses from routing full load to splintered nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ha.faultmodel import (
    PRESS_FAULT_MODEL,
    EnforcementAction,
    FaultModel,
    Symptoms,
)
from repro.hardware.host import Host, NodeService
from repro.obs.telemetry import Telemetry
from repro.sim.conditions import AnyOf
from repro.sim.kernel import Environment


@dataclass(frozen=True)
class FmeConfig:
    probe_interval: float = 5.0  # Section 5: FME probes every 5 s
    probe_timeout: float = 2.0  # disk/HTTP probe response deadline
    confirm_delay: float = 1.0  # re-probe once before acting
    reboot_poll: float = 5.0  # how often to check a repaired disk
    reboot_delay: float = 10.0  # node boot time after disk repair


class FmeDaemon(NodeService):
    """Per-node FME process (its own ProcGroup, separate from the app)."""

    __slots__ = ("app", "config", "model", "_tracer", "_spans",
                 "enforcements")

    service_name = "fme"

    def __init__(
        self,
        host: Host,
        app: NodeService,
        config: FmeConfig = FmeConfig(),
        model: FaultModel = PRESS_FAULT_MODEL,
        telemetry: Optional[Telemetry] = None,
    ):
        super().__init__(host)
        self.app = app
        self.config = config
        self.model = model
        tm = telemetry if telemetry is not None else Telemetry.disabled()
        self._tracer = tm.tracer
        self._spans = tm.spans
        self.enforcements = 0

    def start(self) -> None:
        if not self.group.alive or not self.host.is_up:
            return
        self.env.process(self._probe_loop(), owner=self.group,
                         name=f"{self.host.name}.fme")

    # ------------------------------------------------------------------
    def _probe_loop(self):
        cfg = self.config
        while True:
            yield self.env.timeout(cfg.probe_interval)
            # Probe rounds trace in the monitoring namespace (negative
            # req_ids) so request blame reports can exclude them.
            round_span = self._spans.probe_root("fme_probe", self.host.name)
            disk_ok = yield from self._probe_disks(round_span)
            app_ok = yield from self._probe_app(round_span)
            self._spans.finish(round_span, disk_ok=disk_ok, app_ok=app_ok)
            if disk_ok and app_ok:
                continue
            # Confirm with a second observation round before acting
            # (transient overload must not trigger enforcement).
            yield self.env.timeout(cfg.confirm_delay)
            round_span = self._spans.probe_root("fme_probe", self.host.name,
                                                confirm=True)
            disk_ok = yield from self._probe_disks(round_span)
            app_ok = yield from self._probe_app(round_span)
            self._spans.finish(round_span, disk_ok=disk_ok, app_ok=app_ok)
            symptoms = Symptoms(disks_ok=disk_ok, app_responsive=app_ok,
                                confirmations=2)
            action = self.model.enforce(symptoms)
            if action is EnforcementAction.OFFLINE_NODE:
                self._take_node_offline()
                return  # the node (and this daemon) goes down
            if action is EnforcementAction.RESTART_APP:
                self._restart_app()

    def _probe_disks(self, ctx=None):
        """True iff every local disk answers a controller probe in time."""
        cfg = self.config
        for disk in self.host.disks:
            span = self._spans.start("disk_probe", "probe", self.host.name,
                                     ctx)
            done = disk.probe()
            deadline = self.env.timeout(cfg.probe_timeout)
            yield AnyOf(self.env, [done, deadline])
            if not done.triggered:
                self._spans.finish(span, outcome="timeout")
                return False
            self._spans.finish(span, outcome="ok")
        return True

    def _probe_app(self, ctx=None):
        cfg = self.config
        span = self._spans.start("http_probe", "probe", self.host.name, ctx)
        ev = self.app.http_probe()
        deadline = self.env.timeout(cfg.probe_timeout)
        yield AnyOf(self.env, [ev, deadline])
        self._spans.finish(span,
                           outcome="ok" if ev.triggered else "timeout")
        return ev.triggered

    # -- enforcement actions -----------------------------------------------
    def _take_node_offline(self) -> None:
        """Disk dead + app stuck: enforce 'node crash'.

        A repair process outside the node (the operations crew) watches
        for the disk to be replaced and then boots the node, which
        restarts every service and rejoins the cluster.
        """
        now = self.env.now
        self.enforcements += 1
        self._tracer.mark(now, "detected", ("fme_disk", self.host.name, self.host.name))
        self._tracer.mark(now, "fme_offline", self.host.name)
        env, host, cfg = self.env, self.host, self.config

        def _shutdown_and_repair():
            # The shutdown runs outside the daemon's own process group:
            # crashing the host from within one of its processes would
            # kill the running generator out from under itself.
            host.crash()
            while any(d.faulty for d in host.disks):
                yield env.timeout(cfg.reboot_poll)
            yield env.timeout(cfg.reboot_delay)
            if not host.is_up:
                host.boot()

        env.process(_shutdown_and_repair(), name=f"{host.name}.repair-crew")

    def _restart_app(self) -> None:
        """App stuck, disks fine: enforce 'application crash(-restart)'."""
        now = self.env.now
        self.enforcements += 1
        self._tracer.mark(now, "detected", ("fme_app", self.host.name, self.host.name))
        self._tracer.mark(now, "fme_restart", self.host.name)
        self.app.force_restart()


class SfmeMonitor:
    """S-FME: global cooperation-set monitoring at the front-end.

    Polls each backend's cooperation set; backends whose set disagrees
    with the majority (splintered/isolated nodes) are forced out of the
    front-end's table until they re-merge, so clients are never routed to
    a node that cannot carry its share.
    """

    __slots__ = ("env", "frontend", "backends", "poll_interval", "_tracer",
                 "actions")

    def __init__(
        self,
        env: Environment,
        frontend,
        backends,
        poll_interval: float = 2.0,
        telemetry: Optional[Telemetry] = None,
    ):
        self.env = env
        self.frontend = frontend
        self.backends = list(backends)
        self.poll_interval = poll_interval
        tm = telemetry if telemetry is not None else Telemetry.disabled()
        self._tracer = tm.tracer
        self.actions = 0
        env.process(self._loop(), owner=frontend.host.os, name="sfme")

    def _majority_view(self):
        views = []
        for b in self.backends:
            if b.listening:
                views.append(frozenset(b.coop_view()))
        if not views:
            return None
        return max(views, key=lambda v: (len(v), -min(v)))

    def _loop(self):
        while True:
            yield self.env.timeout(self.poll_interval)
            majority = self._majority_view()
            if majority is None:
                continue
            for b in self.backends:
                isolated = b.listening and b.node_id not in majority
                if isolated and self.frontend.is_routed(b):
                    self.frontend.force_offline(b)
                    self.actions += 1
                    self._tracer.mark(self.env.now, "sfme_offline", b.host.name)
                elif not isolated:
                    self.frontend.allow_online(b)
