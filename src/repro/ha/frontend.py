"""LVS-like front-end with Mon-style failure monitoring (Section 4.1).

The front-end hides server nodes behind a request distributor: client
packets are tunneled to a backend chosen round-robin from the *active
table*; replies go directly to clients.  A Mon-like daemon probes each
backend and removes/re-adds table entries.

Two probe modes, matching the paper's versions:

* ``MonMode.PING`` — ICMP echo every 5 s, three consecutive misses =>
  down (15 s detection).  Pings are answered by the OS, so crashed or
  hung *applications* are invisible: the front-end keeps sending requests
  to them.  This blindness is measured in Figures 6-7.
* ``MonMode.CONNECTION`` — C-MON (Figure 8): TCP connect probes against
  the application itself, 2 s detection, and application-level failures
  are seen too.

Front-end failure: with ``redundant=True`` (the paper models an ideal
redundant pair with heartbeats + IP take-over) the backup takes over
after ``takeover_time``; otherwise the service is unreachable until the
front-end is repaired.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hardware.host import Host
from repro.obs.telemetry import Telemetry
from repro.sim.kernel import Environment
from repro.workload.client import Request, Router


class MonMode(str, enum.Enum):
    PING = "ping"
    CONNECTION = "connection"


@dataclass(frozen=True)
class FrontEndConfig:
    mode: MonMode = MonMode.PING
    ping_interval: float = 5.0  # Mon probes every 5 s (Section 4.1)
    ping_failures: int = 3  # three successive losses => down
    conn_interval: float = 1.0  # C-MON probes
    conn_failures: int = 2  # => 2 s detection (Section 6.2)
    redundant: bool = True  # modeled redundant FE pair
    takeover_time: float = 10.0  # heartbeat + IP take-over latency

    @property
    def probe_interval(self) -> float:
        return self.ping_interval if self.mode is MonMode.PING else self.conn_interval

    @property
    def failure_threshold(self) -> int:
        return self.ping_failures if self.mode is MonMode.PING else self.conn_failures


class FrontEnd(Router):
    """The request distributor + Mon monitor."""

    __slots__ = ("env", "host", "config", "_tracer", "_spans", "_c_probes",
                 "_c_probe_fail", "_g_active", "backends", "active",
                 "_fail_counts", "_forced_out", "_rr", "_functioning",
                 "_primary_up")

    def __init__(
        self,
        env: Environment,
        host: Host,
        backends: List,
        config: FrontEndConfig = FrontEndConfig(),
        telemetry: Optional[Telemetry] = None,
    ):
        self.env = env
        self.host = host
        self.config = config
        tm = telemetry if telemetry is not None else Telemetry.disabled()
        self._tracer = tm.tracer
        self._spans = tm.spans
        m = tm.metrics
        self._c_probes = m.counter("fe_probes", node=host.name)
        self._c_probe_fail = m.counter("fe_probe_failures", node=host.name)
        self._g_active = m.gauge("fe_active_backends", node=host.name)
        self.backends = list(backends)
        self.active: Dict[int, bool] = {id(b): True for b in backends}
        self._fail_counts: Dict[int, int] = {id(b): 0 for b in backends}
        self._g_active.set(len(backends))
        #: entries S-FME forced out; Mon success does not re-admit these
        self._forced_out: set = set()
        self._rr = 0
        self._functioning = True
        self._primary_up = True
        for backend in backends:
            env.process(self._monitor(backend), owner=host.os,
                        name=f"mon-{backend.host.name}")

    # -- routing (Router interface) ----------------------------------------
    def pick(self, request: Request):
        if not self._functioning:
            self._spans.event(request.ctx, "route", "route", self.host.name,
                              choice="none", reason="fe_down")
            return None
        candidates = [b for b in self.backends
                      if self.active[id(b)] and id(b) not in self._forced_out]
        if not candidates:
            self._spans.event(request.ctx, "route", "route", self.host.name,
                              choice="none", reason="no_backends")
            return None
        backend = candidates[self._rr % len(candidates)]
        self._rr += 1
        # Zero-duration routing-decision span: which backend, table size.
        self._spans.event(request.ctx, "route", "route", self.host.name,
                          choice=backend.host.name, active=len(candidates))
        return backend

    # -- Mon ------------------------------------------------------------------
    def _probe_ok(self, backend) -> bool:
        if self.config.mode is MonMode.PING:
            return backend.host.pingable
        return backend.host.pingable and backend.listening

    def _monitor(self, backend):
        cfg = self.config
        key = id(backend)
        # Loop-invariant bindings: the maps and the tracer are mutated in
        # place but never rebound, and the backend's host name is fixed.
        env = self.env
        fail_counts = self._fail_counts
        active = self.active
        mark = self._tracer.mark
        backend_name = backend.host.name
        while True:
            yield env.timeout(cfg.probe_interval)
            if not self._functioning:
                continue
            self._c_probes.inc()
            now = env.now  # no yields below: time is constant this round
            if self._probe_ok(backend):
                fail_counts[key] = 0
                if not active[key]:
                    active[key] = True
                    self._update_active_gauge()
                    mark(now, "fe_node_up", backend_name)
            else:
                self._c_probe_fail.inc()
                fail_counts[key] += 1
                if fail_counts[key] >= cfg.failure_threshold and active[key]:
                    active[key] = False
                    self._update_active_gauge()
                    mark(now, "detected",
                         ("mon", self.host.name, backend_name))
                    mark(now, "fe_node_down", backend_name)

    def _update_active_gauge(self) -> None:
        self._g_active.set(sum(
            1 for b in self.backends
            if self.active[id(b)] and id(b) not in self._forced_out
        ))

    # -- S-FME hook ----------------------------------------------------------------
    def force_offline(self, backend) -> None:
        """Take a backend out of rotation regardless of Mon's opinion."""
        self._forced_out.add(id(backend))
        self._update_active_gauge()

    def allow_online(self, backend) -> None:
        self._forced_out.discard(id(backend))
        self._update_active_gauge()

    def is_routed(self, backend) -> bool:
        return self.active[id(backend)] and id(backend) not in self._forced_out

    # -- front-end failure (Table 1) ----------------------------------------------
    def fail(self) -> None:
        if not self._primary_up:
            return
        self._primary_up = False
        self._functioning = False
        self._tracer.mark(self.env.now, "fe_failed", self.host.name)
        if self.config.redundant:
            def _takeover():
                yield self.env.timeout(self.config.takeover_time)
                if not self._primary_up:  # primary still down: backup serves
                    self._functioning = True
                    self._tracer.mark(self.env.now, "detected",
                                      ("fe_takeover", self.host.name, self.host.name))
                    self._tracer.mark(self.env.now, "fe_takeover", self.host.name)
            self.env.process(_takeover(), name="fe-takeover")

    def repair(self) -> None:
        self._primary_up = True
        self._functioning = True
        self._tracer.mark(self.env.now, "fe_repaired", self.host.name)
