"""Open-loop Poisson clients with the paper's timeout discipline.

Clients generate an aggregate Poisson request stream at a configured
rate, route each request (round-robin DNS or through a front-end), and
enforce Section 5's timeouts: 2 s to establish a connection, 6 s for an
established request to complete.

A *backend* is anything exposing::

    backend.host        -- the Host it runs on (pingable check = SYN-ACK)
    backend.listening   -- bool: the process has a listen socket (RST if not)
    backend.try_accept(request) -> bool   -- enqueue; False = backlog full

Both PRESS server variants and the test doubles in the suite satisfy it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.obs.events import EventKind
from repro.obs.telemetry import Telemetry
from repro.sim.conditions import AnyOf
from repro.sim.kernel import Environment, Event, Timeout
from repro.workload.stats import Outcome, RequestStats
from repro.workload.trace import SyntheticTrace


@dataclass(frozen=True, slots=True)
class ClientConfig:
    """Aggregate client behaviour (the paper's 4 client machines)."""

    request_rate: float = 200.0  # aggregate requests/second (Poisson)
    connect_timeout: float = 2.0  # Section 5
    request_timeout: float = 6.0  # Section 5
    network_rtt: float = 0.5e-3  # client <-> server round trip
    #: warm-up ramp: load grows linearly from ramp_start*rate to rate over
    #: this many seconds (the paper warms PRESS to peak over 5 minutes)
    ramp_time: float = 0.0
    ramp_start: float = 0.15

    def __post_init__(self) -> None:
        if self.request_rate <= 0:
            raise ValueError("request_rate must be positive")
        if self.ramp_time < 0 or not 0.0 < self.ramp_start <= 1.0:
            raise ValueError("invalid ramp parameters")

    def rate_at(self, t: float) -> float:
        """Offered rate at time ``t`` given the warm-up ramp."""
        if self.ramp_time <= 0 or t >= self.ramp_time:
            return self.request_rate
        frac = self.ramp_start + (1.0 - self.ramp_start) * (t / self.ramp_time)
        return self.request_rate * frac


class Request:
    """One HTTP request for one file."""

    __slots__ = ("fid", "created", "response", "expired", "size",
                 "req_id", "ctx")

    def __init__(self, env: Environment, fid: int, size: int):
        self.fid = fid
        self.size = size
        self.created = env.now
        self.response = Event(env)
        self.expired = False  # set when the client gave up
        # Deterministic monotone id assigned by the issuing ClientPool
        # (0 = never pooled, e.g. a test double), and the trace context:
        # the root Span when span tracing is on, else None.
        self.req_id = 0
        self.ctx = None

    def respond(self) -> None:
        """Server-side completion; harmless after client timeout."""
        if not self.response.triggered:
            self.response.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Request fid={self.fid} t={self.created:.3f}>"


class Router:
    """Chooses a backend for each request; None = connection impossible."""

    __slots__ = ()


    def pick(self, request: Request):  # pragma: no cover - abstract
        raise NotImplementedError


class DnsRouter(Router):
    """Round-robin DNS: rotates over the configured node list, oblivious
    to failures — exactly why the INDEP and COOP versions lose the
    requests routed to a dead node."""

    def __init__(self, backends: Sequence):
        if not backends:
            raise ValueError("DnsRouter needs at least one backend")
        self.backends = list(backends)
        self._next = 0

    def pick(self, request: Request):
        backend = self.backends[self._next % len(self.backends)]
        self._next += 1
        return backend


class ClientPool:
    """The aggregate open-loop client population."""

    __slots__ = ("env", "trace", "router", "stats", "config", "rng",
                 "_started", "_tracer", "_spans", "_next_req_id",
                 "_c_issued", "_c_ok", "_h_latency", "_h_latency_expired",
                 "_c_fail")

    def __init__(
        self,
        env: Environment,
        trace: SyntheticTrace,
        router: Router,
        stats: RequestStats,
        config: ClientConfig,
        rng: np.random.Generator,
        telemetry: Optional[Telemetry] = None,
    ):
        self.env = env
        self.trace = trace
        self.router = router
        self.stats = stats
        self.config = config
        self.rng = rng
        self._started = False
        tm = telemetry if telemetry is not None else Telemetry.disabled()
        self._tracer = tm.tracer
        self._spans = tm.spans
        self._next_req_id = 0
        m = tm.metrics
        self._c_issued = m.counter("client_requests_issued")
        self._c_ok = m.counter("client_requests_ok")
        self._h_latency = m.histogram("client_request_latency")
        # Censored samples: give-up latency of requests the client
        # abandoned.  A separate labelled series, so success percentiles
        # stay comparable while fault-window tails avoid survivorship bias.
        self._h_latency_expired = m.histogram("client_request_latency",
                                              outcome="expired")
        self._c_fail = {
            outcome: m.counter("client_requests_failed", outcome=outcome.value)
            for outcome in Outcome if outcome is not Outcome.SUCCESS
        }

    def start(self) -> None:
        """Begin generating requests (idempotent)."""
        if self._started:
            return
        self._started = True
        self.env.process(self._arrivals(), name="client-arrivals")

    # -- generation ------------------------------------------------------------
    def _arrivals(self):
        env = self.env
        arrival = self._next_arrival()
        while True:
            yield arrival
            fid = self.trace.sample_file()
            req = Request(env, fid, self.trace.file_size(fid))
            self._next_req_id += 1
            req.req_id = self._next_req_id
            self.stats.record_issue(env.now)
            self._c_issued.inc()
            req.ctx = self._spans.root(req.req_id, "request", "clients",
                                       fid=fid)
            # The next arrival is scheduled before the request's first
            # step runs: tests/sim/test_event_sequence.py pins this order.
            arrival = self._next_arrival()
            _RequestSteps(self, req).connect()

    def _next_arrival(self) -> Timeout:
        mean_gap = 1.0 / self.config.rate_at(self.env.now)
        return self.env.timeout(float(self.rng.exponential(mean_gap)))

    def _fail(self, req: Request, outcome: Outcome) -> None:
        req.expired = True
        # The give-up latency is a censored sample of the request's true
        # latency; recording it keeps fault-window p99s honest.
        latency = self.env.now - req.created
        self.stats.record_failure(self.env.now, outcome, latency=latency)
        self._c_fail[outcome].inc()
        self._h_latency_expired.observe(latency)
        self._spans.finish(req.ctx, outcome=outcome.value)
        self._tracer.emit(EventKind.REQUEST_FAILED, source="clients",
                          fid=req.fid, outcome=outcome.value)


class _RequestSteps:
    """One request's lifecycle, run as event callbacks rather than a process.

    Each wait (the SYN round trip, a connect timeout, the reply or its
    deadline) carries the next step as a bound method of this object, so
    a request costs no process bootstrap or completion event.  ``name``
    is what :func:`repro.obs.kernelprof.callback_owner` reports for these
    callbacks.
    """

    __slots__ = ("pool", "req", "backend", "conn", "wait", "deadline")

    name = "client-req"

    def __init__(self, pool: ClientPool, req: Request):
        self.pool = pool
        self.req = req

    def connect(self) -> None:
        pool = self.pool
        req = self.req
        cfg = pool.config
        self.conn = pool._spans.start("connect", "network", "clients",
                                      ctx=req.ctx)
        self.backend = backend = pool.router.pick(req)
        if backend is None:
            # No route (front-end dead): SYNs vanish, client gives up at 2 s.
            pool.env.timeout(cfg.connect_timeout).add_callback(self._no_route)
        else:  # SYN -> SYN-ACK attempt
            pool.env.timeout(cfg.network_rtt).add_callback(self._syn_ack)

    def _no_route(self, _event: Event) -> None:
        self.pool._spans.finish(self.conn, outcome="no_route")
        self.pool._fail(self.req, Outcome.CONNECT_TIMEOUT)

    def _syn_ack(self, _event: Event) -> None:
        pool = self.pool
        req = self.req
        backend = self.backend
        spans = pool._spans
        env = pool.env
        if not backend.host.pingable:
            env.timeout(pool.config.connect_timeout).add_callback(
                self._syn_timeout)
            return
        if not backend.listening:
            spans.finish(self.conn, outcome="rst")
            pool._fail(req, Outcome.REFUSED)  # RST comes back immediately
            return
        if not backend.try_accept(req):
            spans.finish(self.conn, outcome="backlog")
            pool._fail(req, Outcome.REFUSED)  # listen backlog overflow
            return
        spans.finish(self.conn, outcome="established")
        self.wait = spans.start("await_reply", "wait", "clients", ctx=req.ctx)
        self.deadline = deadline = env.timeout(pool.config.request_timeout)
        AnyOf(env, [req.response, deadline]).add_callback(self._reply)

    def _syn_timeout(self, _event: Event) -> None:
        self.pool._spans.finish(self.conn, outcome="syn_timeout")
        self.pool._fail(self.req, Outcome.CONNECT_TIMEOUT)

    def _reply(self, _event: Event) -> None:
        pool = self.pool
        req = self.req
        spans = pool._spans
        if req.response.triggered:
            self.deadline.cancel()  # nobody waits on it any more
            now = pool.env.now
            latency = now - req.created
            pool.stats.record_success(now, latency)
            pool._c_ok.inc()
            pool._h_latency.observe(latency)
            spans.finish(self.wait, outcome="ok")
            spans.finish(req.ctx, outcome="ok")
        else:
            req.expired = True
            spans.finish(self.wait, outcome="expired")
            pool._fail(req, Outcome.REQUEST_TIMEOUT)
