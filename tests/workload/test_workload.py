"""Trace generation, stats accounting, client behaviour."""

import numpy as np
import pytest

from repro.experiments.configs import version
from repro.experiments.profiles import SMALL
from repro.experiments.runner import build_world
from repro.faults.types import FaultKind
from repro.hardware.host import Host, NodeService
from repro.obs.kernelprof import callback_owner
from repro.obs.telemetry import Telemetry
from repro.sim.process import Process
from repro.workload.client import ClientConfig, ClientPool, DnsRouter
from repro.workload.stats import Outcome, RequestStats
from repro.workload.trace import SyntheticTrace, TraceConfig


class TestTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(n_files=0)
        with pytest.raises(ValueError):
            TraceConfig(file_size=0)
        with pytest.raises(ValueError):
            TraceConfig(zipf_alpha=-1)

    def test_sample_range(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=50), rngs.stream("t"))
        fids = trace.sample_files(10_000)
        assert fids.min() >= 0 and fids.max() < 50

    def test_zipf_skew(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=100, zipf_alpha=1.0), rngs.stream("t"))
        fids = trace.sample_files(50_000)
        counts = np.bincount(fids, minlength=100)
        assert counts[0] > counts[10] > counts[50]

    def test_uniform_when_alpha_zero(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=10, zipf_alpha=0.0), rngs.stream("t"))
        fids = trace.sample_files(50_000)
        counts = np.bincount(fids, minlength=10)
        assert counts.min() > 0.8 * counts.max()

    def test_hit_fraction_monotone_and_bounded(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=100), rngs.stream("t"))
        fractions = [trace.hit_fraction(k) for k in (0, 10, 50, 100, 200)]
        assert fractions[0] == 0.0
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_file_size_constant(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=5, file_size=27_000), rngs.stream("t"))
        assert {trace.file_size(i) for i in range(5)} == {27_000}
        with pytest.raises(IndexError):
            trace.file_size(5)

    def test_sampling_matches_pmf(self, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=20, zipf_alpha=0.9), rngs.stream("t"))
        fids = trace.sample_files(200_000)
        top_share = np.mean(fids == 0)
        assert abs(top_share - trace.hit_fraction(1)) < 0.01


class TestStats:
    def test_counters(self):
        stats = RequestStats()
        stats.record_issue(0.0)
        stats.record_issue(1.0)
        stats.record_success(1.5)
        stats.record_failure(2.0, Outcome.REQUEST_TIMEOUT)
        assert stats.issued == 2
        assert stats.succeeded == 1 and stats.failed == 1
        assert stats.availability() == 0.5

    def test_record_success_via_failure_rejected(self):
        stats = RequestStats()
        with pytest.raises(ValueError):
            stats.record_failure(0.0, Outcome.SUCCESS)

    def test_window(self):
        stats = RequestStats()
        for t in range(10):
            stats.record_issue(float(t))
            if t % 2 == 0:
                stats.record_success(float(t) + 0.1)
        win = stats.window(0.0, 10.0)
        assert win["issued"] == 10 and win["succeeded"] == 5
        assert win["availability"] == 0.5

    def test_empty_availability_is_one(self):
        assert RequestStats().availability() == 1.0


class TestLatencyRecord:
    def test_histograms_sample_every_completed_request(self):
        """The client's latency histograms are the run's latency record:
        one sample per success, one give-up sample per failure."""
        telemetry = Telemetry()
        world = build_world(version("INDEP"), SMALL, telemetry=telemetry)
        world.env.run(until=80.0)
        fault = world.injector.inject(FaultKind.APP_CRASH, "n1")
        world.env.run(until=110.0)
        world.injector.repair(fault)
        world.env.run(until=140.0)
        stats, metrics = world.stats, telemetry.metrics
        assert stats.succeeded > 0 and stats.failed > 0
        assert metrics.get("client_request_latency").count == stats.succeeded
        assert metrics.get("client_request_latency",
                           outcome="expired").count == stats.failed


class EchoBackend(NodeService):
    """Responds to everything after a fixed delay."""

    service_name = "press"

    def __init__(self, host, delay=0.01):
        super().__init__(host)
        self.delay = delay
        self.accepted = 0
        self._up = True

    def start(self):
        pass

    @property
    def listening(self):
        return self._up and self.group.alive and self.host.is_up

    def try_accept(self, req):
        if not self.listening:
            return False
        self.accepted += 1

        def respond():
            yield self.env.timeout(self.delay)
            req.respond()

        self.env.process(respond(), owner=self.group)
        return True


@pytest.fixture
def client_world(env, rngs):
    hosts = [Host(env, f"n{i}", i) for i in range(2)]
    backends = [EchoBackend(h) for h in hosts]
    trace = SyntheticTrace(TraceConfig(n_files=10), rngs.stream("trace"))
    stats = RequestStats()
    pool = ClientPool(env, trace, DnsRouter(backends), stats,
                      ClientConfig(request_rate=100.0), rngs.stream("clients"))
    pool.start()
    return hosts, backends, stats, pool


class TestClients:
    def test_round_robin_spreads_load(self, env, client_world):
        hosts, backends, stats, _ = client_world
        env.run(until=5)
        a, b = backends[0].accepted, backends[1].accepted
        assert abs(a - b) <= 1
        assert stats.availability() > 0.99

    def test_rate_approximates_config(self, env, client_world):
        _, _, stats, _ = client_world
        env.run(until=10)
        assert stats.issued == pytest.approx(1000, rel=0.15)

    def test_dead_node_connect_timeouts(self, env, client_world):
        hosts, backends, stats, _ = client_world
        hosts[0].crash()
        env.run(until=10)
        assert stats.outcomes[Outcome.CONNECT_TIMEOUT] > 100

    def test_crashed_app_refused(self, env, client_world):
        hosts, backends, stats, _ = client_world
        backends[0].inject_crash()
        env.run(until=10)
        assert stats.outcomes[Outcome.REFUSED] > 100
        assert stats.outcomes[Outcome.CONNECT_TIMEOUT] == 0

    def test_hung_app_request_timeouts(self, env, client_world):
        hosts, backends, stats, _ = client_world
        backends[0].inject_hang()
        env.run(until=20)
        assert stats.outcomes[Outcome.REQUEST_TIMEOUT] > 50

    def test_no_route_is_connect_timeout(self, env, rngs):
        class NullRouter(DnsRouter):
            def __init__(self):
                pass

            def pick(self, request):
                return None

        trace = SyntheticTrace(TraceConfig(n_files=10), rngs.stream("t"))
        stats = RequestStats()
        ClientPool(env, trace, NullRouter(), stats,
                   ClientConfig(request_rate=50.0), rngs.stream("c")).start()
        env.run(until=10)
        assert stats.outcomes[Outcome.CONNECT_TIMEOUT] > 200

    def test_ramp_reduces_initial_rate(self):
        cfg = ClientConfig(request_rate=100.0, ramp_time=10.0, ramp_start=0.2)
        assert cfg.rate_at(0.0) == pytest.approx(20.0)
        assert cfg.rate_at(5.0) == pytest.approx(60.0)
        assert cfg.rate_at(10.0) == 100.0
        assert cfg.rate_at(50.0) == 100.0

    def test_ramp_validation(self):
        with pytest.raises(ValueError):
            ClientConfig(request_rate=1.0, ramp_time=-1)
        with pytest.raises(ValueError):
            ClientConfig(request_rate=1.0, ramp_start=0.0)

    def test_start_idempotent(self, env, client_world):
        _, _, stats, pool = client_world
        pool.start()
        env.run(until=5)
        assert stats.issued == pytest.approx(500, rel=0.2)

    def test_late_response_after_timeout_not_double_counted(self, env, rngs):
        host = Host(env, "n0", 0)
        backend = EchoBackend(host, delay=10.0)  # beyond the 6 s timeout
        trace = SyntheticTrace(TraceConfig(n_files=10), rngs.stream("t"))
        stats = RequestStats()
        ClientPool(env, trace, DnsRouter([backend]), stats,
                   ClientConfig(request_rate=20.0), rngs.stream("c")).start()
        env.run(until=30)
        assert stats.succeeded == 0
        assert stats.outcomes[Outcome.REQUEST_TIMEOUT] > 100
        assert stats.completed <= stats.issued


class InstantBackend:
    """Accepts every request and answers it in the same instant."""

    def __init__(self, host):
        self.host = host
        self.listening = True

    def try_accept(self, req):
        req.respond()
        return True


class EventLog:
    """Kernel monitor listing each processed event's class and callbacks."""

    def __init__(self):
        self.events = []

    def on_schedule(self, depth):
        pass

    def on_event(self, event, callbacks):
        self.events.append((type(event).__name__, list(callbacks)))

    def on_event_done(self, event):
        pass


class TestRequestEvents:
    def test_answered_request_costs_four_events_and_no_process(self, env, rngs):
        trace = SyntheticTrace(TraceConfig(n_files=10), rngs.stream("t"))
        stats = RequestStats()
        config = ClientConfig(request_rate=0.01)  # one arrival in the window
        ClientPool(env, trace, DnsRouter([InstantBackend(Host(env, "n0", 0))]),
                   stats, config, rngs.stream("c")).start()
        env.run(until=0.0)  # the arrival process schedules its first arrival
        first = env.peek()
        log = EventLog()
        env.set_monitor(log)
        env.run(until=first + 10 * config.network_rtt)
        assert stats.issued == 1 and stats.succeeded == 1
        # next-arrival Timeout, RTT Timeout, response Event, AnyOf
        assert [(kind, [callback_owner(cb) for cb in cbs])
                for kind, cbs in log.events] == [
            ("Timeout", ["client-arrivals"]),
            ("Timeout", ["client-req"]),
            ("Event", ["AnyOf"]),
            ("AnyOf", ["client-req"]),
        ]
        steps = [cb for _, cbs in log.events[1:] for cb in cbs]
        assert not any(isinstance(getattr(cb, "__self__", None), Process)
                       for cb in steps)
