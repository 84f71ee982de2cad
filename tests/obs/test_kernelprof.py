"""Kernel profiling hooks and the Telemetry bundle."""

import pytest

from repro.obs.kernelprof import KernelProfiler, callback_owner
from repro.faults.injector import FaultInjector
from repro.faults.types import FaultKind
from repro.hardware.host import Host
from repro.obs.telemetry import Telemetry
from repro.sim.kernel import Environment


def _ticker(env, period):
    while True:
        yield env.timeout(period)


class TestKernelProfiler:
    def test_counts_events_and_owners(self):
        env = Environment()
        profiler = KernelProfiler()
        env.set_monitor(profiler)
        env.process(_ticker(env, 1.0), name="tick-a")
        env.process(_ticker(env, 2.0), name="tick-b")
        env.run(until=10.0)
        assert profiler.events_processed > 0
        assert profiler.events_scheduled >= profiler.events_processed
        assert profiler.queue_high_water >= 1
        # Each process resumption is attributed to the Process name
        # (the start bootstrap plus one per expired timeout).
        assert profiler.by_owner["tick-a"] == 11
        assert profiler.by_owner["tick-b"] == 6

    def test_same_run_with_and_without_monitor_is_identical(self):
        def run(monitor):
            env = Environment(monitor=monitor)
            seen = []

            def recorder():
                while True:
                    yield env.timeout(0.5)
                    seen.append(env.now)

            env.process(recorder(), name="rec")
            env.run(until=5.0)
            return seen

        assert run(None) == run(KernelProfiler())

    def test_detach_restores_fast_path(self):
        env = Environment()
        profiler = KernelProfiler()
        env.set_monitor(profiler)
        env.process(_ticker(env, 1.0), name="t")
        env.run(until=3.0)
        counted = profiler.events_processed
        env.set_monitor(None)
        assert env.monitor is None
        env.run(until=10.0)
        assert profiler.events_processed == counted

    def test_top_and_report(self):
        profiler = KernelProfiler()
        profiler.by_owner.update({"a": 5, "b": 9, "c": 1})
        assert profiler.top(2) == [("b", 9), ("a", 5)]
        text = profiler.report(top_n=2)
        assert "events processed" in text and "b" in text

    def test_uncollected_events_counted(self):
        profiler = KernelProfiler()
        profiler.on_event(object(), [])
        assert profiler.by_owner == {"(uncollected)": 1}

    def test_snapshot_is_plain_data(self):
        profiler = KernelProfiler()
        profiler.on_schedule(3)
        snap = profiler.snapshot()
        assert snap["events_scheduled"] == 1
        assert snap["queue_high_water"] == 3


class TestCallbackOwner:
    def test_bound_method_uses_owner_name(self):
        class Proc:
            name = "n0.main"

            def resume(self, ev):
                pass

        assert callback_owner(Proc().resume) == "n0.main"

    def test_bound_method_without_name_uses_type(self):
        class Thing:
            def cb(self, ev):
                pass

        assert callback_owner(Thing().cb) == "Thing"

    def test_plain_function_uses_qualname(self):
        def handler(ev):
            pass

        assert "handler" in callback_owner(handler)


class TestTelemetry:
    def test_enabled_bundle(self):
        tm = Telemetry(profile_time=True)
        env = Environment()
        tm.attach(env)
        assert env.monitor is tm.profiler
        env.process(_ticker(env, 1.0), name="t")
        env.run(until=3.0)
        assert tm.profiler.events_processed > 0
        assert tm.tracer.emit("server_start").time == 3.0

    def test_disabled_bundle_is_inert(self):
        tm = Telemetry.disabled()
        env = Environment()
        tm.attach(env)
        assert env.monitor is None
        assert tm.tracer.emit("server_start") is None
        tm.metrics.counter("x").inc()
        assert tm.metrics.snapshot() == []
        assert tm.profiler is None

    def test_profiler_requires_enabled(self):
        assert Telemetry(enabled=False, profile_time=True).profiler is None

    def test_marks_go_into_the_bundle_tracer(self):
        tm = Telemetry()
        tm.tracer.mark(1.0, "detected", ("heartbeat", 0, 1))
        assert len(tm.tracer) == 1
        assert tm.tracer.first("detected").data["mechanism"] == "heartbeat"
        assert tm.tracer.markers.first("detected") == 1.0

    def test_components_without_a_bundle_share_no_markers(self):
        """Each component built without telemetry keeps its own markers:
        a shared null bundle would collect every such component's."""
        env = Environment()
        hosts = {"n1": Host(env, "n1", 1)}
        a, b = FaultInjector(env, hosts), FaultInjector(env, hosts)
        a.repair(a.inject(FaultKind.NODE_CRASH, "n1"))
        assert [label for _, label, _ in a._tracer.markers.entries] == [
            "fault_injected", "fault_repaired"]
        assert b._tracer.markers.entries == []
        assert Telemetry.disabled().tracer.markers.entries == []


class TestMonitorLifecycle:
    """Install/uninstall/replace semantics of the kernel monitor hook."""

    def test_on_event_brackets_callbacks(self):
        log = []

        class OrderMonitor:
            def on_schedule(self, depth):
                pass

            def on_event(self, event, callbacks):
                log.append("event")

            def on_event_done(self, event):
                log.append("done")

        env = Environment(monitor=OrderMonitor())

        def proc():
            log.append("cb")
            yield env.timeout(1.0)
            log.append("cb")

        env.process(proc(), name="p")
        env.run(until=5.0)
        # Every delivered event is exactly event -> [callbacks...] -> done.
        state = "done"
        for entry in log:
            if entry == "event":
                assert state == "done"
                state = "event"
            elif entry == "cb":
                assert state == "event"
            else:  # done
                assert state == "event"
                state = "done"
        assert state == "done"
        assert log.count("event") == log.count("done") > 0
        assert log.count("cb") == 2

    def test_replace_monitor_mid_run_splits_counts(self):
        env = Environment()
        first, second = KernelProfiler(), KernelProfiler()
        env.set_monitor(first)
        env.process(_ticker(env, 1.0), name="t")
        env.run(until=3.0)
        env.set_monitor(second)
        env.run(until=6.0)
        assert first.events_processed > 0
        assert second.events_processed > 0
        # The kernel's own counter saw every event both profilers saw.
        assert env.processed_count == \
            first.events_processed + second.events_processed

    def test_processed_count_without_monitor(self):
        env = Environment()
        assert env.processed_count == 0
        env.process(_ticker(env, 1.0), name="t")
        env.run(until=5.0)
        assert env.monitor is None
        assert env.processed_count > 0
        assert env.scheduled_count >= env.processed_count

    def test_counts_agree_with_profiler(self):
        env = Environment()
        profiler = KernelProfiler()
        env.set_monitor(profiler)
        env.process(_ticker(env, 0.5), name="t")
        env.run(until=4.0)
        assert env.processed_count == profiler.events_processed
        assert env.scheduled_count == profiler.events_scheduled


class TestProcessType:
    def test_collapses_digit_runs(self):
        from repro.obs.kernelprof import process_type

        assert process_type("n0.main") == "n*.main"
        assert process_type("n17.main") == "n*.main"
        assert process_type("client42") == "client*"
        assert process_type("fe") == "fe"


class TestSubsystemAttribution:
    def test_subsystem_of_path(self):
        from repro.obs.kernelprof import subsystem_of_path

        assert subsystem_of_path("/x/src/repro/press/server.py") == "press"
        assert subsystem_of_path("/x/src/repro/sim/kernel.py") == "kernel"
        assert subsystem_of_path("/x/src/repro/ha/membership.py") == "ha"
        assert subsystem_of_path("C:\\x\\repro\\net\\link.py") == "net"
        assert subsystem_of_path("/x/src/repro/cli.py") == "cli"
        assert subsystem_of_path("/somewhere/else/mod.py") == "other"

    def test_callback_subsystem_prefers_generator_body(self):
        from repro.obs.kernelprof import callback_subsystem

        # A Process resumption is a bound method living in sim/process.py;
        # attribution must follow the *generator body* instead.
        src = "def g():\n    yield\n"
        ns = {}
        exec(compile(src, "/x/src/repro/press/server.py", "exec"), ns)

        class FakeProc:
            name = "n0.main"

            def __init__(self):
                self._generator = ns["g"]()

            def resume(self, ev):
                pass

        assert callback_subsystem(FakeProc().resume) == "press"

    def test_callback_subsystem_follows_yield_from(self):
        from repro.obs.kernelprof import TimingProfiler, callback_subsystem

        # A press process that delegates to a net generator with
        # `yield from` (a send loop running Endpoint.send) is charged to
        # net while the delegate is suspended, to press otherwise.
        ns = {}
        exec(compile("def send(env):\n    yield env.timeout(1.0)\n",
                     "/x/src/repro/net/transport.py", "exec"), ns)
        exec(compile("def loop(env, send):\n"
                     "    while True:\n"
                     "        yield from send(env)\n"
                     "        yield env.timeout(0.5)\n",
                     "/x/src/repro/press/server.py", "exec"), ns)
        env = Environment()
        profiler = TimingProfiler()
        env.set_monitor(profiler)
        proc = env.process(ns["loop"](env, ns["send"]), name="n0.snd1")
        env.run(until=0.25)
        assert callback_subsystem(proc._resume_cb) == "net"
        env.run(until=1.25)
        assert callback_subsystem(proc._resume_cb) == "press"
        env.run(until=10.0)
        assert profiler.count_by_kind["Timeout"] > 0
        assert "net" in profiler.time_by_subsystem
        assert "press" in profiler.time_by_subsystem

    def test_callback_subsystem_plain_function(self):
        from repro.obs.kernelprof import callback_subsystem

        def handler(ev):
            pass

        assert callback_subsystem(handler) == "other"  # test file path

    def test_callback_subsystem_uninspectable(self):
        from repro.obs.kernelprof import callback_subsystem

        assert callback_subsystem(object()) == "other"


class TestTimingProfiler:
    def test_accumulates_time_tables(self):
        from repro.obs.kernelprof import TimingProfiler

        env = Environment()
        profiler = TimingProfiler()
        env.set_monitor(profiler)
        env.process(_ticker(env, 1.0), name="n0.main")
        env.process(_ticker(env, 1.0), name="n1.main")
        env.run(until=10.0)
        assert profiler.wall_seconds > 0.0
        assert "Timeout" in profiler.time_by_kind
        assert profiler.count_by_kind["Timeout"] > 0
        # Instances collapse into one process type.
        assert "n*.main" in profiler.time_by_type
        assert "n0.main" not in profiler.time_by_type
        # The sum over any one table equals total callback time.
        for table in (profiler.time_by_kind, profiler.time_by_type,
                      profiler.time_by_subsystem):
            assert sum(table.values()) == pytest.approx(profiler.wall_seconds)

    def test_uncollected_event_charged_to_kernel(self):
        from repro.obs.kernelprof import TimingProfiler

        profiler = TimingProfiler()
        profiler.on_event(object(), [])
        profiler.on_event_done(object())
        assert set(profiler.time_by_type) == {"(uncollected)"}
        assert set(profiler.time_by_subsystem) == {"kernel"}
        assert profiler.count_by_kind == {"object": 1}

    def test_snapshot_and_report_extend_base(self):
        from repro.obs.kernelprof import TimingProfiler

        env = Environment()
        profiler = TimingProfiler()
        env.set_monitor(profiler)
        env.process(_ticker(env, 1.0), name="t")
        env.run(until=3.0)
        snap = profiler.snapshot()
        assert snap["events_processed"] == profiler.events_processed
        assert snap["wall_seconds"] == profiler.wall_seconds
        assert set(snap["time_by_kind"]) == set(profiler.time_by_kind)
        text = profiler.report(top_n=3)
        assert "wall in callbacks" in text
        assert "subsystem" in text
        assert "event kind" in text

    def test_profile_time_upgrades_telemetry_profiler(self):
        from repro.obs.kernelprof import TimingProfiler

        assert isinstance(Telemetry(profile_time=True).profiler, TimingProfiler)
        assert Telemetry().profiler is None
        assert Telemetry(enabled=False, profile_time=True).profiler is None

    def test_timing_profiler_does_not_perturb_results(self):
        from repro.obs.kernelprof import TimingProfiler

        def run(monitor):
            env = Environment(monitor=monitor)
            seen = []

            def recorder():
                while True:
                    yield env.timeout(0.5)
                    seen.append(env.now)

            env.process(recorder(), name="rec")
            env.run(until=5.0)
            return seen

        assert run(None) == run(TimingProfiler())

    def test_ranks_an_injected_linear_scan_first(self):
        # An injected hot-path regression: one process type does an O(n)
        # list membership test on every event it handles, and the
        # profiler must rank it first by wall time.
        from repro.obs.kernelprof import TimingProfiler

        table = list(range(20_000))
        env = Environment()
        profiler = TimingProfiler()
        env.set_monitor(profiler)

        def scan():
            while True:
                yield env.timeout(1.0)
                assert -1 not in table

        for i in range(4):
            env.process(_ticker(env, 1.0), name=f"n{i}.main")
        env.process(scan(), name="n4.scan")
        env.run(until=200.0)
        (first, scan_s), (second, main_s) = sorted(
            profiler.time_by_type.items(), key=lambda kv: -kv[1])[:2]
        assert (first, second) == ("n*.scan", "n*.main")
        assert scan_s > 5 * main_s
