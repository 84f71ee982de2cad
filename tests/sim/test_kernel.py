"""Kernel scheduling semantics."""

import math

import pytest

from repro.sim.kernel import NORMAL, URGENT, Environment, SimulationError


class TestEvent:
    def test_starts_untriggered(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed
        assert ev.ok is None

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_succeed_then_value(self, env):
        ev = env.event().succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self, env):
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_callback_after_processing_runs_immediately(self, env):
        ev = env.event().succeed("v")
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]

    def test_unhandled_failure_raises_at_step(self, env):
        class Boom(Exception):
            pass

        env.event().fail(Boom())
        with pytest.raises(Boom):
            env.run()

    def test_defused_failure_is_silent(self, env):
        ev = env.event()
        ev.fail(RuntimeError("handled"))
        ev._defused = True
        env.run()  # must not raise

    def test_unhandled_process_failure_raises_and_run_resumes(self, env):
        class Boom(Exception):
            pass

        def crasher():
            yield env.timeout(1.0)
            raise Boom()

        later = []
        env.process(crasher())
        env.timeout(2.0).add_callback(lambda e: later.append(env.now))
        with pytest.raises(Boom):
            env.run(until=5.0)
        assert env.now == 1.0  # raised at the failing event, not at until
        env.run(until=5.0)  # the rest of the queue is intact
        assert later == [2.0] and env.now == 5.0


class TestClock:
    def test_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, env):
        env.timeout(3.5)
        env.run()
        assert env.now == 3.5

    def test_run_until_advances_even_without_events(self, env):
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_raises(self, env):
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=4.0)

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_event_at_until_fires_and_just_past_stays_queued(self, env):
        fired = []
        env.timeout(5.0).add_callback(lambda e: fired.append("at"))
        past = env.timeout(math.nextafter(5.0, math.inf))
        past.add_callback(lambda e: fired.append("past"))
        env.run(until=5.0)
        assert fired == ["at"] and env.now == 5.0
        assert not past.processed and env.peek() > 5.0
        env.run()
        assert fired == ["at", "past"]

    def test_events_beyond_until_stay_queued(self, env):
        seen = []
        t = env.timeout(10.0)
        t.add_callback(lambda e: seen.append(env.now))
        env.run(until=5.0)
        assert seen == []
        env.run(until=15.0)
        assert seen == [10.0]


class TestOrdering:
    def test_fifo_at_same_time(self, env):
        order = []
        for i in range(5):
            env.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_urgent_precedes_normal(self, env):
        order = []
        normal = env.event()
        normal.add_callback(lambda e: order.append("normal"))
        normal.succeed(priority=NORMAL)
        urgent = env.event()
        urgent.add_callback(lambda e: order.append("urgent"))
        urgent.succeed(priority=URGENT)
        env.run()
        assert order == ["urgent", "normal"]

    def test_time_order_dominates_priority(self, env):
        order = []
        late = env.event()
        late.add_callback(lambda e: order.append("late"))
        late.succeed(delay=2.0, priority=URGENT)
        early = env.event()
        early.add_callback(lambda e: order.append("early"))
        early.succeed(delay=1.0, priority=NORMAL)
        env.run()
        assert order == ["early", "late"]

    def test_deterministic_across_runs(self):
        def trace():
            env = Environment()
            log = []

            def proc(name, delay):
                while env.now < 5:
                    yield env.timeout(delay)
                    log.append((env.now, name))

            env.process(proc("a", 0.5))
            env.process(proc("b", 0.5))
            env.process(proc("c", 0.7))
            env.run(until=5)
            return log

        assert trace() == trace()

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.timeout(2.0)
        assert env.peek() == 2.0

    def test_double_schedule_rejected(self, env):
        ev = env.event().succeed()
        with pytest.raises(SimulationError):
            env.schedule(ev)


class TestAddCallbackSyncPath:
    """add_callback on an already-processed event runs the callback
    synchronously instead of queuing it."""

    def test_sync_callback_sees_failed_event(self, env):
        ev = env.event()
        ev.fail(RuntimeError("boom"))
        ev._defused = True
        env.run()
        seen = []
        ev.add_callback(seen.append)
        assert seen == [ev] and not ev.ok

    def test_sync_callback_exception_propagates_to_caller(self, env):
        ev = env.event().succeed()
        env.run()

        def bad(event):
            raise ValueError("from callback")

        with pytest.raises(ValueError, match="from callback"):
            ev.add_callback(bad)

    def test_sync_callback_not_queued_for_later_steps(self, env):
        ev = env.event().succeed("v")
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["v"]
        env.timeout(1.0)
        env.run()  # further stepping must not re-run the callback
        assert seen == ["v"]

    def test_pre_processing_callback_still_deferred(self, env):
        seen = []
        ev = env.event()
        ev.add_callback(lambda e: seen.append(env.now))
        ev.succeed(delay=2.0)
        assert seen == []  # not yet: the event is queued, not processed
        env.run()
        assert seen == [2.0]


class TestTiebreakPerturbation:
    """Seeded randomized tie-break among same-(time, priority) events:
    the racecheck sanitizer's scheduling knob."""

    def _same_instant_order(self, tiebreak_seed, n=10):
        env = Environment(tiebreak_seed=tiebreak_seed)
        order = []
        for i in range(n):
            env.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        env.run()
        return order

    def test_seed_stored_and_default_none(self):
        assert Environment().tiebreak_seed is None
        assert Environment(tiebreak_seed=7).tiebreak_seed == 7

    def test_heap_entries_gain_salt_only_when_seeded(self):
        plain = Environment()
        plain.timeout(1.0)
        assert len(plain._queue[0]) == 4
        salted = Environment(tiebreak_seed=1)
        salted.timeout(1.0)
        assert len(salted._queue[0]) == 5

    def test_unseeded_keeps_fifo(self):
        assert self._same_instant_order(None) == list(range(10))

    def test_same_seed_is_deterministic(self):
        for seed in (1, 2, 99):
            assert (self._same_instant_order(seed)
                    == self._same_instant_order(seed))

    def test_salt_permutes_same_instant_events(self):
        fifo = self._same_instant_order(None)
        permuted = [s for s in range(1, 8)
                    if self._same_instant_order(s) != fifo]
        assert permuted, "no seed in 1..7 permuted a 10-way tie"

    def test_every_event_still_fires_exactly_once(self):
        for seed in (None, 1, 2):
            assert sorted(self._same_instant_order(seed)) == list(range(10))

    def test_priority_still_dominates_salt(self):
        for seed in (1, 2, 3, 4, 5):
            env = Environment(tiebreak_seed=seed)
            order = []
            for i in range(4):
                ev = env.event()
                ev.add_callback(lambda e, i=i: order.append(("n", i)))
                ev.succeed(delay=1.0, priority=NORMAL)
            for i in range(4):
                ev = env.event()
                ev.add_callback(lambda e, i=i: order.append(("u", i)))
                ev.succeed(delay=1.0, priority=URGENT)
            env.run()
            kinds = [k for k, _ in order]
            assert kinds == ["u"] * 4 + ["n"] * 4

    def test_time_still_dominates_salt(self):
        for seed in (1, 2, 3):
            env = Environment(tiebreak_seed=seed)
            order = []
            for i, delay in enumerate((3.0, 1.0, 2.0)):
                env.timeout(delay).add_callback(
                    lambda e, i=i: order.append(i))
            env.run()
            assert order == [1, 2, 0]

    def test_peek_and_run_until_with_salt(self):
        env = Environment(tiebreak_seed=5)
        assert env.peek() == float("inf")
        env.timeout(2.0)
        env.timeout(4.0)
        assert env.peek() == 2.0
        env.run(until=3.0)
        assert env.now == 3.0
        assert env.peek() == 4.0

    def test_splitmix64_is_a_stable_bijective_mix(self):
        from repro.sim.kernel import _splitmix64

        outs = {_splitmix64(i) for i in range(1000)}
        assert len(outs) == 1000  # no collisions over a small domain
        assert _splitmix64(42) == _splitmix64(42)
        assert all(0 <= v < 2 ** 64 for v in outs)


def test_sim_slots_are_tuples():
    """A bare string in ``__slots__`` names one slot only by accident."""
    import inspect

    from repro.sim import conditions, kernel, process, store

    for module in (kernel, process, store, conditions):
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and "__slots__" in cls.__dict__:
                assert isinstance(cls.__dict__["__slots__"], tuple), cls
