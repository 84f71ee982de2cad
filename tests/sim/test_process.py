"""Process coroutines: lifecycle, interrupts, ownership (freeze/crash)."""

import pytest

from repro.sim.kernel import SimulationError
from repro.sim.process import KILLED, Interrupt, ProcessOwner
from repro.sim.store import Store


def ticker(env, log, period=1.0):
    while True:
        yield env.timeout(period)
        log.append(env.now)


class TestLifecycle:
    def test_return_value_triggers_process_event(self, env):
        def body():
            yield env.timeout(1.0)
            return "done"

        proc = env.process(body())
        env.run()
        assert proc.triggered and proc.value == "done"

    def test_process_waits_on_process(self, env):
        def child():
            yield env.timeout(2.0)
            return 7

        result = []

        def parent():
            value = yield env.process(child())
            result.append((env.now, value))

        env.process(parent())
        env.run()
        assert result == [(2.0, 7)]

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yielding_non_event_raises(self, env):
        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_fails_process_event(self, env):
        class Boom(Exception):
            pass

        def body():
            yield env.timeout(1.0)
            raise Boom()

        def watcher():
            try:
                yield proc
            except Boom:
                caught.append(True)

        caught = []
        proc = env.process(body())
        env.process(watcher())
        env.run()
        assert caught == [True]

    def test_is_alive(self, env):
        def body():
            yield env.timeout(1.0)

        proc = env.process(body())
        assert proc.is_alive
        env.run()
        assert not proc.is_alive


class TestKill:
    def test_kill_stops_execution(self, env):
        log = []
        proc = env.process(ticker(env, log))
        env.run(until=2.5)
        proc.kill()
        env.run(until=10)
        assert log == [1.0, 2.0]

    def test_kill_triggers_with_sentinel(self, env):
        proc = env.process(ticker(env, []))
        env.run(until=0.5)
        proc.kill()
        assert proc.triggered and proc.value is KILLED

    def test_kill_cancels_queued_store_get(self, env):
        store = Store(env)

        def getter():
            yield store.get()

        proc = env.process(getter())
        env.run(until=1)
        proc.kill()
        store.put("x")
        env.run(until=2)
        assert store.level == 1  # item not consumed by the dead process

    def test_kill_idempotent(self, env):
        proc = env.process(ticker(env, []))
        env.run(until=0.5)
        proc.kill()
        proc.kill()


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def body():
            try:
                yield env.timeout(100)
            except Interrupt as i:
                causes.append((env.now, i.cause))

        proc = env.process(body())
        env.run(until=3)
        proc.interrupt("stop now")
        env.run(until=4)
        assert causes == [(3.0, "stop now")]

    def test_interrupt_dead_process_is_noop(self, env):
        def body():
            yield env.timeout(1)

        proc = env.process(body())
        env.run()
        proc.interrupt("late")  # must not raise
        env.run()

    def test_interrupted_wait_event_is_detached(self, env):
        store = Store(env)

        def body():
            try:
                yield store.get()
            except Interrupt:
                yield env.timeout(50)

        proc = env.process(body())
        env.run(until=1)
        proc.interrupt()
        env.run(until=2)
        store.put("x")
        env.run(until=3)
        assert store.level == 1  # the cancelled get never consumed it
        assert proc.is_alive


class TestOwnership:
    def test_freeze_parks_and_thaw_replays(self, env):
        owner = ProcessOwner()
        log = []
        env.process(ticker(env, log), owner=owner)
        env.run(until=2.5)
        owner.freeze()
        env.run(until=7.5)
        assert log == [1.0, 2.0]
        owner.thaw(env)
        env.run(until=9.9)
        assert log == [1.0, 2.0, 7.5, 8.5, 9.5]

    def test_freeze_preserves_state(self, env):
        owner = ProcessOwner()
        values = []

        def counter():
            n = 0
            while True:
                yield env.timeout(1.0)
                n += 1
                values.append(n)

        env.process(counter(), owner=owner)
        env.run(until=3.5)
        owner.freeze()
        env.run(until=10)
        owner.thaw(env)
        env.run(until=10.5)
        assert values == [1, 2, 3, 4]  # resumed exactly where it left off

    def test_crash_kills_all(self, env):
        owner = ProcessOwner()
        log = []
        env.process(ticker(env, log), owner=owner)
        env.process(ticker(env, log, 0.7), owner=owner)
        env.run(until=1.5)
        owner.crash()
        env.run(until=10)
        assert max(log) <= 1.5
        assert not owner.processes

    def test_crash_drops_parked_deliveries(self, env):
        owner = ProcessOwner()
        log = []
        env.process(ticker(env, log), owner=owner)
        env.run(until=1.5)
        owner.freeze()
        env.run(until=5)
        owner.crash()
        owner.revive()
        env.run(until=10)
        assert log == [1.0]

    def test_freeze_crashed_owner_rejected(self, env):
        owner = ProcessOwner()
        owner.crash()
        with pytest.raises(SimulationError):
            owner.freeze()

    def test_spawn_while_frozen_parks_bootstrap(self, env):
        owner = ProcessOwner()
        owner.freeze()
        log = []
        env.process(ticker(env, log), owner=owner)
        env.run(until=5)
        assert log == []
        owner.thaw(env)
        env.run(until=7.5)
        assert log == [6.0, 7.0]

    def test_refreeze_before_replay(self, env):
        owner = ProcessOwner()
        log = []
        env.process(ticker(env, log), owner=owner)
        env.run(until=1.5)
        owner.freeze()
        env.run(until=3)
        owner.thaw(env)
        owner.freeze()  # immediately refreeze: replay must re-park
        env.run(until=6)
        assert log == [1.0]
        owner.thaw(env)
        env.run(until=8)
        assert len(log) > 1


class TestTraceContext:
    """A process publishes its trace context to children it spawns, but
    only while a span recorder is bound."""

    def _child_ctx(self, env):
        children = []

        def child():
            yield env.timeout(1.0)

        def parent():
            yield env.timeout(1.0)
            children.append(env.process(child()))

        env.process(parent(), ctx="request-span")
        env.run()
        return children[0].ctx

    def test_child_inherits_ctx_while_recorder_bound(self, env):
        env.bind_spans(object())
        assert self._child_ctx(env) == "request-span"

    def test_ctx_not_published_without_recorder(self, env):
        assert self._child_ctx(env) is None
