"""Differential test: ``Store``'s direct hand-off against ``_reconcile``.

``Store.put``/``get``/``put_nowait``/``force_put`` hand an item over
directly when nothing is queued ahead, instead of calling ``_reconcile``.
Driving the real store and :class:`~tests.sim.reference_store.ReconcileStore`
through the same interleavings must process the same events (time, kind,
value), schedule the same number, and leave the same items and backlog.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.store import Store, StoreGet, StorePut
from tests.sim.reference_store import ReconcileStore

OPS = ("put", "put_wait", "get", "get_wait", "get_timeout", "try_put",
       "get_nowait", "cancel", "force_put", "force_put_front", "clear",
       "release_putters", "kill_next")

#: one process's script: (simulated seconds to sleep first, operation)
SCRIPT = st.lists(st.tuples(st.sampled_from((0.0, 0.0, 0.5, 1.0)),
                            st.sampled_from(OPS)), max_size=12)


class _Recorder:
    """Kernel monitor logging every processed event as (time, kind, value)."""

    def __init__(self) -> None:
        self.env = None
        self.log: list = []

    def on_schedule(self, depth: int) -> None:
        pass

    def on_event(self, event, callbacks) -> None:
        value = event._value if isinstance(event, (StorePut, StoreGet)) else None
        self.log.append((self.env.now, type(event).__name__, value))

    def on_event_done(self, event) -> None:
        pass


def _assert_reconciled(store) -> None:
    """The state the direct hand-off relies on between operations."""
    assert not (store._put_waiters and len(store.items) < store.capacity)
    assert not (store._get_waiters and store.items)


def _drive(store_cls, capacity: int, scripts):
    recorder = _Recorder()
    env = Environment(monitor=recorder)
    recorder.env = env
    store = store_cls(env, capacity=capacity)
    items = itertools.count()
    procs: list = []

    def body(index, script):
        pending = []
        for delay, op in script:
            if delay:
                yield env.timeout(delay)
            if op == "put":
                pending.append(store.put(next(items)))
            elif op == "put_wait":
                yield store.put(next(items))
            elif op == "get":
                pending.append(store.get())
            elif op == "get_wait":
                yield store.get()
            elif op == "get_timeout":
                get = store.get()
                yield env.any_of([get, env.timeout(0.5)])
                if not get.triggered:
                    get.cancel()
            elif op == "try_put":
                store.try_put(next(items))
            elif op == "get_nowait":
                if store.items:
                    store.get_nowait()
            elif op == "cancel":
                if pending:
                    pending.pop().cancel()
            elif op == "force_put":
                store.force_put(next(items))
            elif op == "force_put_front":
                store.force_put(next(items), front=True)
            elif op == "clear":
                store.clear()
            elif op == "release_putters":
                store.release_putters()
            elif op == "kill_next":
                procs[(index + 1) % len(procs)].kill()
            _assert_reconciled(store)

    for index, script in enumerate(scripts):
        procs.append(env.process(body(index, script)))
    env.run()
    return recorder.log, env.scheduled_count, list(store.items), store.backlog


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=4),
       scripts=st.lists(SCRIPT, min_size=2, max_size=4))
@example(capacity=1,  # a blocked producer released by a consumer
         scripts=[[(0.0, "put_wait"), (0.0, "put_wait"), (0.0, "put_wait")],
                  [(1.0, "get_wait"), (0.5, "get_wait"), (0.0, "get")]])
@example(capacity=2,  # getters queued on an empty store, then fed
         scripts=[[(0.0, "get"), (0.0, "get_wait"), (0.0, "get_timeout")],
                  [(0.5, "put"), (0.0, "force_put_front"), (0.0, "put_wait")]])
def test_store_matches_reconcile_reference(capacity, scripts):
    real = _drive(Store, capacity, scripts)
    reference = _drive(ReconcileStore, capacity, scripts)
    assert real == reference
