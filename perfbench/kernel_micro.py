"""Model-free kernel microbenchmarks.

Each benchmark drives only the public ``repro.sim`` API — no PRESS, HA,
network or workload code — so its cost is the kernel's alone: the heap,
the process trampoline, store hand-offs and condition events.  These are
the four event kinds that dominate a COOP cell's callback time
(Timeout, StoreGet, Event and AnyOf).

Every benchmark returns host nanoseconds per operation, the median of
``repeats`` timed runs of ``n`` operations each.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict

from repro.sim import Environment, Store


def _timed(build: Callable[[Environment], None], n_ops: int) -> float:
    """Host ns per operation of one run: ``build`` spawns the processes."""
    env = Environment()
    build(env)
    t0 = time.perf_counter()
    env.run()
    return (time.perf_counter() - t0) * 1e9 / n_ops


def timeout_chain(n: int) -> float:
    """One process sleeping ``n`` times: schedule, pop and resume a Timeout."""
    def build(env: Environment) -> None:
        def sleeper():
            for _ in range(n):
                yield env.timeout(1.0)
        env.process(sleeper())
    return _timed(build, n)


def process_ping_pong(n: int) -> float:
    """Two processes waking each other through plain Events, ``2n`` resumes."""
    def build(env: Environment) -> None:
        wake = [None, None]

        def player(me: int):
            for _ in range(n):
                ev = env.event()
                wake[me] = ev
                other = wake[1 - me]
                if other is not None and not other.triggered:
                    other.succeed()
                yield ev
        env.process(player(0))
        env.process(player(1))
    return _timed(build, 2 * n)


def store_roundtrip(n: int) -> float:
    """A request/reply pair of bounded Stores: put, get, put back, get back."""
    def build(env: Environment) -> None:
        requests = Store(env, capacity=1)
        replies = Store(env, capacity=1)

        def client():
            for i in range(n):
                yield requests.put(i)
                yield replies.get()

        def server():
            for _ in range(n):
                item = yield requests.get()
                yield replies.put(item)
        env.process(client())
        env.process(server())
    return _timed(build, n)


def anyof_fan_in(n: int, width: int = 4) -> float:
    """A process waiting ``n`` times on the first of ``width`` timeouts."""
    def build(env: Environment) -> None:
        def waiter():
            for _ in range(n):
                yield env.any_of([env.timeout(1.0 + k) for k in range(width)])
        env.process(waiter())
    return _timed(build, n)


#: metric name -> (benchmark, operations per timed run)
MICROBENCHES: Dict[str, tuple] = {
    "kernel.timeout_ns": (timeout_chain, 40_000),
    "kernel.process_resume_ns": (process_ping_pong, 20_000),
    "kernel.store_roundtrip_ns": (store_roundtrip, 10_000),
    "kernel.anyof_ns": (anyof_fan_in, 8_000),
}


#: timed runs per microbenchmark; the median is reported
REPEATS = 5


def run_all(scale: float = 1.0) -> Dict[str, float]:
    """Median ns/op of every microbenchmark (``scale`` shrinks ``n``)."""
    out: Dict[str, float] = {}
    for name, (bench, n) in MICROBENCHES.items():
        n = max(int(n * scale), 10)
        samples = []
        for _ in range(REPEATS):
            gc.collect()
            samples.append(bench(n))
        out[name] = statistics.median(samples)
    return out
