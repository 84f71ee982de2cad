"""Differential test: the kernel's same-instant lanes against one heap.

``Environment`` serves events due now from two FIFO lanes and skips
withdrawn timeouts lazily, compacting the heap once they are the
majority.  Driving it and :class:`~tests.sim.reference_kernel.HeapEnvironment`
with the same random program must process the same events (identified
by their sequence numbers) in the same order, report the same ``peek``
and counts at every ``run(until)`` split, and end on the same clock.

The programs mix zero, sub-ulp, small and random delays at both
priorities, defused failures, spawns, interrupts, and withdrawn timeouts
nobody waits on, in batches large enough to trigger compaction.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import NORMAL, URGENT, Environment
from repro.sim.process import Interrupt
from tests.sim.reference_kernel import HeapEnvironment

#: far below the clock's resolution at LATE, a real delay at 0
TINY = 2.0 ** -40
#: a start time whose ulp (2**-22) swallows TINY
LATE = 2.0 ** 30

DELAY = st.one_of(st.sampled_from((0.0, 0.0, TINY, 0.5, 1.0, 1.0)),
                  st.floats(min_value=0.0, max_value=2.0))
PRIORITY = st.sampled_from((URGENT, NORMAL))
STEP = st.one_of(
    st.tuples(st.just("sleep"), DELAY),
    # (delay, priority, succeed rather than fail, wait on it)
    st.tuples(st.just("fire"), DELAY, PRIORITY, st.booleans(), st.booleans()),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    # a timeout nobody waits on, withdrawn later by "cancel"
    st.tuples(st.just("keep"), DELAY),
    # withdraw a fresh timeout, or the oldest kept one (which may have fired)
    st.tuples(st.just("cancel"), DELAY, st.booleans()),
    # timeouts created together, the marked ones withdrawn at once
    st.tuples(st.just("batch"), st.lists(st.tuples(DELAY, st.booleans()),
                                         min_size=1, max_size=12)),
)
SCRIPT = st.lists(STEP, max_size=8)
PROGRAM = st.fixed_dictionaries({
    "start": st.sampled_from((0.0, LATE)),
    "scripts": st.lists(SCRIPT, min_size=1, max_size=4),
    "splits": st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.0)), max_size=3),
})


class Boom(Exception):
    pass


class _Recorder:
    """Kernel monitor logging every processed event as (clock, sequence)."""

    def __init__(self) -> None:
        self.seq_of: dict = {}
        self.log: list = []

    def on_schedule(self, depth: int) -> None:
        pass

    def on_event(self, event, callbacks) -> None:
        self.log.append((event.env.now, self.seq_of[event]))

    def on_event_done(self, event) -> None:
        pass


def _numbered(kernel):
    """``kernel`` with each scheduled event's sequence number recorded."""

    class Numbered(kernel):
        __slots__ = ()

        def schedule(self, event, delay=0.0, priority=NORMAL):
            super().schedule(event, delay, priority)
            self._monitor.seq_of[event] = self._seq

    return Numbered


def _drive(kernel, program, tiebreak_seed=None) -> dict:
    recorder = _Recorder()
    env = _numbered(kernel)(initial_time=program["start"], monitor=recorder,
                            tiebreak_seed=tiebreak_seed)
    scripts = program["scripts"]
    procs: list = []
    kept: list = []

    def body(script, may_spawn):
        for step in script:
            kind = step[0]
            try:
                if kind == "sleep":
                    yield env.timeout(step[1])
                elif kind == "fire":
                    _, delay, priority, ok, wait = step
                    ev = env.event()
                    if ok:
                        ev.succeed(delay=delay, priority=priority)
                    else:
                        ev.fail(Boom(), delay=delay, priority=priority)
                        ev._defused = True
                    if wait:
                        yield ev
                elif kind == "spawn":
                    if may_spawn:
                        procs.append(env.process(body(scripts[step[1] % len(scripts)], False)))
                elif kind == "interrupt":
                    procs[step[1] % len(procs)].interrupt("poke")
                elif kind == "keep":
                    kept.append(env.timeout(step[1]))
                elif kind == "cancel":
                    _, delay, fresh = step
                    (env.timeout(delay) if fresh or not kept else kept.pop(0)).cancel()
                elif kind == "batch":
                    batch = [(env.timeout(delay), withdraw) for delay, withdraw in step[1]]
                    for timeout, withdraw in batch:
                        if withdraw:
                            timeout.cancel()
            except (Boom, Interrupt):
                pass

    for script in scripts:
        procs.append(env.process(body(script, True)))
    checkpoints = []
    for until in [program["start"] + s for s in sorted(program["splits"])] + [None]:
        for _ in range(20):  # an uncaught Interrupt propagates; go on after it
            try:
                env.run(until)
                break
            except Interrupt:
                checkpoints.append(("raised", env.now))
        checkpoints.append((env.now, env.peek(), env.processed_count, env.scheduled_count))
    return {"order": recorder.log, "checkpoints": checkpoints}


@settings(max_examples=300, deadline=None)
@given(program=PROGRAM)
@example(program={  # a heap entry at (now, NORMAL) precedes the NORMAL lane
    "start": 0.0, "splits": [],
    "scripts": [[("sleep", 1.0), ("fire", 0.0, NORMAL, True, False)],
                [("sleep", 1.0)]]})
@example(program={  # a sub-ulp delay at a large clock lands in the lane
    "start": LATE, "splits": [],
    "scripts": [[("fire", 0.0, NORMAL, True, False), ("fire", TINY, NORMAL, True, False),
                 ("fire", 0.0, NORMAL, True, False)]]})
@example(program={  # compaction must rebuild the heap
    "start": 0.0, "splits": [1.0],
    "scripts": [[("batch", [(0.1, True), (0.9, False), (0.2, False), (0.8, False),
                            (0.7, False), (0.3, False), (0.4, False)]),
                 ("batch", [(1.5, True), (1.6, True), (1.7, True), (1.8, True),
                            (1.9, True), (2.0, True), (2.1, True), (2.2, True)])]]})
def test_lanes_and_withdrawal_keep_the_heap_order(program):
    assert _drive(Environment, program) == _drive(HeapEnvironment, program)


@settings(max_examples=50, deadline=None)
@given(program=PROGRAM, tiebreak_seed=st.integers(0, 2 ** 32))
def test_tiebreak_mode_matches_the_salted_heap(program, tiebreak_seed):
    """With a tie-break seed every event goes through the salted heap."""
    assert (_drive(Environment, program, tiebreak_seed)
            == _drive(HeapEnvironment, program, tiebreak_seed))


def test_tiebreak_mode_leaves_the_lanes_empty():
    env = Environment(tiebreak_seed=9)
    env.event().succeed(priority=URGENT)
    env.timeout(0.0)
    assert not env._urgent and not env._normal and len(env._queue) == 2
