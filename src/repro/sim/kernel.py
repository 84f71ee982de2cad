"""Event loop and primitive events.

Every scheduled event gets a sequence number, and events fire in
``(time, priority, sequence)`` order: two events scheduled for the same
instant at the same priority fire in the order they were scheduled, on
every run.  Determinism matters here because availability experiments
are compared across system versions; run-to-run jitter would show up as
noise in the fitted fault templates.

Two structures hold that order.  An event scheduled for a later instant
goes into a binary heap of ``(time, priority, sequence, event)`` tuples.
An event scheduled for the current instant (most of them: process
bootstraps, Store hand-offs, condition firings) goes into one of two
FIFO lanes, URGENT or NORMAL, with no heap push or pop.  Each heap entry
at ``now`` was pushed before the clock reached ``now``, so it precedes
everything in the lane of its priority; ``run`` serves heap-at-now
URGENT, the URGENT lane, heap-at-now NORMAL, the NORMAL lane, and only
then advances the clock.  The order is exactly the heap-only order.

A :class:`Timeout` nobody waits on any more (a deadline whose
:class:`~repro.sim.conditions.AnyOf` already fired on its other event)
can be withdrawn with :meth:`Timeout.cancel`: it never fires and is not
counted as processed.  Its entry stays queued until it surfaces and is
skipped, and once withdrawn entries are the majority of the queue they
are filtered out and the heap is rebuilt, which keeps the pop order of
the live entries.

The FIFO tie-break among same-``(time, priority)`` events is a
*convention*, not a causal necessity — and ``repro sanitize --vary
tiebreak`` exploits exactly that: constructing the Environment with a
``tiebreak_seed`` replaces the FIFO tie-break with a seeded
pseudo-random permutation (a splitmix64 salt keyed on the sequence
number), which perturbs the order of *causally unordered* same-instant
events while preserving every happens-before edge (time, priority, and
"scheduled by an already-processed callback" all still order events).
In that mode every event goes through the salted heap and the lanes
stay empty.  Two perturbed runs that agree on all observable outputs
certify that no simulated component depends on the accidental FIFO
order.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Optional


def _splitmix64(x: int) -> int:
    """Deterministic 64-bit mix (splitmix64 finalizer); pure arithmetic,
    independent of PYTHONHASHSEED."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


_INF = float("inf")

#: Scheduling priorities.  URGENT events at a given time fire before NORMAL
#: ones; interrupts use URGENT so they preempt ordinary deliveries.
URGENT = 0
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, running a stopped env...)."""


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    schedules it, and when the scheduler processes it, all registered
    callbacks run with the event as argument.  Events are single-use.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "_processed", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._processed = False
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if untriggered."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("value of untriggered event")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, delay, priority)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay, priority)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously).
        """
        if self._processed:
            fn(self)
        elif self.callbacks is None:
            raise SimulationError(f"{self!r} was withdrawn and will never fire")
        else:
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is not None and fn in self.callbacks:
            self.callbacks.remove(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # Born triggered.  The slots are filled here rather than through
        # Event.__init__, one call fewer on the kernel's commonest event.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = False
        self._processed = False
        self._defused = False
        self.delay = delay
        env.schedule(self, delay)

    def cancel(self) -> None:
        """Withdraw the timeout from the schedule: it never fires.

        For a deadline nobody waits on any more, such as the timeout of
        an AnyOf that already fired on its other event; any callbacks
        still registered are dropped.  A withdrawn timeout is not counted
        as processed, and yielding on it or adding a callback to it
        raises :class:`SimulationError`.  Does nothing once the timeout
        has fired or been withdrawn.
        """
        if self.callbacks is not None:  # neither fired nor withdrawn
            self.callbacks = None
            self.env._withdraw()


class Environment:
    """The simulation clock and event queue.

    Typical use::

        env = Environment()
        env.process(my_generator(env))
        env.run(until=600.0)
    """

    __slots__ = ("_now", "_queue", "_urgent", "_normal", "_withdrawn",
                 "_seq", "_processed", "_tiebreak_seed", "_monitor",
                 "_spans")

    def __init__(self, initial_time: float = 0.0, monitor=None,
                 tiebreak_seed: Optional[int] = None):
        self._now = float(initial_time)
        self._queue: list = []
        # Same-instant lanes (events due at `now`), one per priority.
        self._urgent: deque = deque()
        self._normal: deque = deque()
        # Withdrawn timeouts still sitting in the heap or a lane.
        self._withdrawn = 0
        self._seq = 0
        self._processed = 0
        # Schedule-perturbation mode (repro sanitize --vary tiebreak).  None
        # is the production FIFO tie-break: lanes for the current instant
        # and 4-tuples in the heap.  With a seed, every event goes to the
        # heap, and same-(time, priority) events are ordered by a seeded
        # salt instead of arrival order (5-tuples, with the sequence
        # number after the salt keeping the order total and run-to-run
        # deterministic for a given seed).  The mode is fixed at
        # construction so the two entry shapes never mix in one heap.
        self._tiebreak_seed = tiebreak_seed
        # Opt-in profiling hook (see repro.obs.kernelprof).  The fast path
        # pays one `is not None` check per scheduled and per processed
        # event; with no monitor attached no hook is called.
        self._monitor = monitor
        # The world's SpanRecorder when request tracing is on (bound by
        # Telemetry.attach), else None; see repro.obs.spans.
        self._spans = None

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def scheduled_count(self) -> int:
        """Events scheduled since construction (monotone, monitor-free)."""
        return self._seq

    @property
    def processed_count(self) -> int:
        """Events processed since construction (monotone, monitor-free).

        Withdrawn timeouts never fire and are not counted; they stay in
        :attr:`scheduled_count`.
        """
        return self._processed

    @property
    def monitor(self):
        """The attached kernel monitor (profiler), or None."""
        return self._monitor

    @property
    def tiebreak_seed(self) -> Optional[int]:
        """Seed of the perturbed same-instant tie-break, or None (FIFO)."""
        return self._tiebreak_seed

    def set_monitor(self, monitor) -> None:
        """Attach an object with ``on_schedule(depth)``/``on_event(event,
        callbacks)`` hooks; pass None to detach and restore the fast path."""
        self._monitor = monitor

    @property
    def spans(self):
        """The bound :class:`~repro.obs.spans.SpanRecorder`, or None.

        Components without a Telemetry reference (transport endpoints,
        the control-plane fabric) reach the recorder through here.
        """
        return self._spans

    def bind_spans(self, recorder) -> None:
        """Bind (or with None, unbind) the world's span recorder."""
        self._spans = recorder

    # -- scheduling -----------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue ``event`` to fire ``delay`` from now at ``priority``
        (URGENT or NORMAL)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._seq = seq = self._seq + 1
        now = self._now
        at = now + delay
        if self._tiebreak_seed is not None:
            salt = _splitmix64(seq ^ self._tiebreak_seed)
            heappush(self._queue, (at, priority, salt, seq, event))
        elif at == now:
            # Due at this instant, so after every event already queued for
            # it at this priority: a FIFO append keeps the sequence order.
            # Routing on the sum, not on delay == 0, keeps a delay below
            # the clock's resolution out of the heap.
            if priority == URGENT:
                self._urgent.append(event)
            else:
                self._normal.append(event)
        else:
            heappush(self._queue, (at, priority, seq, event))
        if self._monitor is not None:
            self._monitor.on_schedule(len(self._queue) + len(self._urgent)
                                      + len(self._normal) - self._withdrawn)

    def _withdraw(self) -> None:
        """Count one more withdrawn entry (see :meth:`Timeout.cancel`);
        once they are the majority of the queue, drop them all."""
        self._withdrawn = withdrawn = self._withdrawn + 1
        queue = self._queue
        if 2 * withdrawn <= len(queue) + len(self._urgent) + len(self._normal):
            return
        # In place: run() holds these containers in locals.
        queue[:] = [entry for entry in queue if entry[-1].callbacks is not None]
        heapify(queue)
        for lane in (self._urgent, self._normal):
            live = [event for event in lane if event.callbacks is not None]
            lane.clear()
            lane.extend(live)
        self._withdrawn = 0

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator, owner=None, name: Optional[str] = None):
        """Spawn a generator coroutine as a :class:`~repro.sim.process.Process`."""
        return Process(self, generator, owner, name)

    def any_of(self, events: Iterable[Event]):
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]):
        return AllOf(self, list(events))

    # -- execution ------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event that will fire, or ``inf`` if none."""
        for lane in (self._urgent, self._normal):
            while lane and lane[0].callbacks is None:
                lane.popleft()
                self._withdrawn -= 1
            if lane:
                return self._now
        queue = self._queue
        while queue:
            if queue[0][-1].callbacks is not None:
                return queue[0][0]
            heappop(queue)
            self._withdrawn -= 1
        return _INF

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        Events at exactly ``until`` fire; later ones stay queued.  When
        ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run``
        calls compose predictably: they process the same events in the
        same order as one call.

        This is the kernel's only event loop.  An event's callbacks run
        in registration order; a failed event that no callback defused
        is raised out of ``run()``.
        """
        if until is None:
            limit = _INF
        elif until < self._now:
            raise SimulationError(f"run(until={until}) is in the past (now={self._now})")
        else:
            limit = until
        queue = self._queue
        urgent = self._urgent
        normal = self._normal
        pop = heappop
        now = self._now
        while True:
            # The heap holds nothing earlier than `now`, and its entries at
            # `now` were scheduled before anything in the lanes.
            if urgent:
                if queue and queue[0][0] == now and queue[0][1] == URGENT:
                    event = pop(queue)[-1]
                else:
                    event = urgent.popleft()
            elif normal:
                if queue and queue[0][0] == now:
                    event = pop(queue)[-1]
                else:
                    event = normal.popleft()
            elif queue and queue[0][0] <= limit:
                entry = pop(queue)
                event = entry[-1]
                if event.callbacks is not None:  # a withdrawn one sets no clock
                    self._now = now = entry[0]
            else:
                break
            callbacks = event.callbacks
            if callbacks is None:  # withdrawn
                self._withdrawn -= 1
                continue
            event.callbacks = None
            event._processed = True
            self._processed += 1
            monitor = self._monitor
            if monitor is None:
                for cb in callbacks:
                    cb(event)
            else:
                # Profiled path: bracket the callback batch so a timing
                # monitor (repro.obs.kernelprof.TimingProfiler) can charge
                # wall time to this event.
                monitor.on_event(event, callbacks)
                for cb in callbacks:
                    cb(event)
                monitor.on_event_done(event)
            if event._ok is False and not event._defused:
                # An unhandled failure: surface it rather than losing it.
                raise event._value
        if until is not None:
            self._now = until


# process.py and conditions.py subclass Event and import it from here, so
# they load only once this module has defined everything they need.
from repro.sim.conditions import AllOf, AnyOf  # noqa: E402
from repro.sim.process import Process  # noqa: E402
