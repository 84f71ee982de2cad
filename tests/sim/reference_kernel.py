"""Reference scheduler for the differential test: one binary heap.

:class:`HeapEnvironment` is :class:`~repro.sim.kernel.Environment` with
``schedule``, ``peek`` and ``run`` as they were before the same-instant
lanes: every event, due now or later, is pushed onto the heap and popped
from it.  A withdrawn timeout (:meth:`~repro.sim.kernel.Timeout.cancel`)
stays on the heap and is skipped, without moving the clock, when it is
popped.  The real kernel must process the same events in the same order
and end on the same clock.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from repro.sim.kernel import NORMAL, Environment, Event, SimulationError, _splitmix64

_INF = float("inf")


class HeapEnvironment(Environment):
    __slots__ = ()

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        event._scheduled = True
        self._seq = seq = self._seq + 1
        if self._tiebreak_seed is None:
            heappush(self._queue, (self._now + delay, priority, seq, event))
        else:
            salt = _splitmix64(seq ^ self._tiebreak_seed)
            heappush(self._queue, (self._now + delay, priority, salt, seq, event))
        if self._monitor is not None:
            self._monitor.on_schedule(len(self._queue))

    def _withdraw(self) -> None:
        pass  # skipped when popped

    def peek(self) -> float:
        queue = self._queue
        while queue and queue[0][-1].callbacks is None:
            heappop(queue)
        return queue[0][0] if queue else _INF

    def run(self, until: Optional[float] = None) -> None:
        if until is None:
            limit = _INF
        elif until < self._now:
            raise SimulationError(f"run(until={until}) is in the past (now={self._now})")
        else:
            limit = until
        queue = self._queue
        while queue and queue[0][0] <= limit:
            entry = heappop(queue)
            event = entry[-1]
            callbacks = event.callbacks
            if callbacks is None:  # withdrawn
                continue
            self._now = entry[0]
            event.callbacks = None
            event._processed = True
            self._processed += 1
            monitor = self._monitor
            if monitor is not None:
                monitor.on_event(event, callbacks)
            for cb in callbacks:
                cb(event)
            if monitor is not None:
                monitor.on_event_done(event)
            if event._ok is False and not event._defused:
                raise event._value
        if until is not None:
            self._now = until
