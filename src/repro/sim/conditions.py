"""Composite wait conditions (AnyOf / AllOf).

Used throughout the servers for get-with-timeout patterns::

    get_ev = queue.get()
    cond = yield AnyOf(env, [get_ev, env.timeout(1.0)])
    if get_ev.triggered:
        msg = get_ev.value
    else:
        get_ev.cancel()
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.kernel import Environment, Event


class Condition(Event):
    """Base for composite events over a fixed set of sub-events.

    The condition's value is a dict mapping each *triggered-and-ok*
    sub-event to its value at the moment the condition fired.  If any
    sub-event fails before the condition triggers, the condition fails
    with the same exception (the sub-event failure is defused).
    """

    __slots__ = ("events", "_pending")

    def __init__(self, env: Environment, events: List[Event]):
        super().__init__(env)
        for ev in events:
            if ev.env is not env:
                raise ValueError("all condition sub-events must share one Environment")
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._observe)

    def _observe(self, event: Event) -> None:
        if event._ok is False:
            event._defused = True
            if self._ok is None:
                self.fail(event._value)
            return
        if self._ok is not None:  # already triggered
            return
        self._pending -= 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> Dict[Event, Any]:
        # ``processed`` (callbacks ran), not ``triggered``: Timeout events
        # are born triggered but have not *fired* until the clock reaches
        # them.
        return {ev: ev._value for ev in self.events if ev.processed and ev._ok}


class AnyOf(Condition):
    """Triggers as soon as the first sub-event triggers successfully."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._pending < len(self.events)

    @property
    def first(self) -> Optional[Event]:
        """The earliest-registered sub-event that has fired, if any."""
        for ev in self.events:
            if ev.processed and ev._ok:
                return ev
        return None


class AllOf(Condition):
    """Triggers once every sub-event has triggered successfully."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._pending == 0
