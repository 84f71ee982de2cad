"""The one log a run writes.

:class:`Tracer` keeps, in emission order, the markers components record
with :meth:`Tracer.mark` (the fault-lifecycle annotations -- injected,
detected, repaired, reset -- that the 7-stage template fitter keys on)
and the typed :class:`~repro.obs.events.TraceEvent` records they
``emit``.  Markers are model input, so they are kept even when the
tracer is disabled; ``emit`` is then a no-op after one attribute check,
the guard-checked fast path.

Readers get two views of the log: ``events``, the typed stream with each
marker translated by :func:`~repro.obs.events.marker_event` (empty when
disabled), and ``markers``, a read-only :class:`Markers` view of the
``(time, label, data)`` triples.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs.events import TraceEvent, marker_event, sanitize


class Markers:
    """Read-only view of the markers of a log, in emission order."""

    __slots__ = ("_log",)

    def __init__(self, log: Sequence[Any]):
        self._log = log

    @property
    def entries(self) -> List[Tuple[float, str, Any]]:
        return [e for e in self._log if type(e) is tuple]

    def all(self, label: str) -> List[Tuple[float, Any]]:
        return [(t, d) for t, lbl, d in self.entries if lbl == label]

    def first(self, label: str) -> Optional[float]:
        """Earliest time of ``label``, or None if never marked."""
        hits = self.all(label)
        return min(t for t, _ in hits) if hits else None


class Tracer:
    """Append-only log of markers and typed telemetry events.

    ``len(tracer)`` is the length of ``events``: 0 when disabled, even
    if markers were kept, so never test a tracer for truth.
    """

    __slots__ = ("enabled", "_log", "_env", "_subscribers")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._log: List[Any] = []  # (time, label, data) markers and TraceEvents
        self._env = None
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    # -- wiring ----------------------------------------------------------
    def bind_clock(self, env) -> None:
        """Use ``env.now`` for events emitted without an explicit time."""
        self._env = env

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        """Call ``fn(event)`` for every event emitted from now on."""
        self._subscribers.append(fn)

    # -- recording -------------------------------------------------------
    def mark(self, time: float, label: str, data: Any = None) -> None:
        """Record one marker; kept even when the tracer is disabled."""
        entry = (float(time), label, data)
        self._log.append(entry)
        if self.enabled and self._subscribers:
            event = marker_event(*entry)
            for fn in self._subscribers:
                fn(event)

    def emit(self, kind: str, source: str = "", time: Optional[float] = None,
             **data: Any) -> Optional[TraceEvent]:
        """Record one event; no-op (returns None) when disabled."""
        if not self.enabled:
            return None
        if time is None:
            time = self._env.now if self._env is not None else 0.0
        event = TraceEvent(time=float(time), kind=kind, source=source,
                           data={k: sanitize(v) for k, v in data.items()})
        self._log.append(event)
        for fn in self._subscribers:
            fn(event)
        return event

    # -- access ----------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        if not self.enabled:
            return []
        return [marker_event(*e) if type(e) is tuple else e for e in self._log]

    @property
    def markers(self) -> Markers:
        return Markers(self._log)

    def events_of(self, *kinds: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind in kinds]

    def first(self, kind: str) -> Optional[TraceEvent]:
        hits = self.events_of(kind)
        return hits[0] if hits else None

    def __len__(self) -> int:
        return len(self._log) if self.enabled else 0
