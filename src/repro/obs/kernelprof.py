"""Kernel profiling hooks: where does simulation time go?

:class:`KernelProfiler` plugs into :meth:`repro.sim.kernel.Environment.set_monitor`.
The kernel calls it on every schedule and every processed event — an
opt-in path; with no monitor attached the kernel pays a single
``is not None`` check per event.

The profiler counts events processed, tracks the scheduler-queue
high-water mark, and attributes each event to the *owner* of its
callbacks (the ``name`` of a bound method's object — the Process name
for coroutine resumptions, e.g. ``n0.main``, or ``client-req`` for a
client request's steps — or the function's qualname for bare
callbacks).

:class:`TimingProfiler` extends the counting profiler with wall-clock
*time attribution*: the kernel brackets each event's callback batch with
``on_event``/``on_event_done``, and the elapsed host time is charged to
the event's kind (Timeout/Process/...), the owning process *type*
(``n0.main`` and ``n3.main`` collapse to ``n*.main``), and the subsystem
that owns the resumed code (kernel / press / ha / workload / net / ...).
``repro explain`` prints its report as the wall section of one
injected run.
The wall-clock reads never touch simulated time or any digested stream —
they exist only in the profiler's own report (REP001 allowlists this
module for exactly that reason).
"""

from __future__ import annotations

import re
import time
from typing import Any, Dict, List, Tuple

#: collapse digit runs so per-instance process names group into types:
#: ``n0.main`` -> ``n*.main``, ``client17`` -> ``client*``
_DIGITS = re.compile(r"\d+")

#: package component under ``repro/`` -> reported subsystem name
_SUBSYSTEM_OF_PKG = {"sim": "kernel"}


def callback_owner(cb) -> str:
    """Attribution key for one event callback."""
    bound_self = getattr(cb, "__self__", None)
    if bound_self is not None:
        name = getattr(bound_self, "name", None)
        if name:
            return str(name)
        return type(bound_self).__name__
    return getattr(cb, "__qualname__", repr(cb))


def process_type(owner: str) -> str:
    """Collapse an owner name to its process type (``n0.main`` -> ``n*.main``)."""
    return _DIGITS.sub("*", owner)


def _callback_code(cb):
    """The code object that will actually run when ``cb`` fires.

    For a Process resumption the interesting code is the *generator
    body* (``n0.main`` lives in press/server.py, not sim/process.py),
    followed through ``yield from`` to the innermost generator (a send
    in net/transport.py run by ``n0.snd1``); for plain functions and
    bound methods it is the function itself.
    """
    bound_self = getattr(cb, "__self__", None)
    gen = getattr(bound_self, "_generator", None) if bound_self is not None else None
    if gen is not None:
        inner = getattr(gen, "gi_yieldfrom", None)
        while inner is not None and hasattr(inner, "gi_code"):
            gen = inner
            inner = getattr(gen, "gi_yieldfrom", None)
        code = getattr(gen, "gi_code", None)
        if code is not None:
            return code
    func = getattr(cb, "__func__", cb)
    return getattr(func, "__code__", None)


def subsystem_of_path(filename: str) -> str:
    """Map a source path to its subsystem (``.../repro/press/server.py`` -> ``press``)."""
    norm = filename.replace("\\", "/")
    marker = "/repro/"
    idx = norm.rfind(marker)
    if idx < 0:
        return "other"
    rest = norm[idx + len(marker):]
    pkg = rest.split("/", 1)[0]
    if pkg.endswith(".py"):  # module directly under repro/ (cli.py)
        pkg = pkg[:-3]
    return _SUBSYSTEM_OF_PKG.get(pkg, pkg)


def callback_subsystem(cb) -> str:
    """Subsystem attribution key for one event callback."""
    code = _callback_code(cb)
    if code is None:
        return "other"
    return subsystem_of_path(code.co_filename)


class KernelProfiler:
    """Event-loop statistics collector (attach via ``env.set_monitor``)."""

    __slots__ = ("events_processed", "events_scheduled", "queue_high_water",
                 "by_owner")

    def __init__(self) -> None:
        self.events_processed = 0
        self.events_scheduled = 0
        self.queue_high_water = 0
        self.by_owner: Dict[str, int] = {}

    # -- kernel monitor protocol ----------------------------------------
    def on_schedule(self, depth: int) -> None:
        self.events_scheduled += 1
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    def on_event(self, event, callbacks) -> None:
        self.events_processed += 1
        by_owner = self.by_owner
        if callbacks:
            for cb in callbacks:
                owner = callback_owner(cb)
                by_owner[owner] = by_owner.get(owner, 0) + 1
        else:
            by_owner["(uncollected)"] = by_owner.get("(uncollected)", 0) + 1

    def on_event_done(self, event) -> None:
        """Post-callback hook; the counting profiler has nothing to do."""

    # -- reporting -------------------------------------------------------
    def top(self, n: int = 15) -> List[Tuple[str, int]]:
        """The ``n`` busiest callback owners, descending."""
        return sorted(self.by_owner.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "events_processed": self.events_processed,
            "events_scheduled": self.events_scheduled,
            "queue_high_water": self.queue_high_water,
            "by_owner": dict(self.by_owner),
        }

    def report(self, top_n: int = 15) -> str:
        lines = [
            f"events processed : {self.events_processed}",
            f"events scheduled : {self.events_scheduled}",
            f"queue high-water : {self.queue_high_water}",
            "",
            f"{'callback owner':<32} events",
        ]
        for owner, count in self.top(top_n):
            lines.append(f"{owner:<32} {count}")
        return "\n".join(lines)


def _top_times(table: Dict[str, float], n: int) -> List[Tuple[str, float]]:
    return sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


class TimingProfiler(KernelProfiler):
    """Counting profiler plus wall-time attribution per event.

    Each processed event's callback batch is timed
    (``on_event`` .. ``on_event_done``) and the elapsed host seconds are
    charged to three independent breakdowns:

    * ``time_by_kind`` — the event class (``Timeout``, ``Process``,
      ``Event``, ``AnyOf``...), i.e. *what the kernel was delivering*;
    * ``time_by_type`` — the owning process type
      (:func:`process_type`), i.e. *which coroutine family ran*;
    * ``time_by_subsystem`` — the package owning the resumed code
      (:func:`callback_subsystem`): kernel / press / ha / workload /
      net / faults / hardware / ...

    Attribution keys are computed per event (an event's callbacks
    overwhelmingly share one owner); multi-owner batches are charged to
    the first callback's owner.  ``wall_seconds`` totals time spent
    inside callbacks — the kernel's own heap work is the remainder of
    the run's wall clock.
    """

    __slots__ = ("time_by_kind", "time_by_type", "time_by_subsystem",
                 "count_by_kind", "wall_seconds", "_keys", "_t0")

    def __init__(self) -> None:
        super().__init__()
        self.time_by_kind: Dict[str, float] = {}
        self.time_by_type: Dict[str, float] = {}
        self.time_by_subsystem: Dict[str, float] = {}
        self.count_by_kind: Dict[str, int] = {}
        self.wall_seconds = 0.0
        self._keys: Tuple[str, str, str] = ("", "", "")
        self._t0 = 0.0

    # -- kernel monitor protocol ----------------------------------------
    def on_event(self, event, callbacks) -> None:
        super().on_event(event, callbacks)
        kind = type(event).__name__
        if callbacks:
            cb = callbacks[0]
            owner = process_type(callback_owner(cb))
            subsystem = callback_subsystem(cb)
        else:
            owner, subsystem = "(uncollected)", "kernel"
        self.count_by_kind[kind] = self.count_by_kind.get(kind, 0) + 1
        self._keys = (kind, owner, subsystem)
        self._t0 = time.perf_counter()

    def on_event_done(self, event) -> None:
        dt = time.perf_counter() - self._t0
        kind, owner, subsystem = self._keys
        self.wall_seconds += dt
        self.time_by_kind[kind] = self.time_by_kind.get(kind, 0.0) + dt
        self.time_by_type[owner] = self.time_by_type.get(owner, 0.0) + dt
        self.time_by_subsystem[subsystem] = \
            self.time_by_subsystem.get(subsystem, 0.0) + dt

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        snap = super().snapshot()
        snap.update({
            "wall_seconds": self.wall_seconds,
            "time_by_kind": dict(self.time_by_kind),
            "time_by_type": dict(self.time_by_type),
            "time_by_subsystem": dict(self.time_by_subsystem),
            "count_by_kind": dict(self.count_by_kind),
        })
        return snap

    def report(self, top_n: int = 15) -> str:
        lines = [super().report(top_n=top_n), ""]
        lines.append(f"wall in callbacks: {self.wall_seconds * 1e3:.1f} ms")
        total = self.wall_seconds or 1.0
        for title, table in (("subsystem", self.time_by_subsystem),
                             ("event kind", self.time_by_kind),
                             ("process type", self.time_by_type)):
            lines.append("")
            lines.append(f"{title:<32} ms      share")
            for key, secs in _top_times(table, top_n):
                lines.append(f"{key:<32} {secs * 1e3:7.1f} {secs / total:6.1%}")
        return "\n".join(lines)
