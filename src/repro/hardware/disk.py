"""Disk device model with the SCSI-timeout fault mode.

The device serves operations one at a time from a small bounded device
queue.  Under the ``scsi timeout`` fault of Table 1, the device stops
completing operations — in-flight and queued ops simply *hang* until the
fault is repaired.  Nothing errors out: exactly like the paper's SCSI
timeouts, the only externally visible symptom is that every thread doing
disk I/O stops making progress, which is what queue monitoring (and
eventually FME's direct SCSI probe) must detect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.kernel import Environment, Event
from repro.sim.store import Store


@dataclass(frozen=True, slots=True)
class DiskParams:
    """Service-time model: seek+rotational overhead plus streaming transfer."""

    seek_time: float = 0.008  # seconds; ~10K rpm SCSI average access
    transfer_bandwidth: float = 30e6  # bytes/second sequential
    queue_capacity: int = 16  # device/driver queue depth
    jitter: float = 0.15  # relative sd of lognormal service-time noise
    #: controller-level health probe (SCSI TEST UNIT READY / INQUIRY):
    #: no media seek, does not occupy the data-op queue, but hangs while
    #: the device is in its timeout fault mode
    probe_time: float = 0.002

    def service_time(self, size: int, rng: Optional[np.random.Generator] = None) -> float:
        base = self.seek_time + size / self.transfer_bandwidth
        if rng is None or self.jitter <= 0:
            return base
        sigma = self.jitter
        # Lognormal with mean 1: exp(N(-sigma^2/2, sigma)).
        return base * float(np.exp(rng.normal(-0.5 * sigma * sigma, sigma)))


class DiskOp:
    """One read/write: ``done`` triggers when the device completes it."""

    __slots__ = ("size", "done")

    def __init__(self, env: Environment, size: int):
        self.size = size
        self.done = Event(env)


class Disk:
    """A single spindle attached to a host."""

    __slots__ = ("env", "host", "index", "name", "params", "rng", "queue",
                 "faulty", "_repaired", "ops_served")

    def __init__(
        self,
        env: Environment,
        host,
        index: int,
        params: DiskParams = DiskParams(),
        rng: Optional[np.random.Generator] = None,
    ):
        self.env = env
        self.host = host
        self.index = index
        self.name = f"{host.name}.disk{index}"
        self.params = params
        self.rng = rng
        self.queue = Store(env, capacity=params.queue_capacity, name=f"{self.name}.q")
        self.faulty = False
        self._repaired: Optional[Event] = None
        self.ops_served = 0
        host.disks.append(self)
        self._spawn_server()

    def _spawn_server(self) -> None:
        self.env.process(self._serve(), owner=self.host.os, name=f"{self.name}.srv")

    def _serve(self):
        while True:
            op = yield self.queue.get()
            while self.faulty:  # SCSI timeout: hold everything until repair
                yield self._repaired
            yield self.env.timeout(self.params.service_time(op.size, self.rng))
            while self.faulty:  # fault landed mid-service: completion hangs too
                yield self._repaired
            self.ops_served += 1
            if not op.done.triggered:
                op.done.succeed()

    # -- I/O ------------------------------------------------------------------
    def read(self, size: int):
        """Submit an op; returns a generator step sequence for the caller.

        Usage from a process::

            op = disk.submit(size)
            yield op.enqueued     # blocks while the device queue is full
            yield op.done         # blocks until the device completes it
        """
        return self.submit(size)

    def submit(self, size: int) -> "SubmittedOp":
        op = DiskOp(self.env, size)
        put = self.queue.put(op)
        return SubmittedOp(op, put)

    @property
    def depth(self) -> int:
        """Outstanding ops (queued + blocked submitters)."""
        return self.queue.backlog

    def probe(self) -> Event:
        """Controller health probe (SCSI Generic TEST UNIT READY analog).

        Completes in ``probe_time`` without seeking or queueing behind
        data operations; while the device is faulty it hangs (answering
        only after repair), which is exactly the signal FME's direct SCSI
        probing relies on.
        """
        ev = Event(self.env)

        def _body():
            while self.faulty:
                yield self._repaired
            yield self.env.timeout(self.params.probe_time)
            while self.faulty:  # fault hit mid-probe
                yield self._repaired
            if not ev.triggered:
                ev.succeed()

        self.env.process(_body(), owner=self.host.os, name=f"{self.name}.probe")
        return ev

    # -- faults ------------------------------------------------------------------
    def set_faulty(self) -> None:
        if self.faulty:
            return
        self.faulty = True
        self._repaired = Event(self.env)

    def repair(self) -> None:
        if not self.faulty:
            return
        self.faulty = False
        repaired, self._repaired = self._repaired, None
        if repaired is not None and not repaired.triggered:
            repaired.succeed()

    # -- host lifecycle ------------------------------------------------------------
    def on_host_crash(self) -> None:
        self.queue.clear()

    def on_host_boot(self) -> None:
        self.queue.clear()
        self._spawn_server()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "faulty" if self.faulty else "ok"
        return f"<Disk {self.name} {state} depth={self.depth}>"


class SubmittedOp:
    """Handle pairing the queue-admission event with the completion event."""

    __slots__ = ("op", "enqueued")

    def __init__(self, op: DiskOp, enqueued):
        self.op = op
        self.enqueued = enqueued

    @property
    def done(self) -> Event:
        return self.op.done
