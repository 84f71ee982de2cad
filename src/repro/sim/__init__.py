"""Discrete-event simulation kernel.

This package is the substrate on which the whole reproduction runs: a
deterministic, seedable discrete-event simulator with generator-coroutine
processes, bounded blocking stores (the backpressure primitive that makes
fault propagation in cooperative servers reproducible), condition events,
and time-series recording.

The kernel is intentionally SimPy-like but adds one domain-specific
capability the paper needs: *process ownership*.  Every process may belong
to a :class:`~repro.sim.process.ProcessOwner` (a node or an application
process-group).  When the owner is frozen, event deliveries to its
processes are parked and replayed on thaw; when the owner crashes, its
processes are killed.  This is how "node freeze", "node crash", "app hang"
and "app crash" faults from Table 1 of the paper act on running code.
"""

from repro.sim.kernel import (
    Environment,
    Event,
    Timeout,
    SimulationError,
    URGENT,
    NORMAL,
)
from repro.sim.process import Process, Interrupt, ProcessOwner, KILLED
from repro.sim.store import Store, StoreFullError
from repro.sim.conditions import AnyOf, AllOf
from repro.sim.rng import RngRegistry
from repro.sim.series import ThroughputSeries

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "SimulationError",
    "URGENT",
    "NORMAL",
    "Process",
    "Interrupt",
    "ProcessOwner",
    "KILLED",
    "Store",
    "StoreFullError",
    "AnyOf",
    "AllOf",
    "RngRegistry",
    "ThroughputSeries",
]
