"""Time-series recording for throughput timelines.

Phase 1 of the paper's methodology measures "the system's behavior during
the fault" as a throughput-vs-time curve annotated with fault lifecycle
events (injected, detected, repaired, reset).  :class:`ThroughputSeries`
collects completion timestamps; the annotations that the 7-stage template
fitter (:mod:`repro.core.template`) keys on are markers in the world's
:class:`~repro.obs.trace.Tracer`.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Optional, Tuple

import numpy as np


class ThroughputSeries:
    """Append-only log of event timestamps (e.g. successful responses)."""

    __slots__ = ("name", "_times")

    def __init__(self, name: str = ""):
        self.name = name
        # Packed doubles: 8 bytes a sample instead of a float object and
        # a list slot (32).  A full cell records ~10^5 of them, and every
        # rebuilt ExperimentTrace keeps its own.
        self._times = array("d")

    def record(self, time: float) -> None:
        if self._times and time < self._times[-1]:
            # Out-of-order recording would corrupt the bisect-based queries.
            raise ValueError(f"non-monotonic record: {time} after {self._times[-1]}")
        self._times.append(time)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        # A copy: a view would pin the buffer and make the next record()
        # fail to resize it.
        return np.array(self._times, dtype=float)

    def count(self, t0: float, t1: float) -> int:
        """Number of events with t0 <= t < t1."""
        if t1 < t0:
            raise ValueError("t1 < t0")
        lo = bisect.bisect_left(self._times, t0)
        hi = bisect.bisect_left(self._times, t1)
        return hi - lo

    def mean_rate(self, t0: float, t1: float) -> float:
        """Average events/second over [t0, t1); 0 for an empty window."""
        if t1 <= t0:
            return 0.0
        return self.count(t0, t1) / (t1 - t0)

    def bucketize(
        self, bin_width: float, start: Optional[float] = None, end: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return (bin_left_edges, rates) over [start, end) with fixed bins."""
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if start is None:
            start = self._times[0] if self._times else 0.0
        if end is None:
            end = self._times[-1] + bin_width if self._times else start + bin_width
        if end <= start:
            raise ValueError("empty bucketize window")
        nbins = int(np.ceil((end - start) / bin_width))
        edges = start + bin_width * np.arange(nbins + 1)
        counts, _ = np.histogram(self.times, bins=edges)
        return edges[:-1], counts / bin_width
