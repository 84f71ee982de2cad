"""Host-speed reference, sampled between simulation chunks.

On a shared host the speed of one CPU drifts by tens of percent over
seconds to minutes, so raw wall time of a 10 s cell repeats no better
than the effects worth measuring.  The benchmark therefore splits each
campaign's ``env.run`` calls into short chunks of simulated time and
runs a fixed reference unit after every chunk.  The reference time summed
over a cell samples the host's speed over exactly the interval the cell
ran in; dividing it out leaves the simulator's own cost.

The reference is self-contained (heap, dict and generator work, the same
kinds of operations the simulator does) and imports nothing from
``repro``, so a change to the simulator never changes it.  It allocates
no objects the cyclic garbage collector tracks, and runs with the
collector paused: a collection costs time in proportion to the
simulator's live heap, which belongs to the simulator's own cost, not to
the host's speed.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from typing import List, Optional, Tuple

#: host seconds of one reference unit on the nominal host; normalised
#: times are in seconds at that speed
REF_NOMINAL_S = 3.0e-3


def _ticker(n: int):
    for i in range(n):
        yield i


def ref_unit(n: int = 4000) -> None:
    """A fixed amount of interpreter work (~2.5 ms on a 2 GHz Xeon)."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    table: dict = {}
    for i in range(n):
        push(heap, (i * 7919) % 1009)
        table[i & 127] = table.get((i + 1) & 127, 0) + i
    while heap:
        pop(heap)
    for _ in _ticker(n):
        pass


def time_ref_units(n: int) -> float:
    """Host seconds taken by ``n`` reference units, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            ref_unit()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class CampaignEnv:
    """An Environment stand-in for ``SingleFaultCampaign``.

    Every ``run(until=...)`` call is timed as one campaign phase (host
    seconds and events processed).  With ``chunk`` set, the call is split
    into runs of at most ``chunk`` simulated seconds, each followed by one
    :func:`ref_unit`.  Back-to-back ``Environment.run`` calls process the
    same events in the same order as one call, so the simulation is
    unchanged.  Reference time is excluded from the phase timings.
    """

    def __init__(self, env, chunk: Optional[float] = None):
        self._env = env
        self.chunk = chunk
        self.phases: List[Tuple[float, int]] = []  # (host s, events)
        self.ref_s = 0.0
        self.ref_n = 0

    @property
    def now(self) -> float:
        return self._env.now

    def run(self, until: float) -> None:
        env, chunk = self._env, self.chunk
        n0, t0, ref0 = env.processed_count, time.perf_counter(), self.ref_s
        if chunk is None:
            env.run(until=until)
        else:
            while True:
                stop = min(until, (math.floor(env.now / chunk) + 1) * chunk)
                env.run(until=stop)
                self.ref_s += time_ref_units(1)
                self.ref_n += 1
                if stop >= until:
                    break
        wall = time.perf_counter() - t0 - (self.ref_s - ref0)
        self.phases.append((wall, env.processed_count - n0))

    def __getattr__(self, name):
        return getattr(self._env, name)


def speed_factor(ref_s: float, ref_n: int) -> float:
    """Host slowness against nominal (2.0: the host ran at half speed)."""
    return ref_s / (ref_n * REF_NOMINAL_S) if ref_n else 1.0
