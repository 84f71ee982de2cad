"""Worker-side half of the parallel campaign executor.

:func:`execute_cell` is what a child runs for one cell.  The child is a
fork of the process that runs the grid, so it inherits every imported
module and the worker need not be importable by name; only its result
is pickled back.  :class:`~repro.faults.campaign.CampaignCell` +
:class:`~repro.core.quantify.QuantifyConfig` stay the entire contract
between the grid and a cell.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

from repro.core.quantify import QuantifyConfig, run_cell
from repro.faults.campaign import CampaignCell


def execute_cell(cell: CampaignCell, config: QuantifyConfig) -> Dict[str, Any]:
    """Run one campaign cell and wrap its document with wall-time stats.

    The cell document itself (``payload["doc"]``) is exactly what a
    serial :func:`~repro.core.quantify.run_cell` produces — the timing
    envelope stays *outside* it so merged artifacts remain byte-identical
    to a serial run.  Wall time here is real process time (the speedup
    accounting), not simulated time.
    """
    t0 = time.perf_counter()
    doc = run_cell(cell, config)
    wall = time.perf_counter() - t0
    return {"doc": doc, "wall": wall, "pid": os.getpid()}
