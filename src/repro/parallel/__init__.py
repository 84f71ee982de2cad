"""Parallel campaign execution: deterministic fan-out over forked children.

The quantification grid — every ``(version, fault kind, seed)`` cell of
a campaign — is embarrassingly parallel, and this package exploits that
without giving up the repository's determinism contract: a run with
``jobs=N`` produces artifacts **byte-identical** to a serial run (the
property ``tests/parallel`` pins; ``repro sanitize --vary jobs`` checks it).

Layering: :mod:`repro.core.quantify` exposes the cell-level API
(:func:`~repro.core.quantify.campaign_cells` /
:func:`~repro.core.quantify.run_cell` /
:func:`~repro.core.quantify.quantify_from_cell_docs`); this package
runs the cells — :func:`run_campaign_cells` is the one place they run,
in this process when ``jobs <= 1`` and otherwise each in a child a
:class:`CampaignExecutor` forks (fan-out/merge and crash isolation), and
:func:`quantify_grid`, behind every ``quantify_version`` call, runs
several versions as one grid.  See docs/PERFORMANCE.md for the
architecture and the determinism argument.
"""

from repro.parallel.executor import (
    CampaignExecutor,
    CellExecutionError,
    CellOutcome,
    ExecutionReport,
    ExecutorConfig,
    ExecutorStats,
    quantify_grid,
    run_campaign_cells,
)
from repro.parallel.worker import execute_cell

__all__ = [
    "CampaignExecutor",
    "CellExecutionError",
    "CellOutcome",
    "ExecutionReport",
    "ExecutorConfig",
    "ExecutorStats",
    "execute_cell",
    "quantify_grid",
    "run_campaign_cells",
]
