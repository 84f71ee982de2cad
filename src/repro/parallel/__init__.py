"""Parallel campaign execution: deterministic fan-out over process pools.

The quantification grid — every ``(version, fault kind, seed)`` cell of
a campaign — is embarrassingly parallel, and this package exploits that
without giving up the repository's determinism contract: a run with
``jobs=N`` produces artifacts **byte-identical** to a serial run (the
property ``tests/parallel`` pins; ``repro sanitize --vary jobs`` checks it).

Layering: :mod:`repro.core.quantify` exposes the cell-level API
(:func:`~repro.core.quantify.campaign_cells` /
:func:`~repro.core.quantify.run_cell` /
:func:`~repro.core.quantify.quantify_from_cell_docs`); this package adds
the process-pool plumbing on top — :class:`CampaignExecutor` for the
fan-out/merge and crash isolation, :func:`run_campaign_cells` as the
strict entry point behind ``quantify_version(jobs=N)``, and
:func:`quantify_grid` for multi-version studies sharing one pool.  See
docs/PERFORMANCE.md for the architecture and the determinism argument.
"""

from repro.parallel.executor import (
    DEFAULT_HASH_SEED,
    CampaignExecutor,
    CellExecutionError,
    CellOutcome,
    ExecutionReport,
    ExecutorConfig,
    ExecutorStats,
    pinned_hashseed,
    quantify_grid,
    run_campaign_cells,
)
from repro.parallel.worker import execute_cell, worker_init

__all__ = [
    "DEFAULT_HASH_SEED",
    "CampaignExecutor",
    "CellExecutionError",
    "CellOutcome",
    "ExecutionReport",
    "ExecutorConfig",
    "ExecutorStats",
    "execute_cell",
    "pinned_hashseed",
    "quantify_grid",
    "run_campaign_cells",
    "worker_init",
]
