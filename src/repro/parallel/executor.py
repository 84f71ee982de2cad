"""Process-pool campaign executor with deterministic fan-out/merge.

The quantification grid is embarrassingly parallel: each phase-1 cell
(one ``(version, fault kind, seed)`` coordinate) builds its own world
from the master seed and shares no state with any other cell.  The
executor fans cells out over a **spawn**-context process pool and folds
the results back *in grid order* — never completion order — so a
parallel campaign is byte-identical to a serial one:

* every worker runs under the same pinned ``PYTHONHASHSEED`` (exported
  by the parent before the pool spawns; children read it at interpreter
  startup);
* a cell's RNG streams derive from its own ``(seed, stream name)``
  coordinates via :class:`~repro.sim.rng.RngRegistry`, so scheduling
  order across workers cannot perturb them;
* cell results are JSON documents wrapping a replayable
  :class:`~repro.obs.recorder.FlightRecord`; the parent re-fits the
  replayed traces, and replay is lossless (pinned by the recorder's
  round-trip tests), so the merged fits equal the serial fits;
* the merge walks outcomes by cell index, preserving the float
  summation order of the serial loop.

Crash isolation: a worker that raises — or dies outright, breaking the
pool — marks only its own cell as failed; surviving results are kept and
the round is re-run on a fresh pool for cells with attempts remaining
(``retries=K`` allows K re-executions per cell).  A cell that exhausts
its attempts is reported in the :class:`ExecutionReport` instead of
killing the run; strict callers (``quantify_version(jobs=N)``) raise
:class:`CellExecutionError` with the partial report attached.

Wall-clock reads in this module time the *real* worker processes for
speedup accounting — they never touch simulated time (see the reprolint
allowlist).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.quantify import (
    QuantifyConfig,
    VersionAvailability,
    campaign_cells,
    quantify_from_cell_docs,
    quantify_version,
)
from repro.experiments.configs import VersionSpec, version as version_by_name
from repro.faults.campaign import CampaignCell
from repro.parallel.worker import execute_cell, worker_init

#: hash seed pinned into every worker (any fixed value keeps runs
#: reproducible; ``repro sanitize`` checks results do not depend on which)
DEFAULT_HASH_SEED = "0"

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class ExecutorConfig:
    """Fan-out policy of one campaign execution."""

    jobs: int = 2
    retries: int = 0  # re-executions allowed per failed cell
    hash_seed: str = DEFAULT_HASH_SEED

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if not self.hash_seed:
            raise ValueError("hash_seed must be a non-empty string")


@dataclass
class CellOutcome:
    """What happened to one cell across all its attempts."""

    cell: CampaignCell
    doc: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 0
    wall: float = 0.0  # worker-side wall seconds of the winning attempt

    @property
    def ok(self) -> bool:
        return self.doc is not None


@dataclass
class ExecutorStats:
    """Real-time accounting of one execution (process wall clock)."""

    jobs: int
    cells: int
    failed: int
    retried: int  # cells that needed more than one attempt
    wall_seconds: float  # parent-side elapsed time of the whole fan-out
    cell_seconds: float  # sum of per-cell worker wall times

    @property
    def speedup(self) -> float:
        """Aggregate-work / elapsed-time ratio (~1.0 means no overlap)."""
        return self.cell_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "cells": self.cells,
            "failed": self.failed,
            "retried": self.retried,
            "wall_seconds": self.wall_seconds,
            "cell_seconds": self.cell_seconds,
            "speedup": self.speedup,
        }


@dataclass
class ExecutionReport:
    """Per-cell outcomes (grid order) plus aggregate stats."""

    outcomes: List[CellOutcome]
    stats: ExecutorStats

    @property
    def docs(self) -> List[Dict[str, Any]]:
        """Successful cell documents, in grid order."""
        return [o.doc for o in self.outcomes if o.ok]

    @property
    def failures(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if not o.ok]


class CellExecutionError(RuntimeError):
    """Some cells exhausted their retry budget; partial results attached."""

    def __init__(self, report: ExecutionReport):
        self.report = report
        lines = ", ".join(
            f"{o.cell.cell_id} ({o.error})" for o in report.failures)
        super().__init__(
            f"{len(report.failures)} campaign cell(s) failed after "
            f"{report.outcomes[0].attempts if report.outcomes else 0} "
            f"attempt(s): {lines}"
        )


@contextmanager
def pinned_hashseed(value: str = DEFAULT_HASH_SEED):
    """Export ``PYTHONHASHSEED`` around pool creation, then restore it.

    Spawned children read the variable at interpreter startup, so the
    parent must export it *before* the pool forks off its first worker —
    a pool initializer runs too late to matter (it only asserts).
    """
    prev = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = value
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop("PYTHONHASHSEED", None)
        else:
            os.environ["PYTHONHASHSEED"] = prev


class CampaignExecutor:
    """Deterministic fan-out of campaign cells over a spawn pool."""

    def __init__(
        self,
        config: ExecutorConfig = ExecutorConfig(),
        progress: Optional[ProgressFn] = None,
        metrics=None,  # Optional[repro.obs.MetricsHub]
        worker: Callable[..., Dict[str, Any]] = execute_cell,
    ):
        self.config = config
        self.progress = progress
        self.metrics = metrics
        # Injectable for tests (crash drills); must be a module-level
        # function so the spawn pool can pickle it by reference.
        self.worker = worker

    # -- public API --------------------------------------------------------
    def execute(
        self,
        cells: Sequence[CampaignCell],
        config: QuantifyConfig,
    ) -> ExecutionReport:
        """Run every cell, retrying failures, and report in grid order."""
        cells = list(cells)
        indices = [c.index for c in cells]
        if len(set(indices)) != len(indices):
            raise ValueError("campaign cells carry duplicate grid indices")
        outcomes = [CellOutcome(cell=c) for c in cells]

        t0 = time.perf_counter()
        todo = list(range(len(cells)))
        max_attempts = self.config.retries + 1
        while todo:
            todo = self._run_round(cells, outcomes, todo, config, max_attempts)
        wall = time.perf_counter() - t0

        stats = ExecutorStats(
            jobs=self.config.jobs,
            cells=len(cells),
            failed=sum(1 for o in outcomes if not o.ok),
            retried=sum(1 for o in outcomes if o.attempts > 1),
            wall_seconds=wall,
            cell_seconds=sum(o.wall for o in outcomes if o.ok),
        )
        self._record_metrics(outcomes, stats)
        return ExecutionReport(outcomes=outcomes, stats=stats)

    # -- internals ---------------------------------------------------------
    def _run_round(
        self,
        cells: List[CampaignCell],
        outcomes: List[CellOutcome],
        todo: List[int],
        config: QuantifyConfig,
        max_attempts: int,
    ) -> List[int]:
        """One pool round over ``todo``; returns the retryable indices.

        Every round gets a *fresh* pool: a worker dying mid-round breaks
        its ``ProcessPoolExecutor`` permanently (all in-flight futures
        poison with ``BrokenProcessPool``), so reuse would turn one crash
        into a run-wide failure.  Innocent cells poisoned that way burn
        an attempt too, but succeed on the re-run — which is why crash
        survival needs ``retries >= 1``.
        """
        retryable: List[int] = []
        done = len(cells) - len(todo)
        ctx = multiprocessing.get_context("spawn")
        with pinned_hashseed(self.config.hash_seed):
            pool = ProcessPoolExecutor(
                max_workers=min(self.config.jobs, len(todo)),
                mp_context=ctx,
                initializer=worker_init,
            )
            try:
                futures = {
                    pool.submit(self.worker, cells[i], config): i
                    for i in todo
                }
                for fut in as_completed(futures):
                    i = futures[fut]
                    outcome = outcomes[i]
                    outcome.attempts += 1
                    try:
                        payload = fut.result()
                    except BaseException as exc:  # incl. BrokenProcessPool
                        outcome.error = f"{type(exc).__name__}: {exc}"
                        retry = outcome.attempts < max_attempts
                        if retry:
                            retryable.append(i)
                        self._say(
                            f"[{done}/{len(cells)}] {outcome.cell.cell_id} "
                            f"FAILED attempt {outcome.attempts}"
                            f"{' (will retry)' if retry else ''}: "
                            f"{outcome.error}"
                        )
                    else:
                        done += 1
                        outcome.doc = payload["doc"]
                        outcome.wall = float(payload["wall"])
                        outcome.error = None
                        self._say(
                            f"[{done}/{len(cells)}] {outcome.cell.cell_id} "
                            f"ok in {outcome.wall:.1f}s "
                            f"(attempt {outcome.attempts}, "
                            f"pid {payload.get('pid', '?')})"
                        )
            finally:
                pool.shutdown()
        return sorted(retryable)

    def _say(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def _record_metrics(
        self, outcomes: List[CellOutcome], stats: ExecutorStats
    ) -> None:
        if self.metrics is None:
            return
        hub = self.metrics
        for outcome in outcomes:
            status = "ok" if outcome.ok else "failed"
            hub.counter("parallel_cells_total", status=status).inc()
            if outcome.ok:
                hub.histogram("parallel_cell_wall_seconds",
                              fault=outcome.cell.fault).observe(outcome.wall)
            if outcome.attempts > 1:
                hub.counter("parallel_cell_retries_total").inc(
                    outcome.attempts - 1)
        hub.gauge("parallel_jobs").set(stats.jobs)
        hub.gauge("parallel_wall_seconds").set(stats.wall_seconds)
        hub.gauge("parallel_speedup").set(stats.speedup)


def run_campaign_cells(
    cells: Sequence[CampaignCell],
    config: QuantifyConfig,
    jobs: int = 2,
    retries: int = 0,
    progress: Optional[ProgressFn] = None,
    metrics=None,
    strict: bool = True,
) -> List[Dict[str, Any]]:
    """Execute a cell grid and return its documents in grid order.

    This is the entry point ``quantify_version(jobs=N)`` fans out
    through.  With ``strict=True`` (the default) any cell that exhausts
    its retry budget raises :class:`CellExecutionError` — the
    quantification merge needs every fault kind — with the partial
    :class:`ExecutionReport` attached for inspection.
    """
    executor = CampaignExecutor(
        ExecutorConfig(jobs=jobs, retries=retries),
        progress=progress,
        metrics=metrics,
    )
    report = executor.execute(cells, config)
    if strict and report.failures:
        raise CellExecutionError(report)
    return report.docs


def quantify_grid(
    specs: Sequence[Union[str, VersionSpec]],
    config: QuantifyConfig = QuantifyConfig(),
    jobs: int = 1,
    retries: int = 0,
    keep_records: bool = False,
    progress: Optional[ProgressFn] = None,
    metrics=None,
    stats_out: Optional[List[ExecutorStats]] = None,
) -> Dict[str, VersionAvailability]:
    """Quantify several versions through one shared cell pool.

    All versions' cells are concatenated into a single grid so the pool
    stays saturated across version boundaries (a 4-version × 5-fault
    study is 20 cells, not 4 sequential 5-cell campaigns).  Results are
    split back per version and merged in grid order; ``jobs=1`` degrades
    to the plain serial pipeline.  ``stats_out``, when given, receives
    the :class:`ExecutorStats` of the fan-out.
    """
    resolved = [version_by_name(s) if isinstance(s, str) else s
                for s in specs]
    names = [s.name for s in resolved]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate versions in grid: {names}")
    if jobs <= 1:
        return {
            s.name: quantify_version(s, config, keep_records=keep_records)
            for s in resolved
        }

    all_cells: List[CampaignCell] = []
    for s in resolved:
        all_cells.extend(campaign_cells(s, config,
                                        start_index=len(all_cells)))
    executor = CampaignExecutor(
        ExecutorConfig(jobs=jobs, retries=retries),
        progress=progress,
        metrics=metrics,
    )
    report = executor.execute(all_cells, config)
    if report.failures:
        raise CellExecutionError(report)
    if stats_out is not None:
        stats_out.append(report.stats)

    by_version: Dict[str, List[Dict[str, Any]]] = {}
    for doc in report.docs:
        by_version.setdefault(str(doc["cell"]["version"]), []).append(doc)
    return {
        s.name: quantify_from_cell_docs(
            s, config, by_version.get(s.name, []), keep_records=keep_records)
        for s in resolved
    }
