"""Process-pool campaign executor with deterministic fan-out/merge.

The quantification grid is embarrassingly parallel: each phase-1 cell
(one ``(version, fault kind, seed)`` coordinate) builds its own world
from the master seed and shares no state with any other cell.
:func:`run_campaign_cells` is the one place cells run: in this process
when ``jobs <= 1``, otherwise through :class:`CampaignExecutor`, which
fans them out over a **spawn**-context process pool and folds the
results back *in grid order* — never completion order — so where the
cells ran cannot change the merged result:

* every worker runs under the same pinned ``PYTHONHASHSEED`` (exported
  by the parent before the pool spawns; children read it at interpreter
  startup);
* a cell's RNG streams derive from its own ``(seed, stream name)``
  coordinates via :class:`~repro.sim.rng.RngRegistry`, so scheduling
  order across workers cannot perturb them;
* cell results are JSON documents wrapping a replayable
  :class:`~repro.obs.recorder.FlightRecord`; the parent re-fits the
  replayed traces, and replay is lossless (pinned by the recorder's
  round-trip tests);
* the merge walks outcomes by cell index, so float sums run in grid
  order.

Crash isolation: a cell that raises fails alone, and a worker that dies
outright fails the cells its broken pool held; the survivors are kept
in the :class:`ExecutionReport`.  A cell is a pure function of its
coordinates, so a failed cell fails again when re-run: there are no
retries.  :func:`run_campaign_cells` raises :class:`CellExecutionError`
on any failure, with the report attached.

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
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.core.quantify import (
    QuantifyConfig,
    VersionAvailability,
    campaign_cells,
    quantify_from_cell_docs,
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

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


@dataclass
class CellOutcome:
    """What happened to one cell."""

    cell: CampaignCell
    doc: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    wall: float = 0.0  # worker-side wall seconds of the cell

    @property
    def ok(self) -> bool:
        return self.doc is not None


@dataclass
class ExecutorStats:
    """Real-time accounting of one execution (process wall clock)."""

    jobs: int
    cells: int
    failed: int
    wall_seconds: float  # parent-side elapsed time of the whole fan-out
    cell_seconds: float  # sum of per-cell worker wall times

    @property
    def speedup(self) -> float:
        """Aggregate-work / elapsed-time ratio (~1.0 means no overlap)."""
        return self.cell_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0


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
    """Some cells failed; the report with the survivors is attached."""

    def __init__(self, report: ExecutionReport):
        self.report = report
        lines = ", ".join(
            f"{o.cell.cell_id} ({o.error})" for o in report.failures)
        super().__init__(
            f"{len(report.failures)} campaign cell(s) failed: {lines}")


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


@contextmanager
def spawn_pool(jobs: int) -> Iterator[ProcessPoolExecutor]:
    """A spawn-context pool of ``jobs`` workers under the pinned hash seed.

    The pin holds for the pool's whole life, because the pool spawns
    its workers on demand as tasks are submitted; every worker runs
    :func:`~repro.parallel.worker.worker_init`.  The pool is shut down
    (its workers joined) on exit.
    """
    with pinned_hashseed():
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=worker_init,
        )
        try:
            yield pool
        finally:
            pool.shutdown()


def _ok_line(done: int, total: int, cell: CampaignCell,
             payload: Dict[str, Any]) -> str:
    return (f"[{done}/{total}] {cell.cell_id} ok in "
            f"{float(payload['wall']):.1f}s (pid {payload.get('pid', '?')})")


class CampaignExecutor:
    """Deterministic fan-out of campaign cells over a spawn pool."""

    def __init__(
        self,
        config: ExecutorConfig = ExecutorConfig(),
        progress: Optional[ProgressFn] = None,
        worker: Callable[..., Dict[str, Any]] = execute_cell,
    ):
        self.config = config
        self.progress = progress
        # Injectable for tests (crash drills); must be a module-level
        # function so the spawn pool can pickle it by reference.
        self.worker = worker

    def execute(
        self,
        cells: Sequence[CampaignCell],
        config: QuantifyConfig,
    ) -> ExecutionReport:
        """Run every cell once on a spawn pool and report in grid order.

        A cell that raises fails alone.  A worker dying mid-run breaks
        the pool for good (every cell it still held fails with
        ``BrokenProcessPool``); the cells that finished are kept.
        """
        cells = list(cells)
        indices = [c.index for c in cells]
        if len(set(indices)) != len(indices):
            raise ValueError("campaign cells carry duplicate grid indices")
        outcomes = [CellOutcome(cell=c) for c in cells]

        t0 = time.perf_counter()
        done = 0
        with spawn_pool(max(1, min(self.config.jobs, len(cells)))) as pool:
            futures = {pool.submit(self.worker, cell, config): outcome
                       for cell, outcome in zip(cells, outcomes)}
            for fut in as_completed(futures):
                outcome = futures[fut]
                try:
                    payload = fut.result()
                except Exception as exc:  # incl. BrokenProcessPool
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    self._say(f"[{done}/{len(cells)}] {outcome.cell.cell_id} "
                              f"FAILED: {outcome.error}")
                else:
                    done += 1
                    outcome.doc = payload["doc"]
                    outcome.wall = float(payload["wall"])
                    self._say(_ok_line(done, len(cells), outcome.cell,
                                       payload))
        stats = ExecutorStats(
            jobs=self.config.jobs,
            cells=len(cells),
            failed=sum(1 for o in outcomes if not o.ok),
            wall_seconds=time.perf_counter() - t0,
            cell_seconds=sum(o.wall for o in outcomes if o.ok),
        )
        self._say(f"parallel: {stats.cells} cells on {stats.jobs} workers in "
                  f"{stats.wall_seconds:.1f}s wall ({stats.cell_seconds:.1f}s "
                  f"of cell work, {stats.speedup:.2f}x overlap)")
        return ExecutionReport(outcomes=outcomes, stats=stats)

    def _say(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)


def run_campaign_cells(
    cells: Sequence[CampaignCell],
    config: QuantifyConfig,
    jobs: int = 1,
    progress: Optional[ProgressFn] = None,
) -> List[Dict[str, Any]]:
    """Execute a cell grid and return its documents in grid order.

    Every grid runs through here.  With ``jobs <= 1`` the cells run one
    by one in this process and a cell's exception propagates unchanged;
    otherwise they run on a :class:`CampaignExecutor` of ``jobs``
    workers and any failed cell raises :class:`CellExecutionError`, with
    the :class:`ExecutionReport` attached.  ``progress`` receives one
    line per completed cell either way.
    """
    if jobs > 1:
        report = CampaignExecutor(ExecutorConfig(jobs=jobs),
                                  progress=progress).execute(cells, config)
        if report.failures:
            raise CellExecutionError(report)
        return report.docs
    docs: List[Dict[str, Any]] = []
    for done, cell in enumerate(cells, 1):
        payload = execute_cell(cell, config)
        if progress is not None:
            progress(_ok_line(done, len(cells), cell, payload))
        docs.append(payload["doc"])
    return docs


def quantify_grid(
    specs: Sequence[Union[str, VersionSpec]],
    config: QuantifyConfig = QuantifyConfig(),
    jobs: int = 1,
    keep_records: bool = False,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, VersionAvailability]:
    """Quantify several versions as one grid of cells.

    All versions' cells are concatenated into a single grid, so a pool
    stays saturated across version boundaries (a 4-version × 5-fault
    study is 20 cells, not 4 sequential 5-cell campaigns), and run
    through :func:`run_campaign_cells`.  Each version's documents are
    then merged in grid order by
    :func:`~repro.core.quantify.quantify_from_cell_docs`.
    """
    resolved = [version_by_name(s) if isinstance(s, str) else s
                for s in specs]
    names = [s.name for s in resolved]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate versions in grid: {names}")
    all_cells: List[CampaignCell] = []
    for s in resolved:
        all_cells.extend(campaign_cells(s, config,
                                        start_index=len(all_cells)))
    docs = run_campaign_cells(all_cells, config, jobs=jobs, progress=progress)

    by_version: Dict[str, List[Dict[str, Any]]] = {}
    for doc in docs:
        by_version.setdefault(str(doc["cell"]["version"]), []).append(doc)
    return {
        s.name: quantify_from_cell_docs(
            s, config, by_version.get(s.name, []), keep_records=keep_records)
        for s in resolved
    }
