"""Fork-per-cell campaign executor with deterministic fan-out/merge.

The quantification grid is embarrassingly parallel: each phase-1 cell
(one ``(version, fault kind, seed)`` coordinate) builds its own world
from the master seed and shares no state with any other cell.
:func:`run_campaign_cells` is the one place cells run: in this process
when ``jobs <= 1``, otherwise through :class:`CampaignExecutor`, which
runs each cell in a child forked from this process (:func:`fork_map`)
and folds the results back *in grid order* — never completion order —
so where the cells ran cannot change the merged result:

* a forked child runs under this process's hash seed, the one an
  in-process cell runs under, so string hashing (and set and dict
  order) is the same by construction; ``repro sanitize --vary
  hashseed`` shows that results do not depend on the seed's value;
* a cell's RNG streams derive from its own ``(seed, stream name)``
  coordinates via :class:`~repro.sim.rng.RngRegistry`, so scheduling
  order across children cannot perturb them;
* cell results are JSON documents wrapping a replayable
  :class:`~repro.obs.recorder.FlightRecord`; the parent re-fits the
  replayed traces, and replay is lossless (pinned by the recorder's
  round-trip tests);
* the merge walks outcomes by cell index, so float sums run in grid
  order.

Crash isolation: a cell that raises fails alone, and so does a cell
whose child dies (a signal, the OOM killer, ``os._exit``); the others
run on into the :class:`ExecutionReport`.  A cell is a pure function of
its coordinates, so a failed cell fails again when re-run: there are
no retries.  :func:`run_campaign_cells` raises
:class:`CellExecutionError` on any failure, with the report attached.

Wall-clock reads in this module time the *real* worker processes for
speedup accounting — they never touch simulated time (see the reprolint
allowlist).
"""

from __future__ import annotations

import gc
import os
import pickle
import selectors
import signal
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.quantify import (
    QuantifyConfig,
    VersionAvailability,
    campaign_cells,
    quantify_from_cell_docs,
)
from repro.experiments.configs import VersionSpec, version as version_by_name
from repro.faults.campaign import CampaignCell
from repro.parallel.worker import execute_cell

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


def _flush_std_streams() -> None:
    for stream in filter(None, (sys.stdout, sys.stderr)):
        stream.flush()


def _fork(fn: Callable[[Any], Any], item: Any) -> Tuple[int, int]:
    """Fork a child that pickles ``fn(item)`` into a pipe: (read end, pid).

    The child exits 0 once its whole result is written, and leaves through
    ``os._exit`` on every path: it never returns into the caller's stack.
    """
    rfd, wfd = os.pipe()
    _flush_std_streams()  # else what this process buffered prints twice
    # Nothing here starts a thread, so the child is a copy of a
    # single-threaded process: no lock can be held by a thread it lacks
    # (numpy's BLAS pool stops itself in a pthread_atfork handler).
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            try:
                blob = pickle.dumps(("ok", fn(item)))
            except BaseException as exc:  # reported; the child exits anyway
                blob = pickle.dumps(("err", f"{type(exc).__name__}: {exc}"))
            with open(wfd, "wb") as pipe:
                pipe.write(blob)
            code = 0
        finally:
            try:
                _flush_std_streams()
            finally:
                os._exit(code)
    os.close(wfd)
    return rfd, pid


def _result(blob: bytes, status: int) -> Tuple[Any, Optional[str]]:
    """``(result, None)`` or ``(None, error)`` from one finished child."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0 and blob:
        tag, value = pickle.loads(blob)
        return (value, None) if tag == "ok" else (None, value)
    how = (f"with exit status {code}" if code >= 0 else
           f"by signal {-code} ({signal.strsignal(-code)})")
    return None, f"worker process terminated {how} before sending a result"


def fork_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int,
    done: Callable[[int, Any, Optional[str]], None],
) -> None:
    """Run ``fn(item)`` for every item, each in a child forked from here.

    At most ``jobs`` children run at once.  Only ``fn``'s result crosses
    back (pickled), so ``fn`` may be a closure.  ``done(index, result,
    error)`` runs here as each child finishes; ``error`` is ``None`` or
    names the exception ``fn`` raised, the pickling error, or the exit
    status or signal of a child that died before sending a whole result.
    No child outlives the call, even when ``done`` raises.
    """
    if not hasattr(os, "fork"):
        raise ValueError("parallel runs fork one child per task and this "
                         "platform has no os.fork; run with --jobs 1")
    todo = list(enumerate(items))[::-1]
    live: Dict[int, Tuple[int, int, List[bytes]]] = {}  # fd: index, pid, data
    selector = selectors.DefaultSelector()
    try:
        while todo or live:
            while todo and len(live) < jobs:
                index, item = todo.pop()
                fd, pid = _fork(fn, item)
                live[fd] = (index, pid, [])
                selector.register(fd, selectors.EVENT_READ)
            # Drain every pipe as data arrives: a result can exceed the
            # pipe buffer, and its child blocks until it is read.
            for key, _ in selector.select():
                index, pid, chunks = live[key.fd]
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    chunks.append(chunk)
                    continue
                status = os.waitpid(pid, 0)[1]
                del live[key.fd]
                selector.unregister(key.fd)
                os.close(key.fd)
                done(index, *_result(b"".join(chunks), status))
    finally:
        for fd, (_, pid, _) in live.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        selector.close()


def _ok_line(done: int, total: int, cell: CampaignCell,
             payload: Dict[str, Any]) -> str:
    return (f"[{done}/{total}] {cell.cell_id} ok in "
            f"{float(payload['wall']):.1f}s (pid {payload.get('pid', '?')})")


class CampaignExecutor:
    """Deterministic fan-out of campaign cells, one forked child per cell."""

    def __init__(
        self,
        config: ExecutorConfig = ExecutorConfig(),
        progress: Optional[ProgressFn] = None,
        worker: Callable[..., Dict[str, Any]] = execute_cell,
    ):
        self.config = config
        self.progress = progress
        # Injectable for tests (crash drills); any callable will do, as
        # only its result crosses the process boundary.
        self.worker = worker

    def execute(
        self,
        cells: Sequence[CampaignCell],
        config: QuantifyConfig,
    ) -> ExecutionReport:
        """Run every cell once in a forked child and report in grid order.

        At most ``self.config.jobs`` children run at once.  A cell that
        raises, or whose child dies, fails alone and the others run on.
        """
        cells = list(cells)
        indices = [c.index for c in cells]
        if len(set(indices)) != len(indices):
            raise ValueError("campaign cells carry duplicate grid indices")
        outcomes = [CellOutcome(cell=c) for c in cells]
        ok = 0

        def finished(i: int, payload: Any, error: Optional[str]) -> None:
            nonlocal ok
            outcome = outcomes[i]
            if error is not None:
                outcome.error = error
                self._say(f"[{ok}/{len(cells)}] {outcome.cell.cell_id} "
                          f"FAILED: {error}")
                return
            ok += 1
            outcome.doc = payload["doc"]
            outcome.wall = float(payload["wall"])
            self._say(_ok_line(ok, len(cells), outcome.cell, payload))

        t0 = time.perf_counter()
        fork_map(lambda cell: self.worker(cell, config), cells,
                 self.config.jobs, finished)
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
    otherwise each runs in a child a :class:`CampaignExecutor` forks,
    ``jobs`` at a time, and any failed cell raises
    :class:`CellExecutionError`, with the :class:`ExecutionReport`
    attached.  ``progress`` receives one line per completed cell either
    way.
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
        gc.collect()  # a finished world is cyclic garbage: free it now
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

    All versions' cells are concatenated into a single grid, so every
    ``jobs`` slot stays busy across version boundaries (a 4-version × 5-fault
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
