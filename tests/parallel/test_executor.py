"""Executor plumbing: ordering, crash isolation, progress, stats.

Each cell runs in a child forked from the test process, so a worker can
be any callable, a closure included.  The drill workers take the
*pass-through* ``config`` slot as a scratch-directory path — the
executor never introspects the config it hands to workers, so the
drills stay simulation-free and fast.
"""

import gc
import os
import pickle
import time
import warnings
from pathlib import Path

import pytest

import repro.parallel.executor as executor
from repro.core.quantify import QuantifyConfig, campaign_cells
from repro.faults.campaign import CampaignCell, CampaignConfig
from repro.faults.types import FaultKind
from repro.parallel import (
    CampaignExecutor,
    CellExecutionError,
    ExecutorConfig,
    run_campaign_cells,
)
from repro.sim.kernel import Environment


def cells_for(n):
    return [CampaignCell(index=i, version="SYNTH", fault="app_crash", seed=0)
            for i in range(n)]


# -- drill workers -------------------------------------------------------------
def echo_worker(cell, scratch):
    return {"doc": {"schema": 1, "cell": cell.to_dict(), "record": None},
            "wall": 0.01, "pid": os.getpid()}


def raise_on_odd_worker(cell, scratch):
    """Logs every attempt, then raises on the odd cells."""
    with open(Path(scratch) / f"cell-{cell.index}.attempts", "a") as log:
        log.write("x")
    if cell.index % 2:
        raise RuntimeError(f"cell {cell.index} refuses")
    return echo_worker(cell, scratch)


def exit_on_odd_worker(cell, scratch):
    """Dies hard, before sending a result, on the odd cells."""
    if cell.index % 2:
        os._exit(13)
    return echo_worker(cell, scratch)


class TestExecutorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutorConfig(jobs=0)

    def test_defaults(self):
        cfg = ExecutorConfig()
        assert cfg.jobs == 2


class TestCampaignCell:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignCell(index=-1, version="V", fault="app_crash", seed=0)
        with pytest.raises(ValueError):
            CampaignCell(index=0, version="V", fault="app_crash", seed=-1)
        with pytest.raises(ValueError):
            CampaignCell(index=0, version="V", fault="not_a_fault", seed=0)

    def test_pickle_and_dict_roundtrip(self):
        cell = CampaignCell(index=3, version="COOP", fault="node_crash",
                            seed=7, target="n2")
        assert pickle.loads(pickle.dumps(cell)) == cell
        assert CampaignCell.from_dict(cell.to_dict()) == cell
        assert cell.cell_id == "0003:COOP:node_crash:7"


class TestExecute:
    def test_docs_in_grid_order(self, tmp_path):
        cells = cells_for(4)
        executor = CampaignExecutor(ExecutorConfig(jobs=2),
                                    worker=echo_worker)
        report = executor.execute(cells, str(tmp_path))
        assert [o.cell.index for o in report.outcomes] == [0, 1, 2, 3]
        assert [d["cell"]["index"] for d in report.docs] == [0, 1, 2, 3]
        assert report.stats.cells == 4 and report.stats.failed == 0
        assert report.stats.wall_seconds > 0
        assert report.stats.cell_seconds == pytest.approx(0.04)

    def test_duplicate_indices_rejected(self, tmp_path):
        cells = [CampaignCell(index=0, version="V", fault="app_crash", seed=0),
                 CampaignCell(index=0, version="V", fault="app_hang", seed=0)]
        executor = CampaignExecutor(worker=echo_worker)
        with pytest.raises(ValueError, match="duplicate"):
            executor.execute(cells, str(tmp_path))

    def test_raising_cell_fails_alone_after_one_attempt(self, tmp_path):
        cells = cells_for(3)
        executor = CampaignExecutor(ExecutorConfig(jobs=2),
                                    worker=raise_on_odd_worker)
        report = executor.execute(cells, str(tmp_path))
        failed = report.failures
        assert [o.cell.index for o in failed] == [1]
        assert "RuntimeError" in failed[0].error
        assert (tmp_path / "cell-1.attempts").read_text() == "x"
        # survivors are intact and still in grid order
        assert [d["cell"]["index"] for d in report.docs] == [0, 2]
        assert report.stats.failed == 1

    def test_worker_death_still_reports(self, tmp_path):
        cells = cells_for(2)
        executor = CampaignExecutor(ExecutorConfig(jobs=2),
                                    worker=exit_on_odd_worker)
        report = executor.execute(cells, str(tmp_path))
        assert [o.cell.index for o in report.outcomes] == [0, 1]
        assert [o.cell.index for o in report.failures] == [1]
        assert [d["cell"]["index"] for d in report.docs] == [0]
        assert report.stats.failed == 1
        error = report.failures[0].error
        assert "terminated" in error and "exit status 13" in error

    def test_closure_worker_runs_in_children(self, tmp_path):
        parent = os.getpid()

        def worker(cell, scratch):  # a spawn pool could not pickle this
            payload = echo_worker(cell, scratch)
            payload["doc"]["forked"] = os.getpid() != parent
            return payload

        report = CampaignExecutor(ExecutorConfig(jobs=2),
                                  worker=worker).execute(cells_for(3),
                                                         str(tmp_path))
        assert report.stats.failed == 0
        assert [d["cell"]["index"] for d in report.docs] == [0, 1, 2]
        assert all(d["forked"] for d in report.docs)

    def test_unpicklable_payload_fails_only_its_cell(self, tmp_path):
        def worker(cell, scratch):
            payload = echo_worker(cell, scratch)
            if cell.index == 1:
                payload["doc"]["gen"] = (i for i in range(3))
            return payload

        report = CampaignExecutor(ExecutorConfig(jobs=2),
                                  worker=worker).execute(cells_for(3),
                                                         str(tmp_path))
        assert [o.cell.index for o in report.failures] == [1]
        assert "cannot pickle 'generator' object" in report.failures[0].error
        assert [d["cell"]["index"] for d in report.docs] == [0, 2]

    def test_strict_entry_point_raises(self, tmp_path):
        cells = cells_for(2)
        executor = CampaignExecutor(ExecutorConfig(jobs=2),
                                    worker=raise_on_odd_worker)
        report = executor.execute(cells, str(tmp_path))
        with pytest.raises(CellExecutionError) as exc_info:
            raise CellExecutionError(report)
        assert exc_info.value.report is report
        assert "0001:SYNTH:app_crash:0" in str(exc_info.value)

    def test_progress_lines_emitted(self, tmp_path):
        lines = []
        executor = CampaignExecutor(ExecutorConfig(jobs=2),
                                    progress=lines.append,
                                    worker=echo_worker)
        executor.execute(cells_for(2), str(tmp_path))
        assert len(lines) == 3
        assert all("ok in" in line for line in lines[:2])
        assert lines[2].startswith("parallel: 2 cells on 2 workers in ")


def test_run_campaign_cells_raises_naming_the_failed_cell(tmp_path):
    # run_campaign_cells always uses the real cell worker; with a scratch
    # path for config every cell fails, on the pool with the cell named.
    with pytest.raises(CellExecutionError) as exc_info:
        run_campaign_cells(cells_for(2), str(tmp_path), jobs=2)
    assert "0001:SYNTH:app_crash:0" in str(exc_info.value)
    assert len(exc_info.value.report.failures) == 2


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestChildren:
    """No child outlives ``execute``, whatever the way out."""

    def test_after_a_clean_run(self, tmp_path):
        CampaignExecutor(ExecutorConfig(jobs=2), worker=echo_worker).execute(
            cells_for(3), str(tmp_path))
        assert_no_children()

    def test_after_a_child_dies(self, tmp_path):
        report = CampaignExecutor(ExecutorConfig(jobs=2),
                                  worker=exit_on_odd_worker).execute(
            cells_for(4), str(tmp_path))
        assert report.stats.failed == 2
        assert_no_children()

    def test_after_progress_raises_on_the_first_line(self, tmp_path):
        def slow_after_first(cell, scratch):
            if cell.index:
                time.sleep(60)
            return echo_worker(cell, scratch)

        def refuse(line):
            raise RuntimeError(f"progress refused {line!r}")

        executor = CampaignExecutor(ExecutorConfig(jobs=2), progress=refuse,
                                    worker=slow_after_first)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=r"refused '\[1/3\] 0000"):
            executor.execute(cells_for(3), str(tmp_path))
        assert time.monotonic() - t0 < 30  # the sleeping child was killed
        assert_no_children()


def test_fork_with_numpy_loaded_does_not_warn(tmp_path):
    np = pytest.importorskip("numpy")
    a = np.ones((256, 256))
    assert (a @ a)[0, 0] == 256.0  # starts the BLAS thread pool, if any
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = CampaignExecutor(ExecutorConfig(jobs=2),
                                  worker=echo_worker).execute(
            cells_for(3), str(tmp_path))
    assert report.stats.failed == 0
    assert not [w for w in caught if "multi-threaded" in str(w.message)
                and "fork" in str(w.message)]


def test_without_fork_parallel_runs_refuse_before_any_cell(tmp_path,
                                                           monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="--jobs 1"):
        CampaignExecutor(ExecutorConfig(jobs=2),
                         worker=raise_on_odd_worker).execute(
            cells_for(2), str(tmp_path))
    assert not list(tmp_path.iterdir())


def test_in_process_cells_leave_no_worlds_behind(monkeypatch):
    config = QuantifyConfig(
        campaign=CampaignConfig(warmup=20.0, normal_window=5.0,
                                fault_active=10.0, post_repair_observe=10.0,
                                reset_duration=5.0, post_reset_observe=5.0),
        kinds=(FaultKind.APP_CRASH, FaultKind.APP_HANG, FaultKind.NODE_CRASH))
    cells = campaign_cells("INDEP", config)
    live = []
    real = executor.execute_cell

    def counting(cell, cfg):
        live.append(sum(isinstance(o, Environment) for o in gc.get_objects()))
        return real(cell, cfg)

    monkeypatch.setattr(executor, "execute_cell", counting)
    gc.collect()
    run_campaign_cells(cells, config, jobs=1)
    assert live == [live[0]] * 3
