"""Executor plumbing: ordering, crash isolation, progress, stats.

The test workers here are module-level functions (the spawn pool pickles
them by reference) and take the *pass-through* ``config`` slot as a
scratch-directory path — the executor never introspects the config it
ships to workers, so the drills stay simulation-free and fast.
"""

import os
import pickle
from pathlib import Path

import pytest

from repro.faults.campaign import CampaignCell
from repro.parallel import (
    CampaignExecutor,
    CellExecutionError,
    ExecutorConfig,
    pinned_hashseed,
    run_campaign_cells,
    worker_init,
)


def cells_for(n):
    return [CampaignCell(index=i, version="SYNTH", fault="app_crash", seed=0)
            for i in range(n)]


# -- module-level drill workers (picklable into spawned children) ----------
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
    """Dies hard (breaking the pool) on the odd cells."""
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


class TestPinnedHashseed:
    def test_sets_and_restores_when_unset(self, monkeypatch):
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        with pinned_hashseed("5"):
            assert os.environ["PYTHONHASHSEED"] == "5"
        assert "PYTHONHASHSEED" not in os.environ

    def test_restores_previous_value(self, monkeypatch):
        monkeypatch.setenv("PYTHONHASHSEED", "42")
        with pinned_hashseed("5"):
            assert os.environ["PYTHONHASHSEED"] == "5"
        assert os.environ["PYTHONHASHSEED"] == "42"

    def test_worker_init_requires_pin(self, monkeypatch):
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        with pytest.raises(RuntimeError, match="PYTHONHASHSEED"):
            worker_init()
        monkeypatch.setenv("PYTHONHASHSEED", "0")
        worker_init()  # no raise


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
        assert 1 in [o.cell.index for o in report.failures]
        assert report.stats.failed == len(report.failures)
        assert all("BrokenProcessPool" in o.error or "terminated" in o.error
                   for o in report.failures)

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
