"""One grid path: every quantification runs its cells through
``run_campaign_cells`` and one merge, whatever ``jobs`` is.
"""

import dataclasses

import pytest

import repro.parallel.executor as executor
from repro.core.quantify import QuantifyConfig, quantify_version
from repro.experiments.configs import version
from repro.faults.types import FaultKind


@pytest.fixture
def no_cells_run(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(executor, "run_campaign_cells", refuse)


def test_with_nodes_version_runs_on_the_pool():
    spec = version("INDEP").with_nodes(4)
    config = QuantifyConfig.quick(kinds=(FaultKind.APP_CRASH,))
    serial = quantify_version(spec, config)
    pooled = quantify_version(spec, config, jobs=2)
    assert pooled.availability == serial.availability
    assert pooled.spec == serial.spec == spec


@pytest.mark.parametrize("jobs", [1, 2])
def test_spec_its_name_does_not_resolve_to_is_rejected(no_cells_run, jobs):
    spec = dataclasses.replace(version("COOP"), queue_monitoring=True)
    with pytest.raises(ValueError, match="'COOP'"):
        quantify_version(spec, QuantifyConfig.quick(), jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_kind_the_version_cannot_inject_is_rejected(no_cells_run, jobs):
    config = QuantifyConfig.quick(
        kinds=(FaultKind.APP_CRASH, FaultKind.FRONTEND_FAILURE))
    with pytest.raises(ValueError, match="cannot inject frontend_failure"):
        quantify_version("INDEP", config, jobs=jobs)


def test_duplicate_versions_rejected(no_cells_run):
    with pytest.raises(ValueError, match="duplicate"):
        executor.quantify_grid(["INDEP", "indep"], QuantifyConfig.quick())


def test_serial_progress_one_line_per_cell():
    lines = []
    config = QuantifyConfig.quick(
        kinds=(FaultKind.APP_CRASH, FaultKind.APP_HANG))
    quantify_version("INDEP", config, progress=lines.append)
    assert [line.split(" ok in ")[0] for line in lines] == [
        "[1/2] 0000:INDEP:app_crash:0", "[2/2] 0001:INDEP:app_hang:0"]
