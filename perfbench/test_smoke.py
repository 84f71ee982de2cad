"""Smoke tests of the benchmark itself, at reduced-length windows.

Run from the repository root (takes a few minutes; not part of the
repo's tier-1 suite)::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.quantify import (  # noqa: E402
    QuantifyConfig,
    quantify_version,
    run_single_fault,
)
from repro.faults.types import FaultKind  # noqa: E402
from repro.parallel.executor import quantify_grid  # noqa: E402
from repro.parallel.worker import execute_cell  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(name, trace, **kw):
    kw.setdefault("setup_samples", 1)
    return run.run_workload(name, seed=0, seconds=0.1, trace=trace,
                            smoke=True, **kw)


def crash_on_app_hang(cell, config):
    """Executor worker whose process dies on one cell of the grid."""
    if cell.fault == FaultKind.APP_HANG.value:
        os._exit(3)
    return execute_cell(cell, config)


@pytest.fixture(scope="module")
def smoke_runs():
    return {(name, trace): _run(name, trace)
            for name in NAMES for trace in (False, True)}


def test_spec_names_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(smoke_runs, name, trace):
    result = smoke_runs[(name, trace)]["result"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(smoke_runs, name):
    first = smoke_runs[(name, True)]["result"]["metrics"]
    second = _run(name, True)["result"]["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for key in counts:
        assert first[key]["value"] == second[key]["value"], key
    assert first["kernel.events_processed"]["value"] > 0


def test_availability_matches_repo_entry_points(smoke_runs):
    def availability(name):
        return smoke_runs[(name, False)]["result"]["metrics"][
            "availability"]["value"]

    smoke = QuantifyConfig(seed=0, campaign=workloads.SMOKE_WINDOWS)
    _trace, world = run_single_fault(
        workloads.version("COOP"), FaultKind.NODE_CRASH, smoke)
    assert availability("coop-crash-cell") == world.stats.availability()
    assert availability("indep-grid-spans") == \
        quantify_version("INDEP", smoke).availability
    assert availability("fme-grid-j2") == \
        quantify_grid(["FME"], smoke, jobs=2)["FME"].availability


def test_injected_fingerprint_mismatch_fails_a_cell():
    prep = workloads.prepare("coop-crash-cell", 0, smoke=True)
    good = workloads.run_unit(prep)
    wrong = {"0": {"cells": {"node_crash": "0" * 64},
                   "availability": good.availability}}
    out = _run("coop-crash-cell", False, expected=wrong)
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == 1
    assert "expected" in next(iter(out["record"]["failed_cells"].values()))

    right = {"0": {"cells": good.fingerprints,
                   "availability": good.availability}}
    assert _run("coop-crash-cell", False, expected=right)["result"]["correct"]


def test_injected_worker_crash_counts_failed_cells():
    out = _run("fme-grid-j2", False, worker=crash_on_app_hang)
    result = out["result"]
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert any("BrokenProcessPool" in why or "terminated" in why
               for why in out["record"]["failed_cells"].values())


def test_cli_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "coop-crash-cell", "--seed", "1", "--seconds", "0.1", "--trace",
         "0", "--smoke"], cwd=ROOT, capture_output=True, text=True,
        timeout=300, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    assert record["provenance"]["host_fingerprint"]
    assert record["provenance"]["cpu_count"] >= 1


def test_cli_refuses_without_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "coop-crash-cell", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
