"""Parallel-executor benchmark: speedup accounting + digest equality.

Runs the default INDEP quick grid serially and with ``jobs=4``, asserts
the merged flight records have equal fingerprints (the determinism
contract — this part is unconditional), and records wall times to
``results/BENCH_parallel.json``.  The ≥1.5x speedup floor is only
asserted on hosts with at least 4 cores: parallel overlap is a property
of the hardware, digest equality is a property of the code, and only the
latter can gate every environment.

The config is pinned (explicit quick campaign, seed 0) so every CI run
measures the same grid.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.differential import fingerprint_digest, fingerprint_record
from repro.core.quantify import QuantifyConfig, quantify_version

BASELINE = Path(__file__).resolve().parent / "BENCH_parallel.json"
RESULTS = Path(__file__).resolve().parent.parent / "results"

VERSION = "INDEP"
JOBS = 4
SPEEDUP_FLOOR = 1.5
#: cores needed before the speedup floor is enforceable
MIN_CORES_FOR_SPEEDUP = 4


def artifact_digest(va) -> str:
    """One fingerprint digest over the run's flight records, in fault order."""
    return fingerprint_digest([fingerprint_record(va.records[kind])
                               for kind in sorted(va.records, key=lambda k: k.value)])


def measure_current() -> dict:
    config = QuantifyConfig.quick(seed=0)

    t0 = time.perf_counter()
    serial = quantify_version(VERSION, config, keep_records=True)
    serial_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = quantify_version(VERSION, config, keep_records=True, jobs=JOBS)
    parallel_wall = time.perf_counter() - t0

    serial_digest = artifact_digest(serial)
    parallel_digest = artifact_digest(parallel)
    return {
        "version": VERSION,
        "profile": config.profile.name,
        "seed": config.seed,
        "jobs": JOBS,
        "cells": len(serial.records),
        "cores": os.cpu_count(),
        "serial_wall_seconds": serial_wall,
        "parallel_wall_seconds": parallel_wall,
        "speedup": serial_wall / parallel_wall if parallel_wall > 0 else 0.0,
        "serial_digest": serial_digest,
        "parallel_digest": parallel_digest,
        "digests_equal": serial_digest == parallel_digest,
        "availability": serial.availability,
    }


def test_parallel_baseline(benchmark):
    current = benchmark.pedantic(measure_current, rounds=1, iterations=1)

    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / "BENCH_parallel.json"
    out.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    print(f"serial {current['serial_wall_seconds']:.1f}s, "
          f"parallel({JOBS}) {current['parallel_wall_seconds']:.1f}s, "
          f"speedup {current['speedup']:.2f}x on {current['cores']} cores")

    # The determinism half of the contract gates everywhere.
    assert current["digests_equal"], (
        f"parallel artifacts diverged from serial: "
        f"{current['parallel_digest']} != {current['serial_digest']}")

    if not BASELINE.exists():
        pytest.fail(f"missing baseline {BASELINE}; copy {out} there to seed it")
    baseline = json.loads(BASELINE.read_text())
    assert baseline["version"] == current["version"]
    assert baseline["profile"] == current["profile"]
    assert baseline["jobs"] == current["jobs"]
    # the availability number itself is the serial pipeline's output and
    # must match the baseline exactly under a pinned seed
    assert current["availability"] == pytest.approx(
        baseline["availability"], rel=1e-12)

    # The performance half gates only where the hardware can deliver it.
    cores = current["cores"] or 1
    if cores >= MIN_CORES_FOR_SPEEDUP:
        assert current["speedup"] >= SPEEDUP_FLOOR, (
            f"speedup {current['speedup']:.2f}x below the {SPEEDUP_FLOOR}x "
            f"floor on {cores} cores")
    else:
        print(f"(speedup floor skipped: {cores} core(s) < "
              f"{MIN_CORES_FOR_SPEEDUP})")
