"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload coop-crash-cell --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no profiler attached;
``--trace 1`` runs the separate traced pass and reports the per-layer
metrics.  The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full record (provenance, per-cell
failures, raw samples) that ``perfbench/compare.py`` reads.  Workload
names, metrics and units are declared in ``BENCHMARK.json``.

``--record-expected`` runs one repetition and stores its cell
fingerprints in ``perfbench/expected.json`` for that seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: set-up samples per run (each a fresh interpreter); the median is reported
SETUP_SAMPLES = 5

#: reference units a set-up probe times before and after its set-up
PROBE_REF_UNITS = 8


def load_spec() -> Dict[str, Any]:
    with open(SPEC, encoding="utf-8") as fp:
        return json.load(fp)


def setup_seconds(workload: str, seed: int,
                  samples: int) -> List[Tuple[float, float]]:
    """Host seconds from process start to the first cell, per fresh process.

    Each sample starts a new interpreter that imports the benchmark, builds
    the version spec and probe world, and prints ``ready`` when its first
    cell would start.  The probe times reference units before and after
    its set-up; returns ``(host seconds without them, speed factor)``.
    """
    from hostspeed import speed_factor

    out = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        words = line.split()
        if code != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        ref_s, ref_n = float(words[1]), int(words[2])
        out.append((elapsed - ref_s, speed_factor(ref_s, ref_n)))
    return out


def setup_probe(workload: str, seed: int) -> None:
    """The probe's side of :func:`setup_seconds`."""
    from hostspeed import time_ref_units

    ref_s = time_ref_units(PROBE_REF_UNITS)
    import workloads

    workloads.prepare(workload, seed)
    ref_s += time_ref_units(PROBE_REF_UNITS)
    print(f"ready {ref_s!r} {2 * PROBE_REF_UNITS}", flush=True)


def metric_block(names: List[Dict[str, Any]],
                 values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in names}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, setup_samples: int = SETUP_SAMPLES,
                 expected: Optional[Dict[str, Any]] = None,
                 worker=None) -> Dict[str, Any]:
    """Run one workload; returns ``{"record": ..., "result": ...}``."""
    import workloads
    from repro.obs.perf import provenance

    spec = load_spec()
    if expected is None:
        expected = workloads.load_expected().get(workload) if not smoke else None
    setups = setup_seconds(workload, seed, setup_samples)
    prep = workloads.prepare(workload, seed, smoke)
    if trace:
        values, attempted, failed = workloads.traced_pass(
            prep, expected, micro_scale=0.05 if smoke else 1.0)
        metrics = metric_block(spec["per_layer"], values)
        samples: Dict[str, Any] = {}
    else:
        values, reps, failed = workloads.measure(
            prep, seconds, expected, worker or workloads.measured_cell_worker)
        values["setup_s"] = statistics.median(s / f for s, f in setups)
        attempted = sum(r.cells for r in reps)
        metrics = metric_block(spec["end_to_end"], values)
        samples = {"rep_cells": [r.cells for r in reps],
                   "rep_host_wall_s": [r.wall for r in reps],
                   "rep_speed_factor": [r.speed_factor for r in reps]}
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "jobs": min(prep.workload.jobs, workloads.usable_cpus()),
        "provenance": provenance(),
        "setup_samples": [{"host_s": s, "speed_factor": f}
                          for s, f in setups],
        "samples": samples,
        "failed_cells": failed,
    }
    return {"record": record, "result": result}


def record_expected(workload: str, seed: int) -> None:
    import workloads

    prep = workloads.prepare(workload, seed)
    rep = workloads.run_unit(prep)
    if rep.errors:
        raise RuntimeError(f"cells failed: {rep.errors}")
    table = workloads.load_expected()
    table.setdefault(workload, {})[str(seed)] = {
        "cells": rep.fingerprints, "availability": rep.availability}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fp:
        json.dump(table, fp, indent=2, sort_keys=True)
        fp.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-length windows (the smoke tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # provenance() asks git about the working tree; keep git from searching
    # the directories above the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.record_expected:
        record_expected(args.workload, args.seed)
        return 0

    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), smoke=args.smoke)
    print(json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


def stop_helper_processes() -> None:
    """End every process ``multiprocessing`` started here and wait for it.

    The spawn pool starts a resource-tracker process that ignores SIGTERM
    and SIGINT and lives until this process's end of its pipe closes; it
    is never waited for.  Close the pipe and reap it, and reap any pool
    worker an error path left behind, so nothing outlives the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    # The guard is load-bearing: the spawn pool re-imports this module in
    # every worker, and unguarded top-level code would run there too.
    try:
        code = main()
    finally:
        stop_helper_processes()
    sys.exit(code)
