#!/usr/bin/env python
"""Parallel campaigns: fan a multi-version study out over worker
processes, then prove the results are byte-identical to a serial run.

`quantify_grid` shards every (version, fault, seed) cell of a
four-version study into one grid, each cell run in a forked child,
`JOBS` at a time. The merge is keyed on
grid order — never completion order — so the parallel artifacts digest
identically to the serial ones; this script verifies that with a
chained SHA-256 over every fitted template.

The default run restricts the campaign to two fault kinds so the
serial verification pass stays cheap; `FULL=1` runs every kind.

Run:  python examples/parallel_quantify.py        (~2 min incl. serial check)
      JOBS=2 python examples/parallel_quantify.py
      FULL=1 python examples/parallel_quantify.py  (full grids, ~10 min serial)
"""

import hashlib
import json
import os

from repro.core import QuantifyConfig, quantify_version
from repro.faults import FaultKind
from repro.parallel import quantify_grid

VERSIONS = ("INDEP", "COOP", "MQ", "FME")
QUICK_KINDS = (FaultKind.APP_CRASH, FaultKind.NODE_CRASH)


def study_digest(results):
    """Chained SHA-256 over every version's fitted templates and model
    numbers, in study order."""
    digest = hashlib.sha256(b"parallel-quantify-example")
    for name in VERSIONS:
        va = results[name]
        doc = {
            "availability": va.availability,
            "normal_tput": va.normal_tput,
            "stages": {
                kind.value: [[n, t.stages[n].duration, t.stages[n].throughput]
                             for n in sorted(t.stages)]
                for kind, t in sorted(va.templates.items(),
                                      key=lambda kv: kv[0].value)
            },
        }
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        digest.update(hashlib.sha256(payload.encode("utf-8")).digest())
    return digest.hexdigest()


def main() -> None:
    config = QuantifyConfig.quick(
        kinds=None if os.environ.get("FULL") else QUICK_KINDS)
    jobs = int(os.environ.get("JOBS", "4"))

    print(f"parallel study: {', '.join(VERSIONS)} on {jobs} workers")
    parallel = quantify_grid(VERSIONS, config, jobs=jobs, progress=print)

    print("serial rerun for the determinism check...")
    serial = {name: quantify_version(name, config) for name in VERSIONS}

    print(f"\n{'version':<8}{'availability':>14}{'unavailability':>16}")
    for name in VERSIONS:
        va = parallel[name]
        print(f"{name:<8}{va.availability:>14.5f}{va.unavailability:>16.5f}")

    d_par, d_ser = study_digest(parallel), study_digest(serial)
    print(f"\nparallel digest: {d_par}")
    print(f"serial digest:   {d_ser}")
    if d_par != d_ser:
        raise SystemExit("DIVERGED: parallel run is not byte-identical!")
    print("identical — jobs=%d changed nothing but the wall clock." % jobs)


if __name__ == "__main__":
    main()
