"""Parallel-executor benchmark: speedup accounting + digest equality.

Runs the registry's ``bench-parallel`` artifact — the INDEP quick grid
serially and with ``jobs=4``, pinned to seed 0 — into ``results/`` and
checks it against the committed ``BENCH_parallel.json`` with the same
rule ``repro reproduce-all --check`` applies.  Serial and parallel
fingerprints must match (the generator raises otherwise) and the
availability must match the baseline exactly; the ≥1.5x speedup floor
only gates on hosts with at least 4 cores.
"""

from __future__ import annotations

from pathlib import Path

from repro.artifacts.registry import REGISTRY, ReproduceContext

REPO = Path(__file__).resolve().parent.parent


def test_parallel_baseline(benchmark):
    artifact = REGISTRY["bench-parallel"]
    ctx = ReproduceContext(out_dir=REPO / "results", baseline_root=REPO,
                           progress=print)
    summary = benchmark.pedantic(artifact.generate, args=(ctx,),
                                 rounds=1, iterations=1)
    print(f"wrote {ctx.out_dir / artifact.outputs[0]}: {summary}")
    assert artifact.check(ctx, artifact) == []
