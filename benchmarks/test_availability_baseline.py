"""Availability/throughput regression gate.

Runs the registry's ``bench-availability`` artifact — a fixed
(version, fault-kind) matrix on the SMALL profile, pinned to an explicit
quick campaign at seed 0 with two fault kinds, so every CI job measures
the same experiment — into ``results/`` and checks it against the
committed ``BENCH_availability.json`` with the same rule ``repro
reproduce-all --check`` applies: per-version unavailability within ±35%
and average throughput (AT) within ±10% of the baseline, the same fault
kinds and profile, and Figure 1a's ordering (COOP above INDEP in both
throughput and unavailability).  A legitimate change refreshes the
baseline by copying ``results/BENCH_availability.json``.
"""

from __future__ import annotations

from pathlib import Path

from repro.artifacts.registry import REGISTRY, ReproduceContext

REPO = Path(__file__).resolve().parent.parent


def test_availability_baseline(benchmark):
    artifact = REGISTRY["bench-availability"]
    ctx = ReproduceContext(out_dir=REPO / "results", baseline_root=REPO,
                           progress=print)
    summary = benchmark.pedantic(artifact.generate, args=(ctx,),
                                 rounds=1, iterations=1)
    print(f"wrote {ctx.out_dir / artifact.outputs[0]}: {summary}")
    assert artifact.check(ctx, artifact) == []
