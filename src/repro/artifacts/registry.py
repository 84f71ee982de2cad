"""The artifact registry: every result this repository ships, as code.

Each :class:`Artifact` names one deliverable — a paper figure/table, a
``BENCH_*`` baseline document, an analysis report — together with the
callable that regenerates it, the output files it writes (relative to
the run's output directory, ``results/reproduce/`` by default), whether
its bytes are deterministic on a fixed tree, the committed baseline it
is diffed against under ``--check``, and the paper figure it serves.
``ARTIFACTS.md`` documents the same set for humans, and a test asserts
the two stay in sync.

Regeneration commands (the exact CLI equivalents are listed per entry
in ``ARTIFACTS.md``):

* figures/tables run in-process through a shared
  :class:`~repro.experiments.figures.Evaluation` cache so versions
  quantified by several figures are measured once; ``--jobs N`` fans
  their campaign cells over the PR-5 parallel executor;
* bench documents run a pinned measurement (explicit windows and seed,
  whatever ``REPRO_QUICK`` says), so a ``--check`` diff here means the
  committed baseline genuinely drifted; ``reproduce-all --check`` is
  the only path that regenerates and checks them;
* the lint report shells out to the real ``repro lint`` CLI (the same
  invocation CI uses), keeping the registry honest about what the
  documented command produces.

Comparison semantics under ``--check`` follow the repo convention:
digest-backed outputs are compared exactly or value-exactly, while
host-dependent speed numbers use the existing gate tolerances (the
≥4-core guard for the parallel speedup floor).
"""

from __future__ import annotations

import fnmatch
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: availability gate tolerances: AA drift is judged on the unavailability
#: axis (relative — 0.999 vs 0.9992 is a 25% swing in downtime, not a
#: 0.02% one), AT relatively
UNAVAILABILITY_RTOL = 0.35
THROUGHPUT_RTOL = 0.10
#: speedup a 4-worker pool must reach on the INDEP quick grid
PARALLEL_SPEEDUP_FLOOR = 1.5
MIN_CORES_FOR_PERF_CHECK = 4


class ReproduceError(RuntimeError):
    """An artifact failed to regenerate (bad result, not a crash)."""


@dataclass
class ReproduceContext:
    """Shared state of one ``reproduce-all`` run."""

    quick: bool = True
    jobs: int = 1
    out_dir: Path = Path("results/reproduce")
    #: root the committed baselines are resolved under (the repo checkout;
    #: tests point this at a scratch tree to exercise drift detection)
    baseline_root: Path = Path(".")
    progress: Optional[Callable[[str], None]] = None
    _evaluation: Any = field(default=None, repr=False)

    def say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def evaluation(self):
        """The shared figure-quantification cache (built lazily so
        non-figure selections never pay for it)."""
        if self._evaluation is None:
            from repro.core.quantify import QuantifyConfig
            from repro.experiments.figures import Evaluation

            config = (QuantifyConfig.quick() if self.quick
                      else QuantifyConfig())
            self._evaluation = Evaluation(config, jobs=self.jobs)
        return self._evaluation

    def baseline_path(self, rel: str) -> Path:
        return Path(self.baseline_root) / rel


@dataclass(frozen=True)
class Artifact:
    """One registered deliverable."""

    name: str
    description: str
    kind: str                    # figure | bench | report
    generate: Callable[[ReproduceContext], Dict[str, Any]]
    outputs: Tuple[str, ...]     # relative to ctx.out_dir
    deterministic: bool
    paper_ref: Optional[str] = None
    baseline: Optional[str] = None   # repo-relative committed document
    #: returns drift messages against the committed baseline (``--check``)
    check: Optional[Callable[[ReproduceContext, "Artifact"], List[str]]] = None


def _write_json(path: Path, doc: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _load_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


# ---------------------------------------------------------------------------
# figures and tables


def _gen_figure(fig_name: str):
    def generate(ctx: ReproduceContext) -> Dict[str, Any]:
        from repro.experiments.artifacts import write_figure
        from repro.experiments.figures import ALL_FIGURES, fig9

        ev = ctx.evaluation()
        if fig_name == "fig9" and ctx.quick:
            # the direct 8-node re-measurements are full-mode only; the
            # scaled-model rows still regenerate
            figure = fig9(ev, measure_direct=False)
        else:
            figure = ALL_FIGURES[fig_name](ev)
        write_figure(figure, ctx.out_dir / "figures")
        return {"title": figure.title, "rows": len(figure.rows)}

    return generate


#: registry entries for the paper's evaluation section
_FIGURES: Tuple[Tuple[str, str, str], ...] = (
    ("fig1a", "Figure 1a", "independent vs cooperative: throughput gain "
     "vs unavailability cost"),
    ("fig1b", "Figure 1b", "theoretical HW vs SW improvement over COOP"),
    ("fig2", "Figure 2", "the fitted 7-stage throughput template "
     "(COOP, SCSI timeout)"),
    ("fig4", "Figure 4", "COOP throughput timeline under a disk fault"),
    ("fig6", "Figure 6", "unavailability under additional hardware"),
    ("fig7", "Figure 7", "HA techniques, predicted vs measured"),
    ("fig8", "Figure 8", "stronger FME + hardware variants"),
    ("fig9", "Figure 9", "scaling FME to 8/16 nodes"),
    ("fig10", "Figure 10", "scaling COOP to 8/16 nodes"),
    ("table1", "Table 1", "the fault loads (MTTF/MTTR/counts)"),
    ("table2", "Table 2", "implementation effort vs unavailability "
     "reduction"),
)


# ---------------------------------------------------------------------------
# bench documents


def _gen_bench_availability(ctx: ReproduceContext) -> Dict[str, Any]:
    """The pinned (version, fault-kind) availability matrix behind
    ``benchmarks/BENCH_availability.json`` (explicit quick campaign,
    seed 0, two fault kinds, so every run measures the same experiment
    whatever ``REPRO_QUICK`` says)."""
    from repro.core.quantify import QuantifyConfig, quantify_version
    from repro.faults.types import FaultKind

    kinds = (FaultKind.NODE_CRASH, FaultKind.APP_CRASH)
    config = QuantifyConfig.quick(kinds=kinds, seed=0)
    rows = {}
    for name in ("INDEP", "COOP"):
        ctx.say(f"  quantifying {name} (2-kind pinned grid)...")
        va = quantify_version(name, config, jobs=ctx.jobs)
        rows[name] = {
            "AA": va.availability,
            "AT": va.normal_tput,
            "unavailability": va.unavailability,
        }
    doc = {
        "profile": config.profile.name,
        "seed": config.seed,
        "kinds": [k.value for k in kinds],
        "versions": rows,
    }
    _write_json(ctx.out_dir / "BENCH_availability.json", doc)
    return {"versions": sorted(rows)}


def _check_availability(ctx: ReproduceContext,
                        artifact: Artifact) -> List[str]:
    current = _load_json(ctx.out_dir / "BENCH_availability.json")
    baseline = _load_json(ctx.baseline_path(artifact.baseline or ""))
    messages: List[str] = []
    for key in ("kinds", "profile"):
        if current.get(key) != baseline.get(key):
            messages.append(f"{key} changed: baseline {baseline.get(key)!r} "
                            f"vs regenerated {current.get(key)!r}")
    for name, base in sorted(baseline.get("versions", {}).items()):
        row = current.get("versions", {}).get(name)
        if row is None:
            messages.append(f"version {name} missing from regenerated matrix")
            continue
        base_u = max(base["unavailability"], 1e-12)
        rel_u = abs(row["unavailability"] - base["unavailability"]) / base_u
        if rel_u > UNAVAILABILITY_RTOL:
            messages.append(
                f"{name}: unavailability {row['unavailability']:.6f} drifted "
                f"{rel_u:.0%} from baseline {base['unavailability']:.6f} "
                f"(> {UNAVAILABILITY_RTOL:.0%})")
        rel_t = abs(row["AT"] - base["AT"]) / max(base["AT"], 1e-12)
        if rel_t > THROUGHPUT_RTOL:
            messages.append(
                f"{name}: throughput {row['AT']:.1f} drifted {rel_t:.0%} "
                f"from baseline {base['AT']:.1f} (> {THROUGHPUT_RTOL:.0%})")
    # the ordering Figure 1a hinges on: cooperation buys throughput at
    # the cost of availability
    rows = current.get("versions", {})
    coop, indep = rows.get("COOP"), rows.get("INDEP")
    if coop is not None and indep is not None:
        if coop["AT"] <= indep["AT"]:
            messages.append(f"COOP throughput {coop['AT']:.1f} is not above "
                            f"INDEP's {indep['AT']:.1f} (Figure 1a ordering)")
        if coop["unavailability"] <= indep["unavailability"]:
            messages.append(
                f"COOP unavailability {coop['unavailability']:.3e} is not "
                f"above INDEP's {indep['unavailability']:.3e} "
                f"(Figure 1a ordering)")
    return messages


def _gen_bench_parallel(ctx: ReproduceContext) -> Dict[str, Any]:
    """The serial-vs-parallel executor measurement behind
    ``benchmarks/BENCH_parallel.json``: the INDEP quick grid serially and
    on a 4-worker pool, with one fingerprint digest per run."""
    import time

    from repro.analysis.differential import fingerprint_digest, fingerprint_record
    from repro.core.quantify import QuantifyConfig, quantify_version

    def artifact_digest(va: Any) -> str:
        return fingerprint_digest([fingerprint_record(va.records[kind])
                                   for kind in sorted(va.records, key=lambda k: k.value)])

    config = QuantifyConfig.quick(seed=0)
    jobs = 4
    ctx.say("  INDEP quick grid, serial...")
    t0 = time.perf_counter()
    serial = quantify_version("INDEP", config, keep_records=True)
    serial_wall = time.perf_counter() - t0
    ctx.say(f"  INDEP quick grid, {jobs} workers...")
    t0 = time.perf_counter()
    parallel = quantify_version("INDEP", config, keep_records=True, jobs=jobs)
    parallel_wall = time.perf_counter() - t0

    serial_digest = artifact_digest(serial)
    parallel_digest = artifact_digest(parallel)
    doc = {
        "version": "INDEP",
        "profile": config.profile.name,
        "seed": config.seed,
        "jobs": jobs,
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
    _write_json(ctx.out_dir / "BENCH_parallel.json", doc)
    if not doc["digests_equal"]:
        raise ReproduceError(
            f"parallel artifacts diverged from serial: "
            f"{parallel_digest} != {serial_digest}")
    return {"cells": doc["cells"], "speedup": round(doc["speedup"], 3)}


def _check_parallel(ctx: ReproduceContext, artifact: Artifact) -> List[str]:
    current = _load_json(ctx.out_dir / "BENCH_parallel.json")
    baseline = _load_json(ctx.baseline_path(artifact.baseline or ""))
    messages: List[str] = []
    # The serial fingerprint (markers, request outcomes and success
    # timestamps, clock, templates) is a pure function of the pinned seed,
    # so a kernel change that moves any of them fails here even when the
    # availability does not move.
    for key in ("version", "profile", "jobs", "serial_digest"):
        if current.get(key) != baseline.get(key):
            messages.append(f"{key} changed: baseline {baseline.get(key)!r} "
                            f"vs regenerated {current.get(key)!r}")
    # the availability number is the serial pipeline's deterministic
    # output under a pinned seed — it must match the baseline exactly
    base_a, cur_a = baseline.get("availability"), current.get("availability")
    if base_a is not None and cur_a is not None:
        if abs(cur_a - base_a) > 1e-12 * max(abs(base_a), 1.0):
            messages.append(f"availability {cur_a!r} != baseline {base_a!r} "
                            f"(pinned-seed output must match exactly)")
    cores = current.get("cores") or 1
    if cores >= MIN_CORES_FOR_PERF_CHECK and \
            current.get("speedup", 0.0) < PARALLEL_SPEEDUP_FLOOR:
        messages.append(
            f"speedup {current.get('speedup', 0.0):.2f}x below the "
            f"{PARALLEL_SPEEDUP_FLOOR}x floor on {cores} cores")
    return messages


# ---------------------------------------------------------------------------
# analysis reports (the lint report runs through the real CLI, as CI runs it)


def _run_cli(ctx: ReproduceContext, args: Sequence[str],
             ok_codes: Tuple[int, ...] = (0,)) -> None:
    """Run ``python -m repro ...`` as a subprocess with ``src`` importable
    (works from a bare checkout — no editable install required)."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, env=env,
                          check=False)
    if proc.returncode not in ok_codes:
        tail = (proc.stderr.strip() or proc.stdout.strip())[-500:]
        raise ReproduceError(
            f"`repro {' '.join(args)}` exited {proc.returncode}: {tail}")


def _gen_lint(ctx: ReproduceContext) -> Dict[str, Any]:
    out = ctx.out_dir / "reprolint.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    _run_cli(ctx, ["lint", "src/repro", "--strict", "--format", "json",
                   "--out", str(out)])
    doc = _load_json(out)
    return {"files_scanned": doc.get("files_scanned"),
            "errors": doc.get("errors"), "warnings": doc.get("warnings")}


def _check_lint_clean(ctx: ReproduceContext, artifact: Artifact) -> List[str]:
    doc = _load_json(ctx.out_dir / artifact.outputs[0])
    messages: List[str] = []
    if doc.get("errors"):
        messages.append(f"{doc['errors']} lint error(s) on the tree")
    if doc.get("warnings"):
        messages.append(f"{doc['warnings']} lint warning(s) on the tree "
                        f"(strict gate)")
    return messages


def _gen_sanitize(ctx: ReproduceContext) -> Dict[str, Any]:
    """The differential determinism report (`repro sanitize`): COOP
    node_crash under the hashseed, tiebreak and obs variants.  Quick mode
    runs the smoke cell; full mode the quick campaign (the CI
    configuration)."""
    from repro.analysis.differential import Scenario, differential

    scenario = Scenario(length="smoke" if ctx.quick else "quick")
    report = differential(scenario, ("hashseed", "tiebreak", "obs"))
    _write_json(ctx.out_dir / "sanitize.json", report.to_dict())
    if not report.ok:
        raise ReproduceError("a sanitize variant diverged; run `repro sanitize` "
                             "for the first divergence")
    return {"length": scenario.length, "runs": len(report.runs)}


def _gen_docs_check(ctx: ReproduceContext) -> Dict[str, Any]:
    """The docs cross-reference report (`repro lint --docs`)."""
    from repro.analysis.doccheck import check_docs

    result = check_docs(root=str(ctx.baseline_root))
    _write_json(ctx.out_dir / "docscheck.json", result.to_dict())
    if not result.ok:
        raise ReproduceError(
            f"{len(result.findings)} stale documentation reference(s); "
            f"run `repro lint --docs` for the list")
    return {"docs_scanned": result.docs_scanned,
            "refs_checked": result.refs_checked}


# ---------------------------------------------------------------------------
# the registry itself


def _registry() -> Dict[str, Artifact]:
    entries: List[Artifact] = []
    for name, ref, desc in _FIGURES:
        entries.append(Artifact(
            name=name,
            description=desc,
            kind="figure",
            generate=_gen_figure(name),
            outputs=(f"figures/{name}.txt", f"figures/{name}.csv"),
            deterministic=True,
            paper_ref=ref,
        ))
    entries.append(Artifact(
        name="bench-availability",
        description="pinned INDEP/COOP availability+throughput matrix "
                    "(the regression-gate baseline)",
        kind="bench",
        generate=_gen_bench_availability,
        outputs=("BENCH_availability.json",),
        deterministic=True,
        paper_ref="Figure 1a (gate subset)",
        baseline="benchmarks/BENCH_availability.json",
        check=_check_availability,
    ))
    entries.append(Artifact(
        name="bench-parallel",
        description="serial-vs-parallel campaign executor measurement "
                    "(byte-identical digests + speedup accounting)",
        kind="bench",
        generate=_gen_bench_parallel,
        outputs=("BENCH_parallel.json",),
        deterministic=False,
        baseline="benchmarks/BENCH_parallel.json",
        check=_check_parallel,
    ))
    entries.append(Artifact(
        name="lint",
        description="reprolint determinism report (REP001-007, REP011, "
                    "REP013, REP016) over src/repro, strict",
        kind="report",
        generate=_gen_lint,
        outputs=("reprolint.json",),
        deterministic=True,
        check=_check_lint_clean,
    ))
    entries.append(Artifact(
        name="sanitize",
        description="differential determinism report: one cell under the "
                    "hashseed, tiebreak and obs variants, judged by the "
                    "contract",
        kind="report",
        generate=_gen_sanitize,
        outputs=("sanitize.json",),
        deterministic=True,
    ))
    entries.append(Artifact(
        name="docs-check",
        description="documentation cross-reference report (file paths, "
                    "CLI subcommands, make targets, rule ids)",
        kind="report",
        generate=_gen_docs_check,
        outputs=("docscheck.json",),
        deterministic=True,
    ))
    return {a.name: a for a in entries}


#: name -> Artifact, in registration (execution) order
REGISTRY: Dict[str, Artifact] = _registry()


def select(only: Optional[str] = None) -> List[Artifact]:
    """Registry entries matching the ``--only`` glob (all, when None)."""
    if only is None:
        return list(REGISTRY.values())
    chosen = [a for name, a in REGISTRY.items()
              if fnmatch.fnmatchcase(name, only)]
    return chosen
