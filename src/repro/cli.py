"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``versions``
    List the named system versions and their composition.
``quantify VERSION [...]``
    Run the full two-phase methodology for one or more versions;
    ``--jobs N`` runs the campaign cells on N worker processes instead
    of this one (byte-identical results, see docs/PERFORMANCE.md).
``sweep VERSION KNOB VALUE [...]``
    Vary one profile knob across values and tabulate availability;
    ``--jobs N`` measures the points in parallel.
``explain VERSION FAULT``
    One single-fault experiment under span tracing and the wall-time
    profiler: where the lost requests went (stage timeline and loss
    table), this fault's unavailability budget, the tail-latency blame
    per fault phase, and the per-layer wall split; ``--json`` for
    machines, ``--out RECORD`` also saves the flight record.
``reproduce-all [--only GLOB] [--check]``
    Regenerate the registered artifacts, the paper's figures and tables
    among them; ``--check`` judges each by its claims or its baseline.
``validate VERSION``
    Empirical model validation under a random fault load.
``lint [PATH ...]``
    Repo-native static analysis (reprolint, rules REP001..REP016) over
    the source tree, one file at a time; ``--diff REF`` lints only the
    files changed since a git ref, ``--format json`` for the CI artifact.
``sanitize``
    Differential determinism check: one cell re-run under ``--vary
    hashseed|tiebreak|obs|jobs``; every observable must meet its
    contract (see docs/ANALYSIS.md).
``digest VERSION FAULT``
    Fingerprint one run — the worker the ``hashseed`` variant spawns,
    also useful for manual diffing.
``sensitivity VERSION [--target A]``
    Rank the what-if levers; ``--target A`` also searches for a path to
    availability A.

Version names are case-insensitive and accept aliases (``pressha`` is
the paper's fully-hardened FME configuration).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.core.quantify import QuantifyConfig, quantify_version, run_single_fault
from repro.core.report import (
    format_comparison,
    format_model_result,
    model_result_to_dict,
)
from repro.experiments.configs import VERSIONS, version
from repro.faults.types import FaultKind
from repro.obs.telemetry import Telemetry


def _config(args) -> QuantifyConfig:
    return QuantifyConfig.quick() if args.quick else QuantifyConfig.from_env()


def _version(name: str):
    """Alias-aware version lookup with a CLI-friendly error."""
    try:
        return version(name)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def cmd_versions(args) -> int:
    if args.json:
        from dataclasses import asdict

        print(json.dumps({name: asdict(spec) for name, spec in VERSIONS.items()},
                         indent=2, sort_keys=True))
        return 0
    print(f"{'name':<12} composition")
    for name, spec in VERSIONS.items():
        parts = []
        parts.append("cooperative" if spec.cooperative else "independent")
        parts.append(f"{spec.server_count} nodes")
        if spec.frontend:
            parts.append("front-end" + ("(conn-mon)" if spec.fe_conn_monitoring else "(ping)"))
        if spec.membership:
            parts.append("membership")
        if spec.queue_monitoring:
            parts.append("queue-mon")
        if spec.fme:
            parts.append("FME")
        if spec.sfme:
            parts.append("S-FME")
        if spec.catalog_transforms:
            parts.append("+".join(spec.catalog_transforms))
        print(f"{name:<12} {', '.join(parts)}")
    return 0


def cmd_quantify(args) -> int:
    from repro.parallel import CellExecutionError, quantify_grid

    config = _config(args)
    specs = [_version(name) for name in args.versions]
    print(f"quantifying {', '.join(s.name for s in specs)}...",
          file=sys.stderr)
    try:
        grid = quantify_grid(
            specs, config, jobs=args.jobs,
            progress=lambda line: print(line, file=sys.stderr))
    except (CellExecutionError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    results = [grid[spec.name].result for spec in specs]
    if args.json:
        print(json.dumps([model_result_to_dict(r) for r in results],
                         indent=2, sort_keys=True))
        return 0
    for result in results:
        print(format_model_result(result, stages=args.stages))
        print()
    if len(results) > 1:
        print(format_comparison(results, "comparison"))
    return 0


def _section(title: str) -> str:
    return f"== {title} " + "=" * max(0, 66 - len(title))


def cmd_explain(args) -> int:
    """One injected run, four answers: lost requests, budget, tails, wall."""
    from repro.core.model import AvailabilityModel
    from repro.experiments.runner import build_world
    from repro.obs.attribution import StageAttributor
    from repro.obs.budget import build_budget, format_budget
    from repro.obs.recorder import FlightRecord, write_record
    from repro.obs.spans import (
        blame_report,
        format_blame,
        phases_from_trace,
        render_waterfall,
        spans_digest,
    )
    from repro.obs.timeline import render_timeline, throughput_buckets

    spec = _version(args.version)
    kind = FaultKind(args.fault)
    config = _config(args)
    if args.seed is not None and args.seed != config.seed:
        config = replace(config, seed=args.seed)
    # Building a world runs nothing: refuse an absent component before
    # the warm-up, not after it.
    injectable = build_world(spec, config.profile, seed=config.seed,
                             telemetry=Telemetry.disabled()).injectable_kinds()
    if kind not in injectable:
        raise SystemExit(
            f"error: {spec.name} has no component for {kind.value}; it can "
            f"inject {', '.join(k.value for k in injectable)}")

    telemetry = Telemetry(trace_spans=True, profile_time=True)
    trace, world = run_single_fault(spec, kind, config, target=args.target,
                                    telemetry=telemetry)
    events = telemetry.tracer.events
    record = FlightRecord.from_experiment(
        trace, events=events, seed=config.seed, profile=config.profile.name,
        target=args.target or world.default_target(kind))
    if args.out:
        write_record(record, args.out)
    report = StageAttributor(config.fit).attribute(record)
    catalog = spec.catalog()
    result = AvailabilityModel(catalog, config.environment).evaluate(
        {kind: report.template}, trace.normal_tput, trace.offered_rate,
        version=spec.name)
    budget = build_budget(result, catalog, measured=[report])
    trees = dict(telemetry.spans.trees())  # the span records, built once
    blame = blame_report(trees.items(),
                         phases=phases_from_trace(events, trace.t_end))
    profiler = telemetry.profiler

    if args.json:
        times, rates = throughput_buckets(trace)
        print(json.dumps({
            "version": record.version,
            "fault": record.fault,
            "target": record.target,
            "seed": record.seed,
            "profile": record.profile,
            "timeline": record.timeline,
            "throughput": {"times": [float(t) for t in times],
                           "rates": [float(r) for r in rates]},
            "attribution": report.to_dict(),
            "budget": budget.to_dict(),
            "blame": dict(blame, spans_digest=spans_digest(
                span for tree in trees.values() for span in tree)),
            "wall": profiler.snapshot(),
            "metrics": telemetry.metrics.snapshot(),
        }, sort_keys=True))
        return 0

    print(_section("lost requests"))
    print(render_timeline(record, report))
    print(f"cooperation sets: "
          f"{[sorted(getattr(s, 'coop', [])) for s in world.servers]}")
    print()
    print(_section("budget"))
    print(format_budget(budget))
    print()
    print(_section("tails"))
    print(format_blame(blame))
    during = [p for p in blame["phases"]
              if p["label"].startswith("during") and p["groups"]]
    if during:
        req = during[0]["groups"][0]["example_req"]
        print(f"\nslowest request of the top group, {during[0]['label']}:")
        print(render_waterfall(trees[req]))
    print()
    print(_section("wall"))
    print("span recording was on: absolute times include its cost")
    print(profiler.report())
    return 0


# -- sweep command ----------------------------------------------------------

#: knob name -> (help text, apply(profile, value) -> profile)
SWEEP_KNOBS = {
    "heartbeat": ("heartbeat interval in seconds", lambda p, v: replace(
        p, press=p.press.with_(heartbeat_interval=v))),
    "cache-files": ("per-node cache size in files",
                    lambda p, v: p.with_cache_files(int(v))),
    "disk-queue": ("disk queue capacity in requests", lambda p, v: replace(
        p, press=p.press.with_(disk_queue_capacity=int(v)))),
    "coop-rate": ("offered load for cooperative versions (req/s)",
                  lambda p, v: replace(p, coop_rate=float(v))),
}


def cmd_sweep(args) -> int:
    from repro.experiments.sweep import Sweep

    spec = _version(args.version)  # alias-aware existence check
    _help, apply_fn = SWEEP_KNOBS[args.knob]
    sweep = Sweep(args.knob, values=args.values, apply=apply_fn,
                  quick=not args.full, seed=args.seed)

    def measure(config: QuantifyConfig) -> dict:
        """One sweep point: quantify the version under the varied profile."""
        va = quantify_version(spec, config)
        return {"availability": va.availability,
                "unavailability": va.unavailability,
                "normal_tput": va.normal_tput}

    if args.jobs > 1:
        print(f"sweeping {args.knob} over {len(args.values)} points "
              f"({args.jobs} workers)...", file=sys.stderr)
    result = sweep.run(measure, jobs=args.jobs)
    if args.json:
        print(json.dumps({"version": spec.name, "sweep": result.name,
                          "rows": result.rows}, indent=2, sort_keys=True))
    else:
        print(f"{spec.name}: {args.knob} sweep")
        print(result.text())
    return 0


def cmd_sensitivity(args) -> int:
    """Which lever buys the most availability next (Section 8's question)."""
    from repro.core.quantify import quantify_version
    from repro.core.sensitivity import SensitivityAnalysis, format_levers

    config = _config(args)
    va = quantify_version(_version(args.version), config)
    analysis = SensitivityAnalysis(
        va.templates, va.spec.catalog(), config.environment,
        va.normal_tput, va.offered_rate, version=args.version)
    print(f"{args.version}: availability {analysis.baseline.availability:.5f} "
          f"({analysis.nines():.2f} nines)\n")
    print(format_levers(analysis.ranked_levers(),
                        analysis.baseline.unavailability))
    if args.target:
        steps = analysis.path_to(args.target)
        print(f"\ngreedy path toward {args.target}:")
        for i, step in enumerate(steps, 1):
            print(f"  {i}. {step.description} -> {step.new_unavailability:.2e}")
        if not steps:
            print("  (already there, or no lever helps)")
    return 0


def _git_changed_files(ref: str) -> List[str]:
    """``*.py`` paths changed since ``ref`` (per ``git diff --name-only``)."""
    import subprocess

    proc = subprocess.run(
        ["git", "diff", "--name-only", ref, "--"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"error: git diff {ref} failed: {proc.stderr.strip()}")
    return [ln.strip() for ln in proc.stdout.splitlines()
            if ln.strip().endswith(".py")]


def _restrict_to_changed(paths: List[str], ref: str) -> List[str]:
    """The requested lint targets, narrowed to files changed since ``ref``."""
    from repro.analysis.lint import iter_python_files

    wanted = {str(Path(p).resolve()) for p in iter_python_files(paths)}
    changed = [c for c in _git_changed_files(ref)
               if Path(c).exists() and str(Path(c).resolve()) in wanted]
    return sorted(changed)


def cmd_lint(args) -> int:
    from repro.analysis.lint import LintResult, audit_suppressions, lint_paths
    from repro.analysis.report import (
        render_json,
        render_rules,
        render_text,
        write_json,
    )

    if args.list_rules:
        print(render_rules())
        return 0
    if args.docs:
        # the docs pass is its own domain (markdown corpus, not python
        # sources) — it runs standalone and every finding is an error
        from repro.analysis.doccheck import check_docs, format_doccheck

        docs_result = check_docs(root=args.docs_root)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "w", encoding="utf-8") as fp:
                json.dump(docs_result.to_dict(), fp, indent=2, sort_keys=True)
                fp.write("\n")
        if args.format == "json":
            print(json.dumps(docs_result.to_dict(), indent=2, sort_keys=True))
        else:
            print(format_doccheck(docs_result))
        return 0 if docs_result.ok else 1
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        raise SystemExit(f"error: no such path: {', '.join(missing)}")

    changed: Optional[List[str]] = None
    if args.diff is not None:
        changed = _restrict_to_changed(args.paths, args.diff)

    result = lint_paths(args.paths if changed is None else changed)
    audit = audit_suppressions(result.declared_suppressions,
                               result.used_suppressions)
    if audit:
        merged = sorted(result.findings + audit,
                        key=lambda f: (f.path, f.line, f.col, f.rule))
        result = LintResult(findings=merged,
                            files_scanned=result.files_scanned,
                            suppressed=result.suppressed,
                            declared_suppressions=result.declared_suppressions,
                            used_suppressions=result.used_suppressions)

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fp:
            write_json(result, fp)
    if args.format == "json":
        print(json.dumps(render_json(result), indent=2, sort_keys=True))
    else:
        print(render_text(result, verbose=args.verbose))
    failed = bool(result.errors) or (args.strict and result.warnings)
    return 1 if failed else 0


def _scenario(args):
    from repro.analysis.differential import Scenario

    length = "smoke" if args.smoke else "full" if args.full else "quick"
    return Scenario(_version(args.version).name, args.fault, args.seed, length)


def cmd_sanitize(args) -> int:
    from repro.analysis.differential import differential, format_report

    try:
        report = differential(_scenario(args), args.vary or ["hashseed"])
    except (RuntimeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_report(report))
    return 0 if report.ok else 1


def cmd_digest(args) -> int:
    from repro.analysis.differential import digest_document

    print(json.dumps(digest_document(_scenario(args)), sort_keys=True))
    return 0


def cmd_validate(args) -> int:
    from repro.core.validation import validate_model

    result = validate_model(args.version, horizon=args.horizon)
    print(f"version {result.version}: predicted availability "
          f"{result.predicted_availability:.5f}, measured "
          f"{result.measured_availability:.5f} "
          f"({result.faults_injected} random faults over {result.horizon:.0f}s)")
    print(f"measured/predicted unavailability ratio: {result.ratio:.2f}")
    return 0


def cmd_reproduce_all(args) -> int:
    from repro.artifacts import format_manifest, reproduce_all

    try:
        manifest = reproduce_all(
            only=args.only,
            quick=getattr(args, "quick", False),
            jobs=args.jobs,
            check=args.check,
            out_dir=args.out_dir,
            manifest_path=args.manifest,
            progress=lambda msg: print(msg, file=sys.stderr, flush=True),
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_manifest(manifest))
    return 0 if manifest.ok else 1


def _add_common(p: argparse.ArgumentParser, json_flag: bool = False) -> None:
    # --quick is also accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a top-level `--quick` with a False default.
    p.add_argument("--quick", action="store_true", default=argparse.SUPPRESS,
                   help="shorter experiment windows")
    if json_flag:
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")


def _add_length(p: argparse.ArgumentParser) -> None:
    # One explicit length switch: the run never reads REPRO_QUICK.
    length = p.add_mutually_exclusive_group()
    length.add_argument("--smoke", action="store_true",
                        help="the short fixed cell instead of a campaign")
    length.add_argument("--full", action="store_true",
                        help="full-length campaign windows (default: quick)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC'03 cluster-service availability reproduction",
    )
    parser.add_argument("--quick", action="store_true",
                        help="shorter experiment windows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("versions", help="list system versions")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_versions)

    p = sub.add_parser("quantify", help="run the methodology for versions")
    p.add_argument("versions", nargs="+", metavar="VERSION")
    p.add_argument("--stages", action="store_true",
                   help="per-fault 7-stage drill-down in the report")
    p.add_argument("--jobs", type=int, default=1,
                   help="fan campaign cells out over N worker processes "
                        "(results are byte-identical to --jobs 1)")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_quantify)

    p = sub.add_parser("sweep",
                       help="vary one profile knob; tabulate availability")
    p.add_argument("version")
    p.add_argument("knob", choices=sorted(SWEEP_KNOBS),
                   help="; ".join(f"{k}: {h}"
                                  for k, (h, _) in sorted(SWEEP_KNOBS.items())))
    p.add_argument("values", nargs="+", type=float, metavar="VALUE")
    p.add_argument("--jobs", type=int, default=1,
                   help="measure sweep points on N worker processes")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--full", action="store_true",
                   help="full-length campaign windows (default: quick)")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("explain",
                       help="one single-fault experiment: where the lost "
                            "requests and the wall time went")
    p.add_argument("version")
    p.add_argument("fault", choices=[k.value for k in FaultKind])
    p.add_argument("--target", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="master RNG seed (default: config seed)")
    p.add_argument("--out", default=None, metavar="RECORD",
                   help="also write the run's flight record to this path")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("validate", help="empirical model validation")
    p.add_argument("version")
    p.add_argument("--horizon", type=float, default=7200.0)
    _add_common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("lint",
                       help="repo-native static analysis "
                            "(reprolint rules REP001..REP016)")
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories to lint (default: src/repro)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None,
                   help="also write the JSON report to this file")
    p.add_argument("--strict", action="store_true",
                   help="warnings also fail the gate")
    p.add_argument("--verbose", action="store_true",
                   help="append each finding's rationale")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule registry and exit")
    p.add_argument("--diff", default=None, metavar="GIT_REF",
                   help="only report findings in files changed since "
                        "GIT_REF (fast pre-commit mode)")
    p.add_argument("--docs", action="store_true",
                   help="standalone docs cross-reference pass: every "
                        "path, CLI subcommand, make target, BENCH_* "
                        "document, and rule id referenced in README.md/"
                        "ARTIFACTS.md/DESIGN.md/EXPERIMENTS.md/docs/*.md "
                        "must exist")
    p.add_argument("--docs-root", default=".", metavar="DIR",
                   help="repo root the docs corpus is resolved against "
                        "(default: .)")
    _add_common(p)
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("sanitize",
                       help="differential determinism check: re-run one cell "
                            "under a variation; every observable must meet "
                            "its contract")
    p.add_argument("--vary", action="append", metavar="VARIANT",
                   help="hashseed, tiebreak, obs or jobs (repeatable; "
                        "default: hashseed)")
    p.add_argument("--version", default="coop", dest="version",
                   help="system version to run (default: coop)")
    p.add_argument("--fault", default="node_crash",
                   choices=[k.value for k in FaultKind])
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    _add_length(p)
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    p.set_defaults(fn=cmd_sanitize)

    p = sub.add_parser("digest",
                       help="fingerprint one run (the worker of "
                            "`sanitize --vary hashseed`)")
    p.add_argument("version")
    p.add_argument("fault", nargs="?", default="node_crash",
                   choices=[k.value for k in FaultKind])
    p.add_argument("--seed", type=int, default=0)
    _add_length(p)
    p.set_defaults(fn=cmd_digest)

    p = sub.add_parser("sensitivity",
                       help="rank what-if levers; optionally search a path "
                            "to a target availability")
    p.add_argument("version")
    p.add_argument("--target", type=float, default=None,
                   help="e.g. 0.99999 for five nines")
    _add_common(p)
    p.set_defaults(fn=cmd_sensitivity)

    p = sub.add_parser(
        "reproduce-all",
        help="regenerate every registered artifact (figures, BENCH_* "
             "documents, analysis reports) with a SHA-256 + provenance "
             "manifest; see ARTIFACTS.md")
    p.add_argument("--only", default=None, metavar="GLOB",
                   help="restrict to artifacts whose name matches GLOB "
                        "(fnmatch, e.g. 'fig*' or 'bench-*')")
    p.add_argument("--jobs", type=int, default=1,
                   help="fan campaign cells out over N worker processes "
                        "(results are byte-identical to --jobs 1)")
    p.add_argument("--check", action="store_true",
                   help="diff regenerated artifacts against their "
                        "committed baselines; drift fails the run")
    p.add_argument("--out-dir", default="results/reproduce", metavar="DIR",
                   help="directory regenerated artifacts are written to")
    p.add_argument("--manifest", default="results/MANIFEST.json",
                   metavar="FILE",
                   help="where to write the provenance manifest")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_reproduce_all)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
