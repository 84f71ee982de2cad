"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``versions``
    List the named system versions and their composition.
``quantify VERSION [...]``
    Run the full two-phase methodology for one or more versions;
    ``--jobs N`` fans the campaign cells out over N worker processes
    (byte-identical results, see docs/PERFORMANCE.md), ``--retries K``
    re-executes cells whose worker crashed.
``sweep VERSION KNOB VALUE [...]``
    Vary one profile knob across values and tabulate availability;
    ``--jobs N`` measures the points in parallel.
``inject VERSION FAULT``
    One single-fault experiment with a throughput timeline.
``trace VERSION FAULT``
    One single-fault experiment, emitting the structured telemetry trace
    (JSONL by default, ``--format csv`` for spreadsheets; ``--kind`` /
    ``--component`` / ``--limit`` select a subset).
``spans VERSION FAULT``
    One single-fault experiment under causal request tracing: per-request
    span trees.  ``--waterfall REQ`` renders one request's ASCII
    waterfall, ``--critical-path REQ`` its per-hop latency attribution,
    and the default ``--blame`` groups the p99-slowest requests by
    critical-path signature and dominant hop before/during/after the
    fault.  ``--sample``/``--max-requests`` bound the recording cost;
    ``--out`` exports spans as JSONL trace events.
``metrics VERSION``
    Fault-free run; dump the metrics registry snapshot (histograms include
    p50/p90/p99).
``profile VERSION``
    Fault-free run with kernel profiling; report the event-loop hot
    spots (``--time`` adds wall-time attribution per event kind /
    process type / subsystem; ``--json``/``--top N`` for machines).
``bench``
    Kernel benchmark harness: standardized scenarios measured with
    observability off / enabled-unsubscribed / fully exporting —
    events/sec, wall-per-cell, overhead ratios, hot-path attribution.
    ``--gate`` enforces the committed ``benchmarks/BENCH_kernel.json``
    baseline; every run appends a provenance-stamped record to
    ``benchmarks/TREND.jsonl`` (``--trend`` renders the trajectory).
``record VERSION FAULT``
    One single-fault experiment captured as a replayable flight-recorder
    artifact (JSON) for offline re-analysis.
``budget RECORD [RECORD ...]``
    Re-fit and attribute recorded flights; print the per-version
    unavailability error budget with stage-level drill-down.
``timeline RECORD``
    ASCII throughput/stage timeline of a recorded flight.
``figure NAME``
    Regenerate one of the paper's figures/tables (fig1a..fig10, table1/2).
``validate VERSION``
    Empirical model validation under a random fault load.
``lint [PATH ...]``
    Repo-native static analysis (reprolint, rules REP001..REP013) over
    the source tree; ``--flow`` adds the whole-program call-graph pass,
    ``--diff REF`` restricts reporting to files changed since a git ref,
    ``--format json`` for the CI artifact.
``sanitize``
    Differential determinism check: one cell re-run under ``--vary
    hashseed|tiebreak|obs|jobs``; every observable must meet its
    contract (see docs/ANALYSIS.md).
``digest VERSION FAULT``
    Fingerprint one run — the worker the ``hashseed`` variant spawns,
    also useful for manual diffing.

Version names are case-insensitive and accept aliases (``pressha`` is
the paper's fully-hardened FME configuration).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.quantify import QuantifyConfig, quantify_version, run_single_fault
from repro.core.report import (
    format_bar,
    format_comparison,
    format_model_result,
    model_result_to_dict,
)
from repro.experiments.configs import VERSIONS, version
from repro.faults.types import FaultKind
from repro.obs.export import (
    event_to_dict,
    filter_events,
    format_metrics,
    write_csv,
    write_jsonl,
    write_metrics_json,
)
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
    config = _config(args)
    results = []
    if args.jobs > 1:
        from repro.parallel import CellExecutionError, quantify_grid

        specs = [_version(name) for name in args.versions]
        print(f"quantifying {', '.join(s.name for s in specs)} "
              f"({args.jobs} workers)...", file=sys.stderr)
        stats_out = []
        try:
            grid = quantify_grid(
                specs, config, jobs=args.jobs, retries=args.retries,
                progress=lambda line: print(line, file=sys.stderr),
                stats_out=stats_out)
        except (CellExecutionError, ValueError) as exc:
            raise SystemExit(f"error: {exc}")
        for spec in specs:
            va = grid[spec.name]
            results.append(va.result)
            if not args.json:
                print(format_model_result(va.result, stages=args.stages))
                print()
        for s in stats_out:
            print(f"parallel: {s.cells} cells on {s.jobs} workers in "
                  f"{s.wall_seconds:.1f}s wall ({s.cell_seconds:.1f}s of "
                  f"cell work, {s.speedup:.2f}x overlap)", file=sys.stderr)
    else:
        for name in args.versions:
            print(f"quantifying {name}...", file=sys.stderr)
            va = quantify_version(_version(name), config)
            results.append(va.result)
            if not args.json:
                print(format_model_result(va.result, stages=args.stages))
                print()
    if args.json:
        print(json.dumps([model_result_to_dict(r) for r in results],
                         indent=2, sort_keys=True))
    elif len(results) > 1:
        print(format_comparison(results, "comparison"))
    return 0


def _timeline_dict(trace) -> dict:
    return {
        "t_inject": trace.t_inject,
        "t_detect": trace.t_detect,
        "t_repair": trace.t_repair,
        "t_reset": trace.t_reset,
        "t_end": trace.t_end,
        "normal_tput": trace.normal_tput,
    }


def cmd_inject(args) -> int:
    config = _config(args)
    kind = FaultKind(args.fault)
    telemetry = Telemetry()
    trace, world = run_single_fault(_version(args.version), kind, config,
                                    target=args.target, telemetry=telemetry)
    if args.json:
        start = max(trace.t_inject - 20.0, 0.0)
        times, rates = trace.series.bucketize(5.0, start, trace.t_end)
        print(json.dumps({
            "version": trace.version,
            "fault": kind.value,
            "target": args.target or world.default_target(kind),
            "timeline": _timeline_dict(trace),
            "throughput": {"times": [float(t) for t in times],
                           "rates": [float(r) for r in rates]},
            "events": [event_to_dict(e) for e in telemetry.tracer.events],
        }, sort_keys=True))
        return 0
    start = max(trace.t_inject - 20.0, 0.0)
    times, rates = trace.series.bucketize(5.0, start, trace.t_end)
    peak = max(float(rates.max()), 1.0)
    for t, r in zip(times, rates):
        marks = []
        for label, t_ev in (("INJECT", trace.t_inject), ("DETECT", trace.t_detect),
                            ("REPAIR", trace.t_repair), ("RESET", trace.t_reset)):
            if t_ev is not None and t <= t_ev < t + 5.0:
                marks.append(label)
        print(f"{t:7.0f} {r:7.1f} {format_bar(r, peak)} {' '.join(marks)}")
    print(f"\ncooperation sets: "
          f"{[sorted(getattr(s, 'coop', [])) for s in world.servers]}")
    return 0


def cmd_trace(args) -> int:
    config = _config(args)
    kind = FaultKind(args.fault)
    telemetry = Telemetry()
    trace, _world = run_single_fault(_version(args.version), kind, config,
                                     target=args.target, telemetry=telemetry)
    events = filter_events(telemetry.tracer.events, kinds=args.kind or None,
                           components=args.component or None,
                           limit=args.limit)
    writer = write_csv if args.format == "csv" else write_jsonl
    if args.out:
        n = writer(events, args.out)
    else:
        n = writer(events, sys.stdout)
    kinds = {}
    for e in events:
        kinds[e.kind] = kinds.get(e.kind, 0) + 1
    print(f"{n} events ({', '.join(f'{k}:{v}' for k, v in sorted(kinds.items()))})",
          file=sys.stderr)
    print(f"inject={trace.t_inject:.1f} detect={trace.t_detect} "
          f"repair={trace.t_repair:.1f} end={trace.t_end:.1f}", file=sys.stderr)
    return 0


def cmd_spans(args) -> int:
    from repro.obs.spans import (
        analyze_tree,
        blame_report,
        filter_spans,
        format_blame,
        format_critical_path,
        phases_from_trace,
        render_waterfall,
        span_event,
        spans_digest,
    )

    config = _config(args)
    kind = FaultKind(args.fault)
    telemetry = Telemetry(trace_spans=True, span_sample=args.sample,
                          span_seed=args.span_seed,
                          span_max_requests=args.max_requests)
    run_single_fault(_version(args.version), kind, config,
                     target=args.target, telemetry=telemetry)
    spans = telemetry.spans

    if args.out:
        selected = filter_spans(spans.spans(), kinds=args.kind or None,
                                components=args.component or None,
                                limit=args.limit)
        n = write_jsonl((span_event(s) for s in selected), args.out)
        print(f"{n} spans exported to {args.out}", file=sys.stderr)

    if args.waterfall is not None:
        tree = spans.tree(args.waterfall)
        if not tree:
            ids = spans.request_ids
            print(f"error: request {args.waterfall} was not sampled "
                  f"({len(ids)} trees recorded"
                  + (f"; e.g. {ids[:5]}" if ids else "") + ")",
                  file=sys.stderr)
            return 1
        if args.json:
            record = analyze_tree(args.waterfall, tree)
            print(json.dumps(record, sort_keys=True))
        else:
            print(render_waterfall(tree))
        return 0

    if args.critical_path is not None:
        tree = spans.tree(args.critical_path)
        record = analyze_tree(args.critical_path, tree) if tree else None
        if record is None:
            print(f"error: request {args.critical_path} was not sampled",
                  file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(format_critical_path(record))
        return 0

    # default: the tail-latency blame report, phased around the fault
    phases = phases_from_trace(telemetry.tracer.events)
    report = blame_report(spans.trees(), percentile=args.percentile,
                          phases=phases, top=args.top)
    report["digest"] = spans_digest(spans.spans())
    report["dropped_trees"] = spans.dropped
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(format_blame(report))
    return 0


def cmd_metrics(args) -> int:
    from repro.experiments.runner import build_world

    config = _config(args)
    telemetry = Telemetry()
    world = build_world(_version(args.version), config.profile,
                        seed=config.seed, telemetry=telemetry)
    until = args.until
    if until is None:
        until = config.campaign.warmup + config.campaign.normal_window
    world.env.run(until=until)
    snapshot = telemetry.metrics.snapshot()
    if args.json:
        write_metrics_json(snapshot, sys.stdout)
    else:
        print(format_metrics(snapshot))
    return 0


def cmd_profile(args) -> int:
    from repro.experiments.runner import build_world

    config = _config(args)
    telemetry = Telemetry(profile_kernel=True, profile_time=args.time)
    world = build_world(_version(args.version), config.profile,
                        seed=config.seed, telemetry=telemetry)
    until = args.until
    if until is None:
        until = config.campaign.warmup + config.campaign.normal_window
    world.env.run(until=until)
    profiler = telemetry.profiler
    assert profiler is not None
    if args.json:
        doc = profiler.snapshot()
        # machine-readable top-N, mirroring the text report's sorting
        doc["top"] = [{"owner": owner, "events": count}
                      for owner, count in profiler.top(args.top)]
        if args.time:
            for table in ("subsystem", "kind", "type"):
                doc[f"top_{table}"] = [
                    {table: key, "seconds": secs}
                    for key, secs in profiler.top_times(table, args.top)
                ]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(profiler.report(top_n=args.top))
    return 0


def cmd_bench(args) -> int:
    from repro.bench import (
        append_trend,
        format_bench,
        format_trend,
        gate,
        read_baseline,
        read_trend,
        run_bench,
    )

    if args.trend:
        print(format_trend(read_trend(args.trend_file),
                           scenario=args.scenario[0] if args.scenario else None))
        return 0

    try:
        report = run_bench(
            scenario_names=args.scenario or None,
            attribution=not args.no_attribution,
            top_n=args.top,
            progress=lambda line: print(line, file=sys.stderr),
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    doc = report.to_dict()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, indent=2, sort_keys=True)
            fp.write("\n")
    if not args.no_trend_append:
        append_trend(report, args.trend_file)
        print(f"trend: appended to {args.trend_file}", file=sys.stderr)

    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_bench(report))

    rc = 0
    if args.gate:
        try:
            baseline = read_baseline(args.baseline)
        except OSError as exc:
            raise SystemExit(f"error: cannot read baseline {args.baseline!r}: "
                             f"{exc}")
        verdict = gate(report, baseline)
        print(verdict.describe(), file=sys.stderr)
        rc = 0 if verdict.ok else 1
    elif not report.ok:
        # even ungated, a digest divergence is always an error
        print("error: observability perturbed simulation results "
              "(digest mismatch)", file=sys.stderr)
        rc = 1
    return rc


def cmd_record(args) -> int:
    from repro.obs.attribution import StageAttributor
    from repro.obs.recorder import record_flight, write_record

    config = _config(args)
    kind = FaultKind(args.fault)
    record = record_flight(_version(args.version), kind, config,
                           target=args.target, seed=args.seed)
    out = args.out
    if out is None:
        out = f"results/records/{record.version}-{kind.value}.json"
    write_record(record, out)
    report = StageAttributor().attribute(record)
    if args.json:
        print(json.dumps({
            "artifact": out,
            "version": record.version,
            "fault": record.fault,
            "target": record.target,
            "seed": record.seed,
            "samples": len(record.samples),
            "events": len(record.events),
            "attribution": report.to_dict(),
        }, sort_keys=True))
        return 0
    print(f"recorded {record.version}/{kind.value} -> {out}")
    print(f"  {len(record.samples)} samples, {len(record.events)} events, "
          f"seed {record.seed}, profile {record.profile}")
    print(f"  attribution: {report.coverage * 100:.1f}% of "
          f"{report.total_lost:.1f} lost request-seconds named; "
          f"fit cross-check "
          f"{'agrees' if report.agrees_with_fit else 'DISAGREES'}")
    return 0


def _load_records(paths):
    from repro.obs.recorder import read_record

    records = []
    for path in paths:
        try:
            records.append(read_record(path))
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"error: cannot read record {path!r}: {exc}")
    return records


def cmd_budget(args) -> int:
    from repro.core.model import EnvironmentParams
    from repro.obs.budget import budget_from_records, format_budget

    records = _load_records(args.records)
    env = EnvironmentParams(operator_response=args.operator_response,
                            reset_duration=args.reset_duration)
    try:
        report = budget_from_records(records, environment=env,
                                     objective=args.objective)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_budget(report))
    return 0


def cmd_timeline(args) -> int:
    from repro.obs.timeline import render_timeline

    record = _load_records([args.record])[0]
    print(render_timeline(record, bucket=args.bucket, width=args.width))
    return 0


def cmd_figure(args) -> int:
    from repro.experiments.figures import ALL_FIGURES, Evaluation

    fig_fn = ALL_FIGURES.get(args.name)
    if fig_fn is None:
        print(f"unknown figure {args.name!r}; choose from {sorted(ALL_FIGURES)}",
              file=sys.stderr)
        return 2
    ev = Evaluation(_config(args))
    print(fig_fn(ev))
    return 0


# -- sweep command ----------------------------------------------------------
# Knob appliers and the measurement live at module level so that a
# parallel sweep (spawn pool) can pickle them; closures cannot cross the
# process boundary.

def _knob_heartbeat(profile, value):
    from dataclasses import replace

    return replace(profile, press=profile.press.with_(heartbeat_interval=value))


def _knob_cache_files(profile, value):
    return profile.with_cache_files(int(value))


def _knob_disk_queue(profile, value):
    from dataclasses import replace

    return replace(profile,
                   press=profile.press.with_(disk_queue_capacity=int(value)))


def _knob_coop_rate(profile, value):
    from dataclasses import replace

    return replace(profile, coop_rate=float(value))


#: knob name -> (help text, apply(profile, value) -> profile)
SWEEP_KNOBS = {
    "heartbeat": ("heartbeat interval in seconds", _knob_heartbeat),
    "cache-files": ("per-node cache size in files", _knob_cache_files),
    "disk-queue": ("disk queue capacity in requests", _knob_disk_queue),
    "coop-rate": ("offered load for cooperative versions (req/s)",
                  _knob_coop_rate),
}


def _sweep_availability(version_name: str, config: QuantifyConfig) -> dict:
    """One sweep point: quantify the version under the varied profile."""
    va = quantify_version(version(version_name), config)
    return {
        "availability": va.availability,
        "unavailability": va.unavailability,
        "normal_tput": va.normal_tput,
    }


def cmd_sweep(args) -> int:
    import functools

    from repro.experiments.sweep import Sweep

    spec = _version(args.version)  # alias-aware existence check
    _help, apply_fn = SWEEP_KNOBS[args.knob]
    sweep = Sweep(args.knob, values=args.values, apply=apply_fn,
                  quick=not args.full, seed=args.seed)
    measure = functools.partial(_sweep_availability, spec.name)
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
    from repro.experiments.runner import build_world

    config = _config(args)
    va = quantify_version(_version(args.version), config)
    world = build_world(va.spec, config.profile, seed=config.seed)
    analysis = SensitivityAnalysis(
        va.templates, world.catalog, config.environment,
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
    from repro.analysis.lint import lint_paths
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

    run_flow = args.flow or bool(args.callgraph_out)
    run_perf = args.perf or args.validate
    changed: Optional[List[str]] = None
    if args.diff is not None:
        changed = _restrict_to_changed(args.paths, args.diff)

    lint_targets = args.paths if changed is None else changed
    result = lint_paths(lint_targets)

    flow = None
    if run_flow:
        from repro.analysis.flow import analyze_flow
        from repro.analysis.lint import Finding, LintResult

        # the graph always spans the full requested tree — a --diff run
        # narrows which findings are *reported*, not what is analyzed
        flow = analyze_flow(args.paths)
        flow_findings: List[Finding] = flow.findings
        if changed is not None:
            keep = {str(Path(c).resolve()) for c in changed}
            flow_findings = [f for f in flow_findings
                            if str(Path(f.path).resolve()) in keep]
        merged = sorted(result.findings + flow_findings,
                        key=lambda f: (f.path, f.line, f.col, f.rule))
        result = LintResult(findings=merged,
                            files_scanned=result.files_scanned,
                            suppressed=result.suppressed + flow.suppressed,
                            declared_suppressions=result.declared_suppressions,
                            used_suppressions=result.used_suppressions)
        if args.callgraph_out:
            Path(args.callgraph_out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.callgraph_out, "w", encoding="utf-8") as fp:
                flow.graph.write_json(fp, sim_seeds=flow.sim_seeds,
                                      sim_reachable=flow.sim_reachable)

    perf = None
    if run_perf:
        from repro.analysis.lint import Finding, LintResult
        from repro.analysis.perfcheck import (
            analyze_perf,
            validate_against_profile,
        )

        # like --flow, the hot set spans the full requested tree; --diff
        # narrows which findings are reported, not what is analyzed
        perf = analyze_perf(args.paths)
        if args.validate:
            print("perf: running the steady bench scenario for dynamic "
                  "attribution...", file=sys.stderr)
            validate_against_profile(perf)
        perf_findings: List[Finding] = perf.findings
        if changed is not None:
            keep = {str(Path(c).resolve()) for c in changed}
            perf_findings = [f for f in perf_findings
                             if str(Path(f.path).resolve()) in keep]
        merged = sorted(result.findings + perf_findings,
                        key=lambda f: (f.path, f.line, f.col, f.rule))
        result = LintResult(findings=merged,
                            files_scanned=result.files_scanned,
                            suppressed=result.suppressed + perf.suppressed,
                            declared_suppressions=result.declared_suppressions,
                            used_suppressions=result.used_suppressions)

    from repro.analysis.lint import LintResult, audit_suppressions

    used = {path: dict(by_line)
            for path, by_line in result.used_suppressions.items()}
    for extra in (flow, perf):
        if extra is None:
            continue
        for path, by_line in extra.used_suppressions.items():
            dst = used.setdefault(path, {})
            for line, ids in by_line.items():
                dst[line] = dst.get(line, set()) | ids
    audit = audit_suppressions(result.declared_suppressions, used,
                               flow_ran=run_flow, perf_ran=run_perf)
    if changed is not None:
        keep = {str(Path(c).resolve()) for c in changed}
        audit = [f for f in audit if str(Path(f.path).resolve()) in keep]
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
            write_json(result, fp, flow=flow, perf=perf)
    if args.format == "json":
        print(json.dumps(render_json(result, flow=flow, perf=perf), indent=2,
                         sort_keys=True))
    else:
        print(render_text(result, verbose=args.verbose, flow=flow, perf=perf))
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
    p.add_argument("--retries", type=int, default=0,
                   help="re-executions allowed per crashed/failed cell")
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

    p = sub.add_parser("inject", help="one single-fault experiment")
    p.add_argument("version")
    p.add_argument("fault", choices=[k.value for k in FaultKind])
    p.add_argument("--target", default=None)
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_inject)

    p = sub.add_parser("trace",
                       help="one single-fault experiment; emit the "
                            "structured telemetry trace")
    p.add_argument("version")
    p.add_argument("fault", choices=[k.value for k in FaultKind])
    p.add_argument("--target", default=None)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--out", default=None,
                   help="write events to this file instead of stdout")
    p.add_argument("--kind", action="append", default=[],
                   help="only events of this kind (repeatable)")
    p.add_argument("--component", action="append", default=[],
                   help="only events from this source component (repeatable)")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many matching events")
    _add_common(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("spans",
                       help="one single-fault experiment under causal "
                            "request tracing: waterfalls, critical paths, "
                            "tail-latency blame")
    p.add_argument("version")
    p.add_argument("fault", choices=[k.value for k in FaultKind])
    p.add_argument("--target", default=None)
    p.add_argument("--waterfall", type=int, default=None, metavar="REQ",
                   help="render request REQ's span tree as an ASCII "
                        "waterfall")
    p.add_argument("--critical-path", type=int, default=None, metavar="REQ",
                   help="request REQ's critical path with per-hop "
                        "latency attribution")
    p.add_argument("--blame", action="store_true",
                   help="tail-latency blame report per fault phase "
                        "(the default mode)")
    p.add_argument("--percentile", type=float, default=99.0,
                   help="tail percentile for --blame (default 99)")
    p.add_argument("--top", type=int, default=5,
                   help="signature groups per phase in --blame")
    p.add_argument("--sample", type=float, default=1.0,
                   help="head-sampling fraction (deterministic in req_id)")
    p.add_argument("--span-seed", type=int, default=0,
                   help="sampling seed (varies which requests are kept)")
    p.add_argument("--max-requests", type=int, default=None,
                   help="ring-buffer retention: keep at most this many "
                        "newest request trees")
    p.add_argument("--kind", action="append", default=[],
                   help="--out filter: only spans of this category "
                        "(repeatable)")
    p.add_argument("--component", action="append", default=[],
                   help="--out filter: only spans from this node "
                        "(repeatable)")
    p.add_argument("--limit", type=int, default=None,
                   help="--out filter: cap exported spans")
    p.add_argument("--out", default=None,
                   help="also export the (filtered) spans as JSONL "
                        "trace events")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_spans)

    p = sub.add_parser("metrics",
                       help="fault-free run; dump the metrics registry")
    p.add_argument("version")
    p.add_argument("--until", type=float, default=None,
                   help="simulated seconds to run (default: warmup+window)")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("profile",
                       help="fault-free run with kernel profiling")
    p.add_argument("version")
    p.add_argument("--until", type=float, default=None,
                   help="simulated seconds to run (default: warmup+window)")
    p.add_argument("--top", type=int, default=15,
                   help="entries per ranking (text and --json)")
    p.add_argument("--time", action="store_true",
                   help="wall-time attribution per event kind / process "
                        "type / subsystem (TimingProfiler)")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("bench",
                       help="kernel benchmark harness: events/sec, "
                            "obs-overhead ratios, time attribution, "
                            "trend ledger")
    p.add_argument("--scenario", action="append", default=[],
                   metavar="NAME",
                   help="scenario to run (repeatable; default: all); "
                        "with --trend, the scenario to render")
    p.add_argument("--gate", action="store_true",
                   help="compare against the committed baseline; exit 1 "
                        "on >20%% events/sec regression or digest "
                        "divergence")
    p.add_argument("--baseline", default="benchmarks/BENCH_kernel.json",
                   help="baseline document for --gate")
    p.add_argument("--trend", action="store_true",
                   help="render the trend ledger and exit (no run)")
    p.add_argument("--trend-file", default="benchmarks/TREND.jsonl",
                   help="trajectory ledger path")
    p.add_argument("--no-trend-append", action="store_true",
                   help="do not append this run to the trend ledger")
    p.add_argument("--out", default=None,
                   help="also write the full JSON report to this file")
    p.add_argument("--top", type=int, default=10,
                   help="entries per attribution ranking")
    p.add_argument("--no-attribution", action="store_true",
                   help="skip the time-attribution pass")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("record",
                       help="one single-fault experiment captured as a "
                            "replayable flight-recorder artifact")
    p.add_argument("version")
    p.add_argument("fault", choices=[k.value for k in FaultKind])
    p.add_argument("--target", default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="master RNG seed (default: config seed)")
    p.add_argument("--out", default=None,
                   help="artifact path (default: "
                        "results/records/<version>-<fault>.json)")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("budget",
                       help="unavailability error budget from recorded "
                            "flights, with stage drill-down")
    p.add_argument("records", nargs="+", metavar="RECORD",
                   help="flight-recorder artifacts (one version)")
    p.add_argument("--objective", type=float, default=0.999,
                   help="availability objective (default 0.999)")
    p.add_argument("--operator-response", type=float, default=1800.0,
                   help="stage-E duration assumption (seconds)")
    p.add_argument("--reset-duration", type=float, default=10.0,
                   help="stage-F duration assumption (seconds)")
    _add_common(p, json_flag=True)
    p.set_defaults(fn=cmd_budget)

    p = sub.add_parser("timeline",
                       help="ASCII throughput/stage timeline of a "
                            "recorded flight")
    p.add_argument("record", metavar="RECORD")
    p.add_argument("--bucket", type=float, default=5.0,
                   help="chart bucket width in seconds")
    p.add_argument("--width", type=int, default=40,
                   help="bar width in characters")
    _add_common(p)
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser("figure", help="regenerate a paper figure/table")
    p.add_argument("name")
    _add_common(p)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("validate", help="empirical model validation")
    p.add_argument("version")
    p.add_argument("--horizon", type=float, default=7200.0)
    _add_common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("lint",
                       help="repo-native static analysis "
                            "(reprolint rules REP001..REP021)")
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
    p.add_argument("--flow", action="store_true",
                   help="whole-program pass: call-graph sim-scope "
                        "propagation, protocol consistency (REP008-010), "
                        "lost generators (REP011-012)")
    p.add_argument("--callgraph-out", default=None, metavar="FILE",
                   help="write the call graph as JSON (implies --flow)")
    p.add_argument("--perf", action="store_true",
                   help="hot-path cost analysis: kernel hot set + "
                        "REP017-021 (allocation, __slots__, telemetry "
                        "formatting, attribute reloads, linear scans)")
    p.add_argument("--validate", action="store_true",
                   help="cross-check the static hot set against dynamic "
                        "TimingProfiler attribution (runs the steady "
                        "bench scenario; implies --perf)")
    p.add_argument("--diff", default=None, metavar="GIT_REF",
                   help="only report findings in files changed since "
                        "GIT_REF (fast pre-commit mode)")
    p.add_argument("--docs", action="store_true",
                   help="standalone docs cross-reference pass: every "
                        "path, CLI subcommand, make target, BENCH_* "
                        "document, and rule id referenced in README.md/"
                        "ARTIFACTS.md/docs/*.md must exist")
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
