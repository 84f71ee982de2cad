"""Unified telemetry: structured tracing, metrics, kernel profiling.

Three pillars (see docs/ARCHITECTURE.md, "Observability"):

* :class:`Tracer` — an append-only stream of typed :class:`TraceEvent`
  records (fault lifecycle, membership view changes, FME decisions,
  server crash/restart, queue saturation, request outcomes), with
  :class:`TracedMarkerLog` keeping the legacy MarkerLog surface alive.
* :class:`MetricsHub` — labelled :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` instruments wired into the service hot paths, with
  a snapshot API.
* :class:`KernelProfiler` — opt-in event-loop hooks answering "where
  does simulation time go".

:class:`Telemetry` bundles all three per world; JSONL/CSV exporters in
:mod:`repro.obs.export` round-trip the event stream losslessly.

On top of the raw telemetry sits the availability-accounting tier:

* :class:`FlightRecord` — a versioned, replayable JSON snapshot of one
  single-fault experiment (:mod:`repro.obs.recorder`);
* :class:`StageAttributor` — names every lost request-second with a
  ``(fault, stage, component, cause)`` tuple and cross-checks the stage
  boundaries against the template fit (:mod:`repro.obs.attribution`);
* :func:`build_budget` / :func:`budget_from_records` — per-version
  unavailability error budgets with stage drill-down
  (:mod:`repro.obs.budget`);
* :func:`render_timeline` — ASCII throughput/stage timelines
  (:mod:`repro.obs.timeline`).

And the performance-observability tier (:mod:`repro.obs.perf`, driven by
``repro bench`` via :mod:`repro.bench`): standardized kernel benchmark
scenarios measured under every obs mode (off / enabled-unsubscribed /
fully exporting), wall-time attribution via :class:`TimingProfiler`,
observability-overhead self-measurement, and provenance stamps for the
``benchmarks/TREND.jsonl`` trajectory ledger.
"""

from repro.obs.events import EventKind, KNOWN_KINDS, TraceEvent, sanitize
from repro.obs.export import (
    dumps_jsonl,
    event_from_dict,
    event_to_dict,
    filter_events,
    format_metrics,
    jsonl_subscriber,
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
    write_metrics_json,
)
from repro.obs.kernelprof import (
    KernelProfiler,
    TimingProfiler,
    callback_owner,
    callback_subsystem,
    process_type,
    subsystem_of_path,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsHub,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)
from repro.obs.spans import (
    NULL_SPANS,
    Span,
    SpanRecorder,
    blame_report,
    critical_path,
    filter_spans,
    format_blame,
    render_waterfall,
    span_event,
    span_from_dict,
    span_to_dict,
    spans_digest,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import TracedMarkerLog, Tracer

# The availability-accounting tier (recorder/attribution/budget/timeline)
# sits ABOVE the core fitting layer, which itself imports the raw
# telemetry modules through the fault/world builders.  Importing it
# eagerly here would therefore be cyclic; instead its symbols resolve
# lazily on first attribute access (PEP 562).
_ACCOUNTING_EXPORTS = {
    "AttributionConfig": "repro.obs.attribution",
    "AttributionReport": "repro.obs.attribution",
    "BoundaryCheck": "repro.obs.attribution",
    "LossSlice": "repro.obs.attribution",
    "STAGE_CAUSES": "repro.obs.attribution",
    "StageAttributor": "repro.obs.attribution",
    "BudgetLine": "repro.obs.budget",
    "BudgetReport": "repro.obs.budget",
    "budget_from_records": "repro.obs.budget",
    "build_budget": "repro.obs.budget",
    "format_budget": "repro.obs.budget",
    "merge_budget_reports": "repro.obs.budget",
    "FlightRecord": "repro.obs.recorder",
    "SCHEMA_VERSION": "repro.obs.recorder",
    "merge_records": "repro.obs.recorder",
    "read_record": "repro.obs.recorder",
    "record_flight": "repro.obs.recorder",
    "write_record": "repro.obs.recorder",
    "format_attribution": "repro.obs.timeline",
    "render_timeline": "repro.obs.timeline",
    # the performance-observability tier (repro.obs.perf) — lazy for the
    # same reason: it reaches into the world builders for its scenarios
    "BENCH_SCHEMA": "repro.obs.perf",
    "OBS_MODES": "repro.obs.perf",
    "SCENARIOS": "repro.obs.perf",
    "Scenario": "repro.obs.perf",
    "ScenarioReport": "repro.obs.perf",
    "ModeRun": "repro.obs.perf",
    "measure_attribution": "repro.obs.perf",
    "measure_mode": "repro.obs.perf",
    "measure_scenario": "repro.obs.perf",
    "peak_rss_kb": "repro.obs.perf",
    "provenance": "repro.obs.perf",
}


def __getattr__(name):
    module_name = _ACCOUNTING_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


__all__ = [
    "BENCH_SCHEMA",
    "OBS_MODES",
    "SCENARIOS",
    "Scenario",
    "ScenarioReport",
    "ModeRun",
    "measure_attribution",
    "measure_mode",
    "measure_scenario",
    "peak_rss_kb",
    "provenance",
    "AttributionConfig",
    "AttributionReport",
    "BoundaryCheck",
    "BudgetLine",
    "BudgetReport",
    "FlightRecord",
    "LossSlice",
    "SCHEMA_VERSION",
    "STAGE_CAUSES",
    "StageAttributor",
    "budget_from_records",
    "build_budget",
    "format_attribution",
    "format_budget",
    "merge_budget_reports",
    "merge_records",
    "read_record",
    "record_flight",
    "render_timeline",
    "write_record",
    "EventKind",
    "KNOWN_KINDS",
    "TraceEvent",
    "sanitize",
    "Tracer",
    "TracedMarkerLog",
    "NULL_SPANS",
    "Span",
    "SpanRecorder",
    "blame_report",
    "critical_path",
    "filter_spans",
    "format_blame",
    "render_waterfall",
    "span_event",
    "span_from_dict",
    "span_to_dict",
    "spans_digest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsHub",
    "DEFAULT_BUCKETS",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "KernelProfiler",
    "TimingProfiler",
    "callback_owner",
    "callback_subsystem",
    "process_type",
    "subsystem_of_path",
    "Telemetry",
    "NULL_TELEMETRY",
    "event_to_dict",
    "event_from_dict",
    "filter_events",
    "write_jsonl",
    "read_jsonl",
    "dumps_jsonl",
    "jsonl_subscriber",
    "write_csv",
    "read_csv",
    "write_metrics_json",
    "format_metrics",
]
