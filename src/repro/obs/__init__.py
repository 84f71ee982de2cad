"""Unified telemetry: structured tracing, metrics, kernel profiling.

Three pillars (see docs/ARCHITECTURE.md, "Observability"):

* :class:`Tracer` — the one log a run writes: the markers the template
  fitter reads (kept even when telemetry is disabled) and typed
  :class:`TraceEvent` records (membership view changes, server
  crash/restart, queue saturation, request failures), in emission
  order, with ``events`` and ``markers`` (:class:`Markers`) views.
* :class:`MetricsHub` — labelled :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` instruments wired into the service hot paths, with
  a snapshot API.
* :class:`TimingProfiler` — opt-in event-loop hooks answering "where
  does the host time go", per event kind, process type and subsystem.

:class:`Telemetry` bundles all three per world, plus the opt-in causal
span recorder (:mod:`repro.obs.spans`); :mod:`repro.obs.export` holds
the dict form of an event and a streaming JSONL subscriber.

On top of the raw telemetry sits the availability-accounting tier:

* :class:`FlightRecord` — a versioned, replayable JSON snapshot of one
  single-fault experiment (:mod:`repro.obs.recorder`);
* :class:`StageAttributor` — names every lost request-second with a
  ``(fault, stage, component, cause)`` tuple and cross-checks the stage
  boundaries against the template fit (:mod:`repro.obs.attribution`);
* :func:`build_budget` — unavailability error budgets with stage
  drill-down (:mod:`repro.obs.budget`);
* :func:`render_timeline` — ASCII throughput/stage timelines
  (:mod:`repro.obs.timeline`).

``repro explain VERSION FAULT`` runs one injected cell under all of
the above and prints where its lost requests and its wall time went.

:func:`provenance` (:mod:`repro.obs.perf`) stamps measurement records
with the commit, host and interpreter that produced them.
"""

from repro.obs.events import EventKind, KNOWN_KINDS, TraceEvent, sanitize
from repro.obs.export import event_from_dict, event_to_dict, jsonl_subscriber
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
    format_blame,
    render_waterfall,
    span_to_dict,
    spans_digest,
)
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Markers, Tracer

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
    "build_budget": "repro.obs.budget",
    "format_budget": "repro.obs.budget",
    "FlightRecord": "repro.obs.recorder",
    "SCHEMA_VERSION": "repro.obs.recorder",
    "merge_records": "repro.obs.recorder",
    "read_record": "repro.obs.recorder",
    "write_record": "repro.obs.recorder",
    "format_attribution": "repro.obs.timeline",
    "render_timeline": "repro.obs.timeline",
    # lazy too, so importing repro.obs never pays for subprocess/platform
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
    "build_budget",
    "format_attribution",
    "format_budget",
    "merge_records",
    "read_record",
    "render_timeline",
    "write_record",
    "EventKind",
    "KNOWN_KINDS",
    "TraceEvent",
    "sanitize",
    "Tracer",
    "Markers",
    "NULL_SPANS",
    "Span",
    "SpanRecorder",
    "blame_report",
    "critical_path",
    "format_blame",
    "render_waterfall",
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
    "event_to_dict",
    "event_from_dict",
    "jsonl_subscriber",
]
