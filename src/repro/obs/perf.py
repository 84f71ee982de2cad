"""Performance observability: kernel benchmarks, overhead self-measurement.

This module is the measurement core behind ``repro bench`` (the thin
runner lives in :mod:`repro.bench`).  It answers three questions the
kernel-speed work (ROADMAP item 1) is gated on:

1. **How fast is the kernel?**  Standardized scenarios — single-cell
   steady state, single-cell fault+recovery, and a small campaign grid —
   are driven end to end and report events/sec, wall-per-cell, and peak
   RSS.  Event counts come from the kernel's unconditional
   ``processed_count`` counter, so measuring does not require attaching
   a monitor (which would perturb the number being measured).

2. **What does observability cost?**  Every scenario runs once per obs
   mode — ``off`` (``Telemetry.disabled()``), ``unsub`` (tracing+metrics
   enabled, nothing consuming), and ``on`` (a JSONL subscriber
   serializing every event at emit time) — and the wall-clock ratios
   make the "obs is ~free when not exporting" claim a gated number.

3. **Does observability perturb results?**  Each run is hashed with
   :func:`~repro.analysis.differential.fingerprint` over the components
   the ``obs`` row of its contract gates (markers, request outcomes and
   success timestamps, final clock).  The digests must be identical
   across all modes *and* under the time-attribution profiler; any
   divergence means telemetry leaked into simulation behaviour.

Wall-clock reads here time the *host*, never simulated components, and
feed only the benchmark report — REP001 allowlists this module for that
reason.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import jsonl_subscriber
from repro.obs.telemetry import Telemetry

#: the observability configurations every scenario is measured under:
#: off / enabled-unsubscribed / fully exporting / causal span tracing
OBS_MODES: Tuple[str, ...] = ("off", "unsub", "on", "spans")

#: schema of the BENCH_kernel.json / TREND.jsonl records
BENCH_SCHEMA = 1


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
    """One standardized, seeded benchmark workload.

    ``run(telemetry)`` builds fresh world(s) under the given telemetry
    bundle, drives them to completion, and returns the worlds so the
    harness can fingerprint and count events.  ``cells`` is the logical
    experiment-cell count (wall-per-cell = wall / cells).
    """

    name: str
    description: str
    cells: int
    run: Callable[[Telemetry], List[Any]]


def _run_steady(telemetry: Telemetry) -> List[Any]:
    from repro.experiments.configs import version
    from repro.experiments.profiles import SMALL
    from repro.experiments.runner import build_world

    world = build_world(version("COOP"), SMALL, seed=0, telemetry=telemetry)
    world.env.run(until=120.0)
    return [world]


def _run_crash(telemetry: Telemetry) -> List[Any]:
    from repro.experiments.configs import version
    from repro.experiments.profiles import SMALL
    from repro.experiments.runner import build_world
    from repro.faults.types import FaultKind

    world = build_world(version("COOP"), SMALL, seed=0, telemetry=telemetry)
    world.env.run(until=80.0)
    world.injector.inject_for(FaultKind.NODE_CRASH, "n1", duration=30.0)
    world.env.run(until=140.0)
    return [world]


def _run_grid(telemetry: Telemetry) -> List[Any]:
    from repro.core.quantify import QuantifyConfig, run_single_fault
    from repro.experiments.configs import version
    from repro.faults.types import FaultKind

    config = QuantifyConfig.quick(seed=0)
    spec = version("INDEP")
    worlds = []
    for kind in (FaultKind.NODE_CRASH, FaultKind.APP_CRASH):
        _trace, world = run_single_fault(spec, kind, config,
                                         telemetry=telemetry)
        worlds.append(world)
    return worlds


#: the standard scenario suite ``repro bench`` runs by default
SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("steady", "COOP fault-free steady state, 120 sim-s",
                 cells=1, run=_run_steady),
        Scenario("crash", "COOP node crash at t=80 + recovery, 140 sim-s",
                 cells=1, run=_run_crash),
        Scenario("grid", "INDEP quick campaign cells: node_crash, app_crash",
                 cells=2, run=_run_grid),
    )
}


def _obs_digest(worlds: Sequence[Any]) -> str:
    """The cross-mode oracle: a fingerprint digest over the contract's
    ``obs`` row, which gates nothing telemetry records (so it is left out)."""
    from repro.analysis.differential import CONTRACT, fingerprint, fingerprint_digest

    return fingerprint_digest(
        [fingerprint(SimpleNamespace(env=w.env, markers=w.markers, stats=w.stats))
         for w in worlds], tuple(CONTRACT["obs"]))


# ---------------------------------------------------------------------------
# per-mode measurement


@dataclass
class ModeRun:
    """One scenario executed under one observability mode."""

    mode: str
    wall_seconds: float
    events_processed: int
    events_scheduled: int
    trace_events: int
    digest: str
    spans_recorded: int = 0

    @property
    def events_per_sec(self) -> float:
        return self.events_processed / self.wall_seconds \
            if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "wall_seconds": self.wall_seconds,
            "events_processed": self.events_processed,
            "events_scheduled": self.events_scheduled,
            "events_per_sec": self.events_per_sec,
            "trace_events": self.trace_events,
            "digest": self.digest,
            "spans_recorded": self.spans_recorded,
        }


def telemetry_for(mode: str, sink) -> Telemetry:
    """A fresh telemetry bundle for ``mode``; ``on`` streams JSONL to ``sink``."""
    if mode == "off":
        return Telemetry.disabled()
    if mode == "spans":
        # Full causal tracing: every request grows a span tree.
        return Telemetry(trace_spans=True)
    telemetry = Telemetry()
    if mode == "on":
        telemetry.tracer.subscribe(jsonl_subscriber(sink))
    return telemetry


def measure_mode(scenario: Scenario, mode: str) -> ModeRun:
    """Run ``scenario`` once under ``mode`` and measure it."""
    if mode not in OBS_MODES:
        raise ValueError(f"unknown obs mode {mode!r}; expected one of {OBS_MODES}")
    gc.collect()
    sink = open(os.devnull, "w", encoding="utf-8") if mode == "on" else None
    try:
        telemetry = telemetry_for(mode, sink)
        t0 = time.perf_counter()
        worlds = scenario.run(telemetry)
        wall = time.perf_counter() - t0
    finally:
        if sink is not None:
            sink.close()
    return ModeRun(
        mode=mode,
        wall_seconds=wall,
        events_processed=sum(w.env.processed_count for w in worlds),
        events_scheduled=sum(w.env.scheduled_count for w in worlds),
        trace_events=len(telemetry.tracer),
        digest=_obs_digest(worlds),
        spans_recorded=len(telemetry.spans) if telemetry.trace_spans else 0,
    )


def measure_attribution(scenario: Scenario,
                        top_n: int = 10) -> Tuple[Dict[str, Any], str]:
    """Run ``scenario`` under the :class:`TimingProfiler`.

    Returns ``(attribution, digest)``: the wall-time breakdown per
    subsystem / event kind / process type, plus the run's fingerprint
    (which must match the unprofiled modes — profiling is observability
    too and must not perturb results).
    """
    gc.collect()
    telemetry = Telemetry(profile_time=True)
    t0 = time.perf_counter()
    worlds = scenario.run(telemetry)
    wall = time.perf_counter() - t0
    profiler = telemetry.profiler
    assert profiler is not None
    attribution = {
        "wall_seconds": wall,
        "callback_seconds": profiler.wall_seconds,
        "kernel_overhead_seconds": max(wall - profiler.wall_seconds, 0.0),
        "by_subsystem": dict(profiler.top_times("subsystem", top_n)),
        "by_kind": dict(profiler.top_times("kind", top_n)),
        "by_type": dict(profiler.top_times("type", top_n)),
    }
    return attribution, _obs_digest(worlds)


# ---------------------------------------------------------------------------
# per-scenario report


@dataclass
class ScenarioReport:
    """All measurements for one scenario: modes, ratios, attribution."""

    scenario: str
    description: str
    cells: int
    runs: Dict[str, ModeRun] = field(default_factory=dict)
    attribution: Dict[str, Any] = field(default_factory=dict)
    attribution_digest: str = ""

    @property
    def digests(self) -> List[str]:
        out = [run.digest for _, run in sorted(self.runs.items())]
        if self.attribution_digest:
            out.append(self.attribution_digest)
        return out

    @property
    def digests_equal(self) -> bool:
        return len(set(self.digests)) == 1

    @property
    def events_per_sec(self) -> float:
        """Headline kernel speed: events/sec with observability off."""
        return self.runs["off"].events_per_sec

    @property
    def wall_per_cell(self) -> float:
        return self.runs["off"].wall_seconds / self.cells

    def overhead(self, mode: str) -> float:
        """Wall-clock ratio of ``mode`` over the ``off`` baseline."""
        base = self.runs["off"].wall_seconds
        return self.runs[mode].wall_seconds / base if base > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "description": self.description,
            "cells": self.cells,
            "runs": {m: r.to_dict() for m, r in sorted(self.runs.items())},
            "events_per_sec": self.events_per_sec,
            "wall_per_cell": self.wall_per_cell,
            "overhead_unsub": self.overhead("unsub"),
            "overhead_on": self.overhead("on"),
            "overhead_spans": self.overhead("spans")
            if "spans" in self.runs else None,
            "digests_equal": self.digests_equal,
            "attribution": self.attribution,
            "attribution_digest": self.attribution_digest,
        }


def measure_scenario(scenario: Scenario,
                     modes: Sequence[str] = OBS_MODES,
                     attribution: bool = True,
                     top_n: int = 10) -> ScenarioReport:
    """The full treatment for one scenario: every mode + attribution."""
    report = ScenarioReport(scenario=scenario.name,
                            description=scenario.description,
                            cells=scenario.cells)
    for mode in modes:
        report.runs[mode] = measure_mode(scenario, mode)
    if attribution:
        report.attribution, report.attribution_digest = \
            measure_attribution(scenario, top_n=top_n)
    return report


# ---------------------------------------------------------------------------
# provenance


def _git(*args: str) -> Optional[str]:
    """stdout of one git command, or None if git fails/is absent."""
    try:
        proc = subprocess.run(["git", *args], capture_output=True, text=True,
                              check=False)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unsupported).

    Note: ``ru_maxrss`` is a process-lifetime high-water mark, so in a
    multi-scenario run it reflects the heaviest scenario so far.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def provenance() -> Dict[str, Any]:
    """Where/when/what produced a bench record (TREND.jsonl stamp).

    Host identity is both readable (``host``) and stable
    (``host_fingerprint``) so trend renderers can separate trajectories
    measured on different machines instead of mixing incomparable
    numbers.
    """
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha is not None else None
    fingerprint = hashlib.sha256("|".join((
        platform.node(), platform.machine(), platform.processor(),
        str(os.cpu_count()),
    )).encode("utf-8")).hexdigest()[:12]
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "host": platform.node(),
        "host_fingerprint": fingerprint,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "timestamp": time.time(),
    }
