"""The benchmark's workloads, their correctness checks and the traced pass.

Three workloads, each a campaign the repo's users actually run:

* ``coop-crash-cell`` — one full-length COOP ``node_crash`` cell, serial,
  observability off.  Kernel, PRESS, network and client code do the work.
* ``fme-grid-j2`` — FME's whole phase-1 grid through the spawn-pool
  executor with two workers, merged into the Phase-2 model.  HA, faults,
  default observability and the pipeline do their work here.
* ``indep-grid-spans`` — INDEP's full-length grid, serial, with causal span
  tracing on, then fit and model.  Disk-bound; spans do all their work.

A workload is run as repetitions of one *unit* (a cell or a grid) until
the time budget is spent.  The untraced run reports the end-to-end
metrics; its cells sample the host's speed between chunks of simulated
time (:mod:`hostspeed`) and its timings are divided by it.  The traced
run (:func:`traced_pass`) reports per-layer numbers by timing calls into
each layer's public functions and by reading the kernel counters, the
metrics hub and the ``TimingProfiler`` attribution.

Every cell is fingerprinted over what the model can observe (markers,
success timestamps, final clock, fitted template stages) and checked
against ``expected.json`` and against the other repetitions of the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.model import AvailabilityModel
from repro.core.quantify import (
    CELL_DOC_SCHEMA,
    QuantifyConfig,
    quantify_from_cell_docs,
    run_single_fault,
)
from repro.core.template import SevenStageTemplate, TemplateFitter
from repro.experiments.configs import version
from repro.experiments.runner import build_world
from repro.faults.campaign import (
    CampaignCell,
    CampaignConfig,
    ExperimentTrace,
    SingleFaultCampaign,
)
from repro.faults.types import FaultKind
from repro.obs.events import sanitize
from repro.obs.recorder import FlightRecord
from repro.obs.telemetry import Telemetry
from repro.parallel.executor import CampaignExecutor, ExecutorConfig

import kernel_micro
from hostspeed import CampaignEnv, speed_factor

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: FME grid windows: ``QuantifyConfig.quick()`` shortened so that the whole
#: 8-cell grid fits one run on two workers (warm-up still covers the 45 s
#: client ramp plus the normal-throughput window)
FME_WINDOWS = CampaignConfig(
    warmup=55.0, normal_window=10.0, fault_active=30.0,
    post_repair_observe=30.0, reset_duration=10.0, post_reset_observe=20.0,
)

#: reduced-length windows for the benchmark's own smoke tests
SMOKE_WINDOWS = CampaignConfig(
    warmup=20.0, normal_window=5.0, fault_active=10.0,
    post_repair_observe=10.0, reset_duration=5.0, post_reset_observe=5.0,
)

#: simulated seconds between host-speed samples, per version: ~30-40 ms of
#: host time each (INDEP simulates about five times faster than COOP/FME)
CHUNK_S = {"COOP": 1.0, "FME": 1.0, "INDEP": 4.0}

#: names of the ``env.run`` calls ``SingleFaultCampaign.run`` makes, in order
PHASES = ("warmup", "fault", "recovery", "reset")

#: metrics-hub counter -> per-layer metric it is summed into
HUB_COUNTERS = {
    "client_requests_issued": "workload.requests_issued",
    "client_requests_ok": "workload.requests_ok",
    "client_requests_failed": "workload.requests_failed",
    "press_forwards": "press.forwards",
    "press_remote_serves": "press.remote_serves",
    "press_disk_fetches": "press.disk_fetches",
    "press_send_drops": "press.send_drops",
    "fe_probes": "ha.fe_probes",
    "fe_probe_failures": "ha.fe_probe_failures",
    "memb_exclusions_started": "ha.memb_exclusions",
}

#: TimingProfiler subsystem -> per-layer metric
SUBSYSTEMS = {
    "press": "press.host_s",
    "workload": "workload.host_s",
    "net": "net.host_s",
    "hardware": "hardware.host_s",
    "ha": "ha.host_s",
    "faults": "faults.host_s",
    "kernel": "kernel.callback_host_s",
}


@dataclass(frozen=True)
class Workload:
    """One named workload: which version, which cells, how they run."""

    name: str
    version: str
    obs: str  # "off" | "unsub" | "spans": the Telemetry the cells run under
    jobs: int  # 1: serial in-process; >1: the spawn-pool executor
    model: bool  # fit + Phase-2 model in the timed body
    kinds: Optional[Tuple[FaultKind, ...]] = None  # None: the whole grid
    windows: Optional[CampaignConfig] = None  # None: full-length default

    def config(self, seed: int, smoke: bool = False) -> QuantifyConfig:
        overrides: Dict[str, Any] = {"seed": seed}
        windows = SMOKE_WINDOWS if smoke else self.windows
        if windows is not None:
            overrides["campaign"] = windows
        if self.kinds is not None:
            overrides["kinds"] = self.kinds
        return QuantifyConfig(**overrides)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("coop-crash-cell", "COOP", obs="off", jobs=1, model=False,
             kinds=(FaultKind.NODE_CRASH,)),
    Workload("fme-grid-j2", "FME", obs="unsub", jobs=2, model=True,
             windows=FME_WINDOWS),
    Workload("indep-grid-spans", "INDEP", obs="spans", jobs=1, model=True),
)}


def make_telemetry(obs: str, profile: bool = False) -> Telemetry:
    if obs == "off" and not profile:
        return Telemetry.disabled()
    return Telemetry(trace_spans=(obs == "spans"), profile_time=profile)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# output fingerprint


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def cell_fingerprint(trace: ExperimentTrace,
                     template: SevenStageTemplate) -> str:
    """SHA-256 over one cell's model-observable outputs.

    Covers the marker log, every success timestamp (the throughput series
    the fitter reads), the campaign timeline and final clock, and the
    fitted template stages.  Kernel event counts and wall time are left
    out on purpose: a kernel rewrite may change them without changing the
    answer.  Live and replayed (cell-document) traces hash identically.
    """
    h = hashlib.sha256(b"perfbench-cell-v1")
    for t, label, data in trace.markers.entries:
        h.update(_canonical([float(t), label, sanitize(data)]))
    h.update(np.asarray(trace.series.times, dtype=np.float64).tobytes())
    h.update(_canonical({
        "successes": len(trace.series),
        "t_inject": trace.t_inject,
        "t_repair": trace.t_repair,
        "t_reset": trace.t_reset,
        "t_end": trace.t_end,
        "normal_tput": trace.normal_tput,
        "self_recovered": template.self_recovered,
        "stages": {name: [s.duration, s.throughput, s.provenance]
                   for name, s in sorted(template.stages.items())},
    }))
    return h.hexdigest()


def load_expected() -> Dict[str, Any]:
    if not EXPECTED_PATH.is_file():
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as fp:
        return json.load(fp)


# ---------------------------------------------------------------------------
# one repetition of a workload's unit


@dataclass
class Prepared:
    """What a workload needs before its first cell: the set-up phase."""

    workload: Workload
    config: QuantifyConfig
    cells: List[CampaignCell]
    catalog: Any
    offered_rate: float

    @property
    def spec(self):
        return version(self.workload.version)


def prepare(name: str, seed: int, smoke: bool = False) -> Prepared:
    """Version spec, config, and the probe world that yields cells + catalog."""
    workload = WORKLOADS[name]
    config = workload.config(seed, smoke)
    spec = version(workload.version)
    probe = build_world(spec, config.profile, seed=seed)
    kinds = list(config.kinds or probe.injectable_kinds())
    cells = [CampaignCell(index=i, version=spec.name, fault=k.value, seed=seed)
             for i, k in enumerate(kinds)]
    return Prepared(workload, config, cells, probe.catalog, probe.offered_rate)


class _WorldView:
    """The world as ``SingleFaultCampaign`` sees it, with a wrapped env."""

    def __init__(self, world, env: CampaignEnv):
        self._world = world
        self.env = env

    def __getattr__(self, name):
        return getattr(self._world, name)


def run_cell_steps(cell: CampaignCell, config: QuantifyConfig, telemetry,
                   chunk: Optional[float] = None):
    """:func:`repro.core.quantify.run_single_fault`, step for step, with the
    campaign's ``env.run`` calls going through a :class:`CampaignEnv`.

    Returns ``(trace, world, campaign_env)``.  The cell fingerprint and
    the smoke tests pin the outputs to ``run_single_fault``'s.
    """
    spec = version(cell.version)
    world = build_world(spec, config.profile, seed=config.seed,
                        telemetry=telemetry)
    world.reset_downtime = config.campaign.reset_duration
    env = CampaignEnv(world.env, chunk)
    trace = SingleFaultCampaign(_WorldView(world, env), config.campaign).run(
        cell.kind, cell.target or world.default_target(cell.kind))
    trace.version = spec.name
    return trace, world, env


@dataclass
class Rep:
    """One repetition of the unit: wall time, answers, per-cell outcome.

    ``wall`` is host seconds without the host-speed reference units;
    ``elapsed`` includes them.
    """

    wall: float
    cells: int
    elapsed: float = 0.0
    ref_s: float = 0.0
    ref_n: int = 0
    availability: float = 0.0
    fingerprints: Dict[str, str] = field(default_factory=dict)  # fault -> fp
    errors: Dict[str, str] = field(default_factory=dict)  # fault -> error
    cell_walls: List[float] = field(default_factory=list)  # normalised
    traces: Dict[FaultKind, ExperimentTrace] = field(default_factory=dict)
    fit_s: float = 0.0
    model_s: float = 0.0
    executor: Dict[str, float] = field(default_factory=dict)

    @property
    def speed_factor(self) -> float:
        return speed_factor(self.ref_s, self.ref_n)

    @property
    def normalized(self) -> float:
        """``wall`` at the nominal host speed."""
        return self.wall / self.speed_factor


def _model_availability(prep: Prepared, templates, normals) -> float:
    normal = sum(normals) / len(normals) if normals else 0.0
    model = AvailabilityModel(prep.catalog, prep.config.environment)
    return model.evaluate(templates, normal_tput=normal,
                          offered_rate=prep.offered_rate,
                          version=prep.spec.name).availability


def run_serial(prep: Prepared, obs: str) -> Rep:
    """The serial in-process unit: every cell, then (grids) fit + model."""
    config = prep.config
    chunk = CHUNK_S[prep.spec.name]
    fitter = TemplateFitter(config.fit)
    rep = Rep(wall=0.0, cells=len(prep.cells))
    traces: Dict[FaultKind, ExperimentTrace] = {}
    templates: Dict[FaultKind, SevenStageTemplate] = {}
    normals: List[float] = []
    t0 = time.perf_counter()
    for cell in prep.cells:
        c0 = time.perf_counter()
        try:
            trace, world, env = run_cell_steps(cell, config,
                                               make_telemetry(obs), chunk)
        except Exception as exc:  # a failed cell is counted, not fatal
            rep.errors[cell.fault] = f"{type(exc).__name__}: {exc}"
            continue
        cell_wall = time.perf_counter() - c0 - env.ref_s
        rep.cell_walls.append(cell_wall / speed_factor(env.ref_s, env.ref_n))
        rep.ref_s += env.ref_s
        rep.ref_n += env.ref_n
        if not prep.workload.model:
            rep.availability = world.stats.availability()
        del world, env
        traces[cell.kind] = trace
        f0 = time.perf_counter()
        templates[cell.kind] = fitter.fit(trace)
        rep.fit_s += time.perf_counter() - f0
        normals.append(trace.normal_tput)
    if prep.workload.model and not rep.errors:
        m0 = time.perf_counter()
        rep.availability = _model_availability(prep, templates, normals)
        rep.model_s = time.perf_counter() - m0
    rep.elapsed = time.perf_counter() - t0
    rep.wall = rep.elapsed - rep.ref_s
    for kind, trace in traces.items():
        rep.fingerprints[kind.value] = cell_fingerprint(trace, templates[kind])
    return rep


def measured_cell_worker(cell: CampaignCell,
                         config: QuantifyConfig) -> Dict[str, Any]:
    """Executor worker: :func:`repro.core.quantify.run_cell` with host-speed
    sampling.  The document is ``run_cell``'s plus a ``host_ref`` entry,
    which the merge ignores."""
    t0 = time.perf_counter()
    telemetry = Telemetry()
    trace, world, env = run_cell_steps(cell, config, telemetry,
                                       CHUNK_S[cell.version])
    record = FlightRecord.from_experiment(
        trace, events=telemetry.tracer.events, seed=config.seed,
        profile=config.profile.name,
        target=cell.target or world.default_target(cell.kind))
    doc = {"schema": CELL_DOC_SCHEMA, "cell": cell.to_dict(),
           "record": record.to_dict(), "host_ref": [env.ref_s, env.ref_n]}
    return {"doc": doc, "wall": time.perf_counter() - t0 - env.ref_s,
            "pid": os.getpid()}


def run_parallel(prep: Prepared, jobs: int,
                 worker: Callable[..., Dict[str, Any]] = measured_cell_worker
                 ) -> Rep:
    """The executor unit: fan cells over a spawn pool, merge into the model.

    A worker that raises or dies (``BrokenProcessPool``) fails only the
    cells it took down; they are counted as failed and the run goes on.
    """
    executor = CampaignExecutor(ExecutorConfig(jobs=jobs), worker=worker)
    t0 = time.perf_counter()
    report = executor.execute(prep.cells, prep.config)
    m0 = time.perf_counter()
    merged = None
    if not report.failures:
        merged = quantify_from_cell_docs(prep.spec, prep.config, report.docs)
    t1 = time.perf_counter()
    refs = [d.get("host_ref", (0.0, 0)) for d in report.docs]
    rep = Rep(wall=0.0, cells=len(prep.cells), elapsed=t1 - t0,
              ref_s=sum(r[0] for r in refs), ref_n=sum(r[1] for r in refs))
    # The workers' reference units ran in parallel, ``jobs`` at a time.
    rep.wall = rep.elapsed - rep.ref_s / jobs
    rep.errors = {o.cell.fault: o.error or "failed" for o in report.failures}
    rep.cell_walls = [o.wall / speed_factor(*o.doc.get("host_ref", (0.0, 0)))
                      for o in report.outcomes if o.ok]
    rep.executor = {
        "wall_s": report.stats.wall_seconds - rep.ref_s / jobs,
        "cell_s": report.stats.cell_seconds,
        "merge_s": t1 - m0,
        "doc_bytes": float(sum(len(pickle.dumps(d)) for d in report.docs)),
    }
    if merged is not None:
        rep.availability = merged.availability
        rep.traces = merged.traces
        for kind, trace in merged.traces.items():
            rep.fingerprints[kind.value] = cell_fingerprint(
                trace, merged.templates[kind])
    return rep


def run_unit(prep: Prepared, worker=measured_cell_worker) -> Rep:
    w = prep.workload
    if w.jobs > 1:
        return run_parallel(prep, min(w.jobs, usable_cpus()), worker=worker)
    return run_serial(prep, w.obs)


# ---------------------------------------------------------------------------
# correctness


def check_reps(prep: Prepared, reps: List[Rep],
               expected: Optional[Dict[str, Any]]) -> Dict[str, str]:
    """Failed cells (``rep#:fault`` -> reason) across every repetition.

    A cell fails if it raised or its worker died, if its fingerprint
    differs from the stored one for this seed, or if it differs from the
    same cell in the first repetition (the run must repeat itself).
    """
    failed: Dict[str, str] = {}
    want = (expected or {}).get(str(prep.config.seed))
    first = reps[0]
    for i, rep in enumerate(reps):
        for fault, err in rep.errors.items():
            failed[f"{i}:{fault}"] = err
        for fault, fp in rep.fingerprints.items():
            if want is not None and want["cells"].get(fault) != fp:
                failed[f"{i}:{fault}"] = "fingerprint differs from expected"
            elif first.fingerprints.get(fault) != fp:
                failed[f"{i}:{fault}"] = "fingerprint differs across repetitions"
        answer = want["availability"] if want else first.availability
        if not rep.errors and rep.availability != answer:
            for fault in rep.fingerprints:
                failed.setdefault(f"{i}:{fault}", "availability differs")
    return failed


def obs_off_crosscheck(prep: Prepared, rep: Rep) -> Dict[str, str]:
    """Re-run one cell (chosen by seed) with obs off: same fingerprint?"""
    cell = prep.cells[prep.config.seed % len(prep.cells)]
    if cell.fault not in rep.fingerprints:
        return {}
    trace, _world = run_single_fault(prep.spec, cell.kind, prep.config,
                                     telemetry=Telemetry.disabled())
    template = TemplateFitter(prep.config.fit).fit(trace)
    if cell_fingerprint(trace, template) != rep.fingerprints[cell.fault]:
        return {f"obs-off:{cell.fault}": "differs from the obs-off run"}
    return {}


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# the untraced measurement


def measure(prep: Prepared, seconds: float,
            expected: Optional[Dict[str, Any]] = None,
            worker=measured_cell_worker) -> Tuple[Dict[str, float],
                                                  List[Rep], Dict[str, str]]:
    """Repeat the unit while another one fits in ``seconds`` (at least once).

    Returns the end-to-end metrics (without ``setup_s``), the repetitions
    and the failed cells.
    """
    reps: List[Rep] = []
    t_start = time.perf_counter()
    while True:
        gc.collect()
        reps.append(run_unit(prep, worker=worker))
        elapsed = time.perf_counter() - t_start
        if elapsed + max(r.elapsed for r in reps) > seconds:
            break
    failed = check_reps(prep, reps, expected)
    if prep.workload.obs == "spans" and not reps[0].errors:
        failed.update(obs_off_crosscheck(prep, reps[0]))
    metrics = {
        "wall_per_cell_s": statistics.median(r.normalized / r.cells
                                             for r in reps),
        "peak_rss_mb": peak_rss_mb(),
        "availability": reps[0].availability,
    }
    return metrics, reps, failed


# ---------------------------------------------------------------------------
# the traced pass


def profile_cell(cell: CampaignCell, config: QuantifyConfig,
                 spans: bool = False) -> Dict[str, Any]:
    """One cell under ``Telemetry(profile_time=True)``, phase by phase
    (each ``env.run`` call of the campaign timed); the cell's fingerprint
    proves the outputs are the untraced ones."""
    telemetry = make_telemetry("spans" if spans else "unsub", profile=True)
    t0 = time.perf_counter()
    trace, world, env = run_cell_steps(cell, config, telemetry)
    wall = time.perf_counter() - t0
    template = TemplateFitter(config.fit).fit(trace)
    counters: Dict[str, float] = {}
    for m in telemetry.metrics.snapshot():
        if m["type"] == "counter":
            counters[m["name"]] = counters.get(m["name"], 0.0) + m["value"]
    profiler = telemetry.profiler
    return {
        "fault": cell.fault,
        "fingerprint": cell_fingerprint(trace, template),
        "wall": wall,
        "subsystems": dict(profiler.time_by_subsystem),
        "phases": env.phases,
        "events": world.env.processed_count,
        "scheduled": world.env.scheduled_count,
        "trace_events": len(telemetry.tracer),
        "spans": len(telemetry.spans) if spans else 0,
        "counters": counters,
    }


def profile_cell_worker(cell: CampaignCell,
                        config: QuantifyConfig) -> Dict[str, Any]:
    """Executor worker: :func:`profile_cell` in the executor's envelope."""
    t0 = time.perf_counter()
    doc = profile_cell(cell, config)
    return {"doc": doc, "wall": time.perf_counter() - t0, "pid": os.getpid()}


def _fold_profiles(profiles: List[Dict[str, Any]]) -> Dict[str, float]:
    """Sum per-cell profiles into the per-layer metrics they feed."""
    out: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for p in profiles:
        for key, value in p["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    for hub_name, metric in HUB_COUNTERS.items():
        out[metric] = counters.get(hub_name, 0.0)
    hits = counters.get("press_cache_hits", 0.0)
    lookups = hits + counters.get("press_cache_misses", 0.0)
    out["press.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    for subsystem, metric in SUBSYSTEMS.items():
        out[metric] = sum(p["subsystems"].get(subsystem, 0.0)
                          for p in profiles)
    out["profile.wall_s"] = sum(p["wall"] for p in profiles)
    for i, phase in enumerate(PHASES):
        out[f"faults.{phase}_s"] = sum(
            p["phases"][i][0] for p in profiles if len(p["phases"]) > i)
        out[f"faults.{phase}_events"] = float(sum(
            p["phases"][i][1] for p in profiles if len(p["phases"]) > i))
    out["obs.trace_events"] = float(sum(p["trace_events"] for p in profiles))
    out["obs.spans_recorded"] = float(sum(p["spans"] for p in profiles))
    return out


def _build_world_s(prep: Prepared, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        build_world(prep.spec, prep.config.profile, seed=prep.config.seed,
                    telemetry=make_telemetry(prep.workload.obs))
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _refit_and_model_s(prep: Prepared, rep: Rep) -> None:
    """Time ``TemplateFitter.fit`` and ``AvailabilityModel.evaluate`` alone
    on a merged executor run (whose merge timed them together)."""
    fitter = TemplateFitter(prep.config.fit)
    templates, normals = {}, []
    t0 = time.perf_counter()
    for kind, trace in rep.traces.items():
        templates[kind] = fitter.fit(trace)
        normals.append(trace.normal_tput)
    t1 = time.perf_counter()
    if templates:
        _model_availability(prep, templates, normals)
    rep.fit_s = t1 - t0
    rep.model_s = time.perf_counter() - t1


def traced_pass(prep: Prepared, expected: Optional[Dict[str, Any]] = None,
                micro_scale: float = 1.0) -> Tuple[Dict[str, float], int,
                                                   Dict[str, str]]:
    """Per-layer metrics of one workload; returns (metrics, cells, failed).

    The workload's own unit runs untraced first (kernel counts, untraced
    wall, the parallel and pipeline numbers), then every cell runs again
    under the ``TimingProfiler``.  Metrics a workload does not exercise
    are reported as 0.
    """
    w = prep.workload
    metrics: Dict[str, float] = {name: 0.0 for name in (
        "obs.spans_overhead_x", "obs.unsub_overhead_x", "parallel.efficiency",
        "parallel.overhead_s", "parallel.cell_wall_max_s", "parallel.merge_s",
        "parallel.doc_bytes", "core.fit_s", "core.model_s")}
    gc.collect()
    base = run_unit(prep)
    reps = [base]

    if w.jobs > 1:
        jobs = min(w.jobs, usable_cpus())
        ex = base.executor
        metrics["parallel.efficiency"] = ex["cell_s"] / (jobs * ex["wall_s"])
        metrics["parallel.overhead_s"] = ex["wall_s"] - ex["cell_s"] / jobs
        metrics["parallel.cell_wall_max_s"] = max(base.cell_walls, default=0.0)
        metrics["parallel.merge_s"] = ex["merge_s"]
        metrics["parallel.doc_bytes"] = ex["doc_bytes"]
        _refit_and_model_s(prep, base)
        executor = CampaignExecutor(ExecutorConfig(jobs=jobs),
                                    worker=profile_cell_worker)
        report = executor.execute(prep.cells, prep.config)
        profiles = [o.doc for o in report.outcomes if o.ok]
        profiled_errors = {o.cell.fault: o.error or "failed"
                           for o in report.failures}
    else:
        spans = w.obs == "spans"
        if w.obs == "off":
            unsub = run_serial(prep, "unsub")
            reps.append(unsub)
            metrics["obs.unsub_overhead_x"] = (sum(unsub.cell_walls)
                                               / sum(base.cell_walls))
        if spans:
            off = run_serial(prep, "off")
            reps.append(off)
            metrics["obs.spans_overhead_x"] = (sum(base.cell_walls)
                                               / sum(off.cell_walls))
        profiles, profiled_errors = [], {}
        for cell in prep.cells:
            gc.collect()
            try:
                profiles.append(profile_cell(cell, prep.config, spans=spans))
            except Exception as exc:  # a failed cell is counted, not fatal
                profiled_errors[cell.fault] = f"{type(exc).__name__}: {exc}"
    metrics["core.fit_s"] = base.fit_s
    metrics["core.model_s"] = base.model_s

    profiled = Rep(wall=0.0, cells=len(prep.cells), errors=profiled_errors,
                   availability=base.availability,
                   fingerprints={p["fault"]: p["fingerprint"]
                                 for p in profiles})
    reps.append(profiled)
    failed = check_reps(prep, reps, expected)

    metrics.update(_fold_profiles(profiles))
    events = sum(p["events"] for p in profiles)
    metrics["kernel.events_processed"] = float(events)
    metrics["kernel.events_scheduled"] = float(sum(p["scheduled"]
                                                   for p in profiles))
    issued = metrics["workload.requests_issued"]
    metrics["kernel.events_per_request"] = events / issued if issued else 0.0
    metrics["kernel.ns_per_event"] = (sum(base.cell_walls) * 1e9 / events
                                      if events else 0.0)
    metrics["experiments.build_world_s"] = _build_world_s(prep)
    metrics.update(kernel_micro.run_all(scale=micro_scale))
    cells = sum(r.cells for r in reps)
    return metrics, cells, failed
