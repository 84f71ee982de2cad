"""One run fingerprint and one differential runner: ``repro sanitize``.

Every determinism check asks one question of a run repeated under some
variation: *is this the same run?*  This module answers it once.

:func:`fingerprint` covers what the model can observe: the marker log,
request outcomes and success timestamps, the final clock and, for a
campaign, the stage timeline and the fitted 7-stage template.  When
telemetry records them it also covers trace events, the metrics snapshot
and the span set.  It covers no event counts, no wall time and no source
line numbers, so a kernel change that keeps every observable keeps the
fingerprint.

:func:`differential` runs a :class:`Scenario` once per variant
(``hashseed``, ``tiebreak``, ``obs``, ``jobs``; see the ``_vary_*``
runners), judges each component by that variant's row of
:data:`CONTRACT`, and reports the first divergence: variant, component,
simulated time, and the entries present on only one side.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import canonical

#: one run's observables: component name -> JSON-safe value; a component
#: the run did not record is absent
Fingerprint = Dict[str, Any]

COMPONENTS: Tuple[str, ...] = ("markers", "outcomes", "successes", "clock",
                               "timeline", "templates", "trace", "metrics",
                               "spans")
#: components holding time-ordered entries (``[time, ...]`` lists, or
#: bare timestamps for ``successes``); the rest are end-of-run values
TIMED = frozenset({"markers", "successes", "trace"})

#: relative tolerance for float metrics under a tie-break permutation: a
#: same-instant reorder moves a few completions by sub-millisecond
#: amounts, and float accumulators (histogram sums) at the 1e-7 level
METRICS_RTOL = 1e-5

#: variant -> component -> rule.  ``exact``: bit-identical.
#: ``instant``: the same multiset of entries at every simulated instant.
#: ``close``: equal within METRICS_RTOL.  ``report``: reported, never
#: gated.  A component missing from a row is not compared.
CONTRACT: Dict[str, Dict[str, str]] = {
    "hashseed": dict.fromkeys(COMPONENTS, "exact"),
    "tiebreak": {"markers": "instant", "outcomes": "exact",
                 "successes": "report", "clock": "exact",
                 "timeline": "exact", "templates": "exact",
                 "trace": "instant", "metrics": "close"},
    "obs": dict.fromkeys(("markers", "outcomes", "successes", "clock",
                          "timeline", "templates"), "exact"),
    "jobs": dict.fromkeys(("markers", "successes", "timeline", "templates",
                           "trace"), "exact"),
}
VARIANTS: Tuple[str, ...] = tuple(CONTRACT)

HASH_SEEDS = (101, 202)
TIEBREAK_SEEDS = (1, 2)
#: telemetry configurations the ``obs`` variant runs against ``off``:
#: enabled with no subscriber, streaming JSONL, causal span tracing, and
#: the wall-time attribution profiler
OBS_MODES: Tuple[str, ...] = ("off", "unsub", "on", "spans", "profile")

#: the short fixed cell: inject at t=80 s for 30 s, stop at t=140 s
SMOKE_WINDOWS: Dict[str, float] = {"inject_at": 80.0, "fault_active": 30.0,
                                   "until": 140.0}

#: one-sided entries kept per divergence
MAX_SHOWN = 4

# ---------------------------------------------------------------------------
# the fingerprint


def _trace_entry(event: Any) -> List[Any]:
    from repro.obs.export import event_to_dict

    return [event.time, event.kind,
            hashlib.sha256(canonical(event_to_dict(event))).hexdigest()[:16]]


def _templates(trace: Any) -> Dict[str, Any]:
    from repro.core.template import TemplateFitter

    return {trace.component.kind.value: asdict(TemplateFitter().fit(trace))}


def fingerprint(world: Any, trace: Any = None) -> Fingerprint:
    """Fingerprint one finished run.

    ``world`` needs ``env`` and ``markers``; its ``stats`` and
    ``telemetry`` are used when present and recording.  ``trace`` (the
    campaign's :class:`~repro.faults.campaign.ExperimentTrace`) adds
    the stage timeline and the fitted template.
    """
    from repro.obs.events import sanitize

    fp: Fingerprint = {
        "markers": [[float(t), label, sanitize(data)]
                    for t, label, data in world.markers.entries],
        "clock": float(world.env.now),
    }
    stats = getattr(world, "stats", None)
    if stats is not None:
        fp["outcomes"] = {"issued": int(stats.issued), **{
            str(getattr(k, "value", k)): int(n) for k, n in stats.outcomes.items()}}
        if hasattr(stats, "series"):
            fp["successes"] = stats.series.times.tolist()
    telemetry = getattr(world, "telemetry", None)
    if telemetry is not None:
        if telemetry.tracer.enabled:
            fp["trace"] = [_trace_entry(e) for e in telemetry.tracer.events]
        if telemetry.metrics.enabled:
            fp["metrics"] = telemetry.metrics.snapshot()
        if telemetry.trace_spans:
            from repro.obs.spans import spans_digest

            fp["spans"] = {"count": len(telemetry.spans),
                           "digest": spans_digest(telemetry.spans.spans())}
    if trace is not None:
        from repro.obs.recorder import TIMELINE_FIELDS

        fp["timeline"] = {name: getattr(trace, name) for name in TIMELINE_FIELDS}
        fp["templates"] = _templates(trace)
    return fp


def fingerprint_record(record: Any) -> Fingerprint:
    """Fingerprint a :class:`~repro.obs.recorder.FlightRecord`, the body
    of a campaign cell document: every component it carries, named as
    :func:`fingerprint` names them."""
    return {
        "markers": [[float(t), label, data] for t, label, data in record.markers],
        "successes": [float(t) for t in record.samples],
        "timeline": dict(record.timeline),
        "templates": _templates(record.to_trace()),
        "trace": [_trace_entry(e) for e in record.events],
    }


def fingerprint_digest(fingerprints: Sequence[Fingerprint],
                       components: Sequence[str] = COMPONENTS) -> str:
    """One SHA-256 over the named components of several fingerprints, in
    order; components a fingerprint lacks are skipped."""
    h = hashlib.sha256()
    for fp in fingerprints:
        for name in components:
            if name in fp:
                h.update(canonical([name, fp[name]]))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
    """One seeded run of one version under one fault.

    ``length`` picks the windows: ``smoke`` is the short fixed cell
    (:data:`SMOKE_WINDOWS`, fault on the world's default target for the
    kind, as a campaign injects it); ``quick`` and ``full`` run
    a single-fault campaign.  It is always explicit: nothing here reads
    ``REPRO_QUICK``.
    """

    version: str = "COOP"
    fault: str = "node_crash"
    seed: int = 0
    length: str = "quick"

    def __post_init__(self) -> None:
        if self.length not in ("smoke", "quick", "full"):
            raise ValueError(f"unknown length {self.length!r}; expected smoke, quick or full")

    def config(self) -> Any:
        from repro.core.quantify import QuantifyConfig

        if self.length == "full":
            return QuantifyConfig(seed=self.seed)
        return QuantifyConfig.quick(seed=self.seed)

    def windows(self) -> Dict[str, float]:
        if self.length == "smoke":
            return dict(SMOKE_WINDOWS)
        return asdict(self.config().campaign)

    def argv(self) -> List[str]:
        """The ``repro digest`` arguments that fingerprint this scenario."""
        argv = ["digest", self.version, self.fault, "--seed", str(self.seed)]
        return argv + ([f"--{self.length}"] if self.length != "quick" else [])

    def run(self, telemetry: Any, tiebreak_seed: Optional[int] = None) -> Fingerprint:
        from repro.core.quantify import run_single_fault
        from repro.experiments.configs import version
        from repro.experiments.runner import build_world
        from repro.faults.types import FaultKind

        spec, kind = version(self.version), FaultKind(self.fault)
        if self.length != "smoke":
            trace, world = run_single_fault(spec, kind, self.config(), telemetry=telemetry,
                                            tiebreak_seed=tiebreak_seed)
            return fingerprint(world, trace)
        world = build_world(spec, self.config().profile, seed=self.seed,
                            telemetry=telemetry, tiebreak_seed=tiebreak_seed)
        world.env.run(until=SMOKE_WINDOWS["inject_at"])
        world.injector.inject_for(kind, world.default_target(kind),
                                  duration=SMOKE_WINDOWS["fault_active"])
        world.env.run(until=SMOKE_WINDOWS["until"])
        return fingerprint(world)


def digest_document(scenario: Scenario) -> Dict[str, Any]:
    """What ``repro digest`` prints: one run's fingerprint with span
    tracing on, the windows it ran, and a digest per component."""
    from repro.obs.telemetry import Telemetry

    fp = scenario.run(Telemetry(trace_spans=True))
    return {"scenario": asdict(scenario), "windows": scenario.windows(),
            "python_hash_seed": os.environ.get("PYTHONHASHSEED", "unset"),
            "digests": {name: _digest(value) for name, value in fp.items()},
            "fingerprint": fp}


# ---------------------------------------------------------------------------
# comparison


@dataclass
class Divergence:
    """Where one component of two runs first differs."""

    component: str
    #: simulated time of the first differing instant; None for values
    #: read at the end of the run
    time: Optional[float]
    only_base: List[Any] = field(default_factory=list)
    only_other: List[Any] = field(default_factory=list)
    #: position of the first differing entry of an ordered sequence
    index: Optional[int] = None
    note: str = ""

    def describe(self, base: str, other: str) -> str:
        where = "end of run" if self.time is None else f"t={self.time:.6f}"
        at = "" if self.index is None else f", entry #{self.index}"
        lines = [f"{self.component} at {where}{at}" + (f" ({self.note})" if self.note else "")]
        for label, entries in ((base, self.only_base), (other, self.only_other)):
            lines.extend(f"  only in {label}: {json.dumps(e)}" for e in entries)
        return "\n".join(lines)


@dataclass
class Check:
    """One component of two runs, judged by one contract rule."""

    component: str
    rule: str
    exact: bool
    match: bool
    digests: Tuple[str, str]
    divergence: Optional[Divergence] = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.match or self.rule == "report"


def _digest(value: Any) -> str:
    return hashlib.sha256(canonical(value)).hexdigest()[:16]


def _time(entry: Any) -> float:
    return float(entry[0] if isinstance(entry, list) else entry)


def _instant(seq: List[Any], start: int, t: float) -> List[Any]:
    """The entries of ``seq`` at instant ``t``, from ``start`` on."""
    end = start
    while end < len(seq) and _time(seq[end]) == t:
        end += 1
    return seq[start:end]


def _one_sided(a: List[Any], b: List[Any]) -> Tuple[List[Any], List[Any]]:
    """Multiset differences ``a - b`` and ``b - a``, each in its order."""
    def minus(xs: List[Any], ys: List[Any]) -> List[Any]:
        pending = Counter(canonical(y) for y in ys)
        out: List[Any] = []
        for x in xs:
            key = canonical(x)
            if pending[key]:
                pending[key] -= 1
            else:
                out.append(x)
        return out[:MAX_SHOWN]

    return minus(a, b), minus(b, a)


def _ordered_split(name: str, a: List[Any], b: List[Any]) -> Divergence:
    """The first differing entry of two unequal sequences."""
    n = min(len(a), len(b))
    i = next((k for k in range(n) if canonical(a[k]) != canonical(b[k])), n)
    t = min(_time(seq[i]) for seq in (a, b) if i < len(seq))
    only_a, only_b = _one_sided(_instant(a, i, t), _instant(b, i, t))
    if only_a or only_b:
        return Divergence(name, t, only_a, only_b, index=i)
    return Divergence(name, t, [a[i]], [b[i]], index=i,
                      note="same entries at this instant, in another order")


def _instant_split(name: str, a: List[Any], b: List[Any]) -> Optional[Divergence]:
    """The first instant whose entry multisets differ, or None."""
    i = j = 0
    while i < len(a) or j < len(b):
        t = min(_time(a[i]) if i < len(a) else math.inf,
                _time(b[j]) if j < len(b) else math.inf)
        ga, gb = _instant(a, i, t), _instant(b, j, t)
        only_a, only_b = _one_sided(ga, gb)
        if only_a or only_b:
            return Divergence(name, t, only_a, only_b)
        i, j = i + len(ga), j + len(gb)
    return None


def _flatten(value: Any, prefix: str = "") -> Dict[str, Any]:
    """Leaf path -> leaf value; metric instruments are keyed by name."""
    if isinstance(value, dict):
        items = [(f"{prefix}.{k}" if prefix else str(k), v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{prefix}[{v['name']}{v.get('labels', '')}]"
                  if isinstance(v, dict) and "name" in v else f"{prefix}[{i}]", v)
                 for i, v in enumerate(value)]
    else:
        return {prefix: value}
    out: Dict[str, Any] = {}
    for path, item in items:
        out.update(_flatten(item, path))
    return out


def _leaf_close(x: Any, y: Any) -> bool:
    """Float leaves within METRICS_RTOL; anything else (bools included)
    must match exactly."""
    if isinstance(x, bool) or isinstance(y, bool) \
            or not isinstance(x, (int, float)) or not isinstance(y, (int, float)):
        return canonical(x) == canonical(y)
    return math.isclose(x, y, rel_tol=METRICS_RTOL, abs_tol=1e-9)


def _value_split(name: str, a: Any, b: Any, close: bool) -> Optional[Divergence]:
    """The leaf paths where two end-of-run values differ, or None."""
    fa, fb = _flatten(a, name), _flatten(b, name)
    only_a: List[Any] = []
    only_b: List[Any] = []
    for path in list(fa) + [p for p in fb if p not in fa]:
        if path in fa and path in fb and (
                _leaf_close(fa[path], fb[path]) if close
                else canonical(fa[path]) == canonical(fb[path])):
            continue
        only_a.extend([{path: fa[path]}] if path in fa else [])
        only_b.extend([{path: fb[path]}] if path in fb else [])
    if not only_a and not only_b:
        return None
    return Divergence(name, None, only_a[:MAX_SHOWN], only_b[:MAX_SHOWN])


def _check(name: str, rule: str, a: Any, b: Any) -> Check:
    digests = (_digest(a) if a is not None else "-", _digest(b) if b is not None else "-")
    if a is None or b is None:
        return Check(name, rule, False, False, digests,
                     Divergence(name, None, note="recorded by only one run"))
    if digests[0] == digests[1]:
        return Check(name, rule, True, True, digests)
    if name not in TIMED:
        div = _value_split(name, a, b, close=rule == "close")
    elif rule == "instant":
        div = _instant_split(name, a, b)
    else:
        div = _ordered_split(name, a, b)
    note = ""
    if rule == "report":
        shift = max((abs(_time(x) - _time(y)) for x, y in zip(a, b)), default=0.0)
        note = f"{len(a)} vs {len(b)} entries, max shift {shift * 1e3:.3f} ms"
    return Check(name, rule, False, div is None, digests, div, note)


def compare(base: Fingerprint, other: Fingerprint, variant: str) -> List[Check]:
    """Judge every component either run recorded by ``variant``'s row of
    :data:`CONTRACT` -- the comparison :func:`differential` makes."""
    if variant not in CONTRACT:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    row = CONTRACT[variant]
    return [_check(name, row[name], base.get(name), other.get(name))
            for name in COMPONENTS if name in row and (name in base or name in other)]


@dataclass
class RunComparison:
    """One varied run judged against its base run."""

    variant: str
    base: str
    other: str
    checks: List[Check]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def divergence(self) -> Optional[Divergence]:
        """The earliest gated divergence (end-of-run values come last)."""
        found = [d for d in (c.divergence for c in self.checks if not c.ok) if d is not None]
        return min(found, key=lambda d: (d.time is None, d.time or 0.0), default=None)


@dataclass
class Report:
    """Every variant run of one scenario, judged."""

    scenario: Dict[str, Any]
    windows: Dict[str, float]
    runs: List[RunComparison]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.runs)

    def to_dict(self) -> Dict[str, Any]:
        runs: List[Dict[str, Any]] = []
        for r in self.runs:
            div = r.divergence
            runs.append({"variant": r.variant, "base": r.base, "other": r.other, "ok": r.ok,
                         "components": {c.component: asdict(c) for c in r.checks},
                         "divergence": None if div is None else asdict(div)})
        return {"ok": self.ok, "scenario": self.scenario, "windows": self.windows,
                "contract": {r.variant: CONTRACT[r.variant] for r in self.runs},
                "runs": runs}


# ---------------------------------------------------------------------------
# the variants


def _spawn_digest(scenario: Scenario, hash_seed: int) -> Fingerprint:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-m", "repro", *scenario.argv()],
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"`repro {' '.join(scenario.argv())}` under PYTHONHASHSEED="
                           f"{hash_seed} exited {proc.returncode}:\n{proc.stderr.strip()}")
    doc = json.loads(proc.stdout)
    if doc["windows"] != scenario.windows():
        raise RuntimeError(f"digest child ran windows {doc['windows']}, "
                           f"not {scenario.windows()}")
    return doc["fingerprint"]


def _vary_hashseed(scenario: Any, seeds: Sequence[int] = HASH_SEEDS) -> List[RunComparison]:
    """``repro digest`` in two subprocesses, one per PYTHONHASHSEED."""
    if not isinstance(scenario, Scenario):
        raise ValueError("the hashseed variant re-runs a Scenario through `repro digest`")
    a, b = int(seeds[0]), int(seeds[1])
    if a == b:
        raise ValueError("hash seeds must differ for the check to mean anything")
    return [RunComparison("hashseed", f"PYTHONHASHSEED={a}", f"PYTHONHASHSEED={b}",
                          compare(_spawn_digest(scenario, a), _spawn_digest(scenario, b),
                                  "hashseed"))]


def _vary_tiebreak(scenario: Any) -> List[RunComparison]:
    """FIFO same-instant order against each tie-break seed, in process."""
    from repro.obs.telemetry import Telemetry

    base = scenario.run(Telemetry())
    return [RunComparison("tiebreak", "FIFO", f"tiebreak_seed={seed}",
                          compare(base, scenario.run(Telemetry(), seed), "tiebreak"))
            for seed in TIEBREAK_SEEDS]


def telemetry_for(mode: str, sink: Any) -> Any:
    """A fresh telemetry bundle for ``mode``; ``on`` streams JSONL to ``sink``."""
    from repro.obs.export import jsonl_subscriber
    from repro.obs.telemetry import Telemetry

    if mode == "off":
        return Telemetry.disabled()
    if mode == "spans":
        return Telemetry(trace_spans=True)
    if mode == "profile":
        return Telemetry(profile_time=True)
    telemetry = Telemetry()
    if mode == "on":
        telemetry.tracer.subscribe(jsonl_subscriber(sink))
    return telemetry


def _vary_obs(scenario: Any) -> List[RunComparison]:
    """Obs off against each other obs mode, in process."""
    with open(os.devnull, "w", encoding="utf-8") as sink:
        base = scenario.run(telemetry_for("off", sink))
        return [RunComparison("obs", "obs=off", f"obs={mode}",
                              compare(base, scenario.run(telemetry_for(mode, sink)), "obs"))
                for mode in OBS_MODES if mode != "off"]


def _vary_jobs(scenario: Any) -> List[RunComparison]:
    """The cell document of ``run_cell`` in process against a forked child's."""
    if not isinstance(scenario, Scenario) or scenario.length == "smoke":
        raise ValueError("the jobs variant runs a campaign cell: a quick or full "
                         "Scenario, not the smoke cell")
    from repro.core.quantify import run_cell
    from repro.experiments.configs import version
    from repro.faults.campaign import CampaignCell
    from repro.obs.recorder import FlightRecord
    from repro.parallel import run_campaign_cells

    config = scenario.config()
    cell = CampaignCell(index=0, version=version(scenario.version).name,
                        fault=scenario.fault, seed=scenario.seed)
    serial = FlightRecord.from_dict(run_cell(cell, config)["record"])
    (forked,) = run_campaign_cells([cell], config, jobs=2)
    return [RunComparison("jobs", "jobs=1", "jobs=2", compare(
        fingerprint_record(serial),
        fingerprint_record(FlightRecord.from_dict(forked["record"])), "jobs"))]


_RUNNERS: Dict[str, Callable[[Any], List[RunComparison]]] = {
    "hashseed": _vary_hashseed, "tiebreak": _vary_tiebreak,
    "obs": _vary_obs, "jobs": _vary_jobs,
}


def differential(scenario: Any, variants: Sequence[str] = ("hashseed",)) -> Report:
    """Run ``scenario`` under each variant and judge it by :data:`CONTRACT`.

    ``hashseed`` and ``jobs`` re-run a :class:`Scenario` in other
    processes; ``tiebreak`` and ``obs`` accept any object with a
    ``run(telemetry, tiebreak_seed=None) -> Fingerprint`` method.
    """
    unknown = [v for v in variants if v not in CONTRACT]
    if unknown:
        raise ValueError(f"unknown variant(s) {unknown}; expected {VARIANTS}")
    runs = [run for v in dict.fromkeys(variants) for run in _RUNNERS[v](scenario)]
    if isinstance(scenario, Scenario):
        return Report(asdict(scenario), scenario.windows(), runs)
    return Report({"name": type(scenario).__name__}, {}, runs)


def format_report(report: Report) -> str:
    s = report.scenario
    lines = [f"sanitize: {s.get('version')}/{s.get('fault')} seed={s.get('seed')} "
             f"length={s.get('length')}" if "version" in s else f"sanitize: {s['name']}"]
    if report.windows:
        lines.append("  windows: " + " ".join(f"{k}={v:g}" for k, v in report.windows.items()))
    for run in report.runs:
        marks = " ".join(c.component + ":" + ("=" if c.exact else "~" if c.match else
                                              "!" if c.rule == "report" else "X")
                         for c in run.checks)
        lines.append(f"  {run.variant:<8} {run.other} vs {run.base}: "
                     f"{'MATCH' if run.ok else 'DIVERGE'}  {marks}")
        lines.extend(f"           {c.component}: {c.note}" for c in run.checks if c.note)
    lines.append("  (= identical, ~ equal under the contract, X diverged, ! reported only)")
    failed = next((r for r in report.runs if not r.ok), None)
    if failed is not None and failed.divergence is not None:
        lines.append(f"first divergence: {failed.variant} {failed.other} vs {failed.base}, "
                     + failed.divergence.describe(failed.base, failed.other)
                     .replace("\n", "\n  "))
    lines.append("OK: every variant kept every gated observable" if report.ok
                 else "FAIL: a variant changed what the model observes")
    return "\n".join(lines)
