"""Campaign flight recorder: capture one single-fault experiment to disk.

A :class:`FlightRecord` is a complete, versioned snapshot of a phase-1
injection experiment — the campaign configuration and seed, the fault
lifecycle timeline, every structured :class:`~repro.obs.events.TraceEvent`,
every marker, and the raw completion timestamps of the throughput series.
That is exactly the input set of the downstream analyses (the
:class:`~repro.core.template.TemplateFitter` and the stage-attribution
engine in :mod:`repro.obs.attribution`), so a saved record can be
re-analyzed or re-fit offline, without re-simulating, and two analyses of
the same record are bit-identical (the replay property the round-trip
tests pin).

Artifact schema (JSON, one object per file)
-------------------------------------------

======================  ====================================================
field                   contents
======================  ====================================================
``schema``              integer schema version (:data:`SCHEMA_VERSION`)
``version``             system version name (``COOP``, ``FME``, ...)
``fault``               injected :class:`~repro.faults.types.FaultKind` value
``target``              injection target (``n1``, ``switch0``, ...)
``seed``                master RNG seed of the run
``profile``             scale-profile name (``small``, ...)
``campaign``            :class:`~repro.faults.campaign.CampaignConfig` fields
``timeline``            ``t_inject``/``t_detect``/``t_repair``/``t_reset``/
                        ``t_end``/``normal_tput``/``offered_rate``
``component``           ``{"kind": ..., "target": ...}`` of the faulted part
``samples``             raw completion timestamps (the throughput series)
``markers``             ``[time, label, data]`` triples (sanitized)
``events``              structured trace events (``event_to_dict`` form)
======================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

from repro.faults.campaign import CampaignConfig, ExperimentTrace
from repro.faults.types import FaultComponent, FaultKind
from repro.obs.events import TraceEvent, sanitize
from repro.obs.export import event_from_dict, event_to_dict
from repro.obs.trace import Markers
from repro.sim.series import ThroughputSeries

#: Bump when the artifact layout changes; readers refuse newer schemas.
SCHEMA_VERSION = 1

PathOrFile = Union[str, Path, TextIO]

#: the stage-timeline fields a record (and a run fingerprint) carries
TIMELINE_FIELDS = ("t_inject", "t_detect", "t_repair", "t_reset", "t_end",
                   "normal_tput", "offered_rate")


@dataclass
class FlightRecord:
    """One recorded single-fault experiment, replayable offline."""

    version: str
    fault: str
    target: str
    seed: int
    profile: str
    campaign: CampaignConfig
    timeline: Dict[str, Optional[float]]
    component: FaultComponent
    samples: List[float]
    markers: List[Any]  # [time, label, data] triples
    events: List[TraceEvent] = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    # -- construction ------------------------------------------------------
    @classmethod
    def from_experiment(
        cls,
        trace: ExperimentTrace,
        events: List[TraceEvent],
        seed: int = 0,
        profile: str = "",
        target: str = "",
    ) -> "FlightRecord":
        """Snapshot a freshly run :class:`ExperimentTrace` plus its
        structured event stream (``telemetry.tracer.events``)."""
        timeline = {name: getattr(trace, name) for name in TIMELINE_FIELDS}
        return cls(
            version=trace.version,
            fault=trace.component.kind.value,
            target=target or trace.component.target,
            seed=seed,
            profile=profile,
            campaign=trace.config,
            timeline=timeline,
            component=trace.component,
            samples=[float(t) for t in trace.series.times],
            markers=[[float(t), lbl, sanitize(d)]
                     for t, lbl, d in trace.markers.entries],
            events=list(events),
        )

    # -- replay ------------------------------------------------------------
    def to_trace(self) -> ExperimentTrace:
        """Rebuild the :class:`ExperimentTrace` the analyses consume.

        The rebuilt trace is observationally identical to the live one:
        the throughput series has the same timestamps, the markers the
        same ``(time, label)`` pairs (payloads are the sanitized forms),
        so fitting and attribution reproduce the online results exactly.
        """
        series = ThroughputSeries(name=f"{self.version}:{self.fault}")
        for t in self.samples:
            series.record(t)
        return ExperimentTrace(
            component=self.component,
            config=self.campaign,
            series=series,
            markers=Markers([(float(t), label, data)
                             for t, label, data in self.markers]),
            t_inject=float(self.timeline["t_inject"]),
            t_repair=float(self.timeline["t_repair"]),
            t_end=float(self.timeline["t_end"]),
            normal_tput=float(self.timeline["normal_tput"]),
            offered_rate=float(self.timeline["offered_rate"]),
            t_reset=(None if self.timeline.get("t_reset") is None
                     else float(self.timeline["t_reset"])),
            version=self.version,
        )

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "version": self.version,
            "fault": self.fault,
            "target": self.target,
            "seed": self.seed,
            "profile": self.profile,
            "campaign": asdict(self.campaign),
            "timeline": dict(self.timeline),
            "component": {"kind": self.component.kind.value,
                          "target": self.component.target},
            "samples": self.samples,
            "markers": self.markers,
            "events": [event_to_dict(e) for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FlightRecord":
        schema = int(d.get("schema", 0))
        if schema > SCHEMA_VERSION:
            raise ValueError(
                f"flight record schema {schema} is newer than supported "
                f"({SCHEMA_VERSION}); upgrade the tooling"
            )
        component = FaultComponent(
            kind=FaultKind(d["component"]["kind"]),
            target=str(d["component"]["target"]),
        )
        return cls(
            version=str(d["version"]),
            fault=str(d["fault"]),
            target=str(d.get("target", component.target)),
            seed=int(d.get("seed", 0)),
            profile=str(d.get("profile", "")),
            campaign=CampaignConfig(**d["campaign"]),
            timeline=dict(d["timeline"]),
            component=component,
            samples=[float(t) for t in d["samples"]],
            markers=[list(m) for m in d.get("markers", [])],
            events=[event_from_dict(e) for e in d.get("events", [])],
            schema=schema,
        )


def write_record(record: FlightRecord, dst: PathOrFile) -> None:
    """Persist one record as a JSON artifact (parents created)."""
    if isinstance(dst, (str, Path)):
        path = Path(dst)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(record.to_dict(), fp, sort_keys=True)
            fp.write("\n")
    else:
        json.dump(record.to_dict(), dst, sort_keys=True)
        dst.write("\n")


def read_record(src: PathOrFile) -> FlightRecord:
    if isinstance(src, (str, Path)):
        with open(src, "r", encoding="utf-8") as fp:
            return FlightRecord.from_dict(json.load(fp))
    return FlightRecord.from_dict(json.load(src))


def merge_records(records: Sequence[FlightRecord]) -> Dict[str, FlightRecord]:
    """Deterministically merge per-cell records into a fault-keyed map.

    The parallel executor hands records back in cell (grid) order; this
    keys them by fault kind *preserving that order*, so downstream
    iteration — template fitting, normal-throughput averaging — walks
    the same sequence a serial campaign would.  Records must share one
    system version and one seed, and a duplicated fault kind is an
    error: a grid never runs the same cell twice, so a duplicate means
    the caller merged two different campaigns.
    """
    merged: Dict[str, FlightRecord] = {}
    versions = {r.version for r in records}
    if len(versions) > 1:
        raise ValueError(
            f"records span multiple versions {sorted(versions)}; "
            "merge one version at a time")
    seeds = {r.seed for r in records}
    if len(seeds) > 1:
        raise ValueError(
            f"records span multiple seeds {sorted(seeds)}; "
            "a campaign grid runs under one master seed")
    for record in records:
        if record.fault in merged:
            raise ValueError(
                f"duplicate record for fault {record.fault!r} "
                f"(version {record.version}, seed {record.seed})")
        merged[record.fault] = record
    return merged

