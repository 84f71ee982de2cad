"""Trace events as JSON: the dict form and a streaming JSONL subscriber.

One JSON object per event::

    {"time": 105.2, "kind": "fault_injected", "source": "injector",
     "data": {"fault": "node_crash", "target": "n1"}}

Because events are sanitized to JSON primitives at emit time
(:func:`repro.obs.events.sanitize`),
``event_from_dict(event_to_dict(e)) == e`` — the property a
:class:`~repro.obs.recorder.FlightRecord` replay relies on.
"""

from __future__ import annotations

import json
from typing import Any, Dict, TextIO

from repro.obs.events import TraceEvent


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    return {"time": event.time, "kind": event.kind, "source": event.source,
            "data": event.data}


def event_from_dict(d: Dict[str, Any]) -> TraceEvent:
    return TraceEvent(time=float(d["time"]), kind=str(d["kind"]),
                      source=str(d.get("source", "")), data=dict(d.get("data", {})))


def jsonl_subscriber(fp: TextIO):
    """A :meth:`Tracer.subscribe` callback streaming each event to ``fp``.

    This is the "fully exporting" observability configuration: every
    event is serialized at emit time (the cost the ``on`` variant of
    ``repro sanitize --vary obs`` exercises).
    """
    def _write(event: TraceEvent) -> None:
        fp.write(json.dumps(event_to_dict(event), sort_keys=True))
        fp.write("\n")

    return _write
