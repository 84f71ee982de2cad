"""Structured trace events: the schema of the telemetry stream.

A :class:`TraceEvent` is one timestamped, typed record.  The ``kind``
field is drawn from the :class:`EventKind` vocabulary below; ``source``
names the component that observed the occurrence (a host name,
``"frontend"``, ``"injector"``, ...); ``data`` carries kind-specific
fields, always as JSON-serializable primitives so a trace survives an
export/parse round trip unchanged.

Event vocabulary (the trace schema)
-----------------------------------

=====================  ========================================================
kind                   data fields
=====================  ========================================================
``fault_injected``     ``fault`` (kind string), ``target``
``fault_repaired``     ``fault``, ``target``
``detected``           ``mechanism``, ``observer``, ``target``
``excluded``           ``observer``, ``peer``
``reintegrated``       ``peer``
``rejoined``           ``node``
``memb_view``          ``members`` (list), ``version`` (int)
``memb_excluded``      ``members`` dropped from the view
``memb_added``         ``members`` added to the view
``fme_offline``        ``node`` taken offline by FME
``fme_restart``        ``node`` whose application FME restarted
``sfme_offline``       ``node`` forced out of rotation by S-FME
``fe_node_down``       ``node`` removed from the front-end table
``fe_node_up``         ``node`` re-added to the front-end table
``fe_failed``          ``node`` (the front-end host)
``fe_takeover``        ``node``
``fe_repaired``        ``node``
``server_start``       ``node_id``
``server_crash``       ``node_id``
``queue_saturated``    ``queue``, ``action`` (reroute/dropped/qmon_failed)
``request_failed``     ``fid``, ``outcome``
``request_ok``         ``fid``, ``latency`` (opt-in; see Telemetry)
``operator_reset``     ``fault``, ``target``
``span``               one causal span (see :mod:`repro.obs.spans`)
=====================  ========================================================

Unknown marker labels pass through with ``kind`` equal to the label and a
``{"value": ...}`` payload, so the stream is lossless even for ad-hoc
annotations.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict


class EventKind:
    """String constants for the trace-event vocabulary."""

    FAULT_INJECTED = "fault_injected"
    FAULT_REPAIRED = "fault_repaired"
    DETECTED = "detected"
    EXCLUDED = "excluded"
    REINTEGRATED = "reintegrated"
    REJOINED = "rejoined"
    MEMB_VIEW = "memb_view"
    MEMB_EXCLUDED = "memb_excluded"
    MEMB_ADDED = "memb_added"
    FME_OFFLINE = "fme_offline"
    FME_RESTART = "fme_restart"
    SFME_OFFLINE = "sfme_offline"
    FE_NODE_DOWN = "fe_node_down"
    FE_NODE_UP = "fe_node_up"
    FE_FAILED = "fe_failed"
    FE_TAKEOVER = "fe_takeover"
    FE_REPAIRED = "fe_repaired"
    SERVER_START = "server_start"
    SERVER_CRASH = "server_crash"
    QUEUE_SATURATED = "queue_saturated"
    REQUEST_FAILED = "request_failed"
    REQUEST_OK = "request_ok"
    OPERATOR_RESET = "operator_reset"
    SPAN = "span"


#: Every kind the schema above documents.
KNOWN_KINDS = frozenset(
    v for k, v in vars(EventKind).items() if not k.startswith("_")
)


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped, typed telemetry record."""

    time: float
    kind: str
    source: str = ""
    data: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


def sanitize(value: Any) -> Any:
    """Coerce ``value`` into JSON-serializable primitives.

    Applied at emit time so that export -> parse reproduces the event
    exactly (tuples become lists, enums become their values, and so on).
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return sanitize(value.value)
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((sanitize(v) for v in value), key=repr)
    kind = getattr(value, "kind", None)
    target = getattr(value, "target", None)
    if kind is not None and target is not None:  # FaultComponent shape
        return {"kind": sanitize(kind), "target": sanitize(target)}
    return repr(value)


def canonical(value: Any) -> bytes:
    """The canonical JSON every digest in the repository hashes: sorted
    keys, no whitespace, UTF-8; ``value`` must be JSON-safe (:func:`sanitize`)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


#: marker label -> source attribution for facade-translated events
_MARKER_SOURCES = {
    EventKind.FAULT_INJECTED: "injector",
    EventKind.FAULT_REPAIRED: "injector",
    EventKind.OPERATOR_RESET: "operator",
    EventKind.MEMB_VIEW: "membership",
    EventKind.MEMB_EXCLUDED: "membership",
    EventKind.MEMB_ADDED: "membership",
    EventKind.FE_NODE_DOWN: "frontend",
    EventKind.FE_NODE_UP: "frontend",
    EventKind.FE_FAILED: "frontend",
    EventKind.FE_TAKEOVER: "frontend",
    EventKind.FE_REPAIRED: "frontend",
    EventKind.FME_OFFLINE: "fme",
    EventKind.FME_RESTART: "fme",
    EventKind.SFME_OFFLINE: "sfme",
}


def marker_event(time: float, label: str, data: Any) -> TraceEvent:
    """Translate one MarkerLog entry into a structured TraceEvent.

    Known labels get typed payloads; unknown labels pass through with a
    generic ``{"value": ...}`` payload.
    """
    source = _MARKER_SOURCES.get(label, "marker")
    payload: Dict[str, Any]
    if label == EventKind.DETECTED and isinstance(data, tuple) and len(data) == 3:
        payload = {
            "mechanism": sanitize(data[0]),
            "observer": sanitize(data[1]),
            "target": sanitize(data[2]),
        }
        source = str(payload["observer"])
    elif label == EventKind.EXCLUDED and isinstance(data, tuple) and len(data) == 2:
        payload = {"observer": sanitize(data[0]), "peer": sanitize(data[1])}
        source = str(payload["observer"])
    elif label in (EventKind.FAULT_INJECTED, EventKind.FAULT_REPAIRED,
                   EventKind.OPERATOR_RESET) and hasattr(data, "kind"):
        payload = {"fault": sanitize(data.kind), "target": sanitize(data.target)}
    elif label in (EventKind.MEMB_EXCLUDED, EventKind.MEMB_ADDED):
        payload = {"members": sanitize(data)}
    elif label == EventKind.REINTEGRATED:
        payload = {"peer": sanitize(data)}
    elif label == EventKind.REJOINED:
        payload = {"node": sanitize(data)}
    elif label.startswith("fe_") or label.startswith("fme_") or label.startswith("sfme_"):
        payload = {"node": sanitize(data)}
    elif data is None:
        payload = {}
    elif isinstance(data, dict):
        payload = {str(k): sanitize(v) for k, v in data.items()}
    else:
        payload = {"value": sanitize(data)}
    return TraceEvent(time=float(time), kind=label, source=source, data=payload)
