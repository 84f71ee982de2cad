"""Trace events as JSON: the dict form and the streaming JSONL subscriber."""

import io
import json

from repro.faults.types import FaultComponent, FaultKind
from repro.obs.export import event_from_dict, event_to_dict, jsonl_subscriber
from repro.obs.metrics import MetricsHub
from repro.obs.trace import Tracer


def _sample_events(tr=None):
    if tr is None:
        tr = Tracer()
    tr.emit("fault_injected", source="injector", time=100.0,
            fault=FaultComponent(FaultKind.NODE_CRASH, "n1"))
    tr.emit("detected", source="0", time=112.5,
            mechanism="heartbeat", observer=0, target=1)
    tr.emit("memb_view", source="n0", time=113.0,
            members=[0, 2, 3], version=7, dropped=[1], added=[])
    tr.emit("queue_saturated", source="n2", time=115.25,
            queue="n2->n1.sq", action="reroute")
    return tr.events


def _streamed():
    """Events emitted with a JSONL subscriber attached, and its output."""
    tr = Tracer()
    buf = io.StringIO()
    tr.subscribe(jsonl_subscriber(buf))
    return _sample_events(tr), buf.getvalue()


class TestJsonl:
    def test_round_trip_exact(self):
        events, text = _streamed()
        assert [event_from_dict(json.loads(line))
                for line in text.splitlines()] == events

    def test_each_line_is_json(self):
        _, text = _streamed()
        for line in text.splitlines():
            record = json.loads(line)
            assert set(record) == {"time", "kind", "source", "data"}

    def test_dict_round_trip(self):
        event = _sample_events()[0]
        assert event_from_dict(event_to_dict(event)) == event


class TestMetricsExport:
    def test_json_dump(self):
        # `repro explain --json` embeds the snapshot as is
        hub = MetricsHub()
        hub.counter("hits", node="n0").inc(3)
        hub.gauge("depth", node="n0").set(7)
        hub.histogram("lat").observe(0.02)
        snapshot = hub.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
