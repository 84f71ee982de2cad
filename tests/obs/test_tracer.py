"""The tracer as the one log of a run: markers and typed events in
emission order, its two views, and marker translation."""

import hashlib
import io

from repro.analysis.differential import fingerprint
from repro.core.quantify import QuantifyConfig, run_single_fault
from repro.experiments.configs import version
from repro.faults.types import FaultComponent, FaultKind
from repro.obs.events import EventKind, KNOWN_KINDS, canonical, marker_event, sanitize
from repro.obs.export import jsonl_subscriber
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer
from repro.sim.kernel import Environment

from tests.sim.test_event_sequence import WINDOWS


class TestTracer:
    def test_emit_and_query(self):
        tr = Tracer()
        tr.emit("server_start", source="n0", time=1.0, node_id=0)
        tr.emit("server_crash", source="n0", time=5.0, node_id=0)
        assert len(tr) == 2
        assert tr.first("server_crash").time == 5.0
        assert [e.kind for e in tr.events_of("server_start")] == ["server_start"]
        assert tr.first("nothing") is None

    def test_disabled_is_inert(self):
        tr = Tracer(enabled=False)
        assert tr.emit("server_start", time=0.0) is None
        assert tr.events == []
        assert len(tr) == 0

    def test_bound_clock_stamps_events(self):
        env = Environment()
        tr = Tracer()
        tr.bind_clock(env)

        def waiter():
            yield env.timeout(3.0)

        env.process(waiter())
        env.run(until=3.0)
        ev = tr.emit("server_start")
        assert ev.time == 3.0

    def test_subscribers_see_events(self):
        tr = Tracer()
        seen = []
        tr.subscribe(seen.append)
        tr.emit("server_start", time=0.0)
        assert [e.kind for e in seen] == ["server_start"]

    def test_data_sanitized_at_emit(self):
        tr = Tracer()
        ev = tr.emit("memb_view", time=0.0, members=(2, 0, 1),
                     kind_enum=FaultKind.NODE_CRASH)
        assert ev.data["members"] == [2, 0, 1]
        assert ev.data["kind_enum"] == "node_crash"


class TestSanitize:
    def test_primitives_pass_through(self):
        for v in (None, "x", 1, 1.5, True):
            assert sanitize(v) == v

    def test_containers_become_json_shapes(self):
        assert sanitize((1, 2)) == [1, 2]
        assert sanitize({1: (2,)}) == {"1": [2]}
        assert sanitize({3, 1, 2}) == [1, 2, 3]

    def test_fault_component(self):
        comp = FaultComponent(FaultKind.NODE_CRASH, "n1")
        assert sanitize(comp) == {"kind": "node_crash", "target": "n1"}

    def test_fallback_is_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert sanitize(Opaque()) == "<opaque>"


class TestMarkerEvent:
    def test_detected_triple(self):
        ev = marker_event(10.0, "detected", ("heartbeat", 0, 1))
        assert ev.kind == EventKind.DETECTED
        assert ev.source == "0"
        assert ev.data == {"mechanism": "heartbeat", "observer": 0, "target": 1}

    def test_excluded_pair(self):
        ev = marker_event(10.0, "excluded", (0, 1))
        assert ev.data == {"observer": 0, "peer": 1}

    def test_fault_component_payload(self):
        comp = FaultComponent(FaultKind.APP_HANG, "n2")
        ev = marker_event(10.0, "fault_injected", comp)
        assert ev.source == "injector"
        assert ev.data == {"fault": "app_hang", "target": "n2"}

    def test_membership_lists(self):
        ev = marker_event(10.0, "memb_excluded", [3])
        assert ev.source == "membership"
        assert ev.data == {"members": [3]}

    def test_frontend_labels(self):
        ev = marker_event(10.0, "fe_node_down", "n1")
        assert ev.source == "frontend"
        assert ev.data == {"node": "n1"}

    def test_unknown_label_passes_through(self):
        ev = marker_event(10.0, "custom_annotation", {"a": (1,)})
        assert ev.kind == "custom_annotation"
        assert ev.data == {"a": [1]}
        ev2 = marker_event(10.0, "another", 42)
        assert ev2.data == {"value": 42}

    def test_known_kinds_covers_vocabulary(self):
        assert EventKind.QUEUE_SATURATED in KNOWN_KINDS
        assert EventKind.MEMB_VIEW in KNOWN_KINDS


class TestOneLog:
    """Markers and typed events share one list, in emission order."""

    MARKS = [
        (1.0, "fault_injected", FaultComponent(FaultKind.NODE_CRASH, "n1")),
        (2.0, "detected", ("heartbeat", 0, 1)),
        (2.0, "excluded", (0, 1)),
        (3.0, "fe_node_down", "n1"),
        (9.0, "detected", ("mon", "fe0", "n1")),
        (30.0, "fault_repaired", FaultComponent(FaultKind.NODE_CRASH, "n1")),
        (40.0, "reintegrated", 1),
    ]

    def test_disabled_tracer_keeps_every_mark(self):
        tr = Tracer(enabled=False)
        for t, label, data in self.MARKS:
            tr.mark(t, label, data)
        tr.emit("server_start", time=0.0)
        assert tr.markers.entries == self.MARKS
        assert tr.events == []
        assert len(tr) == 0

    def test_marks_and_emits_come_back_in_emission_order(self):
        tr = Tracer()
        seen, at_call = [], []
        tr.subscribe(seen.append)
        expected = []
        for i, (t, label, data) in enumerate(self.MARKS):
            tr.mark(t, label, data)
            expected.append(marker_event(t, label, data))
            at_call.append(list(seen))
            ev = tr.emit("server_start", source="n0", time=t, node_id=i)
            expected.append(ev)
            at_call.append(list(seen))
        assert tr.events == expected
        assert len(tr) == len(expected)
        assert seen == expected
        # each subscriber call happened at its mark or emit, not later
        assert at_call == [expected[:n + 1] for n in range(len(expected))]
        assert tr.events[0].data == {"fault": "node_crash", "target": "n1"}

    def test_markers_view_entries(self):
        tr = Tracer()
        for i, (t, label, data) in enumerate(self.MARKS):
            tr.mark(t, label, data)
            tr.emit("server_start", time=t, node_id=i)
        assert tr.markers.entries == self.MARKS
        assert not hasattr(tr.markers, "mark")

    def test_markers_view_queries(self):
        tr = Tracer()
        for t, label, data in self.MARKS:
            tr.mark(t, label, data)
        for label in ("detected", "excluded", "fault_injected", "missing"):
            want = [(t, d) for t, lb, d in self.MARKS if lb == label]
            assert tr.markers.all(label) == want
            assert tr.markers.first(label) == (min(t for t, _ in want) if want else None)

    def test_markers_all_preserves_payloads(self):
        tr = Tracer()
        tr.mark(1.0, "x", {"k": 1})
        tr.emit("server_start", time=1.5)
        tr.mark(2.0, "x", ("a", 2))
        assert tr.markers.all("x") == [(1.0, {"k": 1}), (2.0, ("a", 2))]

    def test_markers_first_is_earliest(self):
        tr = Tracer()
        tr.mark(3.0, "detected", "a")
        tr.emit("server_start", time=1.5)
        tr.mark(1.0, "detected", "b")
        tr.mark(2.0, "other")
        assert tr.markers.entries == [(3.0, "detected", "a"), (1.0, "detected", "b"),
                                      (2.0, "other", None)]
        assert tr.markers.first("detected") == 1.0
        assert tr.markers.first("missing") is None


class TestPinnedStream:
    """FME node_freeze over the 40-s event-sequence windows under
    ``Telemetry()``: the fingerprint's trace component and the JSONL a
    subscriber streams, pinned.  Translating markers when ``events`` is
    read, not when they are marked, must not reorder or change an event.
    Both digests were derived on the tracer that translated each marker
    as it was marked."""

    TRACE_SHA256 = "a917de4b19c0f22093edbecf5766c0b838be4baa1922659d0e8aa967381af3bd"
    JSONL_SHA256 = "54ed1b6fe1855e396e900baab48aa9d08ae947fa7eeb6286fe50c65931b8fecc"

    def test_fme_node_freeze_stream(self):
        telemetry = Telemetry()
        sink = io.StringIO()
        telemetry.tracer.subscribe(jsonl_subscriber(sink))
        trace, world = run_single_fault(version("FME"), FaultKind.NODE_FREEZE,
                                        QuantifyConfig(seed=0, campaign=WINDOWS),
                                        telemetry=telemetry)
        fp = fingerprint(world, trace)
        assert len(fp["trace"]) == sink.getvalue().count("\n") == 357
        assert hashlib.sha256(canonical(fp["trace"])).hexdigest() == self.TRACE_SHA256
        assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == self.JSONL_SHA256
