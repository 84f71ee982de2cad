"""Causal tracing: recorder semantics, critical paths, blame, digest.

The synthetic trees here use explicit timestamps so every attribution
number is checkable by hand; the live end-to-end path (ctx threading
through PRESS) is exercised by tests/integration/test_span_tracing.py.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EventKind, TraceEvent
from repro.obs.spans import (
    CATEGORIES,
    NULL_SPANS,
    SpanRecorder,
    analyze_tree,
    attribute_path,
    blame_report,
    critical_path,
    format_blame,
    path_signature,
    phases_from_trace,
    render_waterfall,
    span_to_dict,
    spans_digest,
)
from repro.obs.telemetry import Telemetry
from tests.obs.reference_spans import ReferenceSpanRecorder


def _request_tree(rec, req_id, t0=0.0, latency=1.0, outcome="ok",
                  peer=False):
    """One synthetic request: connect, queue, then serve (or peer fetch)."""
    root = rec.root(req_id, "request", "clients", t=t0)
    conn = rec.start("connect", "network", "clients", root, t=t0)
    rec.finish(conn, t=t0 + 0.1 * latency)
    q = rec.start("mainq", "queue", "n1", root, t=t0 + 0.1 * latency)
    rec.finish(q, t=t0 + 0.2 * latency)
    if peer:
        fetch = rec.start("peer_fetch", "network", "n1", root,
                          t=t0 + 0.2 * latency)
        remote = rec.start("remote_serve", "service", "n2", fetch,
                           t=t0 + 0.3 * latency)
        rec.finish(remote, t=t0 + 0.9 * latency)
        rec.finish(fetch, t=t0 + latency)
    else:
        serve = rec.start("serve", "service", "n1", root,
                          t=t0 + 0.2 * latency)
        rec.finish(serve, t=t0 + latency)
    rec.finish(root, t=t0 + latency, outcome=outcome)
    return root


class TestRecorder:
    def test_root_start_finish_lifecycle(self):
        rec = SpanRecorder()
        root = rec.root(1, "request", "clients", t=0.0, fid=7)
        child = rec.start("serve", "service", "n1", root, t=0.5)
        rec.finish(child, t=1.0, cache="hit")
        rec.finish(root, t=1.5, outcome="ok")
        tree = rec.tree(1)
        assert [s.name for s in tree] == ["request", "serve"]
        assert tree[0].meta == {"fid": 7, "outcome": "ok"}
        assert tree[1].parent_id == tree[0].span_id
        assert tree[1].t1 - tree[1].t0 == pytest.approx(0.5)
        assert len(rec) == 2

    def test_event_is_zero_duration(self):
        rec = SpanRecorder()
        root = rec.root(1, "request", "clients", t=0.0)
        rec.event(root, "route", "route", "fe", t=0.3, choice="n1")
        ev = rec.tree(1)[1]
        assert ev.t0 == ev.t1 == 0.3
        assert ev.meta == {"choice": "n1"}

    def test_none_ctx_and_none_span_are_tolerated(self):
        rec = SpanRecorder()
        assert rec.start("serve", "service", "n1", None) is None
        assert rec.event(None, "route", "route", "fe") is None
        rec.finish(None)  # must not raise

    def test_disabled_recorder_records_nothing(self):
        rec = SpanRecorder(enabled=False)
        assert rec.root(1, "request", "clients") is None
        assert rec.probe_root("fme_probe", "n1") is None
        assert len(rec) == 0
        assert NULL_SPANS.root(1, "request", "clients") is None

    def test_untraced_telemetry_shares_null_spans(self):
        assert Telemetry().spans is NULL_SPANS
        assert Telemetry.disabled().spans is NULL_SPANS
        assert Telemetry(trace_spans=True).spans is not NULL_SPANS

    def test_unknown_category_rejected(self):
        rec = SpanRecorder()
        root = rec.root(1, "request", "clients", t=0.0)
        with pytest.raises(ValueError, match="bogus"):
            rec.start("x", "bogus", "n1", root)
        with pytest.raises(ValueError, match="bogus"):
            rec.event(root, "x", "bogus", "n1")
        assert len(rec) == 1

    def test_probe_roots_use_negative_request_ids(self):
        rec = SpanRecorder()
        rec.probe_root("fme_probe", "n1", t=0.0)
        rec.probe_root("fme_probe", "n1", t=1.0)
        a, b = rec.spans()
        assert a.req_id == -1 and b.req_id == -2
        assert {req_id for req_id, _ in rec.trees()} == {-1, -2}

    def test_clock_binding(self):
        class _Env:
            now = 4.5

        rec = SpanRecorder()
        rec.bind_clock(_Env())
        rec.root(1, "request", "clients")
        (root,) = rec.tree(1)
        assert root.t0 == 4.5

    def test_recording_allocates_no_tracked_objects(self):
        # 10,000 spans, 2,000 requests: rows and a meta log, no Span
        # objects, meta dicts or per-request lists until read.
        rec = SpanRecorder()
        before = len(gc.get_objects())
        for req_id in range(1, 2001):
            root = rec.root(req_id, "request", "clients", t=0.0, fid=req_id)
            conn = rec.start("connect", "network", "clients", root, t=0.1)
            rec.finish(conn, t=0.2, outcome="established")
            rec.event(root, "route", "route", "fe", t=0.2, choice="n1")
            q = rec.start("mainq", "queue", "n1", root, t=0.2)
            rec.finish(q, t=0.3)
            serve = rec.start("serve", "service", "n1", root, t=0.3)
            rec.finish(serve, t=0.4, cache="hit")
            rec.finish(root, t=0.5, outcome="ok")
        assert len(rec) == 10_000
        assert len(gc.get_objects()) - before < 100


NAMES = ("request", "mainq", "peer_fetch", "disk")
NODES = ("clients", "n1", "n2")
#: explicit times are floats, like every clock reading in a run
TIMES = st.none() | st.floats(0.0, 1e4, allow_nan=False)
META = st.dictionaries(st.sampled_from(("outcome", "fid", "cache")),
                       st.integers(-3, 3) | st.sampled_from(("ok", "hit")),
                       max_size=2)
#: a span-opening call's target: an index into the handles so far
#: (taken modulo their number; open or finished alike), or None
PARENT = st.none() | st.integers(0, 50)
OPS = st.lists(st.one_of(
    st.tuples(st.just("root"), st.integers(1, 4), st.sampled_from(NAMES),
              st.sampled_from(NODES), TIMES, META),
    st.tuples(st.just("probe_root"), st.sampled_from(NAMES),
              st.sampled_from(NODES), TIMES, META),
    st.tuples(st.sampled_from(("start", "event")), PARENT,
              st.sampled_from(NAMES), st.sampled_from(sorted(CATEGORIES)),
              st.sampled_from(NODES), TIMES, META),
    st.tuples(st.just("finish"), PARENT, TIMES, META),
), max_size=40)


def _drive(rec, ops, bound_clock):
    """Replay ``ops`` on ``rec``; returns it.  With ``bound_clock`` the
    recorder reads a clock that ticks once per call."""
    class _Env:
        now = 0.0

    env = _Env()
    if bound_clock:
        rec.bind_clock(env)
    handles = []

    def pick(index):
        return None if index is None or not handles else \
            handles[index % len(handles)]

    for op in ops:
        env.now += 0.25
        if op[0] == "root":
            _, req_id, name, node, t, meta = op
            handles.append(rec.root(req_id, name, node, t, **meta))
        elif op[0] == "probe_root":
            _, name, node, t, meta = op
            handles.append(rec.probe_root(name, node, t, **meta))
        elif op[0] == "start":
            _, parent, name, category, node, t, meta = op
            handles.append(rec.start(name, category, node, pick(parent), t,
                                     **meta))
        elif op[0] == "event":
            _, parent, name, category, node, t, meta = op
            handles.append(rec.event(pick(parent), name, category, node, t,
                                     **meta))
        else:
            _, target, t, meta = op
            rec.finish(pick(target), t, **meta)
    return rec


def _dicts(spans):
    return [span_to_dict(s) for s in spans]


class TestAgainstReference:
    """The columnar store reads back what the object-based recorder it
    replaced (tests/obs/reference_spans.py) keeps, call for call."""

    @settings(max_examples=200, deadline=None)
    @given(ops=OPS, bound_clock=st.booleans())
    def test_same_span_set(self, ops, bound_clock):
        ref = _drive(ReferenceSpanRecorder(), ops, bound_clock)
        rec = _drive(SpanRecorder(), ops, bound_clock)
        assert len(rec) == len(ref)
        assert spans_digest(rec.spans()) == spans_digest(ref.spans())
        assert [(r, [s.span_id for s in tree]) for r, tree in rec.trees()] \
            == [(r, [s.span_id for s in tree]) for r, tree in ref.trees()]
        for req_id, _ in ref.trees():
            assert _dicts(rec.tree(req_id)) == _dicts(ref.tree(req_id))
        assert [s.span_id for s in rec.spans()] == list(range(1, len(rec) + 1))


class TestCriticalPath:
    def test_serialized_hops_all_on_path(self):
        rec = SpanRecorder()
        _request_tree(rec, 1, t0=0.0, latency=10.0)
        tree = rec.tree(1)
        assert path_signature(critical_path(tree)) == \
            "request>connect>mainq>serve"
        hops = attribute_path(tree)
        assert sum(h["self_time"] for h in hops) == pytest.approx(10.0)
        by_name = {h["name"]: h for h in hops}
        assert by_name["connect"]["self_time"] == pytest.approx(1.0)
        assert by_name["mainq"]["self_time"] == pytest.approx(1.0)
        assert by_name["serve"]["self_time"] == pytest.approx(8.0)
        assert by_name["request"]["self_time"] == pytest.approx(0.0)

    def test_shadowed_parallel_hop_is_excluded(self):
        rec = SpanRecorder()
        root = rec.root(1, "request", "clients", t=0.0)
        slow = rec.start("peer_fetch", "network", "n1", root, t=1.0)
        fast = rec.start("disk", "disk", "n1", root, t=2.0)
        rec.finish(fast, t=4.0)   # entirely inside slow's window
        rec.finish(slow, t=9.0)
        rec.finish(root, t=10.0, outcome="ok")
        path = critical_path(rec.tree(1))
        assert path_signature(path) == "request>peer_fetch"
        hops = attribute_path(rec.tree(1))
        assert sum(h["self_time"] for h in hops) == pytest.approx(10.0)

    def test_open_spans_clamp_to_tree_end(self):
        rec = SpanRecorder()
        root = rec.root(1, "request", "clients", t=0.0)
        rec.start("mainq", "queue", "n1", root, t=1.0)  # never finished
        rec.finish(root, t=5.0, outcome="expired")
        rec_tree = rec.tree(1)
        hops = attribute_path(rec_tree)
        assert sum(h["self_time"] for h in hops) == pytest.approx(5.0)
        record = analyze_tree(1, rec_tree)
        assert record["outcome"] == "expired"
        assert record["latency"] == pytest.approx(5.0)

    def test_analyze_tree_dominant_hop(self):
        rec = SpanRecorder()
        _request_tree(rec, 3, t0=2.0, latency=4.0, peer=True)
        record = analyze_tree(3, rec.tree(3))
        assert record["signature"] == \
            "request>connect>mainq>peer_fetch>remote_serve"
        assert record["dominant"]["name"] == "remote_serve"
        assert record["t0"] == pytest.approx(2.0)
        assert analyze_tree(9, []) is None


class TestBlame:
    def _trees(self):
        rec = SpanRecorder()
        # 20 fast local requests before the fault, 20 slow peer-fetch
        # requests after it; one FME probe that must be excluded.
        for i in range(1, 21):
            _request_tree(rec, i, t0=float(i), latency=0.1)
        for i in range(21, 41):
            _request_tree(rec, i, t0=100.0 + i, latency=5.0, peer=True)
        probe = rec.probe_root("fme_probe", "n1", t=1.0)
        rec.finish(probe, t=2.0)
        return rec

    def test_phase_split_and_grouping(self):
        rec = self._trees()
        phases = [("before", 0.0, 100.0), ("during crash", 100.0, 200.0)]
        report = blame_report(rec.trees(), percentile=50.0, phases=phases)
        assert report["requests"] == 40  # probe excluded
        before, during = report["phases"]
        assert before["label"] == "before"
        assert before["requests"] == 20
        assert during["groups"][0]["signature"] == \
            "request>connect>mainq>peer_fetch>remote_serve"
        assert during["groups"][0]["dominant"] == "remote_serve"
        assert during["groups"][0]["max_latency"] == pytest.approx(5.0)

    def test_p99_keeps_at_least_one_request(self):
        rec = self._trees()
        report = blame_report(rec.trees(), percentile=99.0)
        (phase,) = report["phases"]
        assert phase["tail"] == 1
        assert phase["threshold"] == pytest.approx(5.0)

    def test_format_blame_renders(self):
        rec = self._trees()
        text = format_blame(blame_report(rec.trees(), percentile=50.0))
        assert "tail-latency blame" in text
        assert "peer_fetch" in text

    def test_empty_phase_renders_placeholder(self):
        report = blame_report([], phases=[("before", 0.0, 1.0)])
        assert "no traced requests" in format_blame(report)


class TestPhases:
    def test_no_faults_is_one_window(self):
        events = [TraceEvent(5.0, EventKind.SERVER_START, "n1", {})]
        assert phases_from_trace(events, end=5.0) == [("all", 0.0, 5.0)]

    def test_inject_and_repair_split(self):
        events = [
            TraceEvent(10.0, EventKind.FAULT_INJECTED, "injector",
                       {"fault": "node_crash"}),
            TraceEvent(40.0, EventKind.FAULT_REPAIRED, "injector",
                       {"fault": "node_crash"}),
            TraceEvent(90.0, EventKind.SERVER_START, "n1", {}),
        ]
        # the run's end closes the last phase, not the last event
        assert phases_from_trace(events, end=120.0) == [
            ("before", 0.0, 10.0),
            ("during node_crash", 10.0, 40.0),
            ("after node_crash", 40.0, 120.0),
        ]

    def test_explicit_end_overrides(self):
        events = [TraceEvent(10.0, EventKind.FAULT_INJECTED, "injector",
                             {"fault": "app_crash"})]
        assert phases_from_trace(events, end=50.0) == [
            ("before", 0.0, 10.0),
            ("during app_crash", 10.0, 50.0),
        ]


class TestExport:
    def test_digest_ignores_insertion_order(self):
        rec = SpanRecorder()
        _request_tree(rec, 1, t0=0.0, latency=1.0)
        spans = list(rec.spans())
        assert spans_digest(reversed(spans)) == spans_digest(spans)

    def test_digest_sensitive_to_content(self):
        rec = SpanRecorder()
        rec.root(1, "request", "clients", t=0.0)
        base = spans_digest(rec.spans())
        (root,) = rec.tree(1)
        root.meta["outcome"] = "ok"
        assert spans_digest([root]) != base


class TestWaterfall:
    def test_renders_rows_and_meta(self):
        rec = SpanRecorder()
        _request_tree(rec, 7, t0=0.0, latency=2.0, peer=True)
        text = render_waterfall(rec.tree(7))
        assert "request 7 on clients" in text
        assert "remote_serve [n2]" in text
        assert "outcome: ok" in text
        assert "#" in text

    def test_open_span_is_flagged(self):
        rec = SpanRecorder()
        root = rec.root(1, "request", "clients", t=0.0)
        rec.start("mainq", "queue", "n1", root, t=0.5)
        rec.finish(root, t=1.0, outcome="expired")
        assert "*open*" in render_waterfall(rec.tree(1))

    def test_empty_tree(self):
        assert render_waterfall([]) == "(empty span tree)"
