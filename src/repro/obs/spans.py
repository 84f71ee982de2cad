"""Causal request-path tracing: span trees, critical paths, tail blame.

The paper's central claim is that faults *propagate through
cooperation*: COOP's unavailability grows with the cluster while FME's
stays flat.  Aggregate telemetry (TraceEvents, metrics) shows *that*
p99 explodes during a fault; this module shows *why*, per request.

A :class:`Span` is one timed hop of one request (queueing in the main
queue, CPU service, a cooperative peer fetch, a disk read, a network
transfer, timeout wait).  Spans form a tree per request, rooted at the
client's ``request`` span and threaded through the cluster by a trace
context — the parent :class:`Span` object itself — carried on the
request (``Request.ctx``) and on :class:`~repro.net.message.Message.ctx`,
and passed explicitly to every span-opening call.

Determinism contract (the run fingerprint extends to spans):

* recording never schedules events, draws RNG, or mutates component
  state — a spans-enabled run is event-for-event identical to a
  disabled one;
* every request is recorded, so the recorded set is the same under
  every ``PYTHONHASHSEED`` and in every worker process;
* span ids are allocated from a monotone per-recorder counter and all
  bookkeeping is keyed on deterministic integers, never ``id()``.

An enabled recorder keeps every tree of the run; tracing is opt-in
(``Telemetry(trace_spans=True)``), so the default run keeps none.

On top of the store:

* :func:`critical_path` — the chain of hops that determined when the
  request finished, with per-hop self-time attribution
  (:func:`attribute_path`: queueing vs service vs network vs disk vs
  timeout-wait);
* :func:`render_waterfall` — per-request ASCII waterfall in the style
  of :mod:`repro.obs.timeline`;
* :func:`blame_report` / :func:`format_blame` — the p99 slowest
  requests grouped by critical-path signature and dominant hop,
  split before/during/after each injected fault.  During a node crash
  this is where COOP's tails show ``peer_fetch`` hops while FME's
  stay local (``repro explain`` prints both);
* :func:`spans_digest` — a canonical digest of a span set (the
  determinism oracle's view).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.events import EventKind, TraceEvent, canonical

#: Attribution buckets a span may charge its self-time to.
CATEGORIES = frozenset(
    {"request", "queue", "service", "network", "disk", "wait", "route", "probe"}
)


class Span:
    """One timed hop of one request.

    ``t1`` is ``None`` while the span is open; crash/reap paths may
    legitimately leave spans unfinished (the analysis helpers clamp
    them to the tree's end).
    """

    __slots__ = ("span_id", "req_id", "parent_id", "name", "category",
                 "node", "t0", "t1", "meta")

    def __init__(self, span_id: int, req_id: int, parent_id: Optional[int],
                 name: str, category: str, node: str, t0: float):
        assert category in CATEGORIES, f"unknown span category {category!r}"
        self.span_id = span_id
        self.req_id = req_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.node = node
        self.t0 = t0
        self.t1: Optional[float] = None
        self.meta: Dict[str, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.t1:.3f}" if self.t1 is not None else "open"
        return (f"<Span #{self.span_id} req={self.req_id} {self.name} "
                f"[{self.t0:.3f}..{end}]>")


class SpanRecorder:
    """The per-world span store: one tree per request, every request kept.

    The trace context threaded through the system *is* the parent
    :class:`Span`; ``None`` means "not traced", and every method is
    ``None``-tolerant so call sites stay unconditional.  Disabled
    recorders never allocate, so the simulation hot path pays one
    attribute check per call site.
    """

    __slots__ = ("enabled", "_trees", "_next_span_id", "_next_probe_id",
                 "_env")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        # req_id -> [Span, ...] in creation order
        self._trees: Dict[int, List[Span]] = {}
        self._next_span_id = 0
        self._next_probe_id = 0
        self._env = None

    # -- wiring ----------------------------------------------------------
    def bind_clock(self, env) -> None:
        """Read timestamps from ``env.now`` (done by Telemetry.attach)."""
        self._env = env

    def _time(self, t: Optional[float]) -> float:
        if t is not None:
            return t
        return self._env.now if self._env is not None else 0.0

    # -- recording -------------------------------------------------------
    def _alloc(self, req_id: int, parent_id: Optional[int], name: str,
               category: str, node: str, t: Optional[float],
               meta: Dict[str, Any]) -> Span:
        self._next_span_id += 1
        span = Span(self._next_span_id, req_id, parent_id, name, category,
                    node, self._time(t))
        if meta:
            span.meta.update(meta)
        return span

    def root(self, req_id: int, name: str, node: str,
             t: Optional[float] = None, **meta: Any) -> Optional[Span]:
        """Open a request's root span; returns None when disabled."""
        if not self.enabled:
            return None
        span = self._alloc(req_id, None, name, "request", node, t, meta)
        self._trees.setdefault(req_id, []).append(span)
        return span

    def probe_root(self, name: str, node: str, t: Optional[float] = None,
                   **meta: Any) -> Optional[Span]:
        """Root span in the monitoring namespace (negative req_ids).

        FME/S-FME probe rounds live here so request blame reports can
        exclude them without a schema flag.
        """
        if not self.enabled:
            return None
        self._next_probe_id -= 1
        return self.root(self._next_probe_id, name, node, t, **meta)

    def start(self, name: str, category: str, node: str,
              ctx: Optional[Span], t: Optional[float] = None,
              **meta: Any) -> Optional[Span]:
        """Open a child span under ``ctx``; None ctx (untraced) no-ops."""
        if ctx is None or not self.enabled:
            return None
        tree = self._trees.get(ctx.req_id)
        if tree is None:  # ctx opened by another recorder
            return None
        span = self._alloc(ctx.req_id, ctx.span_id, name, category, node,
                           t, meta)
        tree.append(span)
        return span

    def event(self, ctx: Optional[Span], name: str, category: str, node: str,
              t: Optional[float] = None, **meta: Any) -> Optional[Span]:
        """A zero-duration annotation span (e.g. a routing decision)."""
        span = self.start(name, category, node, ctx, t, **meta)
        if span is not None:
            span.t1 = span.t0
        return span

    def finish(self, span: Optional[Span], t: Optional[float] = None,
               **meta: Any) -> None:
        if span is None:
            return
        span.t1 = self._time(t)
        if meta:
            span.meta.update(meta)

    # -- access ----------------------------------------------------------
    def tree(self, req_id: int) -> List[Span]:
        return list(self._trees.get(req_id, ()))

    def trees(self) -> Iterator[Tuple[int, List[Span]]]:
        for req_id, spans in self._trees.items():
            yield req_id, list(spans)

    def spans(self) -> Iterator[Span]:
        for spans in self._trees.values():
            yield from spans

    def __len__(self) -> int:
        return sum(len(s) for s in self._trees.values())


#: Shared always-disabled recorder: it records nothing, so sharing is safe.
NULL_SPANS = SpanRecorder(enabled=False)


# ---------------------------------------------------------------------------
# digest


def span_to_dict(span: Span) -> Dict[str, Any]:
    return {
        "span_id": span.span_id,
        "req_id": span.req_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "category": span.category,
        "node": span.node,
        "t0": span.t0,
        "t1": span.t1,
        "meta": dict(span.meta),
    }


def spans_digest(spans: Iterable[Span]) -> str:
    """Canonical SHA-256 over a span set: the determinism oracle's view.

    Sorted by ``(req_id, span_id)`` so insertion order cannot leak in.
    """
    h = hashlib.sha256()
    for span in sorted(spans, key=lambda s: (s.req_id, s.span_id)):
        h.update(canonical(span_to_dict(span)))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# tree analysis


def _tree_end(spans: Sequence[Span]) -> float:
    """Latest known timestamp in a tree (clamp for unfinished spans)."""
    end = max(s.t0 for s in spans)
    for s in spans:
        if s.t1 is not None and s.t1 > end:
            end = s.t1
    return end


def span_end(span: Span, default: float) -> float:
    return span.t1 if span.t1 is not None else default


def tree_root(spans: Sequence[Span]) -> Optional[Span]:
    for span in spans:
        if span.parent_id is None:
            return span
    return None


def _walk_critical(span: Span, children: Dict[int, List[Span]], end: float,
                   out: List[Tuple[Span, float]]) -> None:
    """Backward scan: from the span's end, repeatedly descend into the
    child that was completing latest, then continue scanning earlier
    siblings — so *serialized* stages (connect, then queue, then serve)
    all land on the path, not just the final chain.  Time not covered by
    any on-path child is the span's own (``self``) time."""
    e = span_end(span, end)
    entry_index = len(out)
    out.append((span, 0.0))
    cursor = e
    self_time = 0.0
    # ascending by (end, id): pop() yields the latest-ending child.
    pending = sorted(children.get(span.span_id, []),
                     key=lambda s: (span_end(s, end), s.span_id))
    while pending:
        child = pending.pop()
        ce = span_end(child, end)
        if child.t0 >= cursor:
            continue  # entirely inside an already-attributed region
        ce = min(ce, cursor)
        self_time += cursor - ce  # gap the span spent on its own
        _walk_critical(child, children, end, out)
        cursor = child.t0
        # siblings overlapping the chosen child are shadowed by it;
        # only ones that finished before it started remain candidates.
        pending = [p for p in pending if span_end(p, end) <= cursor]
    self_time += max(0.0, cursor - span.t0)
    out[entry_index] = (span, self_time)


def _critical_entries(spans: Sequence[Span]) -> List[Tuple[Span, float]]:
    root = tree_root(spans)
    if root is None:
        return []
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    end = _tree_end(spans)
    out: List[Tuple[Span, float]] = []
    _walk_critical(root, children, end, out)
    out.sort(key=lambda e: (e[0].t0, e[0].span_id))  # chronological
    return out


def critical_path(spans: Sequence[Span]) -> List[Span]:
    """The chronological chain of spans that determined when the request
    finished (waiting excluded: parallel hops shadowed by a slower one
    are not on the path)."""
    return [span for span, _self in _critical_entries(spans)]


def attribute_path(spans: Sequence[Span],
                   end: Optional[float] = None) -> List[Dict[str, Any]]:
    """Per-hop latency attribution along the critical path of a tree.

    Each hop's ``self_time`` is the part of the request's latency this
    hop alone was responsible for; hop times sum to the root's duration.
    The hop's ``category`` buckets it: queueing vs service vs network
    vs disk vs timeout-wait.
    """
    tail = end if end is not None else (_tree_end(spans) if spans else 0.0)
    hops: List[Dict[str, Any]] = []
    for span, self_time in _critical_entries(spans):
        e = span_end(span, tail)
        hops.append({
            "span_id": span.span_id,
            "name": span.name,
            "category": span.category,
            "node": span.node,
            "duration": e - span.t0,
            "self_time": self_time,
        })
    return hops


def path_signature(path: Sequence[Span]) -> str:
    """Stable label for a critical-path shape, e.g.
    ``request>mainq>peer_fetch>remote_serve>disk``."""
    return ">".join(s.name for s in path)


def dominant_hop(hops: Sequence[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    if not hops:
        return None
    return max(hops, key=lambda h: (h["self_time"], -h["span_id"]))


def analyze_tree(req_id: int, spans: Sequence[Span]) -> Optional[Dict[str, Any]]:
    """One request's blame record: latency, signature, dominant hop."""
    root = tree_root(spans)
    if root is None:
        return None
    end = _tree_end(spans)
    entries = _critical_entries(spans)
    hops = attribute_path(spans, end=end)
    dom = dominant_hop(hops)
    return {
        "req_id": req_id,
        "t0": root.t0,
        "latency": span_end(root, end) - root.t0,
        "outcome": root.meta.get("outcome", "open"),
        "signature": path_signature([s for s, _ in entries]),
        "hops": hops,
        "dominant": dom,
    }


# ---------------------------------------------------------------------------
# tail-latency blame


def phases_from_trace(events: Iterable[TraceEvent],
                      end: float) -> List[Tuple[str, float, float]]:
    """Before/during/after windows for each injected fault in a trace.

    ``end`` closes the last window: pass the run's end
    (``ExperimentTrace.t_end``), not the last event's time, or requests
    that start after the last event fall in no phase.
    """
    marks: List[Tuple[float, str, str]] = []
    for ev in events:
        if ev.kind == EventKind.FAULT_INJECTED:
            marks.append((ev.time, "inject", str(ev.get("fault", "fault"))))
        elif ev.kind in (EventKind.FAULT_REPAIRED, EventKind.OPERATOR_RESET):
            marks.append((ev.time, "repair", str(ev.get("fault", "fault"))))
    if not marks:
        return [("all", 0.0, end)]
    marks.sort(key=lambda m: m[0])
    phases: List[Tuple[str, float, float]] = []
    cursor = 0.0
    label = "before"
    for t, action, fault in marks:
        if t > cursor:
            phases.append((label, cursor, t))
        cursor = t
        label = f"during {fault}" if action == "inject" else f"after {fault}"
    if end > cursor:
        phases.append((label, cursor, end))
    return phases


def blame_report(trees: Iterable[Tuple[int, Sequence[Span]]],
                 percentile: float = 99.0,
                 phases: Optional[Sequence[Tuple[str, float, float]]] = None,
                 top: int = 5) -> Dict[str, Any]:
    """Group the p-``percentile`` slowest requests by critical-path
    signature and dominant hop, per phase.

    Monitoring trees (negative req_ids, e.g. FME probes) are excluded.
    The per-phase threshold is computed within the phase, so a fault
    that slows *everything* still yields a meaningful tail.
    """
    records = []
    for req_id, spans in trees:
        if req_id < 0 or not spans:
            continue
        rec = analyze_tree(req_id, spans)
        if rec is not None:
            records.append(rec)
    if phases is None:
        end = max((r["t0"] + r["latency"] for r in records), default=0.0)
        phases = [("all", 0.0, end)]

    out_phases: List[Dict[str, Any]] = []
    for label, t0, t1 in phases:
        in_phase = [r for r in records if t0 <= r["t0"] < t1]
        in_phase.sort(key=lambda r: (-r["latency"], r["req_id"]))
        if in_phase:
            idx = max(0, int(len(in_phase) * (1.0 - percentile / 100.0)))
            tail = in_phase[:max(1, idx)]
            threshold = tail[-1]["latency"]
        else:
            tail, threshold = [], 0.0
        groups: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for rec in tail:
            dom = rec["dominant"] or {"name": "?", "category": "?"}
            key = (rec["signature"], dom["name"])
            g = groups.setdefault(key, {
                "signature": rec["signature"],
                "dominant": dom["name"],
                "dominant_category": dom["category"],
                "count": 0,
                "total_latency": 0.0,
                "max_latency": 0.0,
                "example_req": rec["req_id"],
            })
            g["count"] += 1
            g["total_latency"] += rec["latency"]
            if rec["latency"] > g["max_latency"]:
                g["max_latency"] = rec["latency"]
                g["example_req"] = rec["req_id"]
        ranked = sorted(groups.values(),
                        key=lambda g: (-g["count"], -g["total_latency"],
                                       g["signature"]))[:top]
        for g in ranked:
            g["mean_latency"] = g.pop("total_latency") / g["count"]
        out_phases.append({
            "label": label,
            "t0": t0,
            "t1": t1,
            "requests": len(in_phase),
            "tail": len(tail),
            "threshold": threshold,
            "groups": ranked,
        })
    return {
        "percentile": percentile,
        "requests": len(records),
        "phases": out_phases,
    }


def format_blame(report: Dict[str, Any]) -> str:
    """ASCII rendering of :func:`blame_report`."""
    lines: List[str] = []
    lines.append(f"tail-latency blame — p{report['percentile']:g} of "
                 f"{report['requests']} traced requests")
    for phase in report["phases"]:
        lines.append("")
        lines.append(f"[{phase['t0']:.1f}s .. {phase['t1']:.1f}s] "
                     f"{phase['label']}: {phase['tail']} tail / "
                     f"{phase['requests']} reqs "
                     f"(threshold {phase['threshold'] * 1000:.1f} ms)")
        if not phase["groups"]:
            lines.append("  (no traced requests in phase)")
            continue
        lines.append(f"  {'n':>4} {'mean ms':>9} {'max ms':>9} "
                     f"{'dominant hop':<22} critical path")
        for g in phase["groups"]:
            dom = f"{g['dominant']} ({g['dominant_category']})"
            lines.append(f"  {g['count']:>4} {g['mean_latency'] * 1000:>9.1f} "
                         f"{g['max_latency'] * 1000:>9.1f} {dom:<22} "
                         f"{g['signature']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# waterfall rendering


def render_waterfall(spans: Sequence[Span], width: int = 56) -> str:
    """Per-request ASCII waterfall (one row per span, bars on a shared
    time axis), in the style of :func:`repro.obs.timeline.render_timeline`."""
    root = tree_root(spans)
    if root is None:
        return "(empty span tree)"
    end = _tree_end(spans)
    total = max(span_end(root, end) - root.t0, 1e-9)
    depth: Dict[int, int] = {root.span_id: 0}
    ordered = sorted(spans, key=lambda s: (s.t0, s.span_id))
    lines = [
        f"request {root.req_id} on {root.node} — "
        f"{total * 1000:.1f} ms, {len(spans)} spans "
        f"(outcome: {root.meta.get('outcome', 'open')})",
        f"{'t0 ms':>9} {'dur ms':>9}  {'span':<28} "
        f"|{'-' * width}|",
    ]
    for span in ordered:
        if span.span_id not in depth:
            depth[span.span_id] = depth.get(span.parent_id, 0) + 1
        d = depth[span.span_id]
        e = span_end(span, end)
        off = int((span.t0 - root.t0) / total * width)
        w = max(1, int((e - span.t0) / total * width))
        off = min(off, width - 1)
        w = min(w, width - off)
        bar = " " * off + "#" * w + " " * (width - off - w)
        label = ("  " * d) + span.name
        suffix = " *open*" if span.t1 is None else ""
        note = ",".join(f"{k}={span.meta[k]}" for k in sorted(span.meta))
        tag = f"{label} [{span.node}]"
        lines.append(f"{(span.t0 - root.t0) * 1000:>9.1f} "
                     f"{(e - span.t0) * 1000:>9.1f}  {tag:<28} "
                     f"|{bar}|{suffix}{' ' + note if note else ''}")
    return "\n".join(lines)

