"""The object-based span recorder: the reference the columnar store is
tested against (tests/obs/test_spans.py).

Every span is a live :class:`~repro.obs.spans.Span` and the handle a
call returns is that object, kept in one list per request.  The
columnar :class:`~repro.obs.spans.SpanRecorder` must read back the same
span set from the same calls.
"""

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.spans import CATEGORIES, Span


class ReferenceSpanRecorder:
    def __init__(self) -> None:
        # req_id -> [Span, ...] in creation order
        self._trees: Dict[int, List[Span]] = {}
        self._next_span_id = 0
        self._next_probe_id = 0
        self._env = None

    def bind_clock(self, env) -> None:
        self._env = env

    def _time(self, t: Optional[float]) -> float:
        if t is not None:
            return t
        return self._env.now if self._env is not None else 0.0

    def _alloc(self, req_id: int, parent_id: Optional[int], name: str,
               category: str, node: str, t: Optional[float],
               meta: Dict[str, Any]) -> Span:
        if category not in CATEGORIES:
            raise ValueError(f"unknown span category {category!r}")
        self._next_span_id += 1
        span = Span(self._next_span_id, req_id, parent_id, name, category,
                    node, self._time(t))
        span.meta.update(meta)
        self._trees.setdefault(req_id, []).append(span)
        return span

    def root(self, req_id: int, name: str, node: str,
             t: Optional[float] = None, **meta: Any) -> Span:
        return self._alloc(req_id, None, name, "request", node, t, meta)

    def probe_root(self, name: str, node: str, t: Optional[float] = None,
                   **meta: Any) -> Span:
        self._next_probe_id -= 1
        return self.root(self._next_probe_id, name, node, t, **meta)

    def start(self, name: str, category: str, node: str,
              ctx: Optional[Span], t: Optional[float] = None,
              **meta: Any) -> Optional[Span]:
        if ctx is None:
            return None
        return self._alloc(ctx.req_id, ctx.span_id, name, category, node,
                           t, meta)

    def event(self, ctx: Optional[Span], name: str, category: str, node: str,
              t: Optional[float] = None, **meta: Any) -> Optional[Span]:
        span = self.start(name, category, node, ctx, t, **meta)
        if span is not None:
            span.t1 = span.t0
        return span

    def finish(self, span: Optional[Span], t: Optional[float] = None,
               **meta: Any) -> None:
        if span is None:
            return
        span.t1 = self._time(t)
        span.meta.update(meta)

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
