"""REP013 fixture: trace-context loss in span-aware code.

A function is span-aware when it takes a ``ctx`` parameter or binds the
result of a span-opening call; inside one, every Message construction
must pass ctx= (ctx=None is an explicit opt-out).
"""


def bad_ctx_param(env, req, ctx):
    msg = Message("fwd_req", 1, 2, {"fid": req.fid})  # BAD REP013
    return msg


def bad_span_opener(env, spans, req):
    span = spans.start("peer_fetch", "network", "n1", ctx=req.ctx)
    msg = Message("fwd_req", 1, 2, size=64)  # BAD REP013
    spans.finish(span)
    return msg


def bad_self_recorder(self, req):
    fetch = self._spans.start("disk", "disk", "n1", ctx=req.ctx)
    msg = Message("disk_read", 1, 1)  # BAD REP013
    return fetch, msg


def good_threads_ctx(env, req, ctx):
    msg = Message("fwd_req", 1, 2, {"fid": req.fid}, ctx=ctx)  # GOOD
    return msg


def good_explicit_none(env, req, ctx):
    return Message("tick", 1, 1, ctx=None)  # GOOD: explicitly untraced


def good_splat(env, req, ctx, kw):
    return Message("fwd_req", 1, 2, **kw)  # GOOD: splat may carry ctx


def good_not_span_scope(env, req):
    msg = Message("cache_sync", 1, 2, {"fids": []})  # GOOD: no spans here
    return msg


def good_bare_event(env, spans, req):
    # Annotating a caller-owned span does not make this function
    # responsible for context propagation.
    spans.event(req.ctx, "route", "route", "fe")
    return Message("tick", 1, 1)  # GOOD: bare event() isn't span scope


def good_nested_scope(env, spans, req):
    span = spans.start("serve", "service", "n1", ctx=req.ctx)

    def _later():
        return Message("tick", 1, 1)  # GOOD: nested fn assessed on its own

    spans.finish(span)
    return _later


class GoodNestedHelper:
    def outer(self):
        def _helper(req):
            span = self._spans.start("serve", "service", "n1", ctx=req.ctx)
            return span

        # GOOD: only the nested helper is span-aware, not this method
        return Message("hb", 0, 1), _helper
