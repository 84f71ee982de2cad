"""The per-world telemetry bundle.

One :class:`Telemetry` object travels with a
:class:`~repro.experiments.runner.World`: a structured tracer, a metrics
hub, and (opt-in) a wall-time profiler and a span recorder.
``build_world`` creates an enabled bundle by default; pass
``Telemetry.disabled()`` for zero-overhead runs (every instrument
degrades to a null object and the kernel keeps its monitor-free fast
path).  A disabled bundle's tracer still keeps the markers, which the
model reads.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.kernelprof import TimingProfiler
from repro.obs.metrics import MetricsHub
from repro.obs.spans import NULL_SPANS, SpanRecorder
from repro.obs.trace import Tracer


class Telemetry:
    """Tracer + metrics registry + optional profiler and spans for one world.

    ``profile_time=True`` attaches a
    :class:`~repro.obs.kernelprof.TimingProfiler` as the kernel monitor:
    event counts plus wall-time attribution per event kind / process
    type / subsystem.

    ``trace_spans=True`` turns on causal request tracing
    (:mod:`repro.obs.spans`): per-request span trees threaded through
    client, front-end, PRESS servers, peer fetches, and disk queues,
    one tree per request.  Off by default: no contexts are created, so
    the simulation is event-identical to an untraced run.
    """

    __slots__ = ("enabled", "tracer", "metrics", "profiler", "spans",
                 "trace_spans")

    def __init__(self, enabled: bool = True, profile_time: bool = False,
                 trace_spans: bool = False):
        self.enabled = enabled
        self.metrics = MetricsHub(enabled=enabled)
        self.tracer = Tracer(enabled=enabled)
        self.profiler: Optional[TimingProfiler] = (
            TimingProfiler() if enabled and profile_time else None)
        self.trace_spans = bool(enabled and trace_spans)
        self.spans = SpanRecorder() if self.trace_spans else NULL_SPANS

    @classmethod
    def disabled(cls) -> "Telemetry":
        return cls(enabled=False)

    def attach(self, env) -> None:
        """Bind to a simulation environment (clock + kernel hooks)."""
        self.tracer.bind_clock(env)
        if self.profiler is not None:
            env.set_monitor(self.profiler)
        if self.trace_spans:
            # Only bind when tracing is on: env.spans stays None on the
            # untraced fast path (transport/fabric check it per send).
            self.spans.bind_clock(env)
            env.bind_spans(self.spans)
