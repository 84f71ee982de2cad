"""The per-world telemetry bundle.

One :class:`Telemetry` object travels with a
:class:`~repro.experiments.runner.World`: a structured tracer, a metrics
hub, and (opt-in) a kernel profiler.  ``build_world`` creates an enabled
bundle by default; pass ``Telemetry.disabled()`` for zero-overhead runs
(every instrument degrades to a null object and the kernel keeps its
monitor-free fast path).  A disabled bundle's tracer still keeps the
markers, which the model reads.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.kernelprof import KernelProfiler, TimingProfiler
from repro.obs.metrics import MetricsHub
from repro.obs.spans import SpanRecorder
from repro.obs.trace import Tracer


class Telemetry:
    """Tracer + metrics registry + optional kernel profiler for one world.

    ``profile_time=True`` upgrades the kernel profiler to a
    :class:`~repro.obs.kernelprof.TimingProfiler` (wall-time attribution
    per event kind / process type / subsystem); it implies kernel
    profiling.

    ``trace_spans=True`` turns on causal request tracing
    (:mod:`repro.obs.spans`): per-request span trees threaded through
    client, front-end, PRESS servers, peer fetches, and disk queues.
    ``span_sample`` is the deterministic head-sampling rate (keyed on
    ``req_id`` with ``span_seed``), and ``span_max_requests`` ring-
    bounds retention per request tree.  Off by default: no contexts are
    created, so the simulation is event-identical to an untraced run.
    """

    __slots__ = ("enabled", "tracer", "metrics", "profiler", "spans",
                 "trace_spans")

    def __init__(self, enabled: bool = True, profile_kernel: bool = False,
                 profile_time: bool = False, trace_spans: bool = False,
                 span_sample: float = 1.0, span_seed: int = 0,
                 span_max_requests: Optional[int] = None):
        self.enabled = enabled
        self.metrics = MetricsHub(enabled=enabled)
        self.tracer = Tracer(enabled=enabled)
        profiler: Optional[KernelProfiler] = None
        if enabled and (profile_kernel or profile_time):
            profiler = TimingProfiler() if profile_time else KernelProfiler()
        self.profiler = profiler
        self.trace_spans = bool(enabled and trace_spans)
        self.spans = SpanRecorder(enabled=self.trace_spans,
                                  sample=span_sample, seed=span_seed,
                                  max_requests=span_max_requests)

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
