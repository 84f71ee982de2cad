"""Metrics registry: counters, gauges, and histograms with label sets.

Components obtain metric handles once, at construction time, from a
:class:`MetricsHub`; incrementing a handle on the hot path is a single
attribute update.  When the hub is disabled it hands out shared null
instruments whose mutators are no-ops, so instrumented code pays only a
method call — no branching, no allocation — with telemetry off.

``MetricsHub.snapshot()`` renders every registered instrument as plain
dicts, the form ``repro explain --json`` prints under ``metrics``.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Gauge:
    """Point-in-time value, remembering its extremes."""

    __slots__ = ("name", "labels", "value", "max", "min")

    kind = "gauge"

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.max = float("-inf")
        self.min = float("inf")

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max:
            self.max = v
        if v < self.min:
            self.min = v

    def inc(self, n: float = 1.0) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1.0) -> None:
        self.set(self.value - n)

    def snapshot(self) -> Dict[str, Any]:
        touched = self.max >= self.min
        return {"type": "gauge", "name": self.name, "labels": dict(self.labels),
                "value": self.value,
                "max": self.max if touched else 0.0,
                "min": self.min if touched else 0.0}


#: default histogram buckets: tuned for request latencies in seconds
DEFAULT_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class Histogram:
    """Fixed-bucket distribution (cumulative counts, Prometheus-style)."""

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, name: str, labels: Dict[str, str],
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # last bucket = +inf
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, v)] += 1
        self.sum += v
        self.count += 1

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile (upper bucket bound); q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank and n:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def snapshot(self) -> Dict[str, Any]:
        buckets = {f"{b:g}": c for b, c in zip(self.bounds, self.counts)}
        buckets["+inf"] = self.counts[-1]
        return {"type": "histogram", "name": self.name, "labels": dict(self.labels),
                "count": self.count, "sum": self.sum, "buckets": buckets,
                "mean": self.mean(),
                "p50": self.quantile(0.50),
                "p90": self.quantile(0.90),
                "p99": self.quantile(0.99)}


class _NullCounter:
    __slots__ = ()
    kind = "counter"
    value = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    kind = "gauge"
    value = 0.0
    max = 0.0
    min = 0.0

    def set(self, v: float) -> None:
        pass

    def inc(self, n: float = 1.0) -> None:
        pass

    def dec(self, n: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"
    sum = 0.0
    count = 0

    def observe(self, v: float) -> None:
        pass

    def mean(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsHub:
    """Registry of labelled instruments for one world/experiment.

    ``counter``/``gauge``/``histogram`` are memoized on
    ``(name, sorted(labels))`` — asking twice returns the same instrument,
    so independent components can share a series.  A disabled hub returns
    the shared null instruments and snapshots to an empty list.
    """

    __slots__ = ("enabled", "_metrics")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}

    def _get(self, cls, name: str, labels: Dict[str, Any], **kw):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, {str(k): str(v) for k, v in labels.items()}, **kw)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r}{dict(labels)!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: Optional[Tuple[float, ...]] = None,
                  **labels: Any) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._get(Histogram, name, labels,
                         buckets=tuple(buckets) if buckets else DEFAULT_BUCKETS)

    # -- queries ---------------------------------------------------------
    def get(self, name: str, **labels: Any):
        """The registered instrument, or None."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: Any) -> float:
        metric = self.get(name, **labels)
        # Histograms have no scalar .value; report their observation count
        # so value() is total on every instrument type.
        if metric is None:
            return 0.0
        return getattr(metric, "value", getattr(metric, "count", 0.0))

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every instrument as a plain dict, sorted by (name, labels)."""
        return [m.snapshot() for _, m in sorted(self._metrics.items())]

    def __len__(self) -> int:
        return len(self._metrics)
