"""Request accounting.

Availability in the paper is "the percentage of requests served
successfully"; throughput is successful requests per second.  The stats
object therefore records, with timestamps, every issue and every success,
plus categorized failures.  Request latency is telemetry: the client
pool's ``client_request_latency`` histograms.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.sim.series import ThroughputSeries


class Outcome(str, enum.Enum):
    SUCCESS = "success"
    CONNECT_TIMEOUT = "connect_timeout"  # 2 s, no connection established
    REQUEST_TIMEOUT = "request_timeout"  # 6 s, connected but unanswered
    REFUSED = "refused"  # RST / backlog overflow


class RequestStats:
    """Counters + time series for one experiment run."""

    __slots__ = ("issued", "outcomes", "series", "issued_series")

    def __init__(self) -> None:
        self.issued = 0
        self.outcomes: Dict[Outcome, int] = {o: 0 for o in Outcome}
        self.series = ThroughputSeries("success")  # successful completions
        self.issued_series = ThroughputSeries("issued")

    # -- recording ----------------------------------------------------------
    def record_issue(self, time: float) -> None:
        self.issued += 1
        self.issued_series.record(time)

    def record_success(self, time: float) -> None:
        self.outcomes[Outcome.SUCCESS] += 1
        self.series.record(time)

    def record_failure(self, time: float, outcome: Outcome) -> None:
        if outcome is Outcome.SUCCESS:
            raise ValueError("use record_success for successes")
        self.outcomes[outcome] += 1

    # -- summary -------------------------------------------------------------
    @property
    def succeeded(self) -> int:
        return self.outcomes[Outcome.SUCCESS]

    @property
    def failed(self) -> int:
        return sum(n for o, n in self.outcomes.items() if o is not Outcome.SUCCESS)

    @property
    def completed(self) -> int:
        return self.succeeded + self.failed

    def availability(self) -> float:
        """Fraction of completed requests that succeeded."""
        done = self.completed
        return self.succeeded / done if done else 1.0

    def window(self, t0: float, t1: float) -> Dict[str, float]:
        """Issue/success counts and rates within [t0, t1)."""
        issued = self.issued_series.count(t0, t1)
        ok = self.series.count(t0, t1)
        dt = max(t1 - t0, 1e-12)
        return {
            "issued": issued,
            "succeeded": ok,
            "issue_rate": issued / dt,
            "success_rate": ok / dt,
            "availability": ok / issued if issued else 1.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RequestStats issued={self.issued} ok={self.succeeded} "
            f"fail={self.failed} avail={self.availability():.4f}>"
        )
