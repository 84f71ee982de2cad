"""Phase 2: the analytic performability model (Section 2).

With ``T`` the normal-operation throughput, and for each fault type ``i``
(with ``n_i`` components of mean time to failure ``MTTF_i``) a fitted
template with stage durations ``d_s,i`` and throughputs ``T_s,i``::

    f_i = n_i * (sum_s d_s,i) / MTTF_i          (fraction of time in fault i)
    AT  = (1 - sum_i f_i) * T
          + sum_i f_i * (sum_s d_s,i * T_s,i) / (sum_s d_s,i)
    AA  = AT / lambda                            (lambda = offered load)

following the paper's equations (including the footnote that the
denominator of ``f_i`` is correctly MTTF, not MTTF plus the fault
duration).  The model assumes single, uncorrelated, queued faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core.template import SevenStageTemplate
from repro.faults.faultload import FaultCatalog
from repro.faults.types import FAULT_LABELS, FaultKind


@dataclass(frozen=True)
class EnvironmentParams:
    """Supplied environmental values for the non-measured stage durations.

    ``operator_response`` is the time a degraded-but-up configuration
    (e.g. a splintered cluster) persists before an operator notices and
    resets the service — the paper treats it as a supplied parameter; we
    default to 30 minutes of human response time.
    """

    operator_response: float = 1800.0  # time until an operator resets (stage E)
    reset_duration: float = 10.0  # service restart time (stage F)

    def __post_init__(self) -> None:
        if self.operator_response < 0 or self.reset_duration < 0:
            raise ValueError("environment durations must be non-negative")


@dataclass(frozen=True)
class FaultContribution:
    """One fault class's share of the expected unavailability."""

    kind: FaultKind
    count: int
    mttf: float
    fault_fraction: float  # f_i
    degraded_tput: float  # average throughput while in this fault
    unavailability: float  # contribution to 1 - AA
    template: SevenStageTemplate

    @property
    def label(self) -> str:
        return FAULT_LABELS.get(self.kind, self.kind.value)


@dataclass(frozen=True)
class ModelResult:
    """Expected average throughput and availability for one version."""

    version: str
    normal_tput: float
    offered_rate: float
    average_throughput: float  # AT
    availability: float  # AA
    contributions: List[FaultContribution] = field(default_factory=list)
    baseline_unavailability: float = 0.0

    @property
    def unavailability(self) -> float:
        return 1.0 - self.availability

    def contribution(self, kind: FaultKind) -> Optional[FaultContribution]:
        for c in self.contributions:
            if c.kind is kind:
                return c
        return None

    def by_kind(self) -> Dict[FaultKind, float]:
        return {c.kind: c.unavailability for c in self.contributions}


class AvailabilityModel:
    """Combines fitted templates with a fault catalog."""

    def __init__(
        self,
        catalog: FaultCatalog,
        environment: EnvironmentParams = EnvironmentParams(),
    ):
        self.catalog = catalog
        self.environment = environment

    def evaluate(
        self,
        templates: Mapping[FaultKind, SevenStageTemplate],
        normal_tput: float,
        offered_rate: float,
        version: str = "",
        assume_unsaturated: bool = True,
    ) -> ModelResult:
        """Compute AT and AA.

        ``templates`` must cover every fault kind present in the catalog
        that the deployment can experience; kinds missing from the
        catalog are ignored.

        ``assume_unsaturated`` applies the paper's stated assumption that
        the server is not saturated under normal operation, i.e. the
        fault-free system serves the entire offered load (T = lambda).
        Without it, Poisson sampling noise in the measured normal
        throughput (~1% for our window sizes) would swamp the
        fault-induced unavailability the methodology is after.  The
        measured fault-free level is still reported via
        ``baseline_unavailability``.
        """
        if offered_rate <= 0:
            raise ValueError("offered_rate must be positive")
        measured_normal = min(normal_tput, offered_rate)
        normal_tput = offered_rate if assume_unsaturated else measured_normal
        env = self.environment
        total_fault_fraction = 0.0
        fault_throughput = 0.0  # sum_i f_i * avg_i
        contributions: List[FaultContribution] = []

        for rate in self.catalog:
            template = templates.get(rate.kind)
            if template is None:
                continue
            resolved = template.resolved(
                mttr=rate.mttr,
                operator_response=env.operator_response,
                reset_duration=env.reset_duration,
            )
            duration = resolved.total_duration
            if duration <= 0:
                continue
            f_i = rate.count * duration / rate.mttf
            avg_tput = resolved.served_during_fault() / duration
            total_fault_fraction += f_i
            fault_throughput += f_i * avg_tput
            # Unavailability attributable to this fault class: requests
            # offered while degraded that are not served (relative to the
            # fault-free service level), signed as in AT so that the
            # classes sum to 1 - AA whenever AA < 1.
            u_i = f_i * (normal_tput - avg_tput) / offered_rate
            contributions.append(
                FaultContribution(
                    kind=rate.kind,
                    count=rate.count,
                    mttf=rate.mttf,
                    fault_fraction=f_i,
                    degraded_tput=avg_tput,
                    unavailability=u_i,
                    template=resolved,
                )
            )

        if total_fault_fraction >= 1.0:
            raise ValueError(
                f"fault fractions sum to {total_fault_fraction:.3f} >= 1; "
                "the single-fault-at-a-time model does not apply"
            )

        at = (1.0 - total_fault_fraction) * normal_tput + fault_throughput
        aa = min(at / offered_rate, 1.0)
        baseline_u = (1.0 - total_fault_fraction) * max(
            offered_rate - measured_normal, 0.0
        ) / offered_rate
        contributions.sort(key=lambda c: c.unavailability, reverse=True)
        return ModelResult(
            version=version,
            normal_tput=normal_tput,
            offered_rate=offered_rate,
            average_throughput=at,
            availability=aa,
            contributions=contributions,
            baseline_unavailability=baseline_u,
        )
