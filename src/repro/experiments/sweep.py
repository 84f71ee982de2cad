"""Generic parameter-sweep harness.

The ablation benchmarks and any what-if study share one shape: vary one
or two knobs of a profile/config, rebuild the deployment, run the same
measurement, and tabulate.  :class:`Sweep` packages that shape so a
study is three lines::

    sweep = Sweep("heartbeat", values=[2.5, 5.0, 10.0],
                  apply=lambda p, v: replace(p, press=p.press.with_(heartbeat_interval=v)))
    table = sweep.run(measure=my_measurement_fn)

Measurements receive a ready :class:`QuantifyConfig` for the varied
profile and return a dict of numbers; the result is a list of rows plus
a text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from repro.core.quantify import QuantifyConfig
from repro.experiments.profiles import SMALL, ScaleProfile

#: a measurement: config -> {metric: value}
Measurement = Callable[[QuantifyConfig], Dict[str, float]]
#: a knob: (profile, value) -> new profile
Apply = Callable[[ScaleProfile, Any], ScaleProfile]


@dataclass
class SweepResult:
    """Rows of {knob value, metrics...} plus a rendering."""

    name: str
    rows: List[Dict[str, Any]]

    def column(self, metric: str) -> List[float]:
        return [row[metric] for row in self.rows]

    def monotone(self, metric: str, increasing: bool = True) -> bool:
        """Whether ``metric`` is (weakly) monotone across the rows.

        Raises :class:`ValueError` with fewer than two rows: a 0- or
        1-point sweep has no trend, and the old vacuous ``True`` let
        ablation assertions pass against an empty table.
        """
        values = self.column(metric)
        if len(values) < 2:
            raise ValueError(
                f"monotone({metric!r}) needs at least two rows; "
                f"sweep {self.name!r} has {len(values)}"
            )
        pairs = zip(values, values[1:])
        if increasing:
            return all(a <= b for a, b in pairs)
        return all(a >= b for a, b in pairs)

    def text(self) -> str:
        if not self.rows:
            return f"sweep {self.name}: no rows"
        columns = list(self.rows[0].keys())
        lines = ["".join(f"{c:>16}" for c in columns)]
        for row in self.rows:
            cells = "".join(
                f"{row[c]:>16.4g}" if isinstance(row[c], float) else f"{row[c]!s:>16}"
                for c in columns
            )
            lines.append(cells)
        return "\n".join(lines)


@dataclass
class Sweep:
    """One-dimensional sweep over a profile knob."""

    name: str
    values: Sequence[Any]
    apply: Apply
    base_profile: ScaleProfile = SMALL
    quick: bool = True
    seed: int = 0

    def config_for(self, value: Any) -> QuantifyConfig:
        profile = self.apply(self.base_profile, value)
        make = QuantifyConfig.quick if self.quick else QuantifyConfig
        return make(profile=profile, seed=self.seed)

    def run(self, measure: Measurement, jobs: int = 1) -> SweepResult:
        """Measure every point; ``jobs > 1`` fans them out in parallel.

        Sweep points are independent (each rebuilds its own world from
        the sweep seed), so the parallel path runs one point per task on
        :func:`repro.parallel.executor.spawn_pool` (spawn context, pinned
        ``PYTHONHASHSEED``) and collects rows in *value order*, never
        completion order — a parallel sweep tabulates identically to a
        serial one.  ``measure`` must then be picklable: a module-level
        function or a ``functools.partial`` of one.
        """
        configs = [self.config_for(value) for value in self.values]
        if jobs > 1:
            # Imported lazily: repro.parallel imports repro.core.quantify,
            # which reaches back into this package's builders.
            from repro.parallel.executor import spawn_pool

            with spawn_pool(min(jobs, len(configs))) as pool:
                futures = [pool.submit(measure, cfg) for cfg in configs]
                results = [f.result() for f in futures]  # value order
        else:
            results = [measure(cfg) for cfg in configs]
        rows = [{self.name: value, **metrics}
                for value, metrics in zip(self.values, results)]
        return SweepResult(self.name, rows)


def grid(sweep_a: Sweep, sweep_b: Sweep, measure: Measurement) -> SweepResult:
    """Two-dimensional sweep (cartesian product of two knobs)."""
    rows: List[Dict[str, Any]] = []
    for va in sweep_a.values:
        for vb in sweep_b.values:
            profile = sweep_b.apply(sweep_a.apply(sweep_a.base_profile, va), vb)
            make = QuantifyConfig.quick if sweep_a.quick else QuantifyConfig
            metrics = measure(make(profile=profile, seed=sweep_a.seed))
            rows.append({sweep_a.name: va, sweep_b.name: vb, **metrics})
    return SweepResult(f"{sweep_a.name}x{sweep_b.name}", rows)
