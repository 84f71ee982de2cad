"""Regression test: one run's fingerprint is identical across two
PYTHONHASHSEED values (the ``hashseed`` variant of ``repro sanitize``).

This is the runtime complement to the REP005 lint rule — if any code
path iterates an unordered container into what the model observes, a
component splits and the report names the first diverging entry.
"""

import pytest

from repro.analysis.differential import COMPONENTS, Scenario, differential

pytestmark = pytest.mark.slow


def test_smoke_scenario_hashseed_invariant():
    report = differential(Scenario("COOP", "node_crash", 7, "smoke"), ["hashseed"])
    (run,) = report.runs
    assert run.ok, run.divergence and run.divergence.describe(run.base, run.other)
    assert (run.base, run.other) == ("PYTHONHASHSEED=101", "PYTHONHASHSEED=202")
    # every component is recorded and bit-identical, span trees included:
    # causal traces must not depend on hash iteration order
    assert [c.component for c in run.checks] == \
        [c for c in COMPONENTS if c not in ("timeline", "templates")]
    assert all(c.exact for c in run.checks)
