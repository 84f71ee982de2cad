"""Beyond-paper: empirical validation of the phase-2 analytic model.

The simulator lets us check what the paper could only assume: inject a
*random* exponential fault load over a long horizon and compare the
directly measured availability with the phase-1+2 prediction under the
same (compressed) catalog.
"""

import os

import pytest

from repro.core.validation import validate_model


@pytest.mark.parametrize("version_name", ["COOP", "FME"])
def test_model_predicts_measured_availability(version_name):
    horizon = 2400.0 if os.environ.get("REPRO_QUICK") else 7200.0
    result = validate_model(version_name, horizon=horizon)
    print(f"\n{version_name}: predicted availability "
          f"{result.predicted_availability:.4f}, measured "
          f"{result.measured_availability:.4f} over {result.horizon:.0f}s "
          f"({result.faults_injected} faults); measured/predicted "
          f"unavailability ratio {result.ratio:.2f}")
    assert result.faults_injected >= 1
    # The model should land within a small factor of the truth; with a
    # handful of random faults the sampling noise itself is ~2x.
    assert 0.25 < result.ratio < 4.0
