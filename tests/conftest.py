"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.obs.telemetry import Telemetry
from repro.obs.trace import Markers
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def telemetry() -> Telemetry:
    """A disabled bundle: no events or metrics, but its tracer keeps marks."""
    return Telemetry.disabled()


@pytest.fixture
def markers(telemetry) -> Markers:
    """The markers of the ``telemetry`` fixture's tracer."""
    return telemetry.tracer.markers
