"""The kernel's event sequence, pinned on a real campaign world.

A short COOP ``node_crash`` cell with observability off must process and
schedule exactly the recorded number of events and end on the recorded
clock and marker log, and its processed events must hash, in order, to
the recorded digest.  A kernel change that adds, drops or reorders an
event fails here, not only in the benchmark's fingerprint check (which,
like the markers, cannot see a reorder of same-instant events).  The
constants were recorded before the kernel's run loop, process trampoline
and Store hand-off were streamlined; those changes keep every event.
"""

import dataclasses
import enum
import hashlib
import json

import pytest

from repro.core.quantify import QuantifyConfig, run_single_fault
from repro.experiments.configs import version
from repro.faults.campaign import CampaignConfig
from repro.faults.types import FaultKind
from repro.obs.kernelprof import KernelProfiler, callback_owner
from repro.obs.telemetry import Telemetry

#: 40 simulated seconds: warm-up, crash, repair, operator reset
WINDOWS = CampaignConfig(
    warmup=20.0, normal_window=5.0, fault_active=10.0,
    post_repair_observe=10.0, reset_duration=5.0, post_reset_observe=5.0,
)

PINNED = {
    "processed": 94600,
    "scheduled": 95652,
    "now": 40.0,
    "markers_sha256": "477ef1249feee98370d4f9503993d4de3fa3f02f21f561fd7845b9556517e9b3",
}

#: EventOrderDigest over the same cell
PINNED_ORDER_SHA256 = "0c6fcc33d82a5d1af49b136d9bfe78f8d17fe08e12537b32241541c11eb7b3f7"


def _plain(value):
    """Marker payload as JSON-able data, independent of object reprs."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def markers_sha256(markers) -> str:
    digest = hashlib.sha256()
    for t, label, data in markers.entries:
        digest.update(json.dumps([t, label, _plain(data)]).encode())
    return digest.hexdigest()


class EventOrderDigest:
    """Kernel monitor hashing every processed event, in order: the clock,
    the event's kind and the owners of its callbacks."""

    def __init__(self) -> None:
        self.sha256 = hashlib.sha256()

    def on_schedule(self, depth: int) -> None:
        pass

    def on_event(self, event, callbacks) -> None:
        owners = ",".join(callback_owner(cb) for cb in callbacks)
        self.sha256.update(f"{event.env.now!r} {type(event).__name__} {owners}\n".encode())

    def on_event_done(self, event) -> None:
        pass


def run_cell(monitor=None) -> dict:
    _, world = run_single_fault(version("COOP"), FaultKind.NODE_CRASH,
                                QuantifyConfig(seed=0, campaign=WINDOWS),
                                telemetry=Telemetry.disabled(), monitor=monitor)
    env = world.env
    return {"processed": env.processed_count, "scheduled": env.scheduled_count,
            "now": env.now, "markers_sha256": markers_sha256(world.markers)}


@pytest.fixture(scope="module")
def plain_cell() -> dict:
    return run_cell()


def test_event_sequence_matches_recorded_constants(plain_cell):
    assert plain_cell == PINNED


def test_profiler_sees_the_same_events(plain_cell):
    profiler = KernelProfiler()
    profiled = run_cell(monitor=profiler)
    assert profiled == plain_cell
    assert profiler.events_processed == plain_cell["processed"]
    assert profiler.events_scheduled == plain_cell["scheduled"]


def test_event_order_matches_recorded_digest(plain_cell):
    order = EventOrderDigest()
    assert run_cell(monitor=order) == plain_cell
    assert order.sha256.hexdigest() == PINNED_ORDER_SHA256
