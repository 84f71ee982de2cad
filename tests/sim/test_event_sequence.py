"""The kernel's event sequence, pinned on real campaign worlds.

Three short cells (40 simulated seconds: warm-up, fault, repair,
operator reset) must each process and schedule exactly the recorded
number of events and end on the recorded clock and marker log, and
their processed events must hash, in order, to the recorded digest:

* COOP ``node_crash``, observability off: cooperative caching, the
  crash and the restart;
* FME ``node_freeze``, observability off: thaw replays, interrupts, the
  membership and FME daemons;
* INDEP ``node_crash`` with span tracing on: trace contexts inherited
  through process spawns.

A kernel change that adds, drops or reorders an event fails here, not
only in the benchmark's fingerprint check (which, like the markers,
cannot see a reorder of same-instant events).

The constants were derived on the heap-only kernel that preceded the
same-instant lanes and the withdrawal of client request deadlines, by a
monitor that skipped each client deadline coming due after its
``AnyOf`` had already fired on ``req.response`` (the deadlines
``ClientPool`` now withdraws; their one callback did nothing).  The
digest is that filtered sequence, and ``processed`` is that kernel's
count minus the skipped deadlines (COOP: 94,600 - 2,968; FME:
113,877 - 3,331; INDEP: 17,306 - 894).  ``scheduled``, the clock and the
markers are that kernel's own values: a withdrawn deadline was still
scheduled.
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

#: (version, fault, span tracing on) -> pinned outcome and EventOrderDigest
CELLS = {
    ("COOP", FaultKind.NODE_CRASH, False): {
        "processed": 91632,
        "scheduled": 95652,
        "now": 40.0,
        "markers_sha256": "477ef1249feee98370d4f9503993d4de3fa3f02f21f561fd7845b9556517e9b3",
        "order_sha256": "aa7fb479f9b60fa333886b93781e038025dca1d9d4a0c4827f37ab01db59106b",
    },
    ("FME", FaultKind.NODE_FREEZE, False): {
        "processed": 110546,
        "scheduled": 115071,
        "now": 40.0,
        "markers_sha256": "5b9c41c83000866dc79a72ddb25452f52b6e5a5b5048fe6b4a881ccbf1842d3f",
        "order_sha256": "b9c3c37283f2b9b0e2a75e52e1ec3d11fb7420739f15fca55fef0acd8127a4cb",
    },
    ("INDEP", FaultKind.NODE_CRASH, True): {
        "processed": 16412,
        "scheduled": 17626,
        "now": 40.0,
        "markers_sha256": "a80ed4fb9070c4bf72f565054c1cd35c68f6d22ad96d2d52fbb2267e97aeabdc",
        "order_sha256": "e1672aaf039c9c2e943d065b1d397cfca4b5f5565104664fbd8454479cba85ff",
    },
}


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


def run_cell(cell, monitor=None) -> dict:
    name, kind, spans = cell
    telemetry = Telemetry(trace_spans=True) if spans else Telemetry.disabled()
    _, world = run_single_fault(version(name), kind,
                                QuantifyConfig(seed=0, campaign=WINDOWS),
                                telemetry=telemetry, monitor=monitor)
    env = world.env
    return {"processed": env.processed_count, "scheduled": env.scheduled_count,
            "now": env.now, "markers_sha256": markers_sha256(world.markers)}


@pytest.fixture(scope="module")
def plain_cells() -> dict:
    return {cell: run_cell(cell) for cell in CELLS}


def test_event_sequence_matches_recorded_constants(plain_cells):
    for cell, plain in plain_cells.items():
        pinned = {k: v for k, v in CELLS[cell].items() if k != "order_sha256"}
        assert plain == pinned, cell


def test_profiler_sees_the_same_events(plain_cells):
    for cell, plain in plain_cells.items():
        profiler = KernelProfiler()
        assert run_cell(cell, monitor=profiler) == plain, cell
        assert profiler.events_processed == plain["processed"], cell
        assert profiler.events_scheduled == plain["scheduled"], cell


def test_event_order_matches_recorded_digest(plain_cells):
    for cell, plain in plain_cells.items():
        order = EventOrderDigest()
        assert run_cell(cell, monitor=order) == plain, cell
        assert order.sha256.hexdigest() == CELLS[cell]["order_sha256"], cell
