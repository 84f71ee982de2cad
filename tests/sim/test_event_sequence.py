"""The kernel's event sequence, pinned on real campaign worlds.

Three short cells (40 simulated seconds: warm-up, fault, repair,
operator reset) must each process and schedule exactly the recorded
number of events and end on the recorded clock and marker log, and
their processed events must hash, in order, to the recorded digest:

* COOP ``node_crash``, observability off: cooperative caching, the
  crash and the restart;
* FME ``node_freeze``, observability off: thaw replays, interrupts, the
  membership and FME daemons;
* INDEP ``node_crash`` with span tracing on: trace contexts carried on
  requests and messages.

A kernel change that adds, drops or reorders an event fails here, not
only in the benchmark's fingerprint check (which, like the markers,
cannot see a reorder of same-instant events).

The constants were derived on the code that still ran each client
request and each peer send as a process of its own, by a monitor that
skipped the events the process-free request and send no longer
schedule:

* each ``client-req`` process's bootstrap and completion (nothing
  waited on the completion);
* each ``send->n*`` process's bootstrap; the send loop now runs the
  send's first step where the bootstrap ran;
* the completion of a send process nobody waited on any more (its send
  loop had been killed);
* each ``StorePut`` on a PRESS send queue that ran no callback (a put
  admitted at once, which ``try_put`` now makes without an event).

A send process's completion that its send loop waited on is counted as
the ``Event`` of the loop's completion hop, which takes its slot, and a
send process's callbacks are credited to its send loop (``send->n2`` of
``n0`` as ``n0.snd2``); ``client-req`` keeps its name as the owner of the
request's callbacks.  The digest is that filtered sequence, and
``processed`` and ``scheduled`` are that code's counts minus the skipped
events, all of which were scheduled and processed at the instant they
were due (COOP: 91,632 - 13,459 processed and 95,652 - 13,459
scheduled, of them 4,826 + 4,446 client, 4,184 send bootstraps and 3
unwaited completions; FME: 110,546 - 15,666 and 115,071 - 15,666, of
them 4,826 + 4,815 client and 6,025 send bootstraps; INDEP: 16,412 -
2,582 and 17,626 - 2,582, all client).  The clock and the markers are
that code's own values.  The earlier derivation, on the heap-only kernel
before the same-instant lanes and the withdrawn client deadlines, is in
``CHANGES.md``.
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
        "processed": 78173,
        "scheduled": 82193,
        "now": 40.0,
        "markers_sha256": "477ef1249feee98370d4f9503993d4de3fa3f02f21f561fd7845b9556517e9b3",
        "order_sha256": "2ece6f8b1f3279cabbb6943e70811318a7bce12aff5773b8ff89e8a99ea8615e",
    },
    ("FME", FaultKind.NODE_FREEZE, False): {
        "processed": 94880,
        "scheduled": 99405,
        "now": 40.0,
        "markers_sha256": "5b9c41c83000866dc79a72ddb25452f52b6e5a5b5048fe6b4a881ccbf1842d3f",
        "order_sha256": "0cd3ff7d73daf1b42669aa64ff860a102482a8b8c101bf42e7f242633c28ecdd",
    },
    ("INDEP", FaultKind.NODE_CRASH, True): {
        "processed": 13830,
        "scheduled": 15044,
        "now": 40.0,
        "markers_sha256": "a80ed4fb9070c4bf72f565054c1cd35c68f6d22ad96d2d52fbb2267e97aeabdc",
        "order_sha256": "ad33cd4336e39276b4e418e804dceeaf43e35b3f8b62bbcfdad7b352416b663c",
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
