"""End-to-end causal tracing: ctx threads the whole cluster and the
blame report exposes the paper's mechanism.

The acceptance criterion for the tracing layer: during/after a node
crash, COOP's p99 critical paths show ``peer_fetch`` hops (cooperative
fault propagation — peers stall on the dead node), while the matching
FME run's recovery-phase tails stay local.  And span tracing must be a
pure observer: with it on, the structured event stream is byte-identical
to a run with it off.
"""

import pytest

from repro.core.quantify import QuantifyConfig, run_single_fault
from repro.experiments.configs import version
from repro.faults.types import FaultKind
from repro.obs.export import event_to_dict
from repro.obs.spans import blame_report, phases_from_trace
from repro.obs.telemetry import Telemetry

pytestmark = pytest.mark.slow


def _node_crash_blame(version_name):
    telemetry = Telemetry(trace_spans=True)
    trace, _ = run_single_fault(version(version_name), FaultKind.NODE_CRASH,
                                QuantifyConfig.quick(), telemetry=telemetry)
    phases = phases_from_trace(telemetry.tracer.events, trace.t_end)
    report = blame_report(telemetry.spans.trees(), percentile=99.0,
                          phases=phases)
    return telemetry, report


def _after_phase(report):
    for phase in report["phases"]:
        if phase["label"].startswith("after"):
            return phase
    raise AssertionError(
        f"no after-phase in {[p['label'] for p in report['phases']]}")


class TestCoopVsFmeBlame:
    @pytest.fixture(scope="class")
    def coop(self):
        return _node_crash_blame("COOP")

    @pytest.fixture(scope="class")
    def fme(self):
        return _node_crash_blame("FME")

    def test_trees_recorded_without_drops(self, coop):
        _, report = coop
        assert report["requests"] > 0

    def test_coop_recovery_tail_blames_peer_fetch(self, coop):
        _, report = coop
        after = _after_phase(report)
        assert after["groups"], "COOP after-phase has no tail groups"
        assert any("peer_fetch" in g["signature"] for g in after["groups"]), \
            f"no peer_fetch on COOP p99 paths: {after['groups']}"

    def test_fme_recovery_tail_stays_local(self, fme):
        _, report = fme
        after = _after_phase(report)
        assert all("peer_fetch" not in g["signature"]
                   for g in after["groups"]), \
            f"peer_fetch on FME p99 recovery paths: {after['groups']}"

    def test_fme_probe_rounds_traced_but_excluded_from_blame(self, fme):
        telemetry, report = fme
        request_ids = [r for r, _ in telemetry.spans.trees()]
        probe_ids = [r for r in request_ids if r < 0]
        assert probe_ids, "FME probe rounds should open monitoring spans"
        tree = telemetry.spans.tree(probe_ids[0])
        assert tree[0].name == "fme_probe"
        # monitoring trees never count toward the request blame total
        positive = [r for r in request_ids if r > 0]
        assert report["requests"] == len(positive)


class TestZeroPerturbation:
    def test_event_stream_identical_with_tracing_on(self):
        config = QuantifyConfig.quick()
        plain = Telemetry()
        run_single_fault(version("COOP"), FaultKind.NODE_CRASH, config,
                         telemetry=plain)
        traced = Telemetry(trace_spans=True)
        run_single_fault(version("COOP"), FaultKind.NODE_CRASH, config,
                         telemetry=traced)
        a = [event_to_dict(e) for e in plain.tracer.events]
        b = [event_to_dict(e) for e in traced.tracer.events]
        assert len(traced.spans) > 0
        assert a == b
