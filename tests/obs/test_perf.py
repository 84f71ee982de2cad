"""The performance-observability measurement core (repro.obs.perf).

Uses a synthetic micro scenario (tiny deterministic world, ~100 events)
so the full mode sweep + attribution runs in milliseconds; the real
scenario suite is exercised by benchmarks/test_kernel_baseline.py.
"""

from types import SimpleNamespace

import pytest

from repro.obs.perf import (
    OBS_MODES,
    SCENARIOS,
    ModeRun,
    Scenario,
    ScenarioReport,
    measure_attribution,
    measure_mode,
    measure_scenario,
    _obs_digest,
    peak_rss_kb,
    provenance,
)
from repro.sim.kernel import Environment


def _micro_run(telemetry):
    """A tiny deterministic world shaped like the real World objects."""
    env = Environment()
    telemetry.attach(env)
    markers = telemetry.marker_log()
    stats = SimpleNamespace(issued=0, outcomes={})

    def driver():
        for i in range(40):
            yield env.timeout(1.0)
            stats.issued += 1
            stats.outcomes["ok"] = stats.outcomes.get("ok", 0) + 1
            if i % 10 == 0:
                markers.mark(env.now, "detected", ("heartbeat", 0, i))
                telemetry.tracer.emit("server_start", source="n0", node_id=i)

    env.process(driver(), name="n0.main")
    env.run(until=50.0)
    return [SimpleNamespace(env=env, markers=markers, stats=stats)]


MICRO = Scenario("micro", "synthetic test scenario", cells=1, run=_micro_run)


class TestWorldsDigest:
    """The bench's cross-mode oracle: a fingerprint digest over the
    components the contract's ``obs`` row gates."""

    def _world(self, marks=((1.0, "detected", "x"),), issued=5, now=50.0,
               processed=100):
        from repro.sim.series import MarkerLog

        markers = MarkerLog()
        for t, label, data in marks:
            markers.mark(t, label, data)
        return SimpleNamespace(
            env=SimpleNamespace(now=now, processed_count=processed),
            markers=markers,
            stats=SimpleNamespace(issued=issued, outcomes={"ok": issued}),
        )

    def test_deterministic(self):
        assert _obs_digest([self._world()]) == _obs_digest([self._world()])

    def test_sensitive_to_markers(self):
        a = _obs_digest([self._world(marks=((1.0, "detected", "x"),))])
        b = _obs_digest([self._world(marks=((1.0, "detected", "y"),))])
        assert a != b

    def test_sensitive_to_clock_not_event_count(self):
        base = _obs_digest([self._world()])
        assert _obs_digest([self._world(now=51.0)]) != base
        # event counts are not observable: a kernel change that drops an
        # unobserved event keeps the digest
        assert _obs_digest([self._world(processed=101)]) == base

    def test_sensitive_to_world_order(self):
        w1 = self._world(issued=1)
        w2 = self._world(issued=2)
        assert _obs_digest([w1, w2]) != _obs_digest([w2, w1])

    def test_hex_sha256(self):
        digest = _obs_digest([self._world()])
        assert len(digest) == 64
        int(digest, 16)


class TestMeasureMode:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            measure_mode(MICRO, "loud")

    def test_off_mode_traces_nothing(self):
        run = measure_mode(MICRO, "off")
        assert run.mode == "off"
        assert run.trace_events == 0
        assert run.events_processed > 0
        assert run.events_scheduled >= run.events_processed
        assert run.wall_seconds > 0.0
        assert run.events_per_sec > 0.0

    def test_enabled_modes_trace_identically(self):
        unsub = measure_mode(MICRO, "unsub")
        on = measure_mode(MICRO, "on")
        # 4 marker mirrors + 4 direct emits per run.
        assert unsub.trace_events == on.trace_events == 8
        assert unsub.digest == on.digest

    def test_events_per_sec_guards_zero_wall(self):
        run = ModeRun(mode="off", wall_seconds=0.0, events_processed=10,
                      events_scheduled=10, trace_events=0, digest="d")
        assert run.events_per_sec == 0.0

    def test_to_dict_round_trips_fields(self):
        doc = measure_mode(MICRO, "off").to_dict()
        assert set(doc) == {"mode", "wall_seconds", "events_processed",
                            "events_scheduled", "events_per_sec",
                            "trace_events", "spans_recorded", "digest"}

    def test_spans_mode_records_spans_without_digest_drift(self):
        off = measure_mode(MICRO, "off")
        spans = measure_mode(MICRO, "spans")
        assert spans.spans_recorded == 0  # micro world opens no spans
        assert spans.digest == off.digest


class TestMeasureScenario:
    def test_digests_identical_across_all_modes(self):
        report = measure_scenario(MICRO)
        assert set(report.runs) == set(OBS_MODES)
        # off + unsub + on + spans + the attribution (profiled) run
        assert len(report.digests) == 5
        assert report.digests_equal
        assert report.events_per_sec > 0.0
        assert report.wall_per_cell == report.runs["off"].wall_seconds
        assert report.overhead("off") == pytest.approx(1.0)
        assert report.overhead("unsub") > 0.0
        assert report.overhead("on") > 0.0
        assert report.overhead("spans") > 0.0

    def test_attribution_breakdown(self):
        attribution, digest = measure_attribution(MICRO)
        assert digest == measure_mode(MICRO, "off").digest
        assert attribution["wall_seconds"] > 0.0
        assert attribution["callback_seconds"] > 0.0
        assert attribution["kernel_overhead_seconds"] >= 0.0
        # The micro driver generator lives in this test file -> "other".
        assert "other" in attribution["by_subsystem"]
        assert "Timeout" in attribution["by_kind"]
        assert "n*.main" in attribution["by_type"]

    def test_attribution_optional(self):
        report = measure_scenario(MICRO, modes=("off",), attribution=False)
        assert report.attribution == {}
        assert report.attribution_digest == ""
        assert report.digests == [report.runs["off"].digest]
        assert report.digests_equal

    def test_to_dict_shape(self):
        doc = measure_scenario(MICRO).to_dict()
        assert doc["scenario"] == "micro"
        assert doc["cells"] == 1
        assert doc["digests_equal"] is True
        assert set(doc["runs"]) == set(OBS_MODES)
        assert doc["overhead_unsub"] > 0.0
        assert doc["overhead_on"] > 0.0
        assert doc["overhead_spans"] > 0.0

    def test_divergent_digests_detected(self):
        report = ScenarioReport(scenario="s", description="", cells=1)
        report.runs["off"] = ModeRun("off", 1.0, 10, 10, 0, "aaa")
        report.runs["on"] = ModeRun("on", 1.0, 10, 10, 5, "bbb")
        assert not report.digests_equal


class TestStandardScenarios:
    def test_registry_shape(self):
        assert set(SCENARIOS) == {"steady", "crash", "grid"}
        for name, sc in SCENARIOS.items():
            assert sc.name == name
            assert sc.description
            assert sc.cells >= 1
            assert callable(sc.run)


class TestProvenance:
    def test_fields(self):
        prov = provenance()
        assert set(prov) == {"git_sha", "git_dirty", "host",
                             "host_fingerprint", "machine", "cpu_count",
                             "python", "timestamp"}
        assert len(prov["host_fingerprint"]) == 12
        int(prov["host_fingerprint"], 16)
        assert prov["cpu_count"] >= 1
        assert isinstance(prov["timestamp"], float)

    def test_fingerprint_stable_within_host(self):
        assert provenance()["host_fingerprint"] == \
            provenance()["host_fingerprint"]

    def test_peak_rss_positive_on_posix(self):
        assert peak_rss_kb() > 0
