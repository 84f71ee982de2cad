"""Single-fault campaign driver against a scripted fake world."""

import pytest

from repro.faults.campaign import CampaignConfig, SingleFaultCampaign
from repro.faults.injector import FaultInjector
from repro.faults.types import FaultKind
from repro.hardware.host import Host
from repro.obs.telemetry import Telemetry
from repro.sim.series import ThroughputSeries


class ScriptedWorld:
    """A fake deployment whose throughput follows its fault state."""

    def __init__(self, env, normal_rate=100.0, faulty_rate=20.0,
                 recovers_alone=True):
        self.env = env
        self.telemetry = Telemetry.disabled()
        self.markers = self.telemetry.tracer.markers
        self.version = "scripted"
        self.offered_rate = normal_rate
        self._normal = normal_rate
        self._faulty = faulty_rate
        self._recovers_alone = recovers_alone
        self._healthy = True
        self._was_reset = False

        class Stats:
            series = ThroughputSeries()

        self.stats = Stats()
        host = Host(env, "n1", 1)
        self.injector = FaultInjector(env, {"n1": host}, telemetry=self.telemetry)
        env.process(self._serve(), name="scripted-server")

    def _rate(self):
        if self._healthy:
            return self._normal
        return self._faulty

    def _serve(self):
        while True:
            yield self.env.timeout(1.0 / max(self._rate(), 1e-9))
            self.stats.series.record(self.env.now)
            active = self.injector.active_faults()
            if active:
                self._healthy = False
            elif self._recovers_alone or self._was_reset:
                self._healthy = True

    def operator_reset(self):
        self._was_reset = True


@pytest.fixture
def cfg():
    return CampaignConfig(warmup=30.0, normal_window=10.0, fault_active=20.0,
                          post_repair_observe=20.0, reset_duration=5.0,
                          post_reset_observe=15.0)


class TestCampaign:
    def test_timeline_and_normal_measurement(self, env, cfg):
        world = ScriptedWorld(env)
        trace = SingleFaultCampaign(world, cfg).run(FaultKind.NODE_FREEZE, "n1")
        assert trace.t_inject == pytest.approx(30.0)
        assert trace.t_repair == pytest.approx(50.0)
        assert trace.normal_tput == pytest.approx(100.0, rel=0.05)

    def test_self_recovering_world_gets_no_reset(self, env, cfg):
        world = ScriptedWorld(env, recovers_alone=True)
        trace = SingleFaultCampaign(world, cfg).run(FaultKind.NODE_FREEZE, "n1")
        assert trace.t_reset is None

    def test_stuck_world_gets_operator_reset(self, env, cfg):
        world = ScriptedWorld(env, recovers_alone=False)
        trace = SingleFaultCampaign(world, cfg).run(FaultKind.NODE_FREEZE, "n1")
        assert trace.t_reset is not None
        assert world._was_reset
        assert trace.t_end > trace.t_reset

    def test_markers_shared_with_injector(self, env, cfg):
        world = ScriptedWorld(env)
        trace = SingleFaultCampaign(world, cfg).run(FaultKind.NODE_FREEZE, "n1")
        assert trace.markers.first("fault_injected") == pytest.approx(30.0)
        assert trace.markers.first("fault_repaired") == pytest.approx(50.0)

    def test_degraded_rate_visible_in_trace(self, env, cfg):
        world = ScriptedWorld(env, faulty_rate=10.0)
        trace = SingleFaultCampaign(world, cfg).run(FaultKind.NODE_FREEZE, "n1")
        during = trace.rate(trace.t_inject + 2, trace.t_repair)
        assert during == pytest.approx(10.0, rel=0.25)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(warmup=10.0, normal_window=20.0)
        with pytest.raises(ValueError):
            CampaignConfig(fault_active=-1.0)

    @pytest.mark.parametrize("threshold", [0.0, -0.1, 1.5])
    def test_operator_threshold_range_checked(self, threshold):
        with pytest.raises(ValueError, match="operator_threshold"):
            CampaignConfig(operator_threshold=threshold)

    def test_operator_threshold_bounds_accepted(self):
        assert CampaignConfig(operator_threshold=1.0).operator_threshold == 1.0
        assert CampaignConfig(operator_threshold=0.01).operator_threshold == 0.01

    def test_t_detect_uses_first_marker_after_injection(self, env, cfg):
        world = ScriptedWorld(env)
        world.telemetry.tracer.mark(5.0, "detected", "stale")
        trace = SingleFaultCampaign(world, cfg).run(FaultKind.NODE_FREEZE, "n1")
        assert trace.t_detect is None  # stale marker ignored
        world.telemetry.tracer.mark(trace.t_inject + 3.0, "detected", "real")
        assert trace.t_detect == pytest.approx(trace.t_inject + 3.0)
