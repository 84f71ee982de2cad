"""Ablations over the design choices DESIGN.md calls out.

These do not reproduce a specific figure; they quantify the sensitivity
of the reproduced results to the paper's parameter choices (heartbeat
period, queue-monitoring thresholds, operator response time, Mon
detection mode, cache size).  Each runs a small set of single-fault
experiments with the knob varied.
"""

from dataclasses import replace

from repro.core.model import EnvironmentParams
from repro.core.quantify import (
    QuantifyConfig,
    measure_fault_free,
    quantify_version,
    run_single_fault,
)
from repro.core.template import TemplateFitter
from repro.experiments.configs import version
from repro.experiments.profiles import SMALL
from repro.faults.types import FaultKind


def _quick(**overrides):
    return QuantifyConfig.quick(**overrides)


def test_ablation_heartbeat_period():
    """Detection latency scales with the heartbeat period (stage A)."""
    stage_a = {}
    for interval in (2.5, 5.0, 10.0):
        profile = replace(SMALL, press=SMALL.press.with_(heartbeat_interval=interval))
        cfg = _quick(profile=profile)
        trace, _ = run_single_fault(version("COOP"), FaultKind.NODE_CRASH, cfg)
        tpl = TemplateFitter(cfg.fit).fit(trace)
        stage_a[interval] = tpl.stage("A").duration
    print("\nstage-A duration by heartbeat interval:", stage_a)
    assert stage_a[2.5] < stage_a[10.0]


def test_ablation_qmon_thresholds():
    """Lower queue thresholds detect a stalled peer sooner."""
    latency = {}
    for fail_req in (8, 32):
        profile = replace(SMALL, press=SMALL.press.with_(
            qmon_reroute_threshold=fail_req // 2,
            qmon_fail_requests=fail_req))
        cfg = _quick(profile=profile)
        trace, _ = run_single_fault(version("QMON"), FaultKind.NODE_FREEZE, cfg)
        detect = trace.t_detect
        latency[fail_req] = (detect - trace.t_inject) if detect else float("inf")
    print("\nqmon detection latency by fail threshold:", latency)
    assert latency[8] <= latency[32]


def test_ablation_operator_response():
    """COOP's unavailability is dominated by how long splintered
    configurations persist before an operator resets them."""
    kinds = (FaultKind.NODE_FREEZE,)
    fast_u = quantify_version("COOP", QuantifyConfig.quick(
        environment=EnvironmentParams(operator_response=120.0),
        kinds=kinds)).unavailability
    slow_u = quantify_version("COOP", QuantifyConfig.quick(
        environment=EnvironmentParams(operator_response=1200.0),
        kinds=kinds)).unavailability
    print(f"\nCOOP freeze unavailability: operator@2min={fast_u:.5f} "
          f"operator@20min={slow_u:.5f}")
    assert slow_u > fast_u


def test_ablation_mon_detection_mode():
    """C-MON's 2 s connection probes vs Mon's 15 s pings for app crashes."""
    cfg = _quick()
    ping, _ = run_single_fault(version("FME"), FaultKind.APP_CRASH, cfg)
    conn, _ = run_single_fault(version("C-MON"), FaultKind.APP_CRASH, cfg)
    fitter = TemplateFitter(cfg.fit)
    ping_c = fitter.fit(ping).stage("C").throughput
    conn_c = fitter.fit(conn).stage("C").throughput
    print(f"\napp-crash degraded throughput: ping-Mon={ping_c:.0f} C-MON={conn_c:.0f}")
    # With connection monitoring the front-end routes around the dead
    # application, so the degraded level is clearly higher.
    assert conn_c > ping_c


def test_ablation_cache_size():
    """Per-node memory (64MB vs 128MB analog) trades throughput for the
    amount of re-warming each fault causes."""
    tput = {}
    for label, cache_files in (("64MB", 60), ("128MB", 120)):
        cfg = _quick(profile=SMALL.with_cache_files(cache_files))
        tput[label] = measure_fault_free(version("COOP"), cfg)["throughput"]
    print("\nCOOP fault-free throughput by cache size:", tput)
    assert tput["128MB"] >= 0.9 * tput["64MB"]
