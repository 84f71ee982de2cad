"""The differential runner: one regression injected per variant, the
contract's edge cases, and the length switch.

Each variant replaced a check of its own; each keeps a test showing the
regression that check guarded against is still caught (the torn
read-modify-write under ``tiebreak`` lives in test_racecheck.py).
"""

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.differential import (
    CONTRACT,
    SMOKE_WINDOWS,
    VARIANTS,
    Scenario,
    compare,
    differential,
    fingerprint,
)
from repro.cli import build_parser
from repro.core.quantify import QuantifyConfig
from repro.obs.telemetry import Telemetry
from repro.sim.kernel import Environment
from repro.workload.stats import RequestStats

REPO = Path(__file__).resolve().parent.parent.parent


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    return dict(env, PYTHONPATH=str(REPO / "src"), **extra)


class TestHashSeed:
    #: marks the iteration order of a set of eight node names, the way a
    #: fan-out loop over an unordered peer set would
    SCRIPT = textwrap.dedent("""
        import json
        from types import SimpleNamespace
        from repro.analysis.differential import fingerprint
        from repro.sim.kernel import Environment
        from repro.obs.trace import Tracer

        env, tracer = Environment(), Tracer()
        for name in {f"n{i}" for i in range(8)}:
            tracer.mark(env.now, "probe", name)
        print(json.dumps(fingerprint(SimpleNamespace(env=env, markers=tracer.markers))))
    """)

    def fingerprint_under(self, hash_seed):
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT],
                              capture_output=True, text=True, check=True,
                              env=child_env(PYTHONHASHSEED=str(hash_seed)))
        return json.loads(proc.stdout)

    def test_set_iteration_order_diverges_at_the_first_marker(self):
        a, b = self.fingerprint_under(101), self.fingerprint_under(202)
        (markers, clock) = compare(a, b, "hashseed")
        assert clock.exact and not markers.ok
        div = markers.divergence
        assert div.index == 0 and div.time == 0.0
        assert div.only_base == [a["markers"][0]]
        assert div.only_other == [b["markers"][0]]
        # a same-instant reorder: the tiebreak rule would let it pass
        assert all(c.ok for c in compare(a, b, "tiebreak"))


class LeakyWorld:
    """Five requests, plus one more when telemetry is enabled (``leak``)
    or when the wall-time profiler is attached (``profiler_leak``): the
    obs leaks the ``obs`` variant exists to catch."""

    def __init__(self, leak, profiler_leak=False):
        self.leak = leak
        self.profiler_leak = profiler_leak

    def run(self, telemetry, tiebreak_seed=None):
        env = Environment(tiebreak_seed=tiebreak_seed)
        telemetry.attach(env)
        stats = RequestStats()
        n = 5
        if (self.leak and telemetry.enabled) or \
                (self.profiler_leak and telemetry.profiler is not None):
            n += 1

        def client():
            for _ in range(n):
                yield env.timeout(1.0)
                stats.record_issue(env.now)
                stats.record_success(env.now, 0.01)

        env.process(client())
        env.run(until=10.0)
        return fingerprint(SimpleNamespace(env=env, markers=telemetry.tracer.markers,
                                           stats=stats, telemetry=telemetry))


class TestObs:
    def test_telemetry_dependent_request_fails_obs(self):
        report = differential(LeakyWorld(leak=True), ["obs"])
        assert [(r.other, r.ok) for r in report.runs] == [
            ("obs=unsub", False), ("obs=on", False), ("obs=spans", False),
            ("obs=profile", False)]
        div = report.runs[0].divergence
        assert div.component == "successes" and div.time == 6.0
        assert div.only_base == [] and div.only_other == [6.0]
        outcomes = next(c for c in report.runs[0].checks if c.component == "outcomes")
        assert not outcomes.ok

    def test_profiler_dependent_request_fails_only_obs_profile(self):
        report = differential(LeakyWorld(leak=False, profiler_leak=True), ["obs"])
        assert [(r.other, r.ok) for r in report.runs] == [
            ("obs=unsub", True), ("obs=on", True), ("obs=spans", True),
            ("obs=profile", False)]
        div = report.runs[-1].divergence
        assert div.component == "successes" and div.only_other == [6.0]

    def test_passes_once_the_extra_request_is_removed(self):
        assert differential(LeakyWorld(leak=False), ["obs"]).ok


class TestContractEdges:
    def test_same_instant_marker_reorder(self):
        a = {"markers": [[1.0, "detected", "n1"], [1.0, "detected", "n2"]]}
        b = {"markers": [[1.0, "detected", "n2"], [1.0, "detected", "n1"]]}
        assert all(c.ok for c in compare(a, b, "tiebreak"))
        assert not all(c.ok for c in compare(a, b, "hashseed"))

    @pytest.mark.parametrize("drift,passes", [(1e-9, True), (1e-2, False)])
    def test_metric_drift(self, drift, passes):
        def metrics(total):
            return {"metrics": [{"type": "histogram", "name": "latency",
                                 "labels": {}, "count": 4, "sum": total}]}

        (check,) = compare(metrics(2.5), metrics(2.5 * (1 + drift)), "tiebreak")
        assert check.ok is passes

    def test_processed_count_alone_fails_no_variant(self):
        def world(extra_event):
            env = Environment()
            if extra_event:
                env.timeout(0.5)  # scheduled and processed, observed by no one
            env.run(until=1.0)
            return SimpleNamespace(env=env, markers=SimpleNamespace(entries=[]),
                                   stats=RequestStats())

        plain, padded = world(False), world(True)
        assert padded.env.processed_count == plain.env.processed_count + 1
        for variant in VARIANTS:
            assert all(c.exact for c in compare(fingerprint(plain),
                                                fingerprint(padded), variant))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            differential(LeakyWorld(leak=False), ["loud"])
        with pytest.raises(ValueError):
            compare({}, {}, "loud")

    def test_variants_that_need_a_campaign_scenario(self):
        # rejected before anything runs
        with pytest.raises(ValueError):
            differential(LeakyWorld(leak=False), ["hashseed"])
        with pytest.raises(ValueError):
            differential(Scenario(length="smoke"), ["jobs"])
        with pytest.raises(ValueError):
            Scenario(length="short")

    def test_every_row_names_known_components(self):
        assert set(CONTRACT) == set(VARIANTS)
        for row in CONTRACT.values():
            assert set(row.values()) <= {"exact", "instant", "close", "report"}


class TestLength:
    FULL = asdict(QuantifyConfig().campaign)

    def test_full_scenario_never_reads_repro_quick(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUICK", "1")
        full = Scenario("INDEP", "app_crash", 0, "full")
        assert full.windows() == self.FULL
        assert full.argv()[-1] == "--full"
        assert Scenario(length="quick").windows() != self.FULL

    def test_digest_child_runs_full_windows_under_repro_quick(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "digest", "indep", "app_crash", "--full"],
            capture_output=True, text=True, env=child_env(REPRO_QUICK="1"))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["windows"] == self.FULL
        # the fault went in after the full-length warm-up, not the quick one
        assert doc["fingerprint"]["timeline"]["t_inject"] == self.FULL["warmup"]

    def test_sanitize_full_records_full_windows_under_repro_quick(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sanitize", "--version", "indep",
             "--fault", "app_crash", "--full", "--json"],
            capture_output=True, text=True, env=child_env(REPRO_QUICK="1"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["ok"] and doc["windows"] == self.FULL
        assert doc["scenario"]["length"] == "full"

    def test_smoke_fault_goes_on_the_default_target(self):
        # a disk fault targets a disk of n1, as a campaign injects it
        fp = Scenario("COOP", "scsi_timeout", 0, "smoke").run(Telemetry.disabled())
        (injected,) = [m for m in fp["markers"] if m[1] == "fault_injected"]
        assert injected[0] == SMOKE_WINDOWS["inject_at"]
        assert injected[2]["target"] == "n1.disk0"

    def test_one_length_switch(self):
        parser = build_parser()
        args = parser.parse_args(["sanitize", "--full", "--vary", "tiebreak"])
        assert args.full and not args.smoke and args.vary == ["tiebreak"]
        with pytest.raises(SystemExit):
            parser.parse_args(["sanitize", "--smoke", "--full"])
        with pytest.raises(SystemExit):
            parser.parse_args(["digest", "coop", "--quick"])


@pytest.mark.slow
def test_all_variants_pass_on_a_clean_cell():
    report = differential(Scenario("INDEP", "app_crash", 0, "quick"), VARIANTS)
    assert report.ok, [(r.other, r.divergence) for r in report.runs if not r.ok]
    assert {r.variant for r in report.runs} == set(VARIANTS)
    jobs = next(r for r in report.runs if r.variant == "jobs")
    assert {c.component for c in jobs.checks} == {
        "markers", "successes", "timeline", "templates", "trace"}
    doc = report.to_dict()
    assert doc["windows"] == asdict(QuantifyConfig.quick().campaign)
    assert json.loads(json.dumps(doc))["ok"] is True
