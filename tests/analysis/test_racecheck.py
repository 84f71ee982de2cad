"""Races, both ways: REP014/REP015 static effect analysis (surfaced by
``repro lint --flow``) and the ``tiebreak`` variant of the differential
runner, which re-runs the torn fixture under seeded same-instant orders
and names the final count that moved."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.callgraph import build_callgraph
from repro.analysis.flow import analyze_flow
from repro.analysis.differential import (
    compare,
    differential,
    fingerprint,
    format_report,
)
from repro.analysis.racecheck import analyze_races
from repro.analysis.rules import Severity
from repro.obs.telemetry import Telemetry
from repro.sim.kernel import Environment

FIXTURES = Path(__file__).parent / "fixtures"
TORN_SIM = FIXTURES / "torn_rmw_sim.py"


def flow_findings(name, rule):
    result = analyze_flow([str(FIXTURES / name)])
    return [f for f in result.findings if f.rule == rule]


def expected_bad_lines(name, rule):
    out = []
    for lineno, line in enumerate(
            (FIXTURES / name).read_text().splitlines(), 1):
        if f"BAD {rule}" in line:
            out.append(lineno)
    return out


class TestRep014:
    def test_fixture_lines(self):
        flagged = sorted(f.line for f in
                         flow_findings("flow_rep014_shared.py", "REP014"))
        assert flagged == expected_bad_lines("flow_rep014_shared.py",
                                             "REP014")

    def test_is_a_warning_naming_both_writers(self):
        (finding,) = flow_findings("flow_rep014_shared.py", "REP014")
        assert finding.severity is Severity.WARNING
        assert "_bumper" in finding.message and "_resetter" in finding.message
        assert "Shared.count" in finding.message

    def test_single_writer_not_flagged(self):
        findings = flow_findings("flow_rep014_shared.py", "REP014")
        assert all("Shared.own" not in f.message for f in findings)

    def test_sync_helper_not_a_writer(self):
        # _helper writes Shared.watch but is not a process generator
        findings = flow_findings("flow_rep014_shared.py", "REP014")
        assert all("Shared.watch" not in f.message for f in findings)

    def test_suppression_honoured(self):
        result = analyze_flow([str(FIXTURES / "flow_rep014_shared.py")])
        assert all("Suppressed.flag" not in f.message
                   for f in result.findings)
        assert result.suppressed >= 1


class TestRep015:
    def test_fixture_lines(self):
        flagged = sorted(f.line for f in
                         flow_findings("flow_rep015_torn.py", "REP015"))
        assert flagged == expected_bad_lines("flow_rep015_torn.py", "REP015")

    def test_is_an_error_naming_the_torn_window(self):
        (finding,) = flow_findings("flow_rep015_torn.py", "REP015")
        assert finding.severity is Severity.ERROR
        assert "Counter.value" in finding.message
        assert "'v'" in finding.message  # the stale local, by name

    def test_atomic_rmw_not_flagged(self):
        # _atomic does the whole read-modify-write between yields
        flagged = {f.line for f in
                   flow_findings("flow_rep015_torn.py", "REP015")}
        src = (FIXTURES / "flow_rep015_torn.py").read_text().splitlines()
        atomic_write = next(i for i, l in enumerate(src, 1)
                            if "self.value = self.value + 1" in l)
        assert atomic_write not in flagged

    def test_unshared_rmw_not_flagged(self):
        # .private has one toucher: torn shape, but nothing to race with
        findings = flow_findings("flow_rep015_torn.py", "REP015")
        assert all("private" not in f.message for f in findings)


class TestEffectAnalysis:
    def test_torn_fixture_summary(self):
        analysis = analyze_races(build_callgraph([str(TORN_SIM)]))
        doc = analysis.to_dict()
        assert doc["roots"] >= 2  # _alpha and _beta
        assert doc["rep014"] == 1 and doc["rep015"] == 1
        (label,) = doc["shared_writes"]
        assert label.endswith("TornCounter.count")

    def test_real_tree_races_are_justified(self):
        # every REP014/REP015 in src/repro is fixed or carries an
        # in-repo justification (suppression comment at the site)
        result = analyze_flow(["src/repro"])
        races = [f for f in result.findings
                 if f.rule in ("REP014", "REP015")]
        assert races == []


def _load_torn_module():
    spec = importlib.util.spec_from_file_location("torn_rmw_sim",
                                                  str(TORN_SIM))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TornScenario:
    """The torn fixture as a differential scenario: the counter's final
    value, marked at the end, is the observable."""

    def run(self, telemetry, tiebreak_seed=None):
        env = Environment(tiebreak_seed=tiebreak_seed)
        telemetry.attach(env)
        markers = telemetry.marker_log()
        counter = _load_torn_module().TornCounter(env)
        counter.start()
        env.run()
        markers.mark(env.now, "count", counter.count)
        return fingerprint(SimpleNamespace(env=env, markers=markers,
                                           telemetry=telemetry))


#: the torn counter's final value per same-instant order
FINAL_COUNT = {None: 9, 1: 11, 2: 16}


@pytest.fixture(scope="module")
def torn_report():
    return differential(TornScenario(), ["tiebreak"])


class TestPerturbation:
    def test_fifo_baseline_is_deterministic(self):
        a, b = TornScenario().run(Telemetry()), TornScenario().run(Telemetry())
        assert all(c.exact for c in compare(a, b, "hashseed"))
        assert a["markers"] == [[0.0, "count", FINAL_COUNT[None]]]

    def test_same_tiebreak_seed_is_deterministic(self):
        a = TornScenario().run(Telemetry(), tiebreak_seed=7)
        b = TornScenario().run(Telemetry(), tiebreak_seed=7)
        assert all(c.exact for c in compare(a, b, "hashseed"))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_torn_rmw_diverges_under_perturbation(self, torn_report, seed):
        run = next(r for r in torn_report.runs
                   if r.other == f"tiebreak_seed={seed}")
        assert not run.ok and not torn_report.ok

    @pytest.mark.parametrize("seed", [1, 2])
    def test_divergence_attributed_to_the_torn_attribute(self, torn_report, seed):
        # the report names the torn counter's final value on both sides,
        # the count REP015 flags statically (TornCounter.count)
        run = next(r for r in torn_report.runs
                   if r.other == f"tiebreak_seed={seed}")
        div = run.divergence
        assert div.component == "markers" and div.time == 0.0
        assert div.only_base == [[0.0, "count", FINAL_COUNT[None]]]
        assert div.only_other == [[0.0, "count", FINAL_COUNT[seed]]]
        assert f'[0.0, "count", {FINAL_COUNT[None]}]' in format_report(torn_report)


class TestCanonicalDigests:
    """Per-instant comparison (the tiebreak rule for markers and trace
    events) against exact comparison (the hashseed rule)."""

    def test_schedule_digest_order_insensitive_within_timestamp(self):
        base = {"markers": [[0.0, "x", None], [0.0, "y", None], [1.0, "z", None]]}
        swapped = {"markers": [[0.0, "y", None], [0.0, "x", None], [1.0, "z", None]]}
        moved = {"markers": [[0.0, "x", None], [1.0, "y", None], [1.0, "z", None]]}
        (same_instant,) = compare(base, swapped, "tiebreak")
        assert same_instant.match and not same_instant.exact
        (across,) = compare(base, moved, "tiebreak")
        assert not across.match
        assert across.divergence.time == 0.0
        assert across.divergence.only_base == [[0.0, "y", None]]
        assert across.divergence.only_other == []

    def test_find_divergence_sources(self):
        def split(a, b):
            (check,) = compare({"markers": a}, {"markers": b}, "hashseed")
            return check.divergence

        a = [[0.0, "x", None], [1.0, "y", None]]
        content = split(a, [[0.0, "x", None], [1.0, "z", None]])
        assert content.time == 1.0 and content.index == 1
        assert content.only_base == [[1.0, "y", None]]
        assert content.only_other == [[1.0, "z", None]]

        longer = split(a, a + [[2.0, "y", None]])
        assert longer.index == 2 and longer.time == 2.0
        assert longer.only_base == [] and longer.only_other == [[2.0, "y", None]]

        # the same entries at one instant in another order
        order = split([[0.0, "x", None], [0.0, "y", None]],
                      [[0.0, "y", None], [0.0, "x", None]])
        assert order.index == 0 and "another order" in order.note
        assert split(a, list(a)) is None


class TestComparisonSemantics:
    """The tiebreak row: metrics within METRICS_RTOL, outcomes exact."""

    def _metrics(self, value):
        return {"metrics": [{"type": "histogram", "name": "lat",
                             "labels": {}, "count": 3, "sum": value}],
                "outcomes": {"issued": 1}}

    def test_float_drift_within_tolerance_is_ok(self):
        checks = compare(self._metrics(1.0), self._metrics(1.0 + 1e-9), "tiebreak")
        metrics = next(c for c in checks if c.component == "metrics")
        assert metrics.match and not metrics.exact
        assert all(c.ok for c in checks)

    def test_float_drift_beyond_tolerance_fails(self):
        checks = compare(self._metrics(1.0), self._metrics(1.01), "tiebreak")
        metrics = next(c for c in checks if c.component == "metrics")
        assert not metrics.ok
        assert metrics.divergence.only_other == [{"metrics[lat{}].sum": 1.01}]

    def test_observable_divergence_fails(self):
        other = dict(self._metrics(1.0), outcomes={"issued": 2})
        checks = compare(self._metrics(1.0), other, "tiebreak")
        outcomes = next(c for c in checks if c.component == "outcomes")
        assert not outcomes.ok

    def test_values_close(self):
        def close(a, b):
            return all(c.ok for c in compare({"metrics": a}, {"metrics": b},
                                              "tiebreak"))

        assert close({"a": [1, 2.0]}, {"a": [1, 2.0 + 1e-12]})
        assert not close({"a": 1}, {"a": 2})
        assert not close({"a": 1}, {"b": 1})
        assert not close([1], [1, 2])
        assert not close(True, 1.0)  # bools are not floats


class TestRacecheckCli:
    """The static tier's command line is ``repro lint --flow``."""

    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--flow", *args],
            capture_output=True, text=True,
            cwd=Path(__file__).parent.parent.parent,
        )

    def test_static_only_fails_on_fixture_rep015(self, tmp_path):
        out = tmp_path / "deep" / "dir" / "race.json"
        proc = self._run(str(TORN_SIM), "--format", "json", "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(proc.stdout)
        assert not doc["ok"]
        assert {f["rule"] for f in doc["findings"]} == {"REP014", "REP015"}
        races = doc["flow"]["races"]
        assert races["rep014"] == 1 and races["rep015"] == 1
        # --out creates parent directories and writes the same report
        on_disk = json.loads(out.read_text())
        assert on_disk["findings"] == doc["findings"]

    def test_static_only_clean_tree_passes(self):
        proc = self._run("src/repro", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(proc.stdout)
        assert not [f for f in doc["findings"]
                    if f["rule"] in ("REP014", "REP015")]
