"""The hashseed row of the differential contract, and the fingerprint.

The double-subprocess runs live in
tests/integration/test_hashseed_determinism.py and
tests/analysis/test_differential.py; here the comparison is exercised
on hand-written fingerprints, and the fingerprint on the smoke cell.
"""

import json

import pytest

from repro.analysis.differential import (
    Report,
    RunComparison,
    Scenario,
    _vary_hashseed,
    compare,
    format_report,
)
from repro.obs.telemetry import Telemetry

TRACE = [[1.0, "req_issue", "aaaaaaaaaaaaaaaa"],
         [2.0, "req_done", "bbbbbbbbbbbbbbbb"]]


def make_fp(trace=TRACE, metrics=None, spans=None, **extra):
    fp = {
        "markers": [[1.5, "detected", ["ring", "n1"]]],
        "outcomes": {"issued": 10, "success": 9},
        "clock": 140.0,
        "trace": trace,
        "metrics": metrics or [{"type": "counter", "name": "req",
                                "labels": {}, "value": 9}],
        "spans": spans or {"count": 4, "digest": "s" * 64},
    }
    fp.update(extra)
    return fp


def judge(a, b):
    return RunComparison("hashseed", "PYTHONHASHSEED=101",
                         "PYTHONHASHSEED=202", compare(a, b, "hashseed"))


def checks(run):
    return {c.component: c for c in run.checks}


class TestCompare:
    def test_identical_fingerprints_match(self):
        run = judge(make_fp(), make_fp())
        assert run.ok
        assert run.divergence is None
        assert all(c.exact for c in run.checks)
        assert set(checks(run)) == {"markers", "outcomes", "clock", "trace",
                                    "metrics", "spans"}

    def test_first_divergence_located(self):
        changed = [2.0, "req_done", "cccccccccccccccc"]
        run = judge(make_fp(), make_fp(trace=[TRACE[0], changed]))
        assert not run.ok and not checks(run)["trace"].match
        div = run.divergence
        assert div.component == "trace" and div.index == 1 and div.time == 2.0
        assert div.only_base == [TRACE[1]] and div.only_other == [changed]
        assert "trace at t=2.000000, entry #1" in div.describe("A", "B")

    def test_truncated_stream_divergence(self):
        run = judge(make_fp(), make_fp(trace=TRACE[:1]))
        div = run.divergence
        assert div.index == 1
        assert div.only_base == [TRACE[1]] and div.only_other == []

    def test_metrics_only_divergence(self):
        drifted = [{"type": "counter", "name": "req", "labels": {}, "value": 8}]
        run = judge(make_fp(), make_fp(metrics=drifted))
        assert not run.ok
        assert checks(run)["trace"].exact and not checks(run)["metrics"].match
        div = run.divergence
        assert div.component == "metrics" and div.time is None
        assert div.only_base == [{"metrics[req{}].value": 9}]
        assert div.only_other == [{"metrics[req{}].value": 8}]

    def test_fingerprints_without_spans_still_compare(self):
        a, b = make_fp(), make_fp()
        for fp in (a, b):
            fp.pop("spans")
        assert judge(a, b).ok and "spans" not in checks(judge(a, b))
        # recorded on one side only is a divergence, not a skip
        one_sided = judge(make_fp(), b)
        assert not one_sided.ok
        assert one_sided.divergence.note == "recorded by only one run"

    def test_spans_only_divergence(self):
        run = judge(make_fp(), make_fp(spans={"count": 4, "digest": "x" * 64}))
        assert not run.ok
        assert checks(run)["trace"].exact and not checks(run)["spans"].match
        report = Report({"name": "synthetic"}, {}, [run])
        assert "spans:X" in format_report(report)

    def test_to_dict_strips_event_streams(self):
        report = Report({"name": "synthetic"}, {}, [judge(make_fp(), make_fp())])
        doc = report.to_dict()
        assert doc["ok"] is True
        assert doc["contract"]["hashseed"]["trace"] == "exact"
        run = doc["runs"][0]
        assert run["components"]["trace"]["digests"][0] == \
            run["components"]["trace"]["digests"][1]
        # digests and verdicts only: no raw entries in a clean report
        assert "req_issue" not in json.dumps(doc)

    def test_format_renders_verdict(self):
        ok = Report({"name": "synthetic"}, {}, [judge(make_fp(), make_fp())])
        assert "OK: every variant kept every gated observable" in format_report(ok)
        bad = Report({"name": "synthetic"}, {},
                     [judge(make_fp(), make_fp(clock=141.0))])
        text = format_report(bad)
        assert "FAIL" in text and "DIVERGE" in text
        assert "first divergence: hashseed" in text and "clock at end of run" in text


class TestRunSanitize:
    def test_equal_hash_seeds_rejected(self):
        with pytest.raises(ValueError):
            _vary_hashseed(Scenario(), seeds=(5, 5))


@pytest.fixture(scope="module")
def smoke3():
    return Scenario("COOP", "node_crash", 3, "smoke").run(Telemetry(trace_spans=True))


class TestFingerprint:
    def test_smoke_fingerprint_shape_and_stability(self, smoke3):
        assert set(smoke3) == {"markers", "outcomes", "successes", "clock",
                               "trace", "metrics", "spans"}
        assert smoke3["clock"] == 140.0
        assert smoke3["spans"]["count"] > 0  # span tracing rides along
        assert len(smoke3["successes"]) == smoke3["outcomes"]["success"]
        # in process, same hash seed: bit-identical
        again = Scenario("COOP", "node_crash", 3, "smoke").run(
            Telemetry(trace_spans=True))
        assert all(c.exact for c in compare(smoke3, again, "hashseed"))
        # a different master seed must move the fingerprint
        other = Scenario("COOP", "node_crash", 4, "smoke").run(Telemetry())
        assert other["trace"] != smoke3["trace"]

    def test_fingerprint_is_json_safe(self, smoke3):
        assert json.loads(json.dumps(smoke3)) == smoke3
