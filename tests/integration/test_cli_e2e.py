"""CLI end-to-end (quick mode): the commands users actually run."""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.core.quantify import QuantifyConfig, run_cell
from repro.faults.campaign import CampaignCell
from repro.obs.recorder import TIMELINE_FIELDS

pytestmark = pytest.mark.slow


def _explain(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--quick", "explain", *argv]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def indep_node_crash(tmp_path_factory):
    """One quick INDEP node_crash ``explain``: its text and its record."""
    path = tmp_path_factory.mktemp("explain") / "INDEP-node_crash.json"
    return _explain("INDEP", "node_crash", "--out", str(path)), path


def test_explain_prints_four_sections(indep_node_crash):
    text, _ = indep_node_crash
    titles = [f"== {t} " for t in ("lost requests", "budget", "tails", "wall")]
    assert [text.find(t) for t in titles] == sorted(
        text.find(t) for t in titles)
    assert all(t in text for t in titles)
    # lost requests: stage chart, loss table, fit check, cooperation sets
    assert "INJECT" in text and "REPAIR" in text
    assert "fit cross-check" in text and "cooperation sets" in text
    # budget, tails, wall
    assert "per-stage rollup" in text
    assert "during node_crash" in text and "after node_crash" in text
    assert "slowest request of the top group" in text
    assert "span recording was on" in text
    assert "events processed" in text and "process type" in text


def test_explain_record_matches_run_cell(indep_node_crash):
    _, path = indep_node_crash
    doc = run_cell(CampaignCell(index=0, version="INDEP", fault="node_crash",
                                seed=0), QuantifyConfig.quick())
    assert path.read_text() == json.dumps(doc["record"], sort_keys=True) + "\n"


def test_explain_json_keys():
    doc = json.loads(_explain("coop", "node_crash", "--json"))
    assert set(doc) == {"version", "fault", "target", "seed", "profile",
                        "timeline", "throughput", "attribution", "budget",
                        "blame", "wall", "metrics"}
    assert (doc["version"], doc["fault"], doc["target"], doc["seed"]) == \
        ("COOP", "node_crash", "n1", 0)
    assert set(doc["timeline"]) == set(TIMELINE_FIELDS)
    assert len(doc["throughput"]["times"]) == len(doc["throughput"]["rates"])
    assert doc["attribution"]["coverage"] >= 0.95
    assert doc["budget"]["lines"]
    assert doc["blame"]["requests"] > 0 and doc["blame"]["spans_digest"]
    assert doc["wall"]["events_processed"] > 0
    assert {m["name"] for m in doc["metrics"]} >= {"client_requests_issued"}


def test_explain_blames_every_request():
    """Requests that start after the last trace event (the repair, on
    INDEP app_crash) still land in the "after" phase."""
    blame = json.loads(_explain("INDEP", "app_crash", "--json"))["blame"]
    labels = [p["label"] for p in blame["phases"]]
    assert labels == ["before", "during app_crash", "after app_crash"]
    assert sum(p["requests"] for p in blame["phases"]) == blame["requests"]


def test_unknown_version_is_a_clean_error(monkeypatch):
    monkeypatch.setenv("REPRO_QUICK", "1")
    with pytest.raises(SystemExit) as exc:
        main(["--quick", "explain", "no-such-version", "node_crash"])
    assert "unknown version" in str(exc.value)


def test_quantify_single_version(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_QUICK", "1")
    assert main(["--quick", "quantify", "INDEP"]) == 0
    out = capsys.readouterr().out
    assert "version INDEP" in out
    assert "availability=" in out


def test_figure_table1(capsys):
    assert main(["--quick", "figure", "table1"]) == 0
    out = capsys.readouterr().out
    assert "node crash" in out
    assert "MTTF" in out
