"""Flight recorder: artifact round trip and replay fidelity."""

import json

import pytest

from repro.core.template import TemplateFitter
from repro.obs.attribution import StageAttributor
from repro.obs.recorder import (
    SCHEMA_VERSION,
    FlightRecord,
    read_record,
    write_record,
)

from tests.obs.synth import standard_detected_record


@pytest.fixture()
def record():
    return standard_detected_record()


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self, record):
        clone = FlightRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()

    def test_json_file_round_trip(self, record, tmp_path):
        path = tmp_path / "flight.json"
        write_record(record, path)
        clone = read_record(path)
        assert clone.to_dict() == record.to_dict()

    def test_artifact_is_plain_json(self, record, tmp_path):
        path = tmp_path / "flight.json"
        write_record(record, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["version"] == "SYNTH"
        assert payload["fault"] == "node_crash"
        assert len(payload["samples"]) == len(record.samples)

    def test_parent_directories_created(self, record, tmp_path):
        path = tmp_path / "a" / "b" / "flight.json"
        write_record(record, path)
        assert path.exists()

    def test_newer_schema_rejected(self, record):
        payload = record.to_dict()
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            FlightRecord.from_dict(payload)


class TestReplay:
    def test_trace_rebuild_preserves_series_and_timeline(self, record):
        trace = record.to_trace()
        assert list(trace.series.times) == record.samples
        assert trace.t_inject == record.timeline["t_inject"]
        assert trace.t_repair == record.timeline["t_repair"]
        assert trace.t_end == record.timeline["t_end"]
        assert trace.t_detect == record.timeline["t_detect"]

    def test_refit_after_round_trip_is_identical(self, record, tmp_path):
        path = tmp_path / "flight.json"
        write_record(record, path)
        replayed = read_record(path)
        fitter = TemplateFitter()
        original = fitter.fit(record.to_trace())
        refit = fitter.fit(replayed.to_trace())
        assert refit == original

    def test_attribution_after_round_trip_is_identical(self, record, tmp_path):
        path = tmp_path / "flight.json"
        write_record(record, path)
        replayed = read_record(path)
        attributor = StageAttributor()
        a = attributor.attribute(record)
        b = attributor.attribute(replayed)
        assert a.to_dict() == b.to_dict()

    def test_events_survive_round_trip(self, record, tmp_path):
        path = tmp_path / "flight.json"
        write_record(record, path)
        replayed = read_record(path)
        assert replayed.events == record.events
        assert [e for e in replayed.events if e.kind == "detected"]
