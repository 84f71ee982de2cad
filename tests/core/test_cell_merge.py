"""The grid merge reads what it fits, and decodes trace events only for
records it keeps."""

import copy

import pytest

import repro.obs.recorder as recorder
from repro.core.quantify import (
    QuantifyConfig,
    campaign_cells,
    quantify_from_cell_docs,
    run_cell,
)
from repro.faults.campaign import CampaignConfig
from repro.faults.types import FaultKind
from repro.obs.export import event_to_dict

CONFIG = QuantifyConfig(
    campaign=CampaignConfig(warmup=20.0, normal_window=5.0, fault_active=10.0,
                            post_repair_observe=10.0, reset_duration=5.0,
                            post_reset_observe=5.0),
    kinds=(FaultKind.APP_CRASH, FaultKind.NODE_CRASH))


@pytest.fixture(scope="module")
def docs():
    return [run_cell(cell, CONFIG) for cell in campaign_cells("INDEP", CONFIG)]


def test_merge_decodes_no_trace_event(docs, monkeypatch):
    expected = quantify_from_cell_docs("INDEP", CONFIG, docs)

    def refuse(d):
        raise AssertionError("a trace event was decoded")

    monkeypatch.setattr(recorder, "event_from_dict", refuse)
    merged = quantify_from_cell_docs("INDEP", CONFIG, docs)
    assert merged.availability == expected.availability
    assert merged.templates == expected.templates


def test_kept_records_carry_the_documents_events(docs):
    merged = quantify_from_cell_docs("INDEP", CONFIG, docs, keep_records=True)
    for doc in docs:
        record = merged.records[FaultKind(doc["record"]["fault"])]
        assert record.events
        assert [event_to_dict(e) for e in record.events] == \
            doc["record"]["events"]
        assert record.to_dict() == doc["record"]


def test_non_monotonic_samples_still_raise(docs):
    bad = copy.deepcopy(docs)
    samples = bad[1]["record"]["samples"]
    samples[5] = samples[6] + 1.0
    with pytest.raises(ValueError, match="non-monotonic record"):
        quantify_from_cell_docs("INDEP", CONFIG, bad)
