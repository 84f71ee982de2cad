"""The deterministic merge helper behind the parallel executor.

``merge_records`` keys per-cell flight records by fault preserving cell
order, and must reject inputs that mix campaigns.
"""

import pytest

from repro.faults.types import FaultKind
from repro.obs.recorder import merge_records

from tests.obs.synth import make_record, make_trace

SEGMENTS = [(0, 60, 100.0), (60, 75, 1.0), (75, 150, 70.0), (150, 240, 100.0)]


def record_for(kind, seed=0, version="SYNTH"):
    trace = make_trace(SEGMENTS, t_inject=60.0, t_repair=150.0, t_end=240.0,
                       kind=kind)
    trace.version = version
    record = make_record(trace, seed=seed)
    return record


class TestMergeRecords:
    def test_preserves_cell_order(self):
        kinds = [FaultKind.NODE_CRASH, FaultKind.APP_CRASH,
                 FaultKind.APP_HANG]
        merged = merge_records([record_for(k) for k in kinds])
        assert list(merged) == [k.value for k in kinds]

    def test_empty_is_empty(self):
        assert merge_records([]) == {}

    def test_rejects_mixed_versions(self):
        records = [record_for(FaultKind.NODE_CRASH, version="A"),
                   record_for(FaultKind.APP_CRASH, version="B")]
        with pytest.raises(ValueError, match="multiple versions"):
            merge_records(records)

    def test_rejects_mixed_seeds(self):
        records = [record_for(FaultKind.NODE_CRASH, seed=0),
                   record_for(FaultKind.APP_CRASH, seed=1)]
        with pytest.raises(ValueError, match="multiple seeds"):
            merge_records(records)

    def test_rejects_duplicate_fault(self):
        records = [record_for(FaultKind.NODE_CRASH),
                   record_for(FaultKind.NODE_CRASH)]
        with pytest.raises(ValueError, match="duplicate"):
            merge_records(records)
