"""Serial ≡ parallel: the executor's headline determinism contract.

A quantification with ``jobs=2`` must produce artifacts byte-identical
to the serial run — same flight-record JSON, same model numbers.  This
is the regression gate CI runs; if it ever fails, something in the
fan-out (hash-seed pinning, merge order, record replay) started leaking
scheduling into results.  ``repro sanitize --vary jobs`` checks the same
contract for one cell, component by component.
"""

import json

import pytest

from repro.core.quantify import QuantifyConfig, quantify_version
from repro.faults.types import FaultKind
from repro.obs.events import canonical

#: two cheap INDEP kinds keep the whole test under ~15 s
KINDS = (FaultKind.APP_CRASH, FaultKind.APP_HANG)


@pytest.fixture(scope="module")
def runs():
    config = QuantifyConfig.quick(kinds=KINDS)
    serial = quantify_version("INDEP", config, keep_records=True)
    parallel = quantify_version("INDEP", config, keep_records=True, jobs=2)
    return serial, parallel


class TestSerialParallelEquality:
    def test_flight_record_json_identical(self, runs):
        serial, parallel = runs
        assert set(serial.records) == set(parallel.records)
        for kind in serial.records:
            s = json.dumps(serial.records[kind].to_dict(), sort_keys=True)
            p = json.dumps(parallel.records[kind].to_dict(), sort_keys=True)
            assert s == p, f"record for {kind} differs"

    def test_model_numbers_identical(self, runs):
        serial, parallel = runs
        assert serial.availability == parallel.availability
        assert serial.unavailability == parallel.unavailability
        assert serial.normal_tput == parallel.normal_tput
        assert serial.offered_rate == parallel.offered_rate

    def test_templates_identical(self, runs):
        serial, parallel = runs
        for kind in KINDS:
            s = serial.templates[kind].resolved(
                mttr=60.0, operator_response=1800.0, reset_duration=10.0)
            p = parallel.templates[kind].resolved(
                mttr=60.0, operator_response=1800.0, reset_duration=10.0)
            for stage in "ABCDEFG":
                assert s.stage(stage).duration == p.stage(stage).duration
                assert s.stage(stage).throughput == p.stage(stage).throughput

    def test_budgets_identical(self, runs):
        serial, parallel = runs
        s = serial.stage_budget().to_dict()
        p = parallel.stage_budget().to_dict()
        assert canonical(s) == canonical(p)

    def test_traces_identical(self, runs):
        serial, parallel = runs
        for kind in KINDS:
            s, p = serial.traces[kind], parallel.traces[kind]
            assert list(s.series.times) == list(p.series.times)
            assert s.t_inject == p.t_inject
            assert s.t_detect == p.t_detect
            assert s.t_repair == p.t_repair
            assert s.t_reset == p.t_reset
            assert s.t_end == p.t_end
