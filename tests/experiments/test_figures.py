"""Figure plumbing, tested against stubbed quantifications (no campaigns)."""

from dataclasses import replace

import pytest

from repro.core.model import AvailabilityModel, EnvironmentParams
from repro.core.quantify import QuantifyConfig, VersionAvailability
from repro.core.template import STAGE_NAMES, SevenStageTemplate, Stage
from repro.experiments import figures
from repro.experiments.configs import version
from repro.faults.faultload import table1_catalog
from repro.faults.types import FaultKind


def make_va(name, normal=230.0, stall=0.0, degraded=0.7, operator=False):
    spec = version(name)
    kinds = [FaultKind.LINK_DOWN, FaultKind.SWITCH_DOWN, FaultKind.SCSI_TIMEOUT,
             FaultKind.NODE_CRASH, FaultKind.NODE_FREEZE, FaultKind.APP_CRASH,
             FaultKind.APP_HANG]
    if spec.frontend:
        kinds.append(FaultKind.FRONTEND_FAILURE)
    templates = {}
    for kind in kinds:
        stages = {n: Stage(n, 0.0, normal) for n in STAGE_NAMES}
        stages["A"] = Stage("A", 15.0, stall * normal)
        stages["C"] = Stage("C", 0.0, degraded * normal, provenance="supplied")
        stages["E"] = Stage("E", 0.0, degraded * normal, provenance="supplied")
        templates[kind] = SevenStageTemplate(
            stages, normal, normal, version=name, fault=kind.value,
            self_recovered=not operator)
    catalog = spec.transform_catalog(table1_catalog(
        n_nodes=spec.server_count, with_frontend=spec.frontend))
    result = AvailabilityModel(catalog, EnvironmentParams()).evaluate(
        templates, normal, normal, version=name)
    return VersionAvailability(spec=spec, result=result, templates=templates,
                               traces={}, normal_tput=normal, offered_rate=normal)


class StubEvaluation(figures.Evaluation):
    """Evaluation whose quantifications are canned."""

    PROFILES = {
        "INDEP": dict(degraded=0.75, operator=False),
        "FE-X-INDEP": dict(degraded=0.95, operator=False),
        "COOP": dict(degraded=0.6, operator=True),
        "FE-X": dict(degraded=0.8, operator=True),
        "MEM": dict(degraded=0.8, operator=False),
        "QMON": dict(degraded=0.85, operator=True),
        "MQ": dict(degraded=0.9, operator=False),
        "FME": dict(degraded=0.95, operator=False),
        "FME-NOFE": dict(degraded=0.8, operator=False),
        "S-FME": dict(degraded=0.96, operator=False),
        "C-MON": dict(degraded=0.97, operator=False),
    }

    def __init__(self):
        super().__init__(QuantifyConfig.quick())

    def va(self, name):
        if name not in self._va:
            self._va[name] = make_va(name, **self.PROFILES[name])
        return self._va[name]

    def fault_free(self, name):
        return {"throughput": 230.0 if "INDEP" not in name else 75.0,
                "offered": 230.0, "availability": 1.0}


@pytest.fixture
def ev():
    return StubEvaluation()


class TestFigurePlumbing:
    def test_fig1a_rows_and_ratio(self, ev):
        out = figures.fig1a(ev)
        assert [r["version"] for r in out.rows] == ["INDEP", "FE-X-INDEP", "COOP"]
        assert "COOP/INDEP" in out.text

    def test_fig1b_configs(self, ev):
        out = figures.fig1b(ev)
        assert [r["config"] for r in out.rows] == ["COOP", "HW", "SW", "SW+HW"]
        assert all(r["unavailability"] >= 0 for r in out.rows)

    def test_fig2_stage_table(self, ev):
        out = figures.fig2(ev)
        assert [r["stage"] for r in out.rows] == list(STAGE_NAMES)

    def test_fig6_hardware_ladder(self, ev):
        out = figures.fig6(ev)
        u = {r["config"]: r["unavailability"] for r in out.rows}
        assert set(u) == {"COOP", "FE-X", "RAID+switch", "All HW"}
        assert u["RAID+switch"] <= u["COOP"]

    def test_fig7_predicted_and_measured(self, ev):
        out = figures.fig7(ev)
        assert len(out.rows) == len(figures.FIG7_VERSIONS)
        for row in out.rows:
            assert row["predicted_unavail"] >= 0
            assert row["measured_unavail"] >= 0

    def test_fig8_variants(self, ev):
        out = figures.fig8(ev)
        labels = [r["config"] for r in out.rows]
        assert labels == ["FME", "S-FME", "C-MON", "X-SW", "X-SW-RAID"]
        u = {r["config"]: r["unavailability"] for r in out.rows}
        assert u["X-SW"] <= u["C-MON"]

    def test_fig9_scaled_model_only(self, ev):
        out = figures.fig9(ev, measure_direct=False)
        labels = [r["config"] for r in out.rows]
        assert labels == ["FME-4 (measured)", "FME-8 (scaled model)",
                          "FME-16 (scaled model)"]
        u = [r["unavailability"] for r in out.rows]
        assert all(x > 0 for x in u)

    def test_fig9_direct_rows_keep_the_config(self, ev, monkeypatch):
        """The direct 8-node rows quantify under the evaluation's config
        with only the cache size changed, so a kinds restriction holds."""
        ev.config = replace(ev.config, kinds=(FaultKind.NODE_CRASH,))
        seen = []

        def quantify(spec, config, jobs=1):
            seen.append((spec.n_nodes, config))
            return make_va("FME")

        monkeypatch.setattr(figures, "quantify_version", quantify)
        figures.fig9(ev)
        assert [n for n, _ in seen] == [8, 8]
        assert [c.profile.press.cache_files for _, c in seen] == [120, 60]
        assert [replace(c, profile=ev.config.profile) for _, c in seen] == \
            [ev.config, ev.config]

    def test_fig10_scaling_growth(self, ev):
        out = figures.fig10(ev)
        u = [r["unavailability"] for r in out.rows]
        # COOP-style templates (whole-cluster stalls + operator resets)
        # must grow with cluster size.
        assert u[1] > u[0] and u[2] > u[1]

    def test_table1_is_table1(self, ev):
        out = figures.table1(ev)
        assert len(out.rows) == 8

    def test_table2_counts_real_source(self, ev):
        out = figures.table2(ev)
        assert all(r["ncsl"] > 50 for r in out.rows)

    def test_ncsl_counts_noncomment_lines(self):
        def sample():
            # a comment
            x = 1
            return x

        assert figures.ncsl_of(sample) == 3  # def, assignment, return

    def test_predicted_uses_coop_only(self, ev):
        pred = ev.predicted("FME")
        assert pred.version == "FME(pred)"
        assert 0.0 <= pred.availability <= 1.0
