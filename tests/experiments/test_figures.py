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


def _set(rows, key, name, **values):
    """A copy of ``rows`` with the row whose ``key`` is ``name`` edited."""
    return [dict(r, **values) if r[key] == name else r for r in rows]


def _fig7_mq_at_quarter(rows):
    coop = rows[0]["measured_unavail"]
    return _set(rows, "version", "MQ", measured_unavail=0.25 * coop)


def _fig8_raid_below_non_disk(rows):
    by_kind = next(r["by_kind"] for r in rows if r["config"] == "X-SW")
    non_disk = sum(u for k, u in by_kind.items() if k != "scsi_timeout")
    return _set(rows, "config", "X-SW-RAID", unavailability=0.89 * non_disk)


def _fig9_direct_rows(rows):
    return rows + [{"config": "FME-8 128MB (direct)", "unavailability": 1e-3},
                   {"config": "FME-8 64MB (direct)", "unavailability": 7e-4}]


def _fig10_flat(rows):
    return _set(rows, "config", "COOP-16",
                unavailability=1.5 * rows[1]["unavailability"])


def _table2_unsorted(rows):
    return _set(rows, "enhancement", "Membership", ncsl=rows[1]["ncsl"] + 1)


#: figure -> (an edit of its rows, the one claim the edit breaks)
BREAKS = {
    "fig1a": (lambda rows: _set(rows, "version", "COOP",
                                throughput=2.0 * rows[0]["throughput"]),
              "COOP serves over 2x INDEP's throughput (paper ~3x)"),
    "fig1b": (lambda rows: _set(rows, "config", "HW",
                                unavailability=0.5 * rows[0]["unavailability"]),
              "HW keeps over half of COOP's unavailability"),
    "fig2": (lambda rows: _set(rows, "stage", "C", provenance="measured"),
             "stage C's duration is supplied from the MTTR"),
    "fig6": (lambda rows: _set(rows, "config", "RAID+switch",
                               unavailability=rows[0]["unavailability"]),
             "RAID+switch is less unavailable than COOP (paper -25%)"),
    "fig7": (_fig7_mq_at_quarter,
             "MQ cuts over 75% of COOP's unavailability (paper 87%)"),
    "fig8": (_fig8_raid_below_non_disk,
             "X-SW-RAID keeps at least 90% of X-SW's non-disk unavailability"),
    "fig9": (_fig9_direct_rows,
             "direct FME-8 at 64MB is at least 0.8x as unavailable as at 128MB"),
    "fig10": (_fig10_flat, "COOP-16 is over 1.5x as unavailable as COOP-8 (paper 2x)"),
    "table1": (lambda rows: rows[:7], "the table lists eight fault classes"),
    "table2": (_table2_unsorted, "effort grows down the table"),
}


class TestClaims:
    """Each figure's paper claims read its rows and can fail, by name."""

    @pytest.mark.parametrize("name", sorted(BREAKS))
    def test_a_broken_row_breaks_its_claim(self, ev, name):
        figure = (figures.fig9(ev, measure_direct=False) if name == "fig9"
                  else figures.ALL_FIGURES[name](ev))
        edit, claim = BREAKS[name]
        before = figures.broken_claims(figure)
        after = figures.broken_claims(replace(figure, rows=edit(figure.rows)))
        assert [c for c in after if c not in before] == [claim]

    def test_fig4_timeline(self):
        def fig4(rates):
            return figures.FigureOutput(
                "fig4", "t", [{"t": 5.0 * i, "rate": r} for i, r in enumerate(rates)], "")

        assert figures.broken_claims(fig4([100, 0, 50, 60, 100])) == []
        assert figures.broken_claims(fig4([100, 0, 100, 60, 100])) == [
            "mid-run throughput is 20-90% of peak (paper: partial)"]
        assert figures.broken_claims(fig4([100, 10, 50, 60, 100])) == [
            "throughput drops under 5% of peak while undetected (paper ~0)"]

    def test_fig9_direct_claims_apply_only_to_direct_rows(self, ev):
        quick = figures.fig9(ev, measure_direct=False)
        assert figures.broken_claims(quick) == []
        full = replace(quick, rows=quick.rows + [
            {"config": "FME-8 128MB (direct)", "unavailability": 1e-12},
            {"config": "FME-8 64MB (direct)", "unavailability": 1e-12}])
        assert figures.broken_claims(full) == [
            "scaled FME-8 is within 5x of the direct 128MB run (paper 25%)"]
