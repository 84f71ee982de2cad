"""ASCII timeline rendering of recorded flights."""

from repro.obs.attribution import StageAttributor
from repro.obs.timeline import format_attribution, render_timeline

from tests.obs.synth import standard_detected_record


class TestRenderTimeline:
    def test_chart_has_stage_bands_and_marks(self):
        record = standard_detected_record()
        text = render_timeline(record)
        assert "SYNTH / node_crash @ n1" in text
        assert "INJECT" in text
        assert "DETECT" in text
        assert "REPAIR" in text
        # stage letters appear as band labels
        for stage in ("A", "C", "D"):
            assert any(line.rstrip().endswith(stage) or f" {stage} " in line
                       for line in text.splitlines())

    def test_reuses_supplied_report(self):
        record = standard_detected_record()
        report = StageAttributor().attribute(record)
        text = render_timeline(record, report=report)
        assert f"{report.coverage * 100:.1f}%" in text

    def test_includes_attribution_table(self):
        text = render_timeline(standard_detected_record())
        assert "lost req-s" in text


class TestFormatAttribution:
    def test_table_lists_every_slice(self):
        record = standard_detected_record()
        report = StageAttributor().attribute(record)
        text = format_attribution(report)
        for s in report.slices:
            assert s.cause in text
        assert "attributed" in text
