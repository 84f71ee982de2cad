"""Sweep harness plumbing (cheap measurements only)."""

from dataclasses import replace

import pytest

from repro.experiments.profiles import SMALL
from repro.experiments.sweep import Sweep, SweepResult


def cache_knob(profile, value):
    return replace(profile, press=profile.press.with_(cache_files=value))


def fake_measure(config):
    """Deterministic pseudo-measurement derived from the knobs."""
    press = config.profile.press
    return {
        "capacity": float(press.cache_files),
        "load": config.profile.coop_rate,
        "util": config.profile.coop_rate / (press.cache_files * 10.0),
    }


class TestSweep:
    def test_rows_follow_values(self):
        sweep = Sweep("cache", values=[60, 120, 240], apply=cache_knob)
        result = sweep.run(fake_measure)
        assert [r["cache"] for r in result.rows] == [60, 120, 240]
        assert result.column("capacity") == [60.0, 120.0, 240.0]

    def test_monotone_checks(self):
        sweep = Sweep("cache", values=[60, 120, 240], apply=cache_knob)
        result = sweep.run(fake_measure)
        assert result.monotone("capacity", increasing=True)
        assert result.monotone("util", increasing=False)
        assert not result.monotone("capacity", increasing=False)

    def test_config_for_applies_knob(self):
        sweep = Sweep("cache", values=[60], apply=cache_knob)
        config = sweep.config_for(60)
        assert config.profile.press.cache_files == 60
        assert SMALL.press.cache_files == 120  # base untouched

    def test_quick_flag_selects_campaign(self):
        quick = Sweep("c", [60], cache_knob, quick=True).config_for(60)
        full = Sweep("c", [60], cache_knob, quick=False).config_for(60)
        assert quick.campaign.warmup < full.campaign.warmup

    def test_text_rendering(self):
        result = Sweep("cache", [60, 120], cache_knob).run(fake_measure)
        text = result.text()
        assert "cache" in text and "util" in text
        assert len(text.splitlines()) == 3

    def test_empty(self):
        result = SweepResult("x", [])
        assert "no rows" in result.text()

    def test_monotone_needs_two_rows(self):
        # a 0/1-point sweep has no trend; the old vacuous True let
        # ablation assertions pass against an empty table
        with pytest.raises(ValueError, match="at least two rows"):
            SweepResult("x", []).monotone("capacity")
        one = Sweep("cache", values=[60], apply=cache_knob).run(fake_measure)
        with pytest.raises(ValueError, match="at least two rows"):
            one.monotone("capacity")

    def test_parallel_rows_match_serial(self):
        sweep = Sweep("cache", values=[60, 120, 240], apply=cache_knob)
        serial = sweep.run(fake_measure)
        parallel = sweep.run(fake_measure, jobs=2)
        assert parallel.rows == serial.rows
        assert parallel.text() == serial.text()
