"""Artifact persistence."""

import pytest

from repro.experiments.artifacts import rows_to_csv, write_figure
from repro.experiments.figures import FigureOutput


@pytest.fixture
def figure():
    return FigureOutput(
        name="figX",
        title="A test figure",
        rows=[{"version": "COOP", "unavailability": 0.005,
               "by_kind": {"node_crash": 1e-4}},
              {"version": "FME", "unavailability": 0.0005,
               "by_kind": {"node_crash": 1e-5}}],
        text="version unavail\nCOOP 0.005\nFME 0.0005",
    )


class TestCsv:
    def test_header_and_rows(self, figure):
        text = rows_to_csv(figure.rows)
        lines = text.strip().splitlines()
        assert lines[0] == "version,unavailability,by_kind"
        assert len(lines) == 3
        assert lines[1].startswith("COOP,0.005")

    def test_nested_values_json_encoded(self, figure):
        text = rows_to_csv(figure.rows)
        assert '""node_crash""' in text  # csv-escaped JSON

    def test_empty_rows(self):
        assert rows_to_csv([]) == ""

    def test_column_union(self):
        text = rows_to_csv([{"a": 1}, {"a": 2, "b": 3}])
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,"


class TestWrite:
    def test_write_figure_creates_txt_and_csv(self, figure, tmp_path):
        paths = write_figure(figure, tmp_path)
        assert [p.name for p in paths] == ["figX.txt", "figX.csv"]
        content = (tmp_path / "figX.txt").read_text()
        assert "A test figure" in content
        assert "COOP 0.005" in content

    def test_figure_without_rows_writes_no_csv(self, tmp_path):
        paths = write_figure(FigureOutput("figY", "Other", [], "nothing"),
                             tmp_path)
        assert [p.name for p in paths] == ["figY.txt"]

    def test_write_is_idempotent(self, figure, tmp_path):
        write_figure(figure, tmp_path)
        write_figure(figure, tmp_path)
        assert (tmp_path / "figX.txt").exists()
