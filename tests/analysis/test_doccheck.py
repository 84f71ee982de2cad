"""The docs cross-reference checker (`repro lint --docs`)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.doccheck import (
    DOCCHECK_SCHEMA,
    check_docs,
    format_doccheck,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _tree(tmp_path, readme, extra=None):
    (tmp_path / "docs").mkdir(exist_ok=True)
    (tmp_path / "README.md").write_text(readme, encoding="utf-8")
    (tmp_path / "Makefile").write_text(
        "lint:\n\techo ok\n\ntest:\n\techo ok\n", encoding="utf-8")
    for rel, content in (extra or {}).items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content, encoding="utf-8")
    return tmp_path


class TestCleanCorpus:
    def test_valid_references_pass(self, tmp_path):
        root = _tree(tmp_path,
                     "Run `repro lint` or `make test`.\n"
                     "See `docs/GUIDE.md` and [guide](docs/GUIDE.md).\n",
                     extra={"docs/GUIDE.md": "# hi\n"})
        result = check_docs(root=str(root))
        assert result.ok, result.to_dict()
        assert result.docs_scanned == 2
        assert result.refs_checked >= 4

    def test_placeholders_globs_results_skipped(self, tmp_path):
        root = _tree(tmp_path,
                     "Write to `results/out.json`; pass `--only <name>`\n"
                     "or `docs/*.md`, `$HOME/x.py`.\n")
        assert check_docs(root=str(root)).ok

    def test_prose_words_not_mistaken_for_commands(self, tmp_path):
        root = _tree(tmp_path,
                     "The repro effort reproduces the paper; "
                     "`from repro import sim` works.\n")
        assert check_docs(root=str(root)).ok


class TestStaleReferences:
    def test_all_reference_kinds_detected(self, tmp_path):
        root = _tree(tmp_path,
                     "See `src/nope.py`, run `repro frobnicate`, then\n"
                     "`make bogus`. Rule REP999; BENCH_ghost.json;\n"
                     "and [link](missing.md).\n")
        result = check_docs(root=str(root))
        categories = {f.category for f in result.findings}
        assert categories == {"path", "cli", "make", "rule",
                              "bench", "link"}
        assert not result.ok

    def test_pytest_ids_resolve_their_path(self, tmp_path):
        root = _tree(tmp_path,
                     "See `tests/test_x.py::test_y` and "
                     "`benchmarks/no_such.py::test_x`.\n",
                     extra={"tests/test_x.py": "def test_y(): pass\n"})
        (finding,) = check_docs(root=str(root)).findings
        assert finding.category == "path"
        assert finding.token == "benchmarks/no_such.py"

    def test_fenced_command_lines_scanned(self, tmp_path):
        root = _tree(tmp_path,
                     "```bash\npython -m repro frobnicate src/nope.py\n```\n")
        result = check_docs(root=str(root))
        categories = {f.category for f in result.findings}
        assert "cli" in categories and "path" in categories

    def test_findings_carry_location(self, tmp_path):
        root = _tree(tmp_path, "line one\n\nsee `src/nope.py`\n")
        (finding,) = check_docs(root=str(root)).findings
        assert finding.doc == "README.md"
        assert finding.line == 3
        assert finding.token == "src/nope.py"

    def test_report_round_trip_and_rendering(self, tmp_path):
        root = _tree(tmp_path, "see `src/nope.py`\n")
        result = check_docs(root=str(root))
        doc = result.to_dict()
        assert doc["schema"] == DOCCHECK_SCHEMA
        assert doc["ok"] is False
        assert doc["findings"][0]["token"] == "src/nope.py"
        text = format_doccheck(result)
        assert "FAILED" in text and "src/nope.py" in text


def test_real_repository_docs_are_clean():
    """The gate itself: this repo's documentation has no stale refs."""
    result = check_docs(root=str(REPO_ROOT))
    assert result.docs_scanned >= 10
    assert result.ok, format_doccheck(result)
