"""Suppression parsing edge cases and the REP016 unused-suppression
audit (``repro lint``'s stale-comment detector)."""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import (
    _suppressions,
    audit_suppressions,
    lint_source,
)

REPO = Path(__file__).parent.parent.parent


class TestSuppressionParsing:
    def test_comma_separated_ids(self):
        sup = _suppressions("x = 1  # reprolint: disable=REP001,REP006\n")
        assert sup == {1: {"REP001", "REP006"}}

    def test_space_separated_ids(self):
        sup = _suppressions("x = 1  # reprolint: disable=REP001 REP006\n")
        assert sup == {1: {"REP001", "REP006"}}

    def test_mixed_commas_and_spaces(self):
        sup = _suppressions(
            "x = 1  # reprolint: disable=REP001, REP006 REP013\n")
        assert sup == {1: {"REP001", "REP006", "REP013"}}

    def test_unknown_ids_are_still_parsed(self):
        # parsing is syntactic; the audit decides what ids mean
        sup = _suppressions("x = 1  # reprolint: disable=REP999,BOGUS\n")
        assert sup == {1: {"REP999", "BOGUS"}}

    def test_ids_are_case_normalised(self):
        sup = _suppressions("x = 1  # reprolint: disable=rep001,All\n")
        assert sup == {1: {"REP001", "ALL"}}

    def test_justification_prose_after_dashes_is_not_an_id(self):
        sup = _suppressions(
            "x = 1  # reprolint: disable=REP005 -- the loop is pure\n")
        assert sup == {1: {"REP005"}}

    def test_docstring_example_is_not_a_suppression(self):
        src = ('"""Suppress with ``# reprolint: disable=REP001`` on the '
               'line."""\nx = 1\n')
        assert _suppressions(src) == {}

    def test_multiline_string_example_is_not_a_suppression(self):
        src = 'doc = """\n# reprolint: disable=REP001\n"""\n'
        assert _suppressions(src) == {}

    def test_real_comment_after_code_counts(self):
        src = "import time\n\n\ndef f():\n    return time.time()  # reprolint: disable=REP001\n"
        result = lint_source(src, "sim/x.py", is_sim=True)
        assert result.findings == []
        assert result.suppressed == 1
        assert result.used_suppressions == {"sim/x.py": {5: {"REP001"}}}
        assert result.declared_suppressions == {"sim/x.py": {5: {"REP001"}}}


class TestAuditSuppressions:
    def test_used_suppression_is_not_reported(self):
        findings = audit_suppressions(
            declared={"a.py": {3: {"REP001"}}},
            used={"a.py": {3: {"REP001"}}})
        assert findings == []

    def test_stale_suppression_is_reported(self):
        (f,) = audit_suppressions(declared={"a.py": {3: {"REP001"}}}, used={})
        assert f.rule == "REP016" and f.path == "a.py" and f.line == 3
        assert "REP001" in f.message

    def test_unknown_id_always_reported(self):
        # REP017: a retired rule id suppresses nothing, like a typo
        for rid in ("REP999", "REP017"):
            (f,) = audit_suppressions(declared={"a.py": {3: {rid}}}, used={})
            assert f"unknown rule id '{rid}'" in f.message

    def test_retired_flow_rule_is_an_unknown_id(self):
        # the whole-program rules are retired: their suppressions are
        # stale comments like any other unknown id
        (f,) = audit_suppressions({"a.py": {3: {"REP014"}}}, {})
        assert f.rule == "REP016"
        assert "unknown rule id 'REP014'" in f.message

    def test_unused_disable_all_is_reported(self):
        (f,) = audit_suppressions({"a.py": {3: {"ALL"}}}, {})
        assert "disable=all" in f.message

    def test_disable_all_that_suppressed_something_is_kept(self):
        findings = audit_suppressions(
            declared={"a.py": {3: {"ALL"}}},
            used={"a.py": {3: {"ALL"}}})
        assert findings == []

    def test_mixed_line_reports_only_the_stale_id(self):
        (f,) = audit_suppressions(
            declared={"a.py": {3: {"REP001", "REP006"}}},
            used={"a.py": {3: {"REP006"}}})
        assert "REP001" in f.message and "REP006" not in f.message


class TestAuditCli:
    def _lint(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *args],
            capture_output=True, text=True, cwd=REPO,
        )

    def test_stale_suppression_warns(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("x = 1  # reprolint: disable=REP006\n")
        proc = self._lint(str(f))
        assert proc.returncode == 0  # warning, not error
        assert "REP016" in proc.stdout
        strict = self._lint(str(f), "--strict")
        assert strict.returncode == 1

    def test_used_suppression_does_not_warn(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("def g(xs=[]):  # reprolint: disable=REP006\n"
                     "    return xs\n")
        proc = self._lint(str(f), "--strict")
        assert proc.returncode == 0, proc.stdout
        assert "REP016" not in proc.stdout

    def test_json_report_counts_audit(self, tmp_path):
        f = tmp_path / "mod.py"
        f.write_text("x = 1  # reprolint: disable=REP006,REP999\n")
        proc = self._lint(str(f), "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["schema"] == 4
        audit = doc["suppression_audit"]
        assert audit["declared"] == 2 and audit["unused"] == 2
