"""Per-rule coverage for reprolint: every fixture's BAD lines are found,
no GOOD line is flagged, suppressions and allowlists hold."""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    lint_file,
    lint_paths,
    lint_source,
    path_is_sim_scope,
)
from repro.analysis.rules import RULES, Severity

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_findings(name: str):
    return lint_file(str(FIXTURES / name), is_sim=True).findings


def expected_bad_lines(name: str, rule: str):
    """Lines marked ``# BAD <rule>`` in the fixture source."""
    out = []
    for lineno, line in enumerate(
            (FIXTURES / name).read_text().splitlines(), 1):
        if f"BAD {rule}" in line:
            out.append(lineno)
    return out


def check_fixture(name: str, rule: str):
    findings = fixture_findings(name)
    flagged = sorted(f.line for f in findings if f.rule == rule)
    assert flagged == expected_bad_lines(name, rule), \
        f"{name}: {rule} findings {flagged} != annotated BAD lines"
    # No rule fires on a line without a BAD annotation (GOOD snippets stay
    # clean, and no *other* rule fires either).
    source_lines = (FIXTURES / name).read_text().splitlines()
    for f in findings:
        assert "BAD" in source_lines[f.line - 1], \
            f"{name}:{f.line} unexpected finding {f.rule}: {f.message}"


class TestRules:
    def test_rep001_wallclock(self):
        check_fixture("rep001_wallclock.py", "REP001")

    def test_rep002_rng(self):
        check_fixture("rep002_rng.py", "REP002")

    def test_rep003_swallowed_exception(self):
        check_fixture("rep003_except.py", "REP003")

    def test_rep004_trace_payload(self):
        check_fixture("rep004_payload.py", "REP004")

    def test_rep005_unordered_iteration(self):
        check_fixture("rep005_iteration.py", "REP005")

    def test_rep005_severities(self):
        findings = [f for f in fixture_findings("rep005_iteration.py")
                    if f.rule == "REP005"]
        by_kind = {f.severity for f in findings}
        # effectful loops are errors; materialization/tie-break are warnings
        assert Severity.ERROR in by_kind and Severity.WARNING in by_kind

    def test_rep006_mutable_defaults(self):
        check_fixture("rep006_defaults.py", "REP006")

    def test_rep007_delays(self):
        check_fixture("rep007_delay.py", "REP007")

    def test_rep011_lost_generator(self):
        check_fixture("rep011_generator.py", "REP011")

    def test_rep013_trace_context_loss(self):
        check_fixture("rep013_ctx.py", "REP013")

    def test_rep013_only_in_sim_scope(self):
        src = ("def f(env, ctx):\n"
               "    return Message('x', 1, 2)\n")
        assert lint_source(src, "src/repro/analysis/report.py").findings == []
        assert [f.rule for f in
                lint_source(src, "src/repro/press/server.py").findings] == \
            ["REP013"]

    def test_rep007_negative_is_error_zero_is_warning(self):
        findings = [f for f in fixture_findings("rep007_delay.py")
                    if f.rule == "REP007"]
        negatives = [f for f in findings if "negative" in f.message]
        zeros = [f for f in findings if "zero" in f.message]
        assert all(f.severity is Severity.ERROR for f in negatives)
        assert all(f.severity is Severity.WARNING for f in zeros)
        assert negatives and zeros


class TestSuppression:
    def test_disable_comment_suppresses(self):
        result = lint_file(str(FIXTURES / "suppressed.py"), is_sim=True)
        # only the deliberately unsuppressed REP006 remains
        assert [f.rule for f in result.findings] == ["REP006"]
        assert result.suppressed == 3

    def test_disable_is_rule_specific(self):
        src = "def f(xs=[]):  # reprolint: disable=REP001\n    return xs\n"
        result = lint_source(src, "x.py")
        assert [f.rule for f in result.findings] == ["REP006"]


class TestScopeAndAllowlist:
    def test_sim_only_rules_skip_analysis_code(self):
        src = "import time\n\n\ndef f():\n    return time.time()\n"
        assert lint_source(src, "src/repro/analysis/lint.py").findings == []
        assert [f.rule for f in
                lint_source(src, "src/repro/press/cache.py").findings] == \
            ["REP001"]

    def test_rng_factory_is_allowlisted(self):
        src = ("import numpy as np\n\n\n"
               "def stream(seed):\n    return np.random.default_rng(seed)\n")
        assert lint_source(src, "src/repro/sim/rng.py").findings == []
        flagged = lint_source(src, "src/repro/sim/kernel.py").findings
        assert [f.rule for f in flagged] == ["REP002"]

    def test_request_stats_is_not_allowlisted(self):
        src = ("import numpy as np\n\n\n"
               "def stream(seed):\n    return np.random.default_rng(seed)\n")
        flagged = lint_source(src, "src/repro/workload/stats.py").findings
        assert [f.rule for f in flagged] == ["REP002"]

    def test_workload_seed_plumbing_allowlisted(self):
        for sfx in RULES["REP002"].allowlist:
            assert path_is_sim_scope(f"src/repro/{sfx}") or sfx == "sim/rng.py"

    @pytest.mark.parametrize("pkg", ["core", "obs", "parallel"])
    def test_wallclock_flagged_in_the_sim_called_packages(self, pkg):
        src = "import time\n\n\ndef f():\n    return time.perf_counter()\n"
        assert [f.rule for f in
                lint_source(src, f"src/repro/{pkg}/x.py").findings] == \
            ["REP001"]
        assert lint_source(src, "src/repro/obs/kernelprof.py").findings == []

    def test_parallel_executor_allowlisted_for_wallclock(self):
        # the executor's perf_counter reads time real worker processes
        # (speedup accounting); parallel/ is sim scope, so only the
        # allowlist keeps REP001 from flagging them
        for sfx in ("parallel/executor.py", "parallel/worker.py"):
            assert sfx in RULES["REP001"].allowlist
        src = "import time\n\n\ndef f():\n    return time.perf_counter()\n"
        assert lint_source(src, "src/repro/parallel/executor.py").findings == []

    def test_path_classification(self):
        assert path_is_sim_scope("src/repro/press/server.py")
        assert path_is_sim_scope("src/repro/ha/membership.py")
        assert not path_is_sim_scope("src/repro/analysis/lint.py")
        assert path_is_sim_scope("src/repro/core/model.py")
        assert not path_is_sim_scope("src/repro/cli.py")


class TestEngine:
    def test_scoped_set_names_do_not_leak_across_functions(self):
        src = (
            "def a(view):\n"
            "    members = set(view)\n"
            "    for m in members:\n"
            "        view.send(m)\n"
            "\n"
            "def b(payload, links):\n"
            "    members = [m for m in payload]\n"
            "    for m in members:\n"
            "        links.send(m)\n"
        )
        result = lint_source(src, "src/repro/ha/x.py")
        assert [f.line for f in result.findings] == [3]

    def test_nested_def_does_not_leak_set_names_into_its_parent(self):
        src = (
            "def outer(view, links):\n"
            "    def helper():\n"
            "        members = set(view)\n"
            "        return members\n"
            "    members = list(view)\n"
            "    for m in members:\n"
            "        links.send(m)\n"
            "    return helper\n"
        )
        assert lint_source(src, "src/repro/ha/x.py").findings == []

    def test_self_attr_set_tracking(self):
        src = (
            "from typing import Set\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.coop: Set[int] = {1}\n"
            "    def f(self, net):\n"
            "        for p in self.coop:\n"
            "            net.send(p)\n"
        )
        result = lint_source(src, "src/repro/press/x.py")
        assert [f.rule for f in result.findings] == ["REP005"]

    def test_lint_paths_walks_directories(self):
        result = lint_paths([str(FIXTURES)])
        assert result.files_scanned >= 8
        # fixtures outside forced-sim mode: sim_only rules drop out, but
        # repo-wide ones (REP003/4/6) still fire
        rules_seen = {f.rule for f in result.findings}
        assert "REP006" in rules_seen

    def test_repo_tree_is_clean(self):
        repo_src = Path(__file__).resolve().parents[2] / "src" / "repro"
        result = lint_paths([str(repo_src)])
        assert result.errors == [], "\n".join(map(str, result.errors))
        assert result.warnings == [], "\n".join(map(str, result.warnings))

    def test_finding_str_and_dict(self):
        f = Finding(rule="REP001", severity=Severity.ERROR, path="a.py",
                    line=3, col=4, message="m")
        assert "a.py:3:4" in str(f) and "REP001" in str(f)
        assert f.to_dict()["severity"] == "error"

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", "x.py")
