"""The ``repro lint`` command line: ``--out``, ``--diff`` mode (with the
git call monkeypatched), and no whole-program flags."""

import json
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).parent.parent.parent / "src" / "repro")
BAD = str(FIXTURES / "rep006_defaults.py")


@pytest.fixture
def clean(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text("def f(xs=None):\n    return xs or []\n")
    return str(path)


def test_out_creates_parent_directories(tmp_path, capsys):
    out = tmp_path / "deep" / "dir" / "lint.json"
    assert main(["lint", BAD, "--format", "json", "--out", str(out)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["ok"] and doc["counts"] == {"REP006": 4}
    # the file holds the same report the command printed
    assert json.loads(out.read_text())["findings"] == doc["findings"]


class TestDiffMode:
    def test_diff_restricts_reported_findings(self, monkeypatch, capsys, clean):
        # only the clean file "changed": the REP006 in the other file
        # must not be reported
        monkeypatch.setattr(cli, "_git_changed_files", lambda ref: [clean])
        assert main(["lint", BAD, clean, "--diff", "HEAD"]) == 0
        assert "REP006" not in capsys.readouterr().out

    def test_diff_keeps_findings_in_changed_files(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_git_changed_files", lambda ref: [BAD])
        assert main(["lint", BAD, "--diff", "HEAD"]) == 1
        assert "REP006" in capsys.readouterr().out

    def test_diff_ignores_changes_outside_targets(self, monkeypatch, clean):
        monkeypatch.setattr(
            cli, "_git_changed_files",
            lambda ref: [clean, "somewhere/else/module.py"])
        assert main(["lint", clean, "--diff", "HEAD"]) == 0

    def test_diff_failure_is_a_clean_exit(self, monkeypatch):
        def boom(ref):
            raise SystemExit("error: git diff no-such-ref failed")
        monkeypatch.setattr(cli, "_git_changed_files", boom)
        with pytest.raises(SystemExit, match="git diff"):
            main(["lint", SRC, "--diff", "no-such-ref"])


@pytest.mark.parametrize("flag", ["--flow", "--callgraph-out"])
def test_whole_program_flags_are_gone(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lint", SRC, flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
