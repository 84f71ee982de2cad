"""Provenance stamps (repro.obs.perf), as MANIFEST.json and perfbench
records carry them."""

import shutil
import subprocess
from pathlib import Path

import pytest

import repro
from repro.obs.perf import provenance


def _git(cwd, *args):
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True, check=False)


class TestProvenance:
    def test_fields(self):
        prov = provenance()
        assert set(prov) == {"git_sha", "git_dirty", "host",
                             "host_fingerprint", "machine", "cpu_count",
                             "python", "timestamp"}
        assert len(prov["host_fingerprint"]) == 12
        int(prov["host_fingerprint"], 16)
        assert prov["cpu_count"] >= 1
        assert isinstance(prov["timestamp"], float)

    def test_fingerprint_stable_within_host(self):
        assert provenance()["host_fingerprint"] == \
            provenance()["host_fingerprint"]

    def test_stamps_the_source_checkout_not_the_cwd(self, tmp_path, monkeypatch):
        source = Path(repro.__file__).resolve().parent
        head = _git(source, "rev-parse", "HEAD") if shutil.which("git") else None
        if head is None or head.returncode != 0:
            pytest.skip("the repro sources are not a git checkout")
        # a foreign repository with a commit of its own, as the cwd
        assert _git(tmp_path, "init", "-q").returncode == 0
        assert _git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", "commit", "-q",
                    "--allow-empty", "-m", "foreign").returncode == 0
        foreign = _git(tmp_path, "rev-parse", "HEAD").stdout.strip()
        monkeypatch.chdir(tmp_path)
        prov = provenance()
        assert prov["git_sha"] == head.stdout.strip() != foreign
        assert prov["git_dirty"] is not None
