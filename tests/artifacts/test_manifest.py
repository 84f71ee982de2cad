"""Manifest summary and digest-comparison semantics."""

from __future__ import annotations

from repro.artifacts.manifest import (
    ArtifactRecord,
    Manifest,
    compare_deterministic,
    format_manifest,
    sha256_file,
)


def _record(name="table1", *, deterministic=True, status="ok",
            digest="a" * 64):
    rec = ArtifactRecord(name=name, description="d", kind="figure",
                         deterministic=deterministic, status=status)
    rec.outputs[f"figures/{name}.txt"] = {"sha256": digest, "bytes": 10}
    return rec


def _manifest(**records):
    m = Manifest(provenance={"git_sha": "deadbeef", "host": "t"},
                 mode="quick")
    for name, rec in records.items():
        m.artifacts[name] = rec
    return m


class TestRoundTrip:
    def test_summary_flags_failures_and_drift(self):
        ok = _record("a")
        failed = _record("b", status="failed")
        drifted = _record("c")
        drifted.drift = ["drifted"]
        m = _manifest(a=ok, b=failed, c=drifted)
        summary = m.summary()
        assert summary["ok"] is False
        assert summary["failed"] == ["b"]
        assert summary["drifted"] == ["c"]
        assert summary["generated"] == 2  # a and c regenerated fine

    def test_ok_manifest(self):
        m = _manifest(a=_record("a"))
        assert m.ok and m.summary()["ok"]


class TestCompareDeterministic:
    def test_identical_digests_clean(self):
        assert compare_deterministic(_manifest(a=_record("a")),
                                     _manifest(a=_record("a"))) == []

    def test_digest_change_reported(self):
        drift = compare_deterministic(
            _manifest(a=_record("a", digest="a" * 64)),
            _manifest(a=_record("a", digest="b" * 64)))
        assert len(drift) == 1 and "a" in drift[0]

    def test_host_dependent_artifacts_exempt(self):
        drift = compare_deterministic(
            _manifest(a=_record("a", deterministic=False, digest="a" * 64)),
            _manifest(a=_record("a", deterministic=False, digest="b" * 64)))
        assert drift == []

    def test_failed_artifacts_exempt(self):
        drift = compare_deterministic(
            _manifest(a=_record("a", status="failed", digest="a" * 64)),
            _manifest(a=_record("a", digest="b" * 64)))
        assert drift == []


def test_sha256_file(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"hello")
    digest, size = sha256_file(p)
    assert size == 5
    assert digest == ("2cf24dba5fb0a30e26e83b2ac5b9e29e"
                      "1b161e5c1fa7425e73043362938b9824")


def test_format_manifest_verdicts():
    m = _manifest(a=_record("a"))
    assert "PASSED" in format_manifest(m)
    m.artifacts["a"].drift = ["baseline moved"]
    text = format_manifest(m)
    assert "FAILED" in text and "baseline moved" in text
