"""Behavioral tests for ``repro reproduce-all``.

The expensive artifacts (bench documents, full figure set) run in the
CI ``reproduce`` job; here the runner's contracts are proven on cheap
registry entries (``table1`` regenerates in well under a second) and on
synthetic artifacts injected through the runner's selection seam.
"""

from __future__ import annotations

import json

import pytest

import repro.artifacts.runner as runner_mod
from repro.artifacts import (
    REGISTRY,
    Artifact,
    compare_deterministic,
    read_manifest,
    reproduce_all,
    select,
)
from repro.artifacts.registry import (
    ReproduceContext,
    ReproduceError,
    _check_availability,
    _check_parallel,
)


class TestSelection:
    def test_default_selects_whole_registry(self):
        assert [a.name for a in select(None)] == list(REGISTRY)

    def test_glob_filtering(self):
        names = [a.name for a in select("fig*")]
        assert names == ["fig1a", "fig1b", "fig2", "fig4", "fig6",
                         "fig7", "fig8", "fig9", "fig10"]
        assert [a.name for a in select("bench-*")] == \
            ["bench-availability", "bench-parallel"]

    def test_no_match_is_an_error_naming_the_registry(self, tmp_path):
        with pytest.raises(ValueError, match="table1"):
            reproduce_all(only="no-such-artifact",
                          out_dir=tmp_path, manifest_path=tmp_path / "m.json")

    def test_bad_jobs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            reproduce_all(only="table1", jobs=0, out_dir=tmp_path,
                          manifest_path=tmp_path / "m.json")


class TestTable1EndToEnd:
    """The cheapest real registry entry, regenerated twice."""

    def _run(self, tmp_path, tag):
        out = tmp_path / tag
        return reproduce_all(only="table1", quick=True, out_dir=out,
                             manifest_path=out / "MANIFEST.json")

    def test_two_runs_are_byte_identical(self, tmp_path):
        first = self._run(tmp_path, "run1")
        second = self._run(tmp_path, "run2")
        assert first.ok and second.ok
        rec = first.artifacts["table1"]
        assert rec.status == "ok"
        assert set(rec.outputs) == {"figures/table1.txt",
                                    "figures/table1.csv"}
        # the digest-backed contract: same tree, same bytes
        assert compare_deterministic(first, second) == []
        assert rec.outputs == second.artifacts["table1"].outputs

    def test_manifest_written_with_provenance(self, tmp_path):
        manifest = self._run(tmp_path, "run")
        back = read_manifest(tmp_path / "run" / "MANIFEST.json")
        assert back.summary()["ok"] is True
        for key in ("git_sha", "git_dirty", "host", "python", "cpu_count",
                    "timestamp"):
            assert key in back.provenance, key
        assert back.mode == "quick"
        assert back.artifacts["table1"].wall_seconds >= 0.0
        assert back.to_dict()["summary"] == manifest.summary()


def _synthetic(name, generate, check=None, baseline=None,
               outputs=("out.json",)):
    return Artifact(name=name, description=f"synthetic {name}",
                    kind="report", generate=generate, outputs=outputs,
                    deterministic=True, baseline=baseline, check=check)


class TestRunnerContracts:
    """Synthetic artifacts through the real runner."""

    def _patch_registry(self, monkeypatch, artifacts):
        monkeypatch.setattr(runner_mod, "select",
                            lambda only=None: list(artifacts))

    def test_check_detects_mutated_baseline(self, tmp_path, monkeypatch):
        """The ISSUE's drift scenario: the committed baseline moved."""
        baseline_root = tmp_path / "tree"
        (baseline_root / "benchmarks").mkdir(parents=True)
        (baseline_root / "benchmarks" / "BENCH_fake.json").write_text(
            json.dumps({"value": 1.0}))

        def generate(ctx):
            (ctx.out_dir / "out.json").write_text(json.dumps({"value": 1.0}))
            return {}

        def check(ctx, artifact):
            current = json.loads((ctx.out_dir / "out.json").read_text())
            base = json.loads(ctx.baseline_path(artifact.baseline)
                              .read_text())
            if current["value"] != base["value"]:
                return [f"value {current['value']} != {base['value']}"]
            return []

        art = _synthetic("fake", generate, check=check,
                         baseline="benchmarks/BENCH_fake.json")
        self._patch_registry(monkeypatch, [art])

        clean = reproduce_all(check=True, out_dir=tmp_path / "o1",
                              manifest_path=tmp_path / "m1.json",
                              baseline_root=baseline_root)
        assert clean.ok and clean.artifacts["fake"].drift == []

        # mutate the committed baseline: now the same regeneration drifts
        (baseline_root / "benchmarks" / "BENCH_fake.json").write_text(
            json.dumps({"value": 2.0}))
        drifted = reproduce_all(check=True, out_dir=tmp_path / "o2",
                                manifest_path=tmp_path / "m2.json",
                                baseline_root=baseline_root)
        assert not drifted.ok
        assert drifted.drifted == ["fake"]
        assert "2.0" in drifted.artifacts["fake"].drift[0]

    def test_missing_baseline_is_drift(self, tmp_path, monkeypatch):
        def generate(ctx):
            (ctx.out_dir / "out.json").write_text("{}")
            return {}

        art = _synthetic("fake", generate, check=lambda c, a: [],
                         baseline="benchmarks/NOPE.json")
        self._patch_registry(monkeypatch, [art])
        manifest = reproduce_all(check=True, out_dir=tmp_path / "o",
                                 manifest_path=tmp_path / "m.json",
                                 baseline_root=tmp_path)
        assert not manifest.ok
        assert "missing" in manifest.artifacts["fake"].drift[0]

    def test_unchecked_run_records_no_drift(self, tmp_path, monkeypatch):
        def generate(ctx):
            (ctx.out_dir / "out.json").write_text("{}")
            return {}

        art = _synthetic("fake", generate, check=lambda c, a: ["boom"],
                         baseline="benchmarks/NOPE.json")
        self._patch_registry(monkeypatch, [art])
        manifest = reproduce_all(check=False, out_dir=tmp_path / "o",
                                 manifest_path=tmp_path / "m.json")
        assert manifest.ok
        assert manifest.artifacts["fake"].drift is None
        assert manifest.checked is False

    def test_failing_artifact_does_not_abort_the_sweep(self, tmp_path,
                                                       monkeypatch):
        def bad(ctx):
            raise ReproduceError("deliberate")

        def good(ctx):
            (ctx.out_dir / "ok.json").write_text("{}")
            return {}

        self._patch_registry(monkeypatch, [
            _synthetic("bad", bad),
            _synthetic("good", good, outputs=("ok.json",)),
        ])
        manifest = reproduce_all(out_dir=tmp_path / "o",
                                 manifest_path=tmp_path / "m.json")
        assert manifest.failed == ["bad"]
        assert manifest.artifacts["bad"].error == "deliberate"
        assert manifest.artifacts["good"].status == "ok"
        assert not manifest.ok

    def test_undeclared_output_fails_the_artifact(self, tmp_path,
                                                  monkeypatch):
        self._patch_registry(monkeypatch,
                             [_synthetic("ghost", lambda ctx: {})])
        manifest = reproduce_all(out_dir=tmp_path / "o",
                                 manifest_path=tmp_path / "m.json")
        assert manifest.failed == ["ghost"]
        assert "not written" in manifest.artifacts["ghost"].error


class TestAvailabilityComparator:
    """The real bench-availability drift rule on a mutated baseline."""

    def _doc(self, u_indep=0.05, at_indep=100.0):
        return {"profile": "SMALL", "seed": 0,
                "kinds": ["node_crash", "app_crash"],
                "versions": {
                    "INDEP": {"AA": 1 - u_indep, "AT": at_indep,
                              "unavailability": u_indep},
                    "COOP": {"AA": 0.8, "AT": 200.0,
                             "unavailability": 0.2},
                }}

    def _ctx(self, tmp_path, current, baseline):
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        (out / "BENCH_availability.json").write_text(json.dumps(current))
        tree = tmp_path / "tree"
        (tree / "benchmarks").mkdir(parents=True, exist_ok=True)
        (tree / "benchmarks" / "BENCH_availability.json").write_text(
            json.dumps(baseline))
        return ReproduceContext(out_dir=out, baseline_root=tree)

    def _artifact(self):
        return REGISTRY["bench-availability"]

    def test_identical_matrix_is_clean(self, tmp_path):
        ctx = self._ctx(tmp_path, self._doc(), self._doc())
        assert _check_availability(ctx, self._artifact()) == []

    def test_unavailability_drift_detected(self, tmp_path):
        ctx = self._ctx(tmp_path, self._doc(u_indep=0.10),
                        self._doc(u_indep=0.05))  # 100% > the 35% gate
        drift = _check_availability(ctx, self._artifact())
        assert any("unavailability" in m and "INDEP" in m for m in drift)

    def test_throughput_drift_detected(self, tmp_path):
        ctx = self._ctx(tmp_path, self._doc(at_indep=150.0),
                        self._doc(at_indep=100.0))  # 50% > the 10% gate
        drift = _check_availability(ctx, self._artifact())
        assert any("throughput" in m for m in drift)

    def test_missing_version_detected(self, tmp_path):
        current = self._doc()
        del current["versions"]["COOP"]
        drift = _check_availability(
            self._ctx(tmp_path, current, self._doc()), self._artifact())
        assert any("COOP" in m for m in drift)

    def test_swapped_versions_break_the_figure_1a_ordering(self, tmp_path):
        swapped = self._doc()
        rows = swapped["versions"]
        rows["COOP"], rows["INDEP"] = rows["INDEP"], rows["COOP"]
        # the same swapped matrix on both sides: no tolerance drift, so
        # only the ordering rule can fail it
        drift = _check_availability(self._ctx(tmp_path, swapped, swapped),
                                    self._artifact())
        assert len(drift) == 2
        assert all("Figure 1a ordering" in m for m in drift)
        assert any("throughput" in m for m in drift)
        assert any("unavailability" in m for m in drift)

    def test_changed_fault_kinds_detected(self, tmp_path):
        current = self._doc()
        current["kinds"] = ["node_crash"]
        drift = _check_availability(
            self._ctx(tmp_path, current, self._doc()), self._artifact())
        assert any(m.startswith("kinds changed") for m in drift)


class TestParallelDriftCheck:
    """``_check_parallel`` on synthetic documents."""

    DIGEST = "b14f8af603bfdd4cf6260b4ae96e1f24355acae4d80a8ebac42afeac11d19827"

    def _doc(self, digest=DIGEST):
        return {"version": "INDEP", "profile": "small", "jobs": 4, "cores": 1,
                "speedup": 0.7, "availability": 0.999, "digests_equal": True,
                "serial_digest": digest, "parallel_digest": digest}

    def _ctx(self, tmp_path, current, baseline):
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        (out / "BENCH_parallel.json").write_text(json.dumps(current))
        tree = tmp_path / "tree"
        (tree / "benchmarks").mkdir(parents=True, exist_ok=True)
        (tree / "benchmarks" / "BENCH_parallel.json").write_text(json.dumps(baseline))
        return ReproduceContext(out_dir=out, baseline_root=tree)

    def test_identical_document_is_clean(self, tmp_path):
        ctx = self._ctx(tmp_path, self._doc(), self._doc())
        assert _check_parallel(ctx, REGISTRY["bench-parallel"]) == []

    def test_one_changed_digest_character_fails(self, tmp_path):
        moved = self.DIGEST[:-1] + ("0" if self.DIGEST[-1] != "0" else "1")
        ctx = self._ctx(tmp_path, self._doc(), self._doc(digest=moved))
        drift = _check_parallel(ctx, REGISTRY["bench-parallel"])
        assert len(drift) == 1 and "serial_digest" in drift[0]
