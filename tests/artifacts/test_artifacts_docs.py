"""ARTIFACTS.md must document every registry entry (and vice versa)."""

from __future__ import annotations

import re
from pathlib import Path

from repro.artifacts import REGISTRY

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
ARTIFACTS_MD = REPO_ROOT / "ARTIFACTS.md"


def _documented_names():
    text = ARTIFACTS_MD.read_text(encoding="utf-8")
    return set(re.findall(r"^### `([\w-]+)`$", text, flags=re.MULTILINE))


def test_every_registry_entry_is_documented():
    missing = set(REGISTRY) - _documented_names()
    assert not missing, (
        f"registry entries without an ARTIFACTS.md section: "
        f"{sorted(missing)} — add a '### `<name>`' section")


def test_no_phantom_documentation():
    phantom = _documented_names() - set(REGISTRY)
    assert not phantom, (
        f"ARTIFACTS.md documents unregistered artifacts: {sorted(phantom)}")


def test_registry_invariants():
    for name, artifact in REGISTRY.items():
        assert artifact.name == name
        assert artifact.kind in ("figure", "bench", "report"), name
        assert artifact.outputs, f"{name} declares no outputs"
        assert artifact.description, name
        # a baseline without a comparator is half a gate
        assert artifact.baseline is None or artifact.check is not None, name
        # every paper figure and table is judged by its claims
        assert artifact.kind != "figure" or artifact.check is not None, name


def test_output_paths_do_not_collide():
    seen = {}
    for name, artifact in REGISTRY.items():
        for out in artifact.outputs:
            assert out not in seen, (
                f"{name} and {seen[out]} both declare output {out}")
            seen[out] = name
