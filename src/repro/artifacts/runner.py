"""``repro reproduce-all``: run the registry, stamp the manifest.

One command regenerates every artifact the repository ships and proves
the whole result set still falls out of the code:

* every selected :class:`~repro.artifacts.registry.Artifact` is
  regenerated into ``results/reproduce/`` (``--only GLOB`` narrows the
  selection, ``--jobs N`` fans campaign cells over the parallel
  executor, ``--quick`` shortens experiment windows);
* every output file is SHA-256 digested into ``results/MANIFEST.json``
  together with run provenance (git SHA + dirty flag, host fingerprint,
  python/cpu) and per-artifact wall time;
* with ``check=True`` every artifact with a ``check`` is judged: each
  paper figure and table by the paper's claims on its rows, each bench
  document against its committed baseline (value-exact for
  digest-backed outputs, tolerance-gated for host-dependent speed
  numbers); any drift fails the run.

A failing artifact never aborts the sweep: the remaining artifacts
still regenerate, and the manifest names every failure.
"""

from __future__ import annotations

import time
import traceback
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.artifacts.manifest import (
    DEFAULT_MANIFEST,
    ArtifactRecord,
    Manifest,
    write_manifest,
)
from repro.artifacts.registry import (
    REGISTRY,
    Artifact,
    ReproduceContext,
    ReproduceError,
    select,
)
from repro.obs.perf import provenance

#: default directory regenerated artifacts land in (never the committed
#: baselines — those only change by explicit copy)
DEFAULT_OUT_DIR = "results/reproduce"

ProgressFn = Callable[[str], None]


def _record_for(artifact: Artifact) -> ArtifactRecord:
    return ArtifactRecord(
        name=artifact.name,
        description=artifact.description,
        kind=artifact.kind,
        deterministic=artifact.deterministic,
        paper_ref=artifact.paper_ref,
        baseline=artifact.baseline,
    )


def _digest_outputs(artifact: Artifact, ctx: ReproduceContext,
                    record: ArtifactRecord) -> List[str]:
    """SHA-256 every declared output into the record; returns the
    declared paths that were never written."""
    from repro.artifacts.manifest import sha256_file

    missing: List[str] = []
    for rel in artifact.outputs:
        path = ctx.out_dir / rel
        if not path.exists():
            missing.append(rel)
            continue
        digest, size = sha256_file(path)
        # keyed by out_dir-relative path so manifests from different
        # output directories (or hosts) stay digest-comparable
        record.outputs[rel] = {"sha256": digest, "bytes": size}
    return missing


def reproduce_all(only: Optional[str] = None,
                  quick: bool = True,
                  jobs: int = 1,
                  check: bool = False,
                  out_dir: Union[str, Path] = DEFAULT_OUT_DIR,
                  manifest_path: Union[str, Path] = DEFAULT_MANIFEST,
                  baseline_root: Union[str, Path] = ".",
                  progress: Optional[ProgressFn] = None) -> Manifest:
    """Regenerate the (selected) registry and write the manifest.

    Returns the :class:`Manifest`; ``manifest.ok`` is False when any
    artifact failed to regenerate or (under ``check``) drifted from its
    committed baseline.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    artifacts = select(only)
    if not artifacts:
        raise ValueError(
            f"--only {only!r} matches no registered artifact "
            f"(have: {', '.join(REGISTRY)})")
    ctx = ReproduceContext(quick=quick, jobs=jobs, out_dir=Path(out_dir),
                           baseline_root=Path(baseline_root),
                           progress=progress)
    ctx.out_dir.mkdir(parents=True, exist_ok=True)

    manifest = Manifest(provenance=provenance(),
                        mode="quick" if quick else "full",
                        jobs=jobs, only=only, checked=check,
                        out_dir=str(out_dir))
    for i, artifact in enumerate(artifacts, 1):
        record = _record_for(artifact)
        manifest.artifacts[artifact.name] = record
        ctx.say(f"[{i}/{len(artifacts)}] {artifact.name}: "
                f"{artifact.description}")
        t0 = time.perf_counter()
        try:
            record.details = artifact.generate(ctx) or {}
            missing = _digest_outputs(artifact, ctx, record)
            if missing:
                raise ReproduceError(
                    f"declared output(s) not written: {', '.join(missing)}")
            record.status = "ok"
        except ReproduceError as exc:
            record.status = "failed"
            record.error = str(exc)
        except Exception as exc:
            # a crashing generator is reported in the manifest (with the
            # failure line), not allowed to kill the rest of the sweep
            record.status = "failed"
            record.error = f"{type(exc).__name__}: {exc} " \
                           f"({traceback.format_exc(limit=1).splitlines()[-1].strip()})"
        record.wall_seconds = round(time.perf_counter() - t0, 3)

        if check and record.status == "ok" and artifact.check is not None:
            if artifact.baseline is not None and \
                    not ctx.baseline_path(artifact.baseline).exists():
                record.drift = [f"committed baseline {artifact.baseline} "
                                f"is missing"]
            else:
                try:
                    record.drift = artifact.check(ctx, artifact)
                except Exception as exc:
                    record.drift = [f"check crashed: "
                                    f"{type(exc).__name__}: {exc}"]
            if record.drift:
                ctx.say(f"  DRIFT: {'; '.join(record.drift)}")
        if record.status == "failed":
            ctx.say(f"  FAILED: {record.error}")

    write_manifest(manifest, manifest_path)
    return manifest
