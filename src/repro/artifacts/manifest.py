"""The artifact manifest: SHA-256 digests + provenance for every output.

``repro reproduce-all`` regenerates the registry (:mod:`.registry`) and
summarizes the run as ``results/MANIFEST.json`` — one record per
artifact carrying

* the SHA-256 and byte size of every file the artifact wrote,
* its wall-clock generation time,
* whether the artifact is *digest-backed* (``deterministic: true`` —
  two runs on the same tree must produce byte-identical outputs) or
  host-dependent (bench wall times, speedups),
* the committed baseline it is checked against under ``--check`` and
  the drift messages, if any,

plus run-level provenance (git SHA + dirty flag, host fingerprint,
python/cpu, timestamp — the same stamp ``perfbench`` records carry,
from :func:`repro.obs.perf.provenance`).

The manifest is the machine-readable pass/fail summary of the whole
artifact set: ``summary.ok`` is the one bit CI gates on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Tuple, Union

#: version of the MANIFEST.json document layout
MANIFEST_SCHEMA = 1

#: where ``repro reproduce-all`` writes the manifest by default
DEFAULT_MANIFEST = "results/MANIFEST.json"


def sha256_file(path: Union[str, Path]) -> Tuple[str, int]:
    """(hex digest, byte size) of one file, streamed."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(65536), b""):
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


@dataclass
class ArtifactRecord:
    """What happened to one registered artifact in one run."""

    name: str
    description: str
    kind: str                       # figure | bench | report
    deterministic: bool             # digest-backed vs host-dependent
    status: str = "skipped"         # ok | failed | skipped
    paper_ref: Optional[str] = None
    baseline: Optional[str] = None  # committed document --check diffs against
    wall_seconds: float = 0.0
    #: repo-relative output path -> {"sha256": ..., "bytes": ...}
    outputs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: generator-specific extras (scenario list, finding counts, ...)
    details: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    #: None = not checked; [] = checked, no drift; else drift messages
    drift: Optional[List[str]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok" and not self.drift

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "kind": self.kind,
            "deterministic": self.deterministic,
            "status": self.status,
            "paper_ref": self.paper_ref,
            "baseline": self.baseline,
            "wall_seconds": self.wall_seconds,
            "outputs": self.outputs,
            "details": self.details,
            "error": self.error,
            "drift": self.drift,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ArtifactRecord":
        return cls(
            name=doc["name"],
            description=doc.get("description", ""),
            kind=doc.get("kind", "report"),
            deterministic=bool(doc.get("deterministic", False)),
            status=doc.get("status", "skipped"),
            paper_ref=doc.get("paper_ref"),
            baseline=doc.get("baseline"),
            wall_seconds=float(doc.get("wall_seconds", 0.0)),
            outputs=dict(doc.get("outputs", {})),
            details=dict(doc.get("details", {})),
            error=doc.get("error"),
            drift=list(doc["drift"]) if doc.get("drift") is not None else None,
        )


@dataclass
class Manifest:
    """One full ``reproduce-all`` run."""

    provenance: Dict[str, Any]
    mode: str                       # "quick" | "full"
    jobs: int = 1
    only: Optional[str] = None      # the --only glob, when given
    checked: bool = False           # did this run diff against baselines?
    out_dir: str = "results/reproduce"  # where output paths are rooted
    artifacts: Dict[str, ArtifactRecord] = field(default_factory=dict)

    @property
    def failed(self) -> List[str]:
        return sorted(n for n, a in self.artifacts.items()
                      if a.status == "failed")

    @property
    def drifted(self) -> List[str]:
        return sorted(n for n, a in self.artifacts.items() if a.drift)

    @property
    def ok(self) -> bool:
        """No artifact failed to regenerate and none drifted from its
        committed baseline (when checked)."""
        return not self.failed and not self.drifted

    def summary(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "total": len(self.artifacts),
            "generated": sum(1 for a in self.artifacts.values()
                             if a.status == "ok"),
            "failed": self.failed,
            "drifted": self.drifted,
            "checked": self.checked,
            "wall_seconds": round(sum(a.wall_seconds
                                      for a in self.artifacts.values()), 3),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "provenance": self.provenance,
            "mode": self.mode,
            "jobs": self.jobs,
            "only": self.only,
            "out_dir": self.out_dir,
            "summary": self.summary(),
            "artifacts": {name: a.to_dict()
                          for name, a in sorted(self.artifacts.items())},
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Manifest":
        schema = doc.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise ValueError(f"unsupported manifest schema {schema!r} "
                             f"(this build reads schema {MANIFEST_SCHEMA})")
        return cls(
            provenance=dict(doc.get("provenance", {})),
            mode=doc.get("mode", "quick"),
            jobs=int(doc.get("jobs", 1)),
            only=doc.get("only"),
            checked=bool(doc.get("summary", {}).get("checked", False)),
            out_dir=doc.get("out_dir", "results/reproduce"),
            artifacts={name: ArtifactRecord.from_dict(a)
                       for name, a in doc.get("artifacts", {}).items()},
        )


def write_manifest(manifest: Manifest,
                   path: Union[str, Path] = DEFAULT_MANIFEST) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fp:
        json.dump(manifest.to_dict(), fp, indent=2, sort_keys=True)
        fp.write("\n")
    return p


def read_manifest(path: Union[str, Path]) -> Manifest:
    with open(path, "r", encoding="utf-8") as fp:
        return Manifest.from_dict(json.load(fp))


def compare_deterministic(a: Manifest, b: Manifest) -> List[str]:
    """Digest drift between two runs on the same tree.

    Only digest-backed artifacts participate — host-dependent outputs
    (bench wall times) legitimately differ run to run.  Returns drift
    messages; empty means every shared deterministic artifact is
    byte-identical.
    """
    messages: List[str] = []
    for name in sorted(set(a.artifacts) & set(b.artifacts)):
        ra, rb = a.artifacts[name], b.artifacts[name]
        if not (ra.deterministic and rb.deterministic):
            continue
        if ra.status != "ok" or rb.status != "ok":
            continue
        paths = set(ra.outputs) | set(rb.outputs)
        for path in sorted(paths):
            da = ra.outputs.get(path, {}).get("sha256")
            db = rb.outputs.get(path, {}).get("sha256")
            if da != db:
                messages.append(
                    f"{name}: {path} digest {da or 'missing'} != "
                    f"{db or 'missing'}")
    return messages


def format_manifest(manifest: Manifest, fp: Optional[IO[str]] = None) -> str:
    """Human-readable run summary (the text twin of MANIFEST.json)."""
    prov = manifest.provenance
    dirty = "+dirty" if prov.get("git_dirty") else ""
    lines = [
        f"reproduce-all [{manifest.mode}] @ "
        f"{str(prov.get('git_sha', 'unknown'))[:12]}{dirty} on "
        f"{prov.get('host', '?')} ({prov.get('cpu_count', '?')} cores, "
        f"py{prov.get('python', '?')}, jobs={manifest.jobs})",
    ]
    if manifest.only:
        lines.append(f"selection: --only {manifest.only!r}")
    lines.append("")
    width = max((len(n) for n in manifest.artifacts), default=4)
    for name, rec in sorted(manifest.artifacts.items()):
        mark = {"ok": "ok ", "failed": "FAIL", "skipped": "skip"}[rec.status]
        if rec.drift:
            mark = "DRIFT"
        det = "digest" if rec.deterministic else "perf  "
        lines.append(f"  {mark:<5} {name:<{width}} [{det}] "
                     f"{rec.wall_seconds:7.1f}s  "
                     f"{len(rec.outputs)} file(s)")
        if rec.error:
            lines.append(f"        {rec.error}")
        for msg in rec.drift or []:
            lines.append(f"        drift: {msg}")
    summary = manifest.summary()
    lines.append("")
    verdict = "PASSED" if summary["ok"] else "FAILED"
    checked = " (checked against committed baselines)" if manifest.checked \
        else ""
    lines.append(f"{summary['generated']}/{summary['total']} artifacts in "
                 f"{summary['wall_seconds']:.1f}s — {verdict}{checked}")
    text = "\n".join(lines)
    if fp is not None:
        fp.write(text + "\n")
    return text
