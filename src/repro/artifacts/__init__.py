"""``repro.artifacts``: the self-verifying artifact layer.

The registry (:mod:`.registry`) names every artifact the repository
ships — paper figures/tables, the ``BENCH_*`` baseline documents, the
analysis reports — with its generator, outputs, baseline, and paper /
ROADMAP mapping.  The runner (:mod:`.runner`) regenerates the set in
one command and the manifest (:mod:`.manifest`) stamps every output
with a SHA-256 digest plus git/host provenance, so "do the published
results still fall out of the code?" is a single exit code:

    python -m repro reproduce-all --quick --check

See ``ARTIFACTS.md`` for the per-artifact documentation and
``docs/REPRODUCIBILITY.md`` for manifest/provenance semantics.
"""

from repro.artifacts.manifest import (
    DEFAULT_MANIFEST,
    MANIFEST_SCHEMA,
    ArtifactRecord,
    Manifest,
    compare_deterministic,
    format_manifest,
    sha256_file,
    write_manifest,
)
from repro.artifacts.registry import (
    REGISTRY,
    Artifact,
    ReproduceContext,
    ReproduceError,
    select,
)
from repro.artifacts.runner import DEFAULT_OUT_DIR, reproduce_all

__all__ = [
    "Artifact",
    "ArtifactRecord",
    "DEFAULT_MANIFEST",
    "DEFAULT_OUT_DIR",
    "MANIFEST_SCHEMA",
    "Manifest",
    "REGISTRY",
    "ReproduceContext",
    "ReproduceError",
    "compare_deterministic",
    "format_manifest",
    "reproduce_all",
    "select",
    "sha256_file",
    "write_manifest",
]
