"""Provenance stamps for measurement records.

:func:`provenance` says which commit, host and interpreter produced a
record.  ``results/MANIFEST.json`` (``repro reproduce-all``) and the
``perfbench`` records both carry it, so numbers measured on different
machines or trees are never mixed.

Wall-clock reads here stamp the *host*, never simulated components —
REP001 allowlists this module for that reason.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Optional

#: the directory holding the ``repro`` package: git runs here, so the
#: stamp names the checkout the code came from, not the caller's cwd
_SOURCE_DIR = Path(__file__).resolve().parent.parent


def _git(*args: str) -> Optional[str]:
    """stdout of one git command, or None if git fails/is absent."""
    try:
        proc = subprocess.run(["git", *args], capture_output=True, text=True,
                              cwd=_SOURCE_DIR, check=False)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def provenance() -> Dict[str, Any]:
    """Where/when/what produced a measurement record.

    Host identity is both readable (``host``) and stable
    (``host_fingerprint``) so comparisons can separate records measured
    on different machines instead of mixing incomparable numbers.
    """
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha is not None else None
    fingerprint = hashlib.sha256("|".join((
        platform.node(), platform.machine(), platform.processor(),
        str(os.cpu_count()),
    )).encode("utf-8")).hexdigest()[:12]
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "host": platform.node(),
        "host_fingerprint": fingerprint,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "timestamp": time.time(),
    }
