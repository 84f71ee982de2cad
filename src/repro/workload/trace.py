"""Synthetic Web trace with Zipf-distributed file popularity.

Substitution note (see DESIGN.md): the paper replays a trace collected at
Rutgers, modified so that (1) all files have the same size (stable
throughput decouples measurements from fault injection time) and (2) the
average size is 27 KB so that misses still occur with 5 server nodes.
What the methodology actually depends on is the *shape*: a working set
larger than one node's cache but comparable to the global cache.  A
Zipf(alpha) popularity law over ``n_files`` equal-size files reproduces
that shape and is the standard model for Web-server file popularity.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TraceConfig:
    """Shape of the synthetic trace."""

    n_files: int = 3000
    file_size: int = 27_000  # bytes; paper Section 5
    zipf_alpha: float = 0.9

    def __post_init__(self) -> None:
        if self.n_files < 1:
            raise ValueError("n_files must be >= 1")
        if self.file_size <= 0:
            raise ValueError("file_size must be positive")
        if self.zipf_alpha < 0:
            raise ValueError("zipf_alpha must be non-negative")


class SyntheticTrace:
    """Samples file ids 0..n-1 with Zipf(alpha) popularity.

    File id equals popularity rank (id 0 is the hottest file); servers
    treat ids as opaque names, so the identification is harmless and makes
    tests easy to reason about.
    """

    __slots__ = ("config", "rng", "_pmf", "_cdf", "_cdf_list")

    def __init__(self, config: TraceConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        ranks = np.arange(1, config.n_files + 1, dtype=float)
        weights = ranks ** (-config.zipf_alpha)
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        self._cdf[-1] = 1.0  # guard against fp drift
        # The same doubles as Python floats: one draw bisects them without
        # a numpy call.
        self._cdf_list = self._cdf.tolist()

    @property
    def n_files(self) -> int:
        return self.config.n_files

    def file_size(self, fid: int) -> int:
        if not 0 <= fid < self.config.n_files:
            raise IndexError(f"file id {fid} out of range")
        return self.config.file_size

    def sample_file(self) -> int:
        """Draw one file id."""
        return bisect_right(self._cdf_list, self.rng.random())

    def sample_files(self, n: int) -> np.ndarray:
        """Vectorized draw of ``n`` file ids."""
        u = self.rng.random(n)
        return np.searchsorted(self._cdf, u, side="right")

    def hit_fraction(self, top_k: int) -> float:
        """Probability mass of the ``top_k`` hottest files.

        The expected steady-state hit rate of an LRU cache holding k files
        is well approximated by this for Zipf workloads; used for
        calibration and sanity tests.
        """
        if top_k <= 0:
            return 0.0
        return float(self._pmf[: min(top_k, self.config.n_files)].sum())
