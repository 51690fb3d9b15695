"""Random mode selection and uniform fiber sampling with reproducible seeding.

One stochastic iteration draws a mode uniformly from {0..N-1} and then a set
of distinct fiber row indices of the mode unfolding, all from a single RNG
stream in a fixed order, so the whole (mode, rows) sequence is a pure
function of (seed, dims, blocksizes).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .tensor import row_count

logger = logging.getLogger(__name__)

RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class FiberSample:
    """A mode plus the sorted distinct unfolding rows drawn for one iteration."""

    mode: int
    indices: np.ndarray

    @property
    def size(self) -> int:
        return int(self.indices.size)


def pick_mode(rng: np.random.Generator, n_modes: int) -> int:
    """Uniform mode index in [0, n_modes)."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return int(rng.integers(n_modes))


def sample_without_replacement(rng: np.random.Generator, population: int, k: int) -> np.ndarray:
    """k distinct indices uniform over size-k subsets of range(population).

    Partial Fisher-Yates shuffle with a sparse swap table: O(k) memory even
    when the population is large.  Result is sorted.
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    if k >= population:
        return np.arange(population, dtype=np.int64)
    draws = rng.integers(np.arange(k, dtype=np.int64), population)
    displaced: dict[int, int] = {}
    out = np.empty(k, dtype=np.int64)
    for t in range(k):
        r = int(draws[t])
        out[t] = displaced.get(r, r)
        displaced[r] = displaced.get(t, t)
    out.sort()
    return out


def sample_fibers(rng: np.random.Generator, mode: int, j_count: int, block: int,
                  *, warn_clamp: bool = True) -> FiberSample:
    """Draw min(block, j_count) distinct fiber rows, uniformly without replacement."""
    if block < 1:
        raise ValueError(f"blocksize must be >= 1, got {block}")
    if block > j_count and warn_clamp:
        logger.warning("blocksize %d exceeds the %d mode-%d fibers; clamping", block, j_count, mode)
    return FiberSample(mode=mode, indices=sample_without_replacement(rng, j_count, block))


class FiberSampler:
    """Stateful per-trial sampler; owns one RNG stream (single-owner, not thread-safe)."""

    def __init__(self, dims, blocksizes, seed: int = 0, *,
                 rng: np.random.Generator | None = None):
        self.dims = tuple(int(d) for d in dims)
        if isinstance(blocksizes, int):
            blocksizes = (blocksizes,) * len(self.dims)
        self.blocksizes = tuple(int(b) for b in blocksizes)
        if len(self.blocksizes) != len(self.dims):
            raise ValueError("need one blocksize per mode")
        if any(b < 1 for b in self.blocksizes):
            raise ValueError(f"blocksizes must be >= 1, got {self.blocksizes}")
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.row_counts = tuple(row_count(self.dims, n) for n in range(len(self.dims)))
        self._clamp_warned = set()

    def draw(self) -> FiberSample:
        """Pick a mode, then its fiber rows; one fixed-order use of the RNG stream."""
        mode = pick_mode(self.rng, len(self.dims))
        block = self.blocksizes[mode]
        warn = mode not in self._clamp_warned
        if block > self.row_counts[mode]:
            self._clamp_warned.add(mode)
        return sample_fibers(self.rng, mode, self.row_counts[mode], block, warn_clamp=warn)
