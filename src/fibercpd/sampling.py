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

from .tensor import as_count, as_dims, row_count

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


def sample_without_replacement(rng: np.random.Generator, population: int, k: int) -> np.ndarray:
    """k distinct indices uniform over size-k subsets of range(population).

    Partial Fisher-Yates shuffle with a sparse swap table: O(k) memory even
    when the population is large.  Result is sorted.

    Step t swaps position t with the position r_t >= t it draws.  Its output
    is r_t unless an earlier step drew r_t too.  The entry it leaves at r_t
    is position t's, which only an earlier draw < k can have changed, and it
    is read again only if r_t is drawn again.  So replaying the swap table
    over the steps whose draw repeats or is < k gives the loop's output
    exactly, and every other step outputs its draw.
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k >= population:
        return np.arange(population, dtype=np.int64)
    out = rng.integers(np.arange(k, dtype=np.int64), population)
    order = out.argsort()
    same = out[order[1:]] == out[order[:-1]]
    replay = out < k
    replay[order[1:][same]] = True
    replay[order[:-1][same]] = True
    steps = np.flatnonzero(replay)
    displaced: dict[int, int] = {}
    for t, r in zip(steps.tolist(), out[steps].tolist()):
        out[t] = displaced.get(r, r)
        displaced[r] = displaced.get(t, t)
    out.sort()
    return out


class FiberSampler:
    """Per-trial sampler over one RNG stream (single owner, not thread-safe).

    Takes one blocksize per mode (`SolverConfig.blocks_for` broadcasts a
    single one).  `blocksizes` keeps the rows each mode draws: a blocksize
    above its mode's fiber count is clamped to that count here, once, with
    one warning per clamped mode.
    """

    def __init__(self, dims, blocksizes, rng: np.random.Generator):
        self.dims = as_dims(dims)
        blocks = tuple(as_count(b, "blocksizes") for b in blocksizes)
        if len(blocks) != len(self.dims):
            raise ValueError("need one blocksize per mode")
        self.rng = rng
        self.row_counts = tuple(row_count(self.dims, n) for n in range(len(self.dims)))
        for mode, (block, j_count) in enumerate(zip(blocks, self.row_counts)):
            if block > j_count:
                logger.warning("blocksize %d exceeds the %d mode-%d fibers; clamping",
                               block, j_count, mode)
        self.blocksizes = tuple(map(min, blocks, self.row_counts))

    def draw(self) -> FiberSample:
        """A uniform mode, then its blocksize of distinct fiber rows, uniformly
        without replacement: one fixed-order use of the RNG stream."""
        mode = int(self.rng.integers(len(self.dims)))
        return FiberSample(mode, sample_without_replacement(self.rng, self.row_counts[mode],
                                                            self.blocksizes[mode]))
