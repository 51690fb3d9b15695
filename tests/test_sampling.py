import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercpd.sampling import FiberSampler, sample_without_replacement
from fibercpd.solvers import SolverConfig


def fisher_yates_loop(rng: np.random.Generator, population: int, k: int) -> np.ndarray:
    """The plain partial Fisher-Yates loop, the oracle: the same draw, then the
    sparse swap table replayed over every step."""
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


def assert_matches_loop(population, k, seed):
    """Same output as the loop, and the generator left at the same place."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(sample_without_replacement(rng, population, k),
                          fisher_yates_loop(oracle_rng, population, k))
    assert rng.integers(2**62) == oracle_rng.integers(2**62)


def make_sampler(dims, blocks, seed):
    return FiberSampler(dims, blocks, np.random.default_rng(seed))


def test_pick_mode_single_mode():
    s = make_sampler((5,), (1,), 0)
    assert all(s.draw().mode == 0 for _ in range(20))


def test_pick_mode_deterministic_sequence():
    first = make_sampler((4, 5, 6), (3, 3, 3), 42).draw().mode
    a, b = make_sampler((4, 5, 6), (3, 3, 3), 42), make_sampler((4, 5, 6), (3, 3, 3), 42)
    seq_a = [a.draw().mode for _ in range(200)]
    seq_b = [b.draw().mode for _ in range(200)]
    assert seq_a == seq_b
    assert first == seq_a[0]


def test_pick_mode_frequencies_uniform():
    # blocks covering every mode draw no rows, so this is the mode stream alone
    s = make_sampler((2, 2, 2), (4, 4, 4), 7)
    draws = np.array([s.draw().mode for _ in range(30000)])
    for mode in range(3):
        freq = np.mean(draws == mode)
        assert abs(freq - 1.0 / 3.0) < 0.02


def test_sample_fibers_exhaustive_when_block_equals_count():
    s = make_sampler((12, 12), (12, 12), 1)
    for _ in range(4):
        np.testing.assert_array_equal(s.draw().indices, np.arange(12))


def test_sample_fibers_single():
    s = make_sampler((5,), (1,), 2)
    np.testing.assert_array_equal(s.draw().indices, [0])


def test_sample_fibers_deterministic_large():
    # mode 0 has 40000 fibers
    a, b = make_sampler((3, 40000), (500, 3), 3), make_sampler((3, 40000), (500, 3), 3)
    draws = [(a.draw(), b.draw()) for _ in range(10)]
    for x, y in draws:
        assert x.mode == y.mode
        np.testing.assert_array_equal(x.indices, y.indices)
    large = [x for x, _ in draws if x.mode == 0]
    assert large
    assert all(len(np.unique(x.indices)) == 500 for x in large)


def test_sample_fibers_clamps_with_warning(caplog):
    # mode 1 has 5 fibers and asks for 9
    with caplog.at_level(logging.WARNING, logger="fibercpd.sampling"):
        s = make_sampler((5, 3), (1, 9), 4)
    assert s.blocksizes == (1, 5)
    draws = [s.draw() for _ in range(20)]
    assert any(d.mode == 1 for d in draws)
    for d in draws:
        if d.mode == 1:
            np.testing.assert_array_equal(d.indices, np.arange(5))
    assert [rec.message for rec in caplog.records if "clamp" in rec.message] == [
        "blocksize 9 exceeds the 5 mode-1 fibers; clamping"]


@settings(max_examples=80, deadline=None)
@given(population=st.integers(1, 500), k=st.integers(1, 600),
       seed=st.integers(0, 2**31 - 1))
def test_sample_without_replacement_properties(population, k, seed):
    rng = np.random.default_rng(seed)
    out = sample_without_replacement(rng, population, k)
    assert out.size == min(k, population)
    assert len(np.unique(out)) == out.size
    assert out.min() >= 0 and out.max() < population
    assert np.all(np.diff(out) > 0)  # sorted


@settings(max_examples=300, deadline=None)
@given(population=st.integers(1, 60_000), data=st.data(), seed=st.integers(0, 2**63 - 1))
def test_sample_without_replacement_matches_loop(population, data, seed):
    assert_matches_loop(population, data.draw(st.integers(0, population + 3)), seed)


@pytest.mark.parametrize("population, k", [
    (1, 1), (1, 0), (2, 1), (7, 1), (7, 6), (500, 1), (500, 499), (60_000, 1),
    (3600, 200),     # desk: 60^3, block 200
    (40_000, 500),   # paper: 200^3, block 500
    (31_900, 300),   # hsi modes 0 and 1: 145 x 220 fibers, block 300
    (21_025, 300),   # hsi mode 2: 145 x 145 fibers
])
def test_sample_without_replacement_matches_loop_at_edges_and_cells(population, k):
    for seed in range(200):
        assert_matches_loop(population, k, seed)


def test_sample_without_replacement_rejects_negative_k():
    with pytest.raises(ValueError, match="k must be >= 0"):
        sample_without_replacement(np.random.default_rng(0), 10, -3)
    assert sample_without_replacement(np.random.default_rng(0), 10, 0).shape == (0,)


def test_sample_without_replacement_uniform_marginals():
    # each index should appear with frequency B/J within 3 binomial sigmas
    j_count, block, draws = 20, 5, 4000
    rng = np.random.default_rng(11)
    counts = np.zeros(j_count)
    for _ in range(draws):
        counts[sample_without_replacement(rng, j_count, block)] += 1
    p = block / j_count
    sigma = np.sqrt(p * (1 - p) * draws)
    assert np.all(np.abs(counts - p * draws) <= 3 * sigma)


def test_sampler_sequence_is_pure_function_of_seed():
    def trace(seed):
        s = make_sampler((4, 5, 6), (3, 3, 3), seed)
        return [(d.mode, tuple(d.indices)) for d in (s.draw() for _ in range(50))]

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


def test_sampler_blocksize_broadcast_and_validation():
    # SolverConfig.blocks_for is the one broadcast rule; the sampler takes its tuple
    blocks = SolverConfig("ascpd", 2, blocksizes=7).blocks_for(3)
    assert make_sampler((4, 5, 6), blocks, 0).blocksizes == (7, 7, 7)
    with pytest.raises(TypeError):
        make_sampler((4, 5, 6), 7, 0)
    with pytest.raises(ValueError):
        make_sampler((4, 5), (1, 2, 3), 0)


def test_sampler_config_rejects_bad_blocksize():
    with pytest.raises(ValueError, match="blocksizes"):
        make_sampler((4, 5), (0, 2), 1)


# 60 draws over dims (3, 40, 2) (80, 6 and 120 fibers per mode) with blocks
# (5, 4, 200), recorded before the sampler was folded into one class; None
# marks a clamped mode-2 draw, which returns all 120 rows
FROZEN_STREAM = [
    (0, (3, 8, 18, 27, 54)), (2, None), (2, None), (2, None), (2, None),
    (0, (8, 11, 15, 17, 69)), (2, None), (1, (0, 1, 3, 4)), (2, None), (1, (1, 3, 4, 5)),
    (2, None), (0, (7, 16, 37, 52, 78)), (2, None), (1, (0, 1, 2, 3)),
    (0, (24, 35, 58, 61, 66)), (2, None), (2, None), (0, (22, 29, 37, 64, 65)),
    (0, (5, 8, 13, 22, 63)), (1, (0, 2, 3, 5)), (1, (1, 2, 4, 5)), (1, (1, 2, 3, 5)),
    (0, (8, 16, 22, 27, 71)), (1, (0, 1, 2, 5)), (1, (0, 1, 2, 5)),
    (0, (12, 21, 27, 37, 55)), (0, (1, 15, 29, 44, 56)), (2, None), (1, (2, 3, 4, 5)),
    (1, (0, 2, 3, 5)), (1, (2, 3, 4, 5)), (1, (0, 1, 3, 4)), (1, (0, 3, 4, 5)),
    (1, (0, 1, 3, 4)), (1, (0, 1, 2, 3)), (2, None), (0, (1, 5, 16, 27, 48)),
    (1, (0, 2, 3, 5)), (0, (29, 37, 48, 55, 57)), (2, None), (0, (26, 32, 45, 61, 64)),
    (1, (1, 2, 3, 4)), (0, (12, 23, 34, 52, 57)), (1, (0, 1, 3, 4)),
    (0, (2, 3, 11, 45, 68)), (0, (4, 24, 54, 60, 74)), (2, None), (2, None),
    (1, (1, 2, 4, 5)), (0, (16, 19, 31, 42, 43)), (1, (1, 2, 3, 4)), (1, (0, 1, 4, 5)),
    (1, (0, 1, 3, 4)), (0, (2, 5, 31, 63, 68)), (0, (30, 39, 50, 57, 67)),
    (1, (0, 1, 4, 5)), (0, (11, 17, 30, 51, 52)), (2, None), (2, None), (1, (0, 2, 4, 5)),
]


def test_sampler_frozen_stream(caplog):
    with caplog.at_level(logging.WARNING, logger="fibercpd.sampling"):
        sampler = FiberSampler((3, 40, 2), (5, 4, 200), np.random.default_rng(2024))
        draws = [sampler.draw() for _ in range(len(FROZEN_STREAM))]
    for sample, (mode, rows) in zip(draws, FROZEN_STREAM):
        assert sample.mode == mode
        expected = np.arange(120) if rows is None else rows
        np.testing.assert_array_equal(sample.indices, expected)
    clamps = [rec.message for rec in caplog.records if "clamp" in rec.message]
    assert clamps == ["blocksize 200 exceeds the 120 mode-2 fibers; clamping"]
