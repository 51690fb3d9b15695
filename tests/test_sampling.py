import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercpd.sampling import (
    FiberSampler,
    pick_mode,
    sample_fibers,
    sample_without_replacement,
)


def test_pick_mode_single_mode():
    rng = np.random.default_rng(0)
    assert all(pick_mode(rng, 1) == 0 for _ in range(20))


def test_pick_mode_deterministic_sequence():
    seq1 = [pick_mode(np.random.default_rng(42), 3) for _ in range(1)]
    rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
    seq_a = [pick_mode(rng_a, 3) for _ in range(200)]
    seq_b = [pick_mode(rng_b, 3) for _ in range(200)]
    assert seq_a == seq_b
    assert seq1[0] == seq_a[0]


def test_pick_mode_frequencies_uniform():
    rng = np.random.default_rng(7)
    draws = np.array([pick_mode(rng, 3) for _ in range(30000)])
    for mode in range(3):
        freq = np.mean(draws == mode)
        assert abs(freq - 1.0 / 3.0) < 0.02


def test_sample_fibers_exhaustive_when_block_equals_count():
    rng = np.random.default_rng(1)
    s = sample_fibers(rng, 0, 12, 12)
    np.testing.assert_array_equal(s.indices, np.arange(12))


def test_sample_fibers_single():
    rng = np.random.default_rng(2)
    s = sample_fibers(rng, 0, 1, 1)
    np.testing.assert_array_equal(s.indices, [0])


def test_sample_fibers_deterministic_large():
    a = sample_fibers(np.random.default_rng(3), 0, 40000, 500)
    b = sample_fibers(np.random.default_rng(3), 0, 40000, 500)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert len(np.unique(a.indices)) == 500


def test_sample_fibers_clamps_with_warning(caplog):
    rng = np.random.default_rng(4)
    with caplog.at_level(logging.WARNING, logger="fibercpd.sampling"):
        s = sample_fibers(rng, 1, 5, 9)
    np.testing.assert_array_equal(s.indices, np.arange(5))
    assert any("clamp" in rec.message for rec in caplog.records)


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
        sampler = FiberSampler((4, 5, 6), (3, 3, 3), seed=seed)
        return [(s.mode, tuple(s.indices)) for s in (sampler.draw() for _ in range(50))]

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


def test_sampler_blocksize_broadcast_and_validation():
    sampler = FiberSampler((4, 5, 6), 7, seed=0)
    assert sampler.blocksizes == (7, 7, 7)
    with pytest.raises(ValueError):
        FiberSampler((4, 5), (1, 2, 3), seed=0)


def test_sampler_config_rejects_bad_blocksize():
    with pytest.raises(ValueError, match="blocksizes"):
        FiberSampler((4, 5), (0, 2), seed=1)
