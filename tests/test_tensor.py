import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercpd.sampling import FiberSample
from fibercpd.solvers import sampled_gradient
from fibercpd.tensor import (
    DenseTensor,
    KruskalModel,
    _kr_chain,
    frob_norm,
    gather_fiber_rows,
    kr_rows,
    metric,
    mttkrp,
    objective,
    reconstruct,
    row_count,
)
from oracles import oracle_kr_full, oracle_unfold


def all_rows(dims, mode):
    return np.arange(row_count(dims, mode))


def sampled_mttkrp(t, model, mode, rows):
    """X_F^T K_F over the fiber rows `rows`, as the solvers compute it: minus the
    sampled gradient at zero."""
    sample = FiberSample(mode, np.asarray(rows, dtype=np.int64))
    return -sampled_gradient(t, model, sample, np.zeros((t.dims[mode], model.rank)))[0]


def random_instance(rng, dims, rank):
    t = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
    model = KruskalModel([rng.standard_normal((d, rank)) for d in dims])
    return t, model


def rel_err(a, b):
    denom = np.linalg.norm(b)
    return np.linalg.norm(a - b) / (denom if denom else 1.0)


# ---------------------------------------------------------------------------
# the mode unfolding, gathered fiber row by fiber row
# ---------------------------------------------------------------------------


def test_unfold_known_2x2x2():
    t = DenseTensor((2, 2, 2), np.arange(1.0, 9.0))
    expected = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(gather_fiber_rows(t, 0, all_rows(t.dims, 0)), expected)


def test_unfold_matches_index_walk_oracle():
    rng = np.random.default_rng(0)
    for dims in [(2, 3), (3, 4, 5), (2, 3, 2, 4)]:
        t = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
        for mode in range(len(dims)):
            np.testing.assert_array_equal(gather_fiber_rows(t, mode, all_rows(dims, mode)),
                                          oracle_unfold(t, mode))


def test_unfold_zero_tensor():
    t = DenseTensor((3, 4, 5), np.zeros(60))
    np.testing.assert_array_equal(gather_fiber_rows(t, 1, all_rows(t.dims, 1)),
                                  np.zeros((15, 4)))


def test_unfold_mode_out_of_range():
    t = DenseTensor((2, 2), np.zeros(4))
    with pytest.raises(ValueError):
        gather_fiber_rows(t, 2, [0])
    with pytest.raises(ValueError):
        gather_fiber_rows(t, -1, [0])


def test_unfold_leaves_source_unchanged():
    rng = np.random.default_rng(1)
    t = DenseTensor((2, 3, 4), rng.standard_normal(24))
    before = t.values.copy()
    m = gather_fiber_rows(t, 1, all_rows(t.dims, 1))
    m[0, 0] = 999.0
    np.testing.assert_array_equal(t.values, before)


def test_gather_fiber_rows_matches_unfold():
    rng = np.random.default_rng(13)
    t = DenseTensor((3, 4, 2), rng.standard_normal(24))
    for mode in range(3):
        full = oracle_unfold(t, mode)
        rows = np.array([0, 2, row_count(t.dims, mode) - 1])
        np.testing.assert_array_equal(gather_fiber_rows(t, mode, rows), full[rows])


# ---------------------------------------------------------------------------
# Khatri-Rao chain / kr_rows
# ---------------------------------------------------------------------------


def test_khatri_rao_known():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 4.0], [3.0, 0.0]])
    np.testing.assert_array_equal(_kr_chain([b, a], 2), expected)


def test_khatri_rao_ones_identities():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 3))
    ones = np.ones((1, 3))
    np.testing.assert_array_equal(_kr_chain([b, ones], 3), b)
    np.testing.assert_array_equal(_kr_chain([ones, b], 3), b)


def test_kr_full_mode_ordering_three_way():
    rng = np.random.default_rng(4)
    model = KruskalModel([rng.standard_normal((d, 2)) for d in (2, 3, 4)])
    # dropping the middle mode leaves last-times-first, last mode slowest
    expected = _kr_chain([model.factors[0], model.factors[2]], 2)
    np.testing.assert_array_equal(kr_rows(model, 1, all_rows(model.dims, 1)), expected)


def test_kr_full_rank1_ones():
    model = KruskalModel([np.ones((d, 1)) for d in (2, 3, 4)])
    np.testing.assert_array_equal(kr_rows(model, 0, all_rows(model.dims, 0)), np.ones((12, 1)))


def test_kr_full_matches_oracle():
    rng = np.random.default_rng(5)
    for dims in [(2, 3, 4), (3, 2, 2, 3)]:
        model = KruskalModel([rng.standard_normal((d, 3)) for d in dims])
        for mode in range(len(dims)):
            full = kr_rows(model, mode, all_rows(dims, mode))
            assert rel_err(full, oracle_kr_full(model, mode)) < 1e-15


def test_kr_rows_known_rank1():
    model = KruskalModel([np.array([[1.0], [2.0]]),
                          np.array([[3.0], [4.0]]),
                          np.array([[5.0], [6.0]])])
    np.testing.assert_array_equal(kr_rows(model, 0, [0, 3]).ravel(), [15.0, 24.0])


def test_kr_rows_full_set_bitwise_equal():
    rng = np.random.default_rng(6)
    for dims in [(2, 3, 4), (2, 2, 3, 2)]:
        model = KruskalModel([rng.standard_normal((d, 3)) for d in dims])
        for mode in range(len(dims)):
            rows = kr_rows(model, mode, all_rows(dims, mode))
            assert np.array_equal(rows, oracle_kr_full(model, mode))


def test_kr_rows_empty():
    model = KruskalModel([np.ones((2, 3)), np.ones((2, 3))])
    assert kr_rows(model, 0, []).shape == (0, 3)


def test_kr_rows_single_row_matches_kr_full():
    rng = np.random.default_rng(7)
    model = KruskalModel([rng.standard_normal((d, 2)) for d in (3, 2, 4)])
    full = oracle_kr_full(model, 2)
    for j in (0, 2, 5):
        np.testing.assert_array_equal(kr_rows(model, 2, [j])[0], full[j])


def test_kr_rows_out_of_range():
    model = KruskalModel([np.ones((2, 1)), np.ones((3, 1))])
    with pytest.raises(ValueError):
        kr_rows(model, 0, [3])


# ---------------------------------------------------------------------------
# mttkrp / the sampled MTTKRP X_F^T K_F
# ---------------------------------------------------------------------------


def test_mttkrp_matches_dense_oracle():
    rng = np.random.default_rng(8)
    t, model = random_instance(rng, (3, 4, 5), 2)
    for mode in range(3):
        expected = oracle_unfold(t, mode).T @ oracle_kr_full(model, mode)
        assert rel_err(mttkrp(t, model, mode), expected) < 1e-12


def test_mttkrp_zero_tensor():
    model = KruskalModel([np.ones((d, 2)) for d in (2, 3, 4)])
    t = DenseTensor((2, 3, 4), np.zeros(24))
    np.testing.assert_array_equal(mttkrp(t, model, 1), np.zeros((3, 2)))


def test_mttkrp_equals_partition_sum():
    rng = np.random.default_rng(9)
    t, model = random_instance(rng, (3, 4, 2), 3)
    for mode in range(3):
        j = row_count(t.dims, mode)
        perm = rng.permutation(j)
        parts = np.array_split(perm, 3)
        total = sum(sampled_mttkrp(t, model, mode, p) for p in parts)
        assert rel_err(total, mttkrp(t, model, mode)) < 1e-12


def test_partial_mttkrp_full_rows_equals_mttkrp():
    rng = np.random.default_rng(10)
    t, model = random_instance(rng, (4, 3, 2), 2)
    for mode in range(3):
        rows = all_rows(t.dims, mode)
        assert rel_err(sampled_mttkrp(t, model, mode, rows), mttkrp(t, model, mode)) < 1e-12


def test_partial_mttkrp_empty_rows():
    rng = np.random.default_rng(11)
    t, model = random_instance(rng, (4, 3, 2), 2)
    np.testing.assert_array_equal(sampled_mttkrp(t, model, 0, []), np.zeros((4, 2)))


def test_partial_mttkrp_matches_dense_slice_oracle():
    rng = np.random.default_rng(12)
    t, model = random_instance(rng, (4, 3, 2), 2)
    for mode in range(3):
        rows = np.array([1, 5])
        expected = oracle_unfold(t, mode)[rows].T @ oracle_kr_full(model, mode)[rows]
        assert rel_err(sampled_mttkrp(t, model, mode, rows), expected) < 1e-12


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(1, 4), min_size=2, max_size=4).map(tuple), data=st.data())
def test_partial_mttkrp_partition_property(dims, data):
    mode = data.draw(st.integers(0, len(dims) - 1))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    t, model = random_instance(rng, dims, 2)
    j = row_count(dims, mode)
    cut = data.draw(st.integers(0, j))
    part_a, part_b = np.arange(cut), np.arange(cut, j)
    total = sampled_mttkrp(t, model, mode, part_a) + sampled_mttkrp(t, model, mode, part_b)
    assert rel_err(total, mttkrp(t, model, mode)) < 1e-12


# ---------------------------------------------------------------------------
# reconstruct / norms / objective
# ---------------------------------------------------------------------------


def test_reconstruct_rank1_outer_product():
    model = KruskalModel([np.array([[1.0], [2.0]]), np.ones((2, 1)), np.ones((2, 1))])
    arr = reconstruct(model).values.reshape(model.dims, order="F")
    np.testing.assert_array_equal(arr[0], np.ones((2, 2)))
    np.testing.assert_array_equal(arr[1], 2.0 * np.ones((2, 2)))


def test_reconstruct_unfolding_identity():
    rng = np.random.default_rng(14)
    model = KruskalModel([rng.standard_normal((d, 3)) for d in (3, 4, 2)])
    t = reconstruct(model)
    for mode in range(3):
        rows = all_rows(t.dims, mode)
        lhs = gather_fiber_rows(t, mode, rows)
        rhs = kr_rows(model, mode, rows) @ model.factors[mode].T
        assert rel_err(lhs, rhs) < 1e-12


def test_reconstruct_zero_factor():
    rng = np.random.default_rng(15)
    factors = [rng.standard_normal((3, 2)), np.zeros((2, 2)), rng.standard_normal((4, 2))]
    np.testing.assert_array_equal(reconstruct(KruskalModel(factors)).values, np.zeros(24))


def test_objective_exact_model_is_zero():
    rng = np.random.default_rng(16)
    model = KruskalModel([rng.random((d, 2)) for d in (3, 3, 3)])
    t = reconstruct(model)
    assert objective(t, model) <= 1e-20


def test_objective_invariant_across_unfoldings():
    rng = np.random.default_rng(17)
    t, model = random_instance(rng, (4, 5, 6), 3)
    reference = objective(t, model)
    for mode in range(3):
        via_unfold = np.linalg.norm(
            oracle_unfold(t, mode) - oracle_kr_full(model, mode) @ model.factors[mode].T) ** 2
        assert abs(via_unfold - reference) <= 1e-10 * reference


def test_frob_norm_all_ones():
    assert frob_norm(DenseTensor((2, 2, 2), np.ones(8))) == pytest.approx(math.sqrt(8.0))


def test_relative_error_zero_tensor_rejected():
    model = KruskalModel([np.ones((2, 1)), np.ones((2, 1))])
    with pytest.raises(ValueError, match="undefined for the zero tensor"):
        metric(DenseTensor((2, 2), np.zeros(4)), model)


# ---------------------------------------------------------------------------
# type validation
# ---------------------------------------------------------------------------


def test_dense_tensor_length_mismatch():
    with pytest.raises(ValueError):
        DenseTensor((2, 2), np.zeros(5))


def test_dense_tensor_bad_dims():
    with pytest.raises(ValueError):
        DenseTensor((2, 0), np.zeros(0))


def test_kruskal_model_column_mismatch():
    with pytest.raises(ValueError):
        KruskalModel([np.zeros((2, 2)), np.zeros((2, 3))])
