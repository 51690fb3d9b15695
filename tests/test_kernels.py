"""Differential tests of the dense kernels against the forms they replaced.

The oracles below are the earlier implementations, kept here only as
references: the einsum MTTKRP, the row-digit decomposition with the
index-matrix fiber gather and the Khatri-Rao rows built on it, and the metric
from the full reconstruction.  `tests/oracles.py` holds the einsum
reconstruction, the MTTKRP with one tensor-sized GEMM per mode and the
allocating nonneg ALS block solve.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibercpd.constraints import Constraint
from fibercpd.experiments import (
    SyntheticSpec,
    generate_synthetic,
    metric,
    run,
    squared_norm,
)
from fibercpd.sampling import FiberSampler
from fibercpd.solvers import SolverConfig, _prox_block_solve, als_sweep, init_state
from fibercpd.tensor import (
    DenseTensor,
    KruskalModel,
    gather_fiber_rows,
    kr_rows,
    mttkrp,
    objective,
    reconstruct,
    row_count,
)

from oracles import LETTERS, allocating_prox_block_solve, einsum_reconstruct, per_mode_mttkrp


def einsum_mttkrp(t: DenseTensor, model: KruskalModel, mode: int) -> np.ndarray:
    # the rank-length ones stand in for the empty Khatri-Rao product at order 1,
    # where the einsum alone has no operand carrying the rank axis
    arr = t.values.reshape(t.dims, order="F")
    operands, subs = [arr, np.ones(model.rank)], [LETTERS[:t.order], "z"]
    for n in range(t.order):
        if n != mode:
            operands.append(model.factors[n])
            subs.append(LETTERS[n] + "z")
    expr = ",".join(subs) + "->" + LETTERS[mode] + "z"
    return np.einsum(expr, *operands, optimize=True)


def surviving_modes(dims, mode: int) -> list[int]:
    return [n for n in range(len(dims)) if n != mode]


def rows_to_digits(dims, mode: int, rows) -> np.ndarray:
    """(order-1, len(rows)) indices of the surviving modes, smallest mode first."""
    rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
    j = row_count(dims, mode)
    if rows.size and (rows.min() < 0 or rows.max() >= j):
        raise ValueError(f"fiber row index out of range [0, {j})")
    surv = surviving_modes(dims, mode)
    digits = np.empty((len(surv), rows.size), dtype=np.int64)
    stride = 1
    for k, n in enumerate(surv):
        digits[k] = (rows // stride) % dims[n]
        stride *= dims[n]
    return digits


def digits_kr_rows(model: KruskalModel, mode: int, rows) -> np.ndarray:
    rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
    digits = rows_to_digits(model.dims, mode, rows)
    surv = surviving_modes(model.dims, mode)
    if not surv:
        return np.ones((rows.size, model.rank))
    out = model.factors[surv[0]][digits[0]].copy()
    for k in range(1, len(surv)):
        out *= model.factors[surv[k]][digits[k]]
    return out


def index_matrix_gather(t: DenseTensor, mode: int, rows) -> np.ndarray:
    dims = t.dims
    rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
    digits = rows_to_digits(dims, mode, rows)
    strides = np.cumprod((1,) + dims[:-1]).astype(np.int64)
    base = np.zeros(rows.size, dtype=np.int64)
    for k, n in enumerate(surviving_modes(dims, mode)):
        base += digits[k] * strides[n]
    cols = strides[mode] * np.arange(dims[mode], dtype=np.int64)
    return t.values[base[:, None] + cols[None, :]]


def exact_metric(t: DenseTensor, model: KruskalModel) -> float:
    return math.sqrt(objective(t, model)) / np.linalg.norm(t.values)


def rel_err(a, b):
    denom = np.linalg.norm(b)
    return np.linalg.norm(a - b) / (denom if denom else 1.0)


# orders 1-5 with size-1 modes; at most 4^5 = 1024 entries
dims_strategy = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple)


def instance(seed, dims, rank):
    rng = np.random.default_rng(seed)
    t = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
    model = KruskalModel([rng.standard_normal((d, rank)) for d in dims])
    return t, model


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(dims=dims_strategy, rank=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
@example(dims=(3, 1, 4, 1, 2), rank=6, seed=0)
@example(dims=(1,), rank=1, seed=1)
@example(dims=(5, 13, 3), rank=4, seed=2)         # 65 storage columns: 32 blocks of 2 or 3
@example(dims=(4, 4, 4, 4, 2), rank=3, seed=3)    # 256 storage columns: 64 blocks of 4
@example(dims=(5, 5, 15, 2), rank=2, seed=4)      # 375 storage columns: 64 blocks of 5 or 6
@example(dims=(1, 1, 4), rank=2, seed=5)          # a single storage column
def test_reconstruct_matches_einsum(dims, rank, seed):
    # not bitwise: the GEMM's rounding depends on the BLAS build
    _, model = instance(seed, dims, rank)
    got = reconstruct(model)
    assert got.dims == dims
    assert rel_err(got.values, einsum_reconstruct(model).values) <= 1e-12


def test_reconstruct_adds_into_base_in_place():
    t, model = instance(5, (6, 5, 70), 3)
    base = t.values.copy()
    got = reconstruct(model, base=base)
    assert np.shares_memory(got.values, base)
    assert rel_err(got.values, t.values + reconstruct(model).values) <= 1e-14


def test_reconstruct_has_no_order_cap():
    # the einsum form ran out of subscript letters past order 25
    model = KruskalModel([np.full((1, 1), 2.0)] * 26)
    assert reconstruct(model).values.tolist() == [2.0 ** 26]
    noiseless, truth, _ = generate_synthetic(SyntheticSpec((1,) * 26, 1))
    assert noiseless.values[0] == pytest.approx(math.prod(float(f[0, 0]) for f in truth.factors),
                                                rel=1e-12)


# ---------------------------------------------------------------------------
# mttkrp
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(dims=dims_strategy, rank=st.integers(1, 6), data=st.data())
def test_mttkrp_matches_einsum(dims, rank, data):
    # every mode within 1e-12 of the einsum and of the per-mode kernel it
    # replaced; modes N-2 and N-1 run that kernel's operations, so they match
    # it bit for bit
    t, model = instance(data.draw(st.integers(0, 2**31 - 1)), dims, rank)
    for mode in range(len(dims)):
        got = mttkrp(t, model, mode)
        assert got.shape == (dims[mode], rank)
        assert rel_err(got, einsum_mttkrp(t, model, mode)) <= 1e-12
        want = per_mode_mttkrp(t, model, mode)
        assert rel_err(got, want) <= 1e-12
        if mode >= len(dims) - 2:
            assert got.tobytes() == want.tobytes()
        for operand in (t.values, *model.factors):
            assert not np.shares_memory(got, operand)


@settings(max_examples=100, deadline=None)
@given(dims=dims_strategy, rank=st.integers(1, 6), data=st.data())
def test_mttkrp_reusing_the_partial_equals_a_standalone_call(dims, rank, data):
    t, model = instance(data.draw(st.integers(0, 2**31 - 1)), dims, rank)
    shared = {}
    for mode in range(len(dims)):
        reused = mttkrp(t, model, mode, shared)
        assert reused.tobytes() == mttkrp(t, model, mode).tobytes()
        assert bool(shared) == (mode < len(dims) - 1)


def test_mttkrp_matches_einsum_unequal_modes():
    t, model = instance(1, (13, 7, 11, 5), 6)
    for mode in range(4):
        assert rel_err(mttkrp(t, model, mode), einsum_mttkrp(t, model, mode)) <= 1e-12


def test_mttkrp_order_one_is_tensor_times_ones():
    t, model = instance(2, (5,), 3)
    np.testing.assert_array_equal(mttkrp(t, model, 0), np.repeat(t.values[:, None], 3, axis=1))


def test_mttkrp_validates_inputs():
    t, model = instance(3, (3, 4, 5), 2)
    with pytest.raises(ValueError):
        mttkrp(t, model, 3)
    wrong = KruskalModel([np.ones((3, 2)), np.ones((5, 2)), np.ones((5, 2))])
    with pytest.raises(ValueError):
        mttkrp(t, wrong, 0)
    extra = KruskalModel([np.ones((d, 2)) for d in (3, 4, 5, 6)])
    with pytest.raises(ValueError, match="model dims"):
        mttkrp(t, extra, 0)
    # only the factor of the MTTKRP's own mode is the wrong size
    with pytest.raises(ValueError, match="model dims"):
        mttkrp(t, wrong, 1)


# ---------------------------------------------------------------------------
# nonneg ALS block solve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_prox_block_solve_matches_allocating_loop_bitwise(seed):
    rng = np.random.default_rng(seed)
    i_n, rank = int(rng.integers(1, 40)), int(rng.integers(1, 9))
    k = rng.random((2 * rank + 3, rank))
    gram = k.T @ k
    a0 = rng.random((i_n, rank))
    rhs = rng.standard_normal((i_n, rank)) + a0 @ gram
    if seed % 2:
        rhs = np.asfortranarray(rhs)   # the layout mttkrp returns for mode 0 (N >= 2)
    before = a0.copy()
    for max_inner in (0, 1, 2, 50):
        got = _prox_block_solve(a0, gram, rhs, Constraint("nonneg"), max_inner=max_inner)
        want = allocating_prox_block_solve(a0, gram, rhs, Constraint("nonneg"),
                                           max_inner=max_inner)
        np.testing.assert_array_equal(a0, before)
        assert got.tobytes() == want.tobytes()


def test_prox_block_solve_stop_rule_matches_allocating_loop():
    # at rel_tol=1e-2 this block stops after 15 of its 50 inner iterations
    rng = np.random.default_rng(40)
    k = rng.random((12, 4))
    gram, a0 = k.T @ k, rng.random((9, 4))
    rhs = rng.standard_normal((9, 4))
    nonneg = Constraint("nonneg")
    got = _prox_block_solve(a0, gram, rhs, nonneg, rel_tol=1e-2)
    assert got.tobytes() == allocating_prox_block_solve(a0, gram, rhs, nonneg,
                                                        rel_tol=1e-2).tobytes()
    assert got.tobytes() == _prox_block_solve(a0, gram, rhs, nonneg, max_inner=15).tobytes()
    assert got.tobytes() != _prox_block_solve(a0, gram, rhs, nonneg, max_inner=16).tobytes()


# ---------------------------------------------------------------------------
# gather_fiber_rows
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(dims=dims_strategy, data=st.data())
def test_gather_matches_index_matrix_bitwise(dims, data):
    mode = data.draw(st.integers(0, len(dims) - 1))
    t, _ = instance(data.draw(st.integers(0, 2**31 - 1)), dims, 1)
    j = row_count(dims, mode)
    rows = data.draw(st.lists(st.integers(0, j - 1), max_size=2 * j))
    assert np.array_equal(gather_fiber_rows(t, mode, rows), index_matrix_gather(t, mode, rows))


@settings(max_examples=60, deadline=None)
@given(dims=dims_strategy, extra=st.integers(0, 5), data=st.data())
def test_gather_block_covering_all_fibers(dims, extra, data):
    """block >= J: the sampler clamps to every fiber of the mode."""
    t, _ = instance(data.draw(st.integers(0, 2**31 - 1)), dims, 1)
    blocks = [row_count(dims, n) + extra for n in range(len(dims))]
    sampler = FiberSampler(dims, blocks, np.random.default_rng(data.draw(st.integers(0, 1000))))
    for _ in range(len(dims)):
        sample = sampler.draw()
        assert sample.size == row_count(dims, sample.mode)
        got = gather_fiber_rows(t, sample.mode, sample.indices)
        assert np.array_equal(got, index_matrix_gather(t, sample.mode, sample.indices))


@pytest.mark.parametrize("dims", [(3, 4, 2), (5,), (1, 3, 1, 2)])
def test_gather_out_of_range_rows_rejected_like_oracle(dims):
    t, _ = instance(4, dims, 1)
    for mode in range(len(dims)):
        j = row_count(dims, mode)
        for bad in ([-1], [j], [0, j + 3]):
            with pytest.raises(ValueError, match="out of range"):
                index_matrix_gather(t, mode, bad)
            with pytest.raises(ValueError, match="out of range"):
                gather_fiber_rows(t, mode, bad)


def test_gather_empty_rows():
    t, _ = instance(5, (3, 4, 2), 1)
    assert gather_fiber_rows(t, 1, []).shape == (0, 4)


def test_rows_to_digits_known():
    digits = rows_to_digits((2, 2, 2), 0, [3])
    np.testing.assert_array_equal(digits.ravel(), [1, 1])


# ---------------------------------------------------------------------------
# kr_rows
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(dims=dims_strategy, rank=st.integers(1, 3), data=st.data())
def test_kr_rows_matches_digits_oracle_bitwise(dims, rank, data):
    mode = data.draw(st.integers(0, len(dims) - 1))
    _, model = instance(data.draw(st.integers(0, 2**31 - 1)), dims, rank)
    j = row_count(dims, mode)
    rows = data.draw(st.lists(st.integers(0, j - 1), max_size=2 * j))
    got = kr_rows(model, mode, rows)
    assert got.shape == (len(rows), rank)
    assert np.array_equal(got, digits_kr_rows(model, mode, rows))


@pytest.mark.parametrize("dims", [(3, 4, 2), (5,), (1, 3, 1, 2)])
def test_kr_rows_out_of_range_rows_rejected_like_oracle(dims):
    _, model = instance(4, dims, 2)
    for mode in range(len(dims)):
        j = row_count(dims, mode)
        for bad in ([-1], [j], [0, j + 3]):
            with pytest.raises(ValueError, match="out of range"):
                digits_kr_rows(model, mode, bad)
            with pytest.raises(ValueError, match="out of range"):
                kr_rows(model, mode, bad)


# ---------------------------------------------------------------------------
# metric: Gram identity against the exact residual
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(dims=dims_strategy, rank=st.integers(1, 4), data=st.data())
def test_metric_identity_matches_exact(dims, rank, data):
    """The identity subtracts terms of size ||t||^2 and ||Xhat||^2, so its
    error is bounded on the squared metric relative to those terms; m itself
    is within 1e-12 relative only when m^2 is not far below them."""
    t, model = instance(data.draw(st.integers(0, 2**31 - 1)), dims, rank)
    got, exact = metric(t, model), exact_metric(t, model)
    scale = 1.0 + squared_norm(reconstruct(model)) / squared_norm(t)
    assert abs(got**2 - exact**2) <= 1e-12 * scale
    if exact**2 >= 1e-2 * scale:
        assert abs(got - exact) <= 1e-12 * exact


def test_metric_identity_on_noisy_low_rank_data():
    noisy, truth, _ = generate_synthetic(SyntheticSpec((9, 7, 8), 3, snr_db=20.0, seed=1))
    rng = np.random.default_rng(2)
    for scale in (1e-3, 1e-1, 1.0):
        model = truth.copy()
        for f in model.factors:
            f += scale * rng.standard_normal(f.shape)
        exact = exact_metric(noisy, model)
        assert abs(metric(noisy, model) - exact) <= 1e-12 * exact


def test_metric_falls_back_to_exact_form_near_zero_residual():
    clean, truth, _ = generate_synthetic(SyntheticSpec((6, 5, 4), 2, seed=3))
    assert metric(clean, truth) == 0.0
    near = truth.copy()
    near.factors[1] *= 1.0 + 1e-7       # residual^2 / ||t||^2 ~ 1e-14, below the cut
    exact = exact_metric(clean, near)
    assert 0.0 < exact < 1e-5
    assert metric(clean, near) == exact


def test_metric_nan_model_stays_nan():
    t, model = instance(6, (3, 4, 5), 2)
    model.factors[2][0, 0] = np.nan
    assert math.isnan(metric(t, model))


def test_metric_rejects_incompatible_model():
    t, _ = instance(7, (3, 4, 5), 2)
    with pytest.raises(ValueError):
        metric(t, KruskalModel([np.ones((3, 2)), np.ones((4, 2)), np.ones((6, 2))]))
    extra = KruskalModel([np.ones((d, 2)) for d in (3, 4, 5, 6)])
    with pytest.raises(ValueError, match="model dims"):
        metric(t, extra)
    with pytest.raises(ValueError, match="model dims"):
        objective(t, extra)


@pytest.mark.parametrize("constraint", ["none", "nonneg"])
def test_metric_reuses_als_last_mttkrp(constraint):
    noisy, _, _ = generate_synthetic(SyntheticSpec((6, 7, 5, 4), 3, snr_db=10.0, seed=8))
    state = init_state(np.random.default_rng(9), noisy.dims, 3, "als")
    norm_sq = squared_norm(noisy)
    for _ in range(3):
        last = als_sweep(state, noisy, Constraint(constraint))
        np.testing.assert_array_equal(last, mttkrp(noisy, state.model, noisy.order - 1))
        reused = metric(noisy, state.model, norm_sq, last)
        assert reused == metric(noisy, state.model)
        exact = exact_metric(noisy, state.model)
        assert abs(reused - exact) <= 1e-12 * exact


def test_run_als_checkpoints_match_exact_metric():
    noisy, _, _ = generate_synthetic(SyntheticSpec((8, 6, 7), 2, snr_db=15.0, seed=10))
    rec = run(noisy, SolverConfig("als", 2, max_full_iters=4, seed=3))
    state = init_state(np.random.default_rng(np.random.SeedSequence(3, spawn_key=(1,))),
                       noisy.dims, 2, "als")
    for cp in rec.checkpoints:
        if cp.full_iter:
            als_sweep(state, noisy, Constraint("none"))
        exact = exact_metric(noisy, state.model)
        assert abs(cp.m - exact) <= 1e-12 * exact
