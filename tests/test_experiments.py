import math

import numpy as np
import pytest

from fibercpd.experiments import (
    Checkpoint,
    RunRecord,
    SyntheticSpec,
    average_records,
    full_iteration_cost,
    generate_synthetic,
    metric,
    run,
    run_trials,
)
from fibercpd.solvers import Diminishing, SolverConfig
from fibercpd.tensor import DenseTensor, objective, reconstruct


def small_cfg(solver="ascpd", **kw):
    defaults = dict(solver=solver, rank=2, constraint="nonneg", blocksizes=4,
                    seed=3, max_full_iters=5)
    defaults.update(kw)
    return SolverConfig(**defaults)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_generate_noiseless_is_exact():
    noisy, truth, sigma = generate_synthetic(SyntheticSpec((4, 3, 2), 2, seed=0))
    assert sigma == 0.0
    np.testing.assert_array_equal(noisy.values, reconstruct(truth).values)


def test_generate_snr_realized_exactly():
    for snr_db in (10.0, 30.0):
        spec = SyntheticSpec((6, 5, 4), 3, snr_db=snr_db, seed=1)
        noisy, truth, sigma = generate_synthetic(spec)
        clean = reconstruct(truth)
        noise = (noisy.values - clean.values) / sigma
        realized = np.linalg.norm(clean.values) ** 2 / (sigma ** 2 * float(noise @ noise))
        target = 10.0 ** (snr_db / 10.0)
        assert abs(realized - target) <= 1e-12 * target


def test_generate_noisy_is_model_plus_scaled_noise():
    # the noise is the draw that follows the factor draws; sigma comes from the
    # factor Grams, not from the clean tensor, and rounds as its dot product does
    spec = SyntheticSpec((30, 20, 70), 7, snr_db=10.0, seed=21)
    noisy, truth, sigma = generate_synthetic(spec)
    rng = np.random.default_rng(spec.seed)
    for d in spec.dims:
        rng.random((d, spec.rank))
    noise = rng.standard_normal(math.prod(spec.dims))
    clean = reconstruct(truth).values
    expected = clean + sigma * noise
    assert np.abs(noisy.values - expected).max() <= 1e-13 * np.abs(noisy.values).max()
    by_dot = math.sqrt(float(clean @ clean)) / (
        math.sqrt(10.0 ** (spec.snr_db / 10.0)) * math.sqrt(float(noise @ noise)))
    assert abs(sigma - by_dot) <= 1e-15 * by_dot


def test_generate_clean_entries_bounded_by_rank():
    spec = SyntheticSpec((5, 5, 5), 4, seed=2)
    clean, truth, _ = generate_synthetic(spec)
    assert clean.values.min() >= 0.0
    assert clean.values.max() <= 4.0


def test_generate_noise_not_clipped():
    spec = SyntheticSpec((6, 6, 6), 2, snr_db=0.0, seed=3)
    noisy, _, _ = generate_synthetic(spec)
    assert noisy.values.min() < 0.0  # heavy noise drives entries negative


def test_generate_deterministic():
    spec = SyntheticSpec((4, 4, 4), 2, snr_db=10.0, seed=4)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    np.testing.assert_array_equal(a[0].values, b[0].values)
    assert a[2] == b[2]


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def test_metric_exact_model_zero():
    noisy, truth, _ = generate_synthetic(SyntheticSpec((4, 3, 2), 2, seed=5))
    assert metric(noisy, truth) == 0.0


def test_metric_zero_model_is_one():
    noisy, truth, _ = generate_synthetic(SyntheticSpec((4, 3, 2), 2, seed=6))
    zero = truth.copy()
    for f in zero.factors:
        f[:] = 0.0
    assert metric(noisy, zero) == pytest.approx(1.0, rel=1e-14)


def test_metric_equals_objective_identity():
    rng = np.random.default_rng(7)
    noisy, truth, _ = generate_synthetic(SyntheticSpec((4, 5, 3), 2, snr_db=5.0, seed=7))
    model = truth.copy()
    model.factors[0] += 0.1 * rng.standard_normal(model.factors[0].shape)
    lhs = metric(noisy, model)
    rhs = math.sqrt(objective(noisy, model)) / np.linalg.norm(noisy.values)
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_metric_zero_tensor_rejected():
    t = DenseTensor((2, 2), np.zeros(4))
    _, truth, _ = generate_synthetic(SyntheticSpec((2, 2), 1, seed=8))
    with pytest.raises(ValueError):
        metric(t, truth)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_zero_budget_only_initial_checkpoint():
    noisy, _, _ = generate_synthetic(SyntheticSpec((4, 4, 4), 2, snr_db=20.0, seed=9))
    rec = run(noisy, small_cfg(max_full_iters=0))
    assert len(rec.checkpoints) == 1
    assert rec.checkpoints[0].full_iter == 0
    assert rec.checkpoints[0].work_units == 0


def test_run_zero_budget_still_checks_blocksizes():
    noisy, _, _ = generate_synthetic(SyntheticSpec((4, 4, 4), 2, snr_db=20.0, seed=9))
    with pytest.raises(ValueError, match="need 3 blocksizes, got 2"):
        run(noisy, small_cfg(blocksizes=(3, 3), max_full_iters=0))


def test_run_nan_metric_does_not_stop_at_tolerance():
    # a diverging trial reads m = nan, which is not <= tol: it runs its budget
    clean, _, _ = generate_synthetic(SyntheticSpec((20, 20, 20), 5, seed=0))
    cfg = SolverConfig("brascpd", 5, blocksizes=20, schedule=Diminishing(alpha=50.0),
                       max_full_iters=3, tol=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        rec = run(clean, cfg)
    assert [c.full_iter for c in rec.checkpoints] == [0, 1, 2, 3]
    assert all(math.isnan(c.m) for c in rec.checkpoints[1:])


def records_equal_modulo_wall(a: RunRecord, b: RunRecord) -> bool:
    if (a.solver, a.seed, a.trial) != (b.solver, b.seed, b.trial):
        return False
    if len(a.checkpoints) != len(b.checkpoints):
        return False
    return all(
        (ca.full_iter, ca.work_units, ca.m) == (cb.full_iter, cb.work_units, cb.m)
        for ca, cb in zip(a.checkpoints, b.checkpoints)
    )


@pytest.mark.parametrize("solver", ["ascpd", "spg", "brascpd", "adacpd", "als"])
def test_run_deterministic_given_seed(solver):
    noisy, _, _ = generate_synthetic(SyntheticSpec((5, 4, 3), 2, snr_db=20.0, seed=10))
    cfg = small_cfg(solver=solver, max_full_iters=3)
    assert records_equal_modulo_wall(run(noisy, cfg), run(noisy, cfg))


def test_run_checkpoints_strictly_increasing_and_bounded():
    noisy, _, _ = generate_synthetic(SyntheticSpec((6, 5, 4), 2, snr_db=20.0, seed=11))
    rec = run(noisy, small_cfg(max_full_iters=7))
    idx = [c.full_iter for c in rec.checkpoints]
    assert idx[0] == 0
    assert all(b > a for a, b in zip(idx, idx[1:]))
    assert idx[-1] >= 7
    work = [c.work_units for c in rec.checkpoints]
    assert all(b > a for a, b in zip(work, work[1:]))


def test_run_als_checkpoint_per_sweep():
    noisy, _, _ = generate_synthetic(SyntheticSpec((4, 4, 4), 2, snr_db=20.0, seed=12))
    rec = run(noisy, small_cfg(solver="als", max_full_iters=4))
    assert [c.full_iter for c in rec.checkpoints] == [0, 1, 2, 3, 4]
    cost = full_iteration_cost((4, 4, 4))
    assert [c.work_units for c in rec.checkpoints] == [0, cost, 2 * cost, 3 * cost, 4 * cost]


def test_run_stops_at_tolerance():
    noisy, _, _ = generate_synthetic(SyntheticSpec((5, 5, 5), 2, seed=13))
    rec = run(noisy, small_cfg(solver="als", constraint="none",
                               max_full_iters=100, tol=1e-3))
    assert rec.final_metric <= 1e-3
    assert rec.checkpoints[-1].full_iter < 100


def test_run_initial_metric_for_synthetic_differs_from_truth():
    # solver init must not coincide with the ground-truth factors even though
    # data seed == solver seed
    spec = SyntheticSpec((4, 4, 4), 2, seed=14)
    noisy, truth, _ = generate_synthetic(spec)
    rec = run(noisy, small_cfg(seed=14, max_full_iters=0))
    assert rec.checkpoints[0].m > 1e-3


# ---------------------------------------------------------------------------
# run_trials / averaging
# ---------------------------------------------------------------------------


def test_run_trials_single_trial_average_is_identity():
    spec = SyntheticSpec((4, 4, 4), 2, snr_db=20.0, seed=15)
    avg, records = run_trials(spec, small_cfg(max_full_iters=3), trials=1)
    assert len(records) == 1
    assert [c.m for c in avg.checkpoints] == [c.m for c in records[0].checkpoints]


def test_run_trials_seeds_offset_by_index():
    spec = SyntheticSpec((4, 4, 4), 2, snr_db=20.0, seed=16)
    _, records = run_trials(spec, small_cfg(seed=16, max_full_iters=2), trials=3)
    assert [r.seed for r in records] == [16, 17, 18]
    assert [r.trial for r in records] == [0, 1, 2]


def test_average_permutation_invariant():
    spec = SyntheticSpec((4, 4, 4), 2, snr_db=20.0, seed=17)
    _, records = run_trials(spec, small_cfg(seed=17, max_full_iters=3), trials=4)
    fwd = average_records(records)
    rev = average_records(records[::-1])
    assert [c.m for c in fwd.checkpoints] == [c.m for c in rev.checkpoints]


def test_run_trials_deterministic():
    spec = SyntheticSpec((4, 4, 4), 2, snr_db=20.0, seed=18)
    avg1, _ = run_trials(spec, small_cfg(seed=18, max_full_iters=3), trials=3)
    avg2, _ = run_trials(spec, small_cfg(seed=18, max_full_iters=3), trials=3)
    assert [c.m for c in avg1.checkpoints] == [c.m for c in avg2.checkpoints]


def test_run_trials_reports_failing_seed():
    bad = DenseTensor((3, 3, 3), np.zeros(27))  # metric rejects the zero tensor
    with pytest.raises(RuntimeError, match=r"trial 0 \(seed 19\)"):
        run_trials(bad, small_cfg(seed=19, max_full_iters=1), trials=2)


def test_run_trials_requires_positive_count():
    spec = SyntheticSpec((4, 4, 4), 2, seed=20)
    with pytest.raises(ValueError):
        run_trials(spec, small_cfg(), trials=0)


def test_average_records_aligns_on_index():
    rec_a = RunRecord("als", 0, 0, [Checkpoint(0, 0, 1.0, 0.0), Checkpoint(1, 10, 0.5, 1.0)])
    rec_b = RunRecord("als", 1, 1, [Checkpoint(0, 0, 0.8, 0.0)])
    avg = average_records([rec_a, rec_b])
    assert [c.full_iter for c in avg.checkpoints] == [0, 1]
    assert avg.checkpoints[0].m == pytest.approx(0.9)
    assert avg.checkpoints[1].m == pytest.approx(0.65)   # rec_b stopped at 0.8


def test_average_records_carries_stopped_trials_forward():
    # trials that stopped at their tolerance after 0, 1 and 2 full iterations
    recs = [
        RunRecord("ascpd", 0, 0, [Checkpoint(0, 0, 0.9, 0.0)]),
        RunRecord("ascpd", 1, 1, [Checkpoint(0, 0, 1.0, 0.0),
                                  Checkpoint(1, 12, 0.4, 1.0)]),
        RunRecord("ascpd", 2, 2, [Checkpoint(0, 0, 0.8, 0.0),
                                  Checkpoint(1, 10, 0.6, 2.0),
                                  Checkpoint(2, 21, 0.3, 4.0)]),
    ]
    avg = average_records(recs)
    assert [c.full_iter for c in avg.checkpoints] == [0, 1, 2]
    assert [c.m for c in avg.checkpoints] == pytest.approx([0.9, (0.9 + 0.4 + 0.6) / 3,
                                                            (0.9 + 0.4 + 0.3) / 3])
    # work and time average only the trials that reached the index
    assert [c.work_units for c in avg.checkpoints] == [0, 11, 21]
    assert [c.wall_seconds for c in avg.checkpoints] == pytest.approx([0.0, 1.5, 4.0])
