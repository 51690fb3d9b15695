"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live).

Criteria, in order:
 1. the kernels the solvers run against dense index-walk oracles (<= 1e-12 relative)
 2. sampled gradient vs central finite differences and the full-batch formula
 3. condition-cap and momentum-range invariants over 10,000 accelerated steps
 4. unconstrained ALS never increases the objective over 50 sweeps
 5. noiseless nonnegative recovery to m <= 1e-3 on >= 8 of 10 seeds
 6. high-SNR ordering: accelerated solver beats adagrad and plain prox-gradient
 7. low-SNR ordering: batch ALS within 0.02 of every stochastic solver
 8. exhaustive subset expectation of the sampled gradient
 9. CLI decompose is byte-deterministic modulo wall_seconds
10. synthetic generator realizes the target SNR exactly
"""

import itertools
import math
import time

import numpy as np

from fibercpd.cli import cli_main
from fibercpd.constraints import Constraint
from fibercpd.experiments import (
    SyntheticSpec,
    generate_synthetic,
    run,
    run_trials,
)
from fibercpd.sampling import FiberSample, FiberSampler
from fibercpd.solvers import (
    Adagrad,
    LocallyOptimal,
    SolverConfig,
    als_sweep,
    ascpd_iteration,
    init_state,
    sampled_gradient,
)
from fibercpd.tensor import (
    DenseTensor,
    KruskalModel,
    frob_norm,
    gather_fiber_rows,
    kr_rows,
    mttkrp,
    objective,
    reconstruct,
    row_count,
)
from oracles import fd_sampled_gradient, oracle_kr_full, oracle_unfold, read_run_csv


def _report(num, name, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"[criterion {num:02d}] {status}: {name} ({elapsed:.1f}s{budget_note})")


def rel_err(a, b):
    scale = np.linalg.norm(b)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / (scale if scale > 0 else 1.0)


def test_criterion_01_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    instances = 0
    while instances < 100:
        order = int(rng.integers(3, 5))
        dims = tuple(int(d) for d in rng.integers(1, 7, size=order))
        rank = int(rng.integers(1, 5))
        t = DenseTensor(dims, rng.standard_normal(math.prod(dims)))
        model = KruskalModel([rng.standard_normal((d, rank)) for d in dims])
        for mode in range(order):
            uo = oracle_unfold(t, mode)
            ko = oracle_kr_full(model, mode)
            worst = max(worst, rel_err(mttkrp(t, model, mode), uo.T @ ko))
            j = row_count(dims, mode)
            rows = np.unique(rng.integers(0, j, size=min(4, j)))
            x_f, k_f = uo[rows], ko[rows]
            worst = max(worst, rel_err(gather_fiber_rows(t, mode, rows), x_f))
            worst = max(worst, rel_err(kr_rows(model, mode, rows), k_f))
            at = rng.standard_normal((dims[mode], rank))
            grad, gram = sampled_gradient(t, model, FiberSample(mode, rows), at)
            gram_f = k_f.T @ k_f
            worst = max(worst, rel_err(gram, gram_f))
            worst = max(worst, rel_err(grad, at @ gram_f - x_f.T @ k_f))
        instances += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(1, f"kernel oracles on {instances} instances, worst rel err {worst:.2e}",
            ok, elapsed, 10.0)
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_02_gradient_correctness():
    t0 = time.perf_counter()
    worst_fd, worst_full = 0.0, 0.0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        t = DenseTensor((4, 3, 2), rng.standard_normal(24))
        model = KruskalModel([rng.random((d, 2)) for d in (4, 3, 2)])
        mode = int(rng.integers(3))
        j = row_count(t.dims, mode)
        rows = np.sort(rng.choice(j, size=min(3, j), replace=False))
        sample = FiberSample(mode, rows)
        at = rng.random((t.dims[mode], 2))
        grad, _ = sampled_gradient(t, model, sample, at)
        worst_fd = max(worst_fd, rel_err(grad, fd_sampled_gradient(t, model, mode, rows, at)))
        # full-fiber sample against the dense full-gradient formula
        all_rows = np.arange(j)
        full_grad, _ = sampled_gradient(t, model, FiberSample(mode, all_rows), at)
        k = oracle_kr_full(model, mode)
        dense = at @ (k.T @ k) - oracle_unfold(t, mode).T @ k
        worst_full = max(worst_full, rel_err(full_grad, dense))
    elapsed = time.perf_counter() - t0
    ok = worst_fd <= 1e-6 and worst_full <= 1e-12 and elapsed < 5.0
    _report(2, f"gradient vs finite differences {worst_fd:.2e}, vs full formula "
               f"{worst_full:.2e}", ok, elapsed, 5.0)
    assert worst_fd <= 1e-6
    assert worst_full <= 1e-12
    assert elapsed < 5.0


def test_criterion_03_lambda_and_momentum_invariants():
    t0 = time.perf_counter()
    cond = 10.0
    noisy, _, _ = generate_synthetic(SyntheticSpec((12, 10, 8), 3, snr_db=20.0, seed=303))
    state = init_state(np.random.default_rng(304), noisy.dims, 3, "ascpd")
    constraint = Constraint("nonneg")
    sampler = FiberSampler(noisy.dims, (16, 16, 16), np.random.default_rng(305))
    checked = 0
    ok = True
    for _ in range(10000):
        est = ascpd_iteration(state, noisy, sampler.draw(), constraint, LocallyOptimal(cond))
        if est is None:
            continue
        checked += 1
        if est.L_bar / est.mu_bar > cond + 1.0 + 1e-9 or not 0.0 <= est.beta < 1.0:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 10000 and elapsed < 60.0
    _report(3, f"condition cap and momentum range held for {checked} iterations",
            ok, elapsed, 60.0)
    assert ok
    assert elapsed < 60.0


def test_criterion_04_als_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    t = DenseTensor((10, 10, 10), rng.standard_normal(1000))
    state = init_state(np.random.default_rng(405), t.dims, 4, "als")
    constraint = Constraint("none")
    prev = objective(t, state.model)
    ok = True
    for _ in range(50):
        als_sweep(state, t, constraint)
        cur = objective(t, state.model)
        if cur > prev * (1.0 + 1e-10):
            ok = False
            break
        prev = cur
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(4, "50 unconstrained ALS sweeps never increased the objective",
            ok, elapsed, 5.0)
    assert ok
    assert elapsed < 5.0


def test_criterion_05_noiseless_recovery():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(10):
        noisy, _, _ = generate_synthetic(SyntheticSpec((20, 20, 20), 5, seed=seed))
        cfg = SolverConfig(solver="ascpd", rank=5, constraint="nonneg", blocksizes=100,
                           schedule=LocallyOptimal(100.0), seed=seed,
                           max_full_iters=200, tol=1e-3)
        rec = run(noisy, cfg)
        if rec.final_metric <= 1e-3 and rec.checkpoints[-1].full_iter <= 200:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 8 and elapsed < 120.0
    _report(5, f"noiseless recovery to 1e-3 on {hits}/10 seeds", ok, elapsed, 120.0)
    assert hits >= 8
    assert elapsed < 120.0


def _bench_grid(snr_db, solvers, trials=10):
    spec = SyntheticSpec((60, 60, 60), 20, snr_db=snr_db, seed=1)
    finals = {}
    for solver in solvers:
        if solver in ("ascpd", "spg"):
            schedule = LocallyOptimal(100.0)
        elif solver == "adacpd":
            schedule = Adagrad(eta=1.0)
        else:
            schedule = None
        cfg = SolverConfig(solver=solver, rank=20, constraint="nonneg", blocksizes=200,
                           schedule=schedule, seed=1, max_full_iters=100)
        avg, _ = run_trials(spec, cfg, trials=trials)
        finals[solver] = avg.final_metric
    return finals


def test_criterion_06_high_snr_ordering():
    t0 = time.perf_counter()
    finals = _bench_grid(30.0, ("ascpd", "adacpd", "spg"))
    elapsed = time.perf_counter() - t0
    ok = (finals["ascpd"] <= finals["adacpd"]
          and finals["ascpd"] <= finals["spg"]
          and elapsed < 600.0)
    detail = ", ".join(f"{s}={finals[s]:.5f}" for s in ("ascpd", "adacpd", "spg"))
    _report(6, f"30 dB averaged final m_k: {detail}", ok, elapsed, 600.0)
    assert finals["ascpd"] <= finals["adacpd"]
    assert finals["ascpd"] <= finals["spg"]
    assert elapsed < 600.0


def test_criterion_07_low_snr_baseline():
    t0 = time.perf_counter()
    finals = _bench_grid(10.0, ("als", "ascpd", "adacpd", "spg"))
    elapsed = time.perf_counter() - t0
    stochastic = ("ascpd", "adacpd", "spg")
    ok = all(finals["als"] <= finals[s] + 0.02 for s in stochastic) and elapsed < 600.0
    detail = ", ".join(f"{s}={finals[s]:.5f}" for s in ("als",) + stochastic)
    _report(7, f"10 dB averaged final m_k: {detail}", ok, elapsed, 600.0)
    for s in stochastic:
        assert finals["als"] <= finals[s] + 0.02
    assert elapsed < 600.0


def test_criterion_08_exhaustive_expectation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    t = DenseTensor((3, 2, 2), rng.standard_normal(12))
    model = KruskalModel([rng.random((d, 2)) for d in (3, 2, 2)])
    block = 2
    worst = 0.0
    for mode in range(3):
        j = row_count(t.dims, mode)
        at = model.factors[mode]
        total = np.zeros_like(at)
        count = 0
        for subset in itertools.combinations(range(j), block):
            grad, _ = sampled_gradient(t, model, FiberSample(mode, np.array(subset)), at)
            total += grad
            count += 1
        k = oracle_kr_full(model, mode)
        dense = at @ (k.T @ k) - oracle_unfold(t, mode).T @ k
        worst = max(worst, rel_err(total / count, (block / j) * dense))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10
    _report(8, f"subset-mean gradient vs (B/J) x full gradient, worst {worst:.2e}",
            ok, elapsed)
    assert worst <= 1e-10


def test_criterion_09_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    tensor_path = tmp_path / "x.dten"
    assert cli_main(["synth", "--dims", "8,7,6", "--rank", "3", "--snr", "20",
                     "--seed", "11", "--out", str(tensor_path)]) == 0
    args = ["decompose", "--in", str(tensor_path), "--solver", "ascpd", "--rank", "3",
            "--block", "10", "--cond", "100", "--constraint", "nonneg",
            "--seed", "11", "--max-full-iters", "6"]
    outputs = []
    for name in ("a.csv", "b.csv"):
        csv_path = tmp_path / name
        assert cli_main(args + ["--csv", str(csv_path)]) == 0
        echo, rows = read_run_csv(csv_path)
        outputs.append((echo, [{k: v for k, v in r.items() if k != "wall_seconds"}
                               for r in rows]))
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1]
    _report(9, "repeated decompose identical modulo wall_seconds", ok, elapsed)
    assert ok


def test_criterion_10_snr_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for snr_db in (10.0, 30.0):
        spec = SyntheticSpec((10, 9, 8), 4, snr_db=snr_db, seed=1010)
        noisy, truth, sigma = generate_synthetic(spec)
        clean = reconstruct(truth)
        noise = (noisy.values - clean.values) / sigma
        realized = frob_norm(clean) ** 2 / (sigma ** 2 * float(noise @ noise))
        target = 10.0 ** (snr_db / 10.0)
        worst = max(worst, abs(realized - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    _report(10, f"realized SNR within {worst:.2e} of target", ok, elapsed)
    assert worst <= 1e-12
