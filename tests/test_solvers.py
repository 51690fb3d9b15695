import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest

from fibercpd import solvers, tensor
from fibercpd.constraints import Constraint
from fibercpd.experiments import SyntheticSpec, generate_synthetic, run
from fibercpd.sampling import FiberSample, FiberSampler
from fibercpd.solvers import (
    Adagrad,
    CurvatureEstimate,
    Diminishing,
    LocallyOptimal,
    SolverConfig,
    _cap_bounds,
    _solve_normal_equations,
    adacpd_iteration,
    als_sweep,
    ascpd_iteration,
    brascpd_iteration,
    eigen_extremes,
    hadamard_gram,
    init_state,
    lambda_rule,
    sampled_gradient,
    spg_iteration,
)
from fibercpd.tensor import (
    DenseTensor,
    KruskalModel,
    mttkrp,
    objective,
    row_count,
)
from oracles import fd_sampled_gradient, oracle_kr_full, oracle_unfold, per_mode_mttkrp

UNCON = Constraint("none")
NONNEG = Constraint("nonneg")
EPS = np.finfo(np.float64).eps


def full_gradient(t: DenseTensor, model: KruskalModel, mode: int) -> np.ndarray:
    """Gradient of the halved full objective w.r.t. factor `mode`: A K^T K - X^(mode)T K."""
    return model.factors[mode] @ hadamard_gram(model, skip=mode) - mttkrp(t, model, mode)


def random_problem(seed, dims=(4, 3, 2), rank=2, noisy=True):
    rng = np.random.default_rng(seed)
    t = DenseTensor(dims, rng.standard_normal(math.prod(dims))) if noisy else None
    model = KruskalModel([rng.random((d, rank)) for d in dims])
    if t is None:
        from fibercpd.tensor import reconstruct
        t = reconstruct(model)
    return t, model


def char_poly_eigs_3x3(m):
    """Roots of det(m - x I) for a symmetric 3x3, via the cubic's coefficients."""
    a, b, c = m[0]
    _, d, e = m[1]
    f = m[2, 2]
    # det(m - xI) = -x^3 + tr x^2 - (sum of principal 2x2 minors) x + det
    tr = a + d + f
    minors = (a * d - b * b) + (a * f - c * c) + (d * f - e * e)
    det = np.linalg.det(m)
    roots = np.roots([-1.0, tr, -minors, det])
    return np.sort(roots.real)


# ---------------------------------------------------------------------------
# sampled gradient
# ---------------------------------------------------------------------------


def test_sampled_gradient_full_fibers_equals_full_gradient():
    t, model = random_problem(0)
    for mode in range(3):
        rows = np.arange(row_count(t.dims, mode))
        sample = FiberSample(mode, rows)
        grad, gram = sampled_gradient(t, model, sample, model.factors[mode])
        k = oracle_kr_full(model, mode)
        expected = model.factors[mode] @ (k.T @ k) - oracle_unfold(t, mode).T @ k
        assert np.linalg.norm(grad - expected) <= 1e-12 * max(np.linalg.norm(expected), 1.0)
        assert np.linalg.norm(grad - full_gradient(t, model, mode)) \
            <= 1e-12 * max(np.linalg.norm(expected), 1.0)


def test_sampled_gradient_zero_at_exact_factors():
    t, model = random_problem(1, noisy=False)
    for mode in range(3):
        sample = FiberSample(mode, np.array([0, 1, 3]))
        grad, _ = sampled_gradient(t, model, sample, model.factors[mode])
        assert np.linalg.norm(grad) < 1e-12


def test_sampled_gradient_matches_finite_differences():
    t, model = random_problem(2)
    sample = FiberSample(0, np.array([0, 2]))
    at = np.random.default_rng(3).random((4, 2))
    grad, _ = sampled_gradient(t, model, sample, at)
    fd = fd_sampled_gradient(t, model, sample.mode, sample.indices, at)
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_sampled_gradient_shape_check():
    t, model = random_problem(4)
    sample = FiberSample(0, np.array([0]))
    with pytest.raises(ValueError):
        sampled_gradient(t, model, sample, np.zeros((3, 2)))


MODEL_MISMATCH = r"model dims \(4, 2, 10\) do not match tensor dims \(4, 5, 4\)"


def mismatched_problem(solver):
    """A (4, 5, 4) tensor, a state built for (4, 2, 10) and a sample of every
    mode-0 fiber: both mode-0 unfoldings have 20 rows, so the `at` shape and
    every row index fit, and only the dims comparison tells them apart."""
    rng = np.random.default_rng(0)
    t = DenseTensor((4, 5, 4), rng.standard_normal(80))
    return t, init_state(rng, (4, 2, 10), 2, solver), FiberSample(0, np.arange(20))


def test_sampled_gradient_checks_the_model():
    t, state, sample = mismatched_problem("spg")
    with pytest.raises(ValueError, match=MODEL_MISMATCH):
        sampled_gradient(t, state.model, sample, state.model.factors[0])
    extra = KruskalModel([np.ones((d, 2)) for d in (4, 5, 4, 3)])
    with pytest.raises(ValueError, match=r"model dims \(4, 5, 4, 3\) do not match"):
        sampled_gradient(t, extra, sample, extra.factors[0])


@pytest.mark.parametrize("solver", solvers.SCHEDULES)
def test_iteration_checks_the_model_before_writing(solver):
    t, state, sample = mismatched_problem(solver)
    before = state.model.copy()
    step = getattr(solvers, f"{solver}_iteration")
    with pytest.raises(ValueError, match=MODEL_MISMATCH):
        step(state, t, sample, NONNEG, solvers.SCHEDULES[solver]())
    assert (state.iteration, state.work_units) == (0, 0)
    for got, want in zip(state.model.factors, before.factors):
        np.testing.assert_array_equal(got, want)


def test_sampled_gradient_expectation_over_subsets():
    # mean over all size-B fiber subsets == (B/J) * full gradient
    t, model = random_problem(5, dims=(3, 2, 2), rank=2)
    block = 2
    for mode in range(3):
        j = row_count(t.dims, mode)
        at = model.factors[mode]
        total = np.zeros_like(at)
        count = 0
        for subset in itertools.combinations(range(j), block):
            grad, _ = sampled_gradient(t, model, FiberSample(mode, np.array(subset)), at)
            total += grad
            count += 1
        mean = total / count
        expected = (block / j) * full_gradient(t, model, mode)
        assert np.linalg.norm(mean - expected) <= 1e-10 * max(np.linalg.norm(expected), 1.0)


# ---------------------------------------------------------------------------
# curvature: eigen extremes and the lambda rule
# ---------------------------------------------------------------------------


def test_eigen_extremes_diagonal():
    assert eigen_extremes(np.diag([2.0, 8.0])) == (8.0, 2.0)


def test_eigen_extremes_rank_one():
    v = np.array([1.0, 2.0, 0.0])
    L, mu = eigen_extremes(np.outer(v, v))  # ||v||^2 = 5
    assert L == pytest.approx(5.0, rel=1e-12)
    assert mu == 0.0


def test_eigen_extremes_matches_char_poly_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = rng.standard_normal((5, 3))
        gram = k.T @ k
        L, mu = eigen_extremes(gram)
        roots = char_poly_eigs_3x3(gram)
        assert abs(L - roots[-1]) <= 1e-8 * max(abs(roots[-1]), 1.0)
        assert abs(mu - max(roots[0], 0.0)) <= 1e-8 * max(abs(roots[-1]), 1.0)


def test_eigen_extremes_rejects_non_finite():
    with pytest.raises(ValueError):
        eigen_extremes(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_lambda_rule_small_ratio_branch():
    assert lambda_rule(5.0, 1.0, 10.0) == 1.0


def test_lambda_rule_capped_branch():
    lam = lambda_rule(1000.0, 1.0, 10.0)
    assert lam == 100.0
    assert (1000.0 + lam) / (1.0 + lam) <= 11.0


def test_lambda_rule_zero_mu():
    assert lambda_rule(5.0, 0.0, 10.0) == 0.5


def test_lambda_rule_caps_condition_number():
    rng = np.random.default_rng(7)
    for cond in (2.0, 10.0, 1e3):
        for _ in range(50):
            k = rng.standard_normal((6, 4))
            L, mu = eigen_extremes(k.T @ k)
            lam = lambda_rule(L, mu, cond)
            assert (L + lam) / (mu + lam) <= cond + 1.0 + 1e-9


def test_curvature_beta_in_range():
    rng = np.random.default_rng(8)
    for _ in range(50):
        k = rng.standard_normal((6, 3))
        L, mu = eigen_extremes(k.T @ k)
        est = CurvatureEstimate(L, mu, lambda_rule(L, mu, 100.0))
        assert 0.0 <= est.beta < 1.0
        if est.L_bar == est.mu_bar:
            assert est.beta == 0.0


# ---------------------------------------------------------------------------
# the certified lambda cap against eigen_extremes
# ---------------------------------------------------------------------------


def capped_beta(cond):
    """beta where L_bar/mu_bar = cond + 1."""
    s = math.sqrt(cond + 1.0)
    return (s - 1.0) / (s + 1.0)


def test_cap_bounds_is_exact_or_a_certified_cap():
    """Random nonneg Grams: either eigen_extremes' tuple, or mu = 0 and an L
    within 1e-12 above eigvalsh's, where eigvalsh confirms the cap."""
    rng = np.random.default_rng(50)
    certified = exact = 0
    for _ in range(300):
        r = int(rng.integers(1, 121))
        k = rng.random((int(rng.integers(1, 3 * r + 1)), r))
        gram = k.T @ k
        cond = math.exp(rng.uniform(1e-6, math.log(1000.0)))   # log-uniform in (1, 1000)
        L, mu = eigen_extremes(gram)
        got = _cap_bounds(gram, cond)
        if got == (L, mu):
            exact += 1
            continue
        certified += 1
        L_cert, mu_cert = got
        assert mu_cert == 0.0
        assert mu <= L / cond
        # an upper bound on L, to the last bits both computations round
        # (a 3,000-Gram sweep saw L_cert up to 1.5 ulp below eigvalsh's L)
        assert L * (1.0 - 4 * EPS) <= L_cert <= L * (1.0 + 1e-12)
    assert certified >= 50 and exact >= 50


@pytest.mark.filterwarnings("error")           # a zero row must not reach a division
def test_cap_bounds_falls_back_to_eigen_extremes_exactly():
    rng = np.random.default_rng(51)
    k_pos = rng.random((200, 50))
    negative = k_pos.copy()
    negative[0, 0] = -100.0                     # one unconstrained entry
    zero_col = k_pos.copy()
    zero_col[:, 3] = 0.0
    two_blocks = np.zeros((20, 20))             # top eigenvalues 10 and 9 in
    two_blocks[:10, :10] = 1.0                  # separate blocks: the bracket
    two_blocks[10:, 10:] = 0.9                  # stays [9, 10] at every step
    grams = {
        "negative entry": negative.T @ negative,
        "zero column": zero_col.T @ zero_col,
        "1x1": np.array([[2.5]]),
        "well conditioned": 3.0 * np.eye(30) + 0.01,
        "open bracket": two_blocks,
    }
    cond = 10.0
    for name, gram in grams.items():
        if name in ("negative entry", "zero column", "open bracket"):
            # the Rayleigh certificate holds, so the later checks decide
            assert gram.diagonal().min() * cond < gram.sum() / gram.shape[0], name
        assert _cap_bounds(gram, cond) == eigen_extremes(gram), name
    # the negative entries leave every row sum positive: only the sign test rejects
    assert (grams["negative entry"] < 0).any()
    assert (grams["negative entry"].sum(axis=1) > 0).all()


@pytest.mark.filterwarnings("error")           # rejected before any arithmetic on it
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_cap_bounds_rejects_non_finite(bad, where):
    gram = np.random.default_rng(52).random((60, 8))
    gram = gram.T @ gram
    gram[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        _cap_bounds(gram, 10.0)


def count_eigensolves(monkeypatch, solver, t, rank, cond, block):
    """(steps, eigen_extremes calls) over a one-full-iteration nonneg run."""
    counts = {"steps": 0, "eigen": 0}
    cap_bounds, eigen = solvers._cap_bounds, solvers.eigen_extremes

    def counted_cap(*args):
        counts["steps"] += 1
        return cap_bounds(*args)

    def counted_eigen(*args):
        counts["eigen"] += 1
        return eigen(*args)

    monkeypatch.setattr(solvers, "_cap_bounds", counted_cap)
    monkeypatch.setattr(solvers, "eigen_extremes", counted_eigen)
    cfg = SolverConfig(solver, rank, constraint="nonneg", blocksizes=block,
                       schedule=LocallyOptimal(cond), seed=3, max_full_iters=1)
    run(t, cfg)
    return counts["steps"], counts["eigen"]


@pytest.mark.parametrize("solver", ["ascpd", "spg"])
def test_cap_certified_on_a_paper_like_run(monkeypatch, solver):
    """Nonneg, R = 50, cond 10: the paper cell's regime skips eigvalsh."""
    t, _, _ = generate_synthetic(SyntheticSpec((30, 30, 30), 50, snr_db=10.0, seed=53))
    steps, eigen = count_eigensolves(monkeypatch, solver, t, 50, 10.0, 100)
    assert steps == 36
    assert eigen <= 0.05 * steps


def test_cap_falls_back_on_a_desk_like_run(monkeypatch):
    """R = 20, cond 100: the certificate rarely holds and eigvalsh runs."""
    t, _, _ = generate_synthetic(SyntheticSpec((30, 30, 30), 20, snr_db=30.0, seed=54))
    steps, eigen = count_eigensolves(monkeypatch, "ascpd", t, 20, 100.0, 100)
    assert steps == 36
    assert eigen >= 0.95 * steps


def test_certified_ascpd_step_uses_capped_curvature():
    t, _, _ = generate_synthetic(SyntheticSpec((30, 30, 30), 50, snr_db=10.0, seed=55))
    state = make_state(56, t, 50, "ascpd")
    sample = FiberSampler(t.dims, (100,) * 3, np.random.default_rng(57)).draw()
    cond = 10.0
    est = ascpd_iteration(state, t, sample, NONNEG, LocallyOptimal(cond))
    assert est.mu == 0.0                        # the certified branch
    assert est.mu_bar == est.lam == est.L / cond
    assert est.L_bar / est.mu_bar == pytest.approx(cond + 1.0, rel=1e-12)
    assert est.beta == pytest.approx(capped_beta(cond), rel=1e-12)


# ---------------------------------------------------------------------------
# stochastic iterations vs scripted updates
# ---------------------------------------------------------------------------


def make_state(seed, t, rank, solver):
    return init_state(np.random.default_rng(seed), t.dims, rank, solver)


def test_ascpd_iteration_matches_scripted_update():
    t, _, _ = generate_synthetic(SyntheticSpec((4, 4, 4), 2, snr_db=15.0, seed=9))
    state = make_state(10, t, 2, "ascpd")
    rng = np.random.default_rng(11)
    # push Y away from A so the proximal-anchor term is exercised
    for n in range(3):
        state.extrapolation.factors[n] = state.extrapolation.factors[n] \
            + 0.05 * rng.standard_normal(state.model.factors[n].shape)
    mode, cond = 1, 10.0
    sample = FiberSample(mode, np.array([0, 3, 7, 9]))
    a_old = state.model.factors[mode].copy()
    y_old = state.extrapolation.factors[mode].copy()
    model_before = state.model.copy()

    est = ascpd_iteration(state, t, sample, NONNEG, LocallyOptimal(cond))

    k = oracle_kr_full(model_before, mode)[sample.indices]
    x = oracle_unfold(t, mode)[sample.indices]
    gram = k.T @ k
    grad = y_old @ gram - x.T @ k
    w = np.linalg.eigvalsh(gram)
    L, mu = w[-1], max(w[0], 0.0)
    lam = mu if (mu > 0 and L / mu < cond) else L / cond
    l_bar, m_bar = L + lam, mu + lam
    a_new = np.maximum(y_old - (grad + lam * (y_old - a_old)) / l_bar, 0.0)
    beta = (math.sqrt(l_bar) - math.sqrt(m_bar)) / (math.sqrt(l_bar) + math.sqrt(m_bar))
    y_new = a_new + beta * (a_new - a_old)

    scale = max(np.linalg.norm(a_new), 1.0)
    assert np.linalg.norm(state.model.factors[mode] - a_new) <= 1e-12 * scale
    assert np.linalg.norm(state.extrapolation.factors[mode] - y_new) <= 1e-12 * scale
    assert est is not None and est.L == pytest.approx(L, rel=1e-12)
    assert state.iteration == 1
    assert state.work_units == sample.size * t.dims[mode]


def test_ascpd_fixed_point_when_gradient_zero():
    t, model = random_problem(12, noisy=False)
    state = make_state(13, t, 2, "ascpd")
    state.model = model.copy()
    state.extrapolation = model.copy()
    before = [f.copy() for f in model.factors]
    ascpd_iteration(state, t, FiberSample(0, np.array([0, 1, 2])), UNCON, LocallyOptimal(10.0))
    for n in range(3):
        assert np.linalg.norm(state.model.factors[n] - before[n]) < 1e-12
        assert np.linalg.norm(state.extrapolation.factors[n] - before[n]) < 1e-12
    assert state.iteration == 1


def test_ascpd_rank1_reduces_to_spg():
    # R = 1 gives L == mu, hence beta == 0 and the ascpd step equals the spg step
    t, _, _ = generate_synthetic(SyntheticSpec((4, 3, 2), 1, snr_db=10.0, seed=14))
    state_a = make_state(15, t, 1, "ascpd")
    state_s = make_state(15, t, 1, "spg")
    sample = FiberSample(2, np.array([1, 4, 5]))
    est = ascpd_iteration(state_a, t, sample, NONNEG, LocallyOptimal(50.0))
    spg_iteration(state_s, t, sample, NONNEG, LocallyOptimal(50.0))
    assert est.beta == 0.0
    for n in range(3):
        np.testing.assert_array_equal(state_a.model.factors[n], state_s.model.factors[n])


def test_spg_iteration_matches_scripted_update():
    t, _, _ = generate_synthetic(SyntheticSpec((4, 4, 4), 2, snr_db=15.0, seed=16))
    state = make_state(17, t, 2, "spg")
    mode, cond = 0, 100.0
    sample = FiberSample(mode, np.array([2, 5, 11]))
    a_old = state.model.factors[mode].copy()
    model_before = state.model.copy()

    spg_iteration(state, t, sample, NONNEG, LocallyOptimal(cond))

    k = oracle_kr_full(model_before, mode)[sample.indices]
    x = oracle_unfold(t, mode)[sample.indices]
    gram = k.T @ k
    grad = a_old @ gram - x.T @ k
    w = np.linalg.eigvalsh(gram)
    L, mu = w[-1], max(w[0], 0.0)
    lam = mu if (mu > 0 and L / mu < cond) else L / cond
    a_new = np.maximum(a_old - grad / (L + lam), 0.0)
    assert np.linalg.norm(state.model.factors[mode] - a_new) \
        <= 1e-12 * max(np.linalg.norm(a_new), 1.0)


def test_spg_zero_gradient_fixed_point():
    t, model = random_problem(18, noisy=False)
    state = make_state(19, t, 2, "spg")
    state.model = model.copy()
    before = model.factors[1].copy()
    spg_iteration(state, t, FiberSample(1, np.array([0, 2])), UNCON, LocallyOptimal(10.0))
    assert np.linalg.norm(state.model.factors[1] - before) < 1e-12


def test_brascpd_iteration_matches_scripted_update():
    t, _, _ = generate_synthetic(SyntheticSpec((4, 4, 4), 2, snr_db=15.0, seed=20))
    state = make_state(21, t, 2, "brascpd")
    schedule = Diminishing(alpha=0.05, beta_exp=0.3)
    mode = 2
    sample = FiberSample(mode, np.array([0, 6, 9]))
    a_old = state.model.factors[mode].copy()
    model_before = state.model.copy()

    brascpd_iteration(state, t, sample, NONNEG, schedule)

    k = oracle_kr_full(model_before, mode)[sample.indices]
    x = oracle_unfold(t, mode)[sample.indices]
    grad = a_old @ (k.T @ k) - x.T @ k
    alpha_1 = 0.05 / 1.0 ** 0.3
    a_new = np.maximum(a_old - (alpha_1 / 3) * grad, 0.0)
    assert np.linalg.norm(state.model.factors[mode] - a_new) \
        <= 1e-12 * max(np.linalg.norm(a_new), 1.0)


def test_brascpd_zero_alpha_no_movement():
    t, _ = random_problem(22)
    state = make_state(23, t, 2, "brascpd")
    before = state.model.factors[0].copy()
    brascpd_iteration(state, t, FiberSample(0, np.array([0, 1])), UNCON,
                      Diminishing(alpha=0.0))
    np.testing.assert_array_equal(state.model.factors[0], before)


def test_brascpd_constant_step_when_exponent_zero():
    schedule = Diminishing(alpha=0.2, beta_exp=0.0)
    assert schedule.step(1) == schedule.step(50) == 0.2


def test_adacpd_iteration_matches_scripted_update():
    t, _, _ = generate_synthetic(SyntheticSpec((4, 4, 4), 2, snr_db=15.0, seed=24))
    state = make_state(25, t, 2, "adacpd")
    schedule = Adagrad(eta=0.5, b=1e-6, eps=1e-6)
    mode = 0
    sample = FiberSample(mode, np.array([1, 8, 12]))
    a_old = state.model.factors[mode].copy()
    model_before = state.model.copy()

    adacpd_iteration(state, t, sample, NONNEG, schedule)

    k = oracle_kr_full(model_before, mode)[sample.indices]
    x = oracle_unfold(t, mode)[sample.indices]
    grad = a_old @ (k.T @ k) - x.T @ k
    acc = grad * grad
    a_new = np.maximum(a_old - 0.5 * grad / (1e-6 + acc) ** (0.5 + 1e-6), 0.0)
    assert np.linalg.norm(state.model.factors[mode] - a_new) \
        <= 1e-12 * max(np.linalg.norm(a_new), 1.0)
    np.testing.assert_allclose(state.adagrad_accumulator[mode], acc, rtol=1e-12)


def test_adacpd_zero_gradient_leaves_everything():
    t, model = random_problem(26, noisy=False)
    state = make_state(27, t, 2, "adacpd")
    state.model = model.copy()
    before = model.factors[0].copy()
    adacpd_iteration(state, t, FiberSample(0, np.array([0, 3])), UNCON, Adagrad())
    assert np.linalg.norm(state.model.factors[0] - before) < 1e-12
    assert np.linalg.norm(state.adagrad_accumulator[0]) < 1e-24


def test_adacpd_first_step_normalizes_to_eta_signs():
    # with b = 0, eps = 0 the first update is eta * sign(grad) wherever grad != 0
    t, _ = random_problem(28)
    state = make_state(29, t, 2, "adacpd")
    a_old = state.model.factors[1].copy()
    sample = FiberSample(1, np.array([0, 2, 4]))
    grad, _ = sampled_gradient(t, state.model, sample, a_old)
    adacpd_iteration(state, t, sample, UNCON, Adagrad(eta=0.3, b=0.0, eps=0.0))
    delta = a_old - state.model.factors[1]
    nz = grad != 0
    np.testing.assert_allclose(delta[nz], 0.3 * np.sign(grad[nz]), rtol=1e-10)
    np.testing.assert_array_equal(delta[~nz], 0.0)


def test_adagrad_accumulator_monotone():
    t, _, _ = generate_synthetic(SyntheticSpec((5, 4, 3), 2, snr_db=10.0, seed=30))
    state = make_state(31, t, 2, "adacpd")
    sampler = FiberSampler(t.dims, (3, 3, 3), np.random.default_rng(32))
    prev = [a.copy() for a in state.adagrad_accumulator]
    for _ in range(30):
        adacpd_iteration(state, t, sampler.draw(), NONNEG, Adagrad())
        for n in range(3):
            assert np.all(state.adagrad_accumulator[n] >= prev[n] - 1e-15)
        prev = [a.copy() for a in state.adagrad_accumulator]


def test_degenerate_sample_is_noop_with_warning(caplog):
    t, _ = random_problem(33)
    state = make_state(34, t, 2, "ascpd")
    state.model.factors[1][:] = 0.0  # kills every Khatri-Rao row for modes 0 and 2
    state.extrapolation = state.model.copy()
    before = state.model.factors[0].copy()
    with caplog.at_level(logging.WARNING, logger="fibercpd.solvers"):
        est = ascpd_iteration(state, t, FiberSample(0, np.array([0, 1])), UNCON,
                              LocallyOptimal(10.0))
    assert est is None
    np.testing.assert_array_equal(state.model.factors[0], before)
    assert any("skipping" in rec.message for rec in caplog.records)
    assert state.iteration == 1  # the iteration still counts and is charged
    assert state.work_units == 2 * t.dims[0]


def test_iterations_touch_exactly_one_mode():
    t, _, _ = generate_synthetic(SyntheticSpec((5, 4, 3), 2, snr_db=20.0, seed=35))
    steppers = {
        "ascpd": lambda s, sample: ascpd_iteration(s, t, sample, NONNEG, LocallyOptimal()),
        "spg": lambda s, sample: spg_iteration(s, t, sample, NONNEG, LocallyOptimal()),
        "brascpd": lambda s, sample: brascpd_iteration(s, t, sample, NONNEG, Diminishing()),
        "adacpd": lambda s, sample: adacpd_iteration(s, t, sample, NONNEG, Adagrad()),
    }
    for solver, step in steppers.items():
        state = make_state(36, t, 2, solver)
        sampler = FiberSampler(t.dims, (4, 4, 4), np.random.default_rng(37))
        for _ in range(10):
            sample = sampler.draw()
            others = {n: state.model.factors[n].copy() for n in range(3) if n != sample.mode}
            step(state, sample)
            for n, before in others.items():
                assert np.array_equal(state.model.factors[n], before), solver


@pytest.mark.parametrize("kind", ["nonneg", "none"])
@pytest.mark.parametrize("solver", ["ascpd", "spg", "brascpd", "adacpd"])
def test_iteration_never_writes_into_arrays_it_replaces(solver, kind):
    """The updates run in place, but only on arrays the iteration made itself.

    The identity prox returns its input, so `none` is where an update could
    alias: every factor array the model or the extrapolation held before a
    step keeps its values, and the two never share an array afterwards.
    """
    t, _, _ = generate_synthetic(SyntheticSpec((5, 4, 3), 2, snr_db=20.0, seed=41))
    iteration = {"ascpd": ascpd_iteration, "spg": spg_iteration,
                 "brascpd": brascpd_iteration, "adacpd": adacpd_iteration}[solver]
    schedule = SolverConfig(solver, 2).schedule
    state = make_state(42, t, 2, solver)
    sampler = FiberSampler(t.dims, (4, 4, 4), np.random.default_rng(43))
    for _ in range(12):
        held = list(state.model.factors)
        if state.extrapolation is not None:
            held += state.extrapolation.factors
        snapshot = [f.copy() for f in held]
        iteration(state, t, sampler.draw(), Constraint(kind), schedule)
        for f, before in zip(held, snapshot):
            assert np.array_equal(f, before)
        if state.extrapolation is not None:
            for a, y in zip(state.model.factors, state.extrapolation.factors):
                assert a is not y


def test_nonneg_constraint_holds_after_every_iteration():
    t, _, _ = generate_synthetic(SyntheticSpec((6, 5, 4), 3, snr_db=10.0, seed=38))
    for solver, iteration in [("ascpd", ascpd_iteration), ("spg", spg_iteration)]:
        state = make_state(39, t, 3, solver)
        sampler = FiberSampler(t.dims, (5, 5, 5), np.random.default_rng(40))
        for _ in range(60):
            iteration(state, t, sampler.draw(), NONNEG, LocallyOptimal())
            for f in state.model.factors:
                assert np.all(f >= 0.0)


# ---------------------------------------------------------------------------
# ALS baseline
# ---------------------------------------------------------------------------


def test_als_exact_model_is_fixed_point():
    t, model = random_problem(41, noisy=False)
    for constraint in (UNCON, NONNEG):
        state = make_state(42, t, 2, "als")
        state.model = model.copy()
        als_sweep(state, t, constraint)
        assert objective(t, state.model) <= 1e-18


def test_als_sweep_never_increases_objective():
    t, _ = random_problem(43)
    state = make_state(44, t, 2, "als")
    prev = objective(t, state.model)
    for _ in range(5):
        als_sweep(state, t, UNCON)
        cur = objective(t, state.model)
        assert cur <= prev * (1 + 1e-10) + 1e-14
        prev = cur


def test_als_unconstrained_sweep_matches_sequential_pinv_oracle():
    t, _ = random_problem(45, dims=(5, 4, 3), rank=2)
    state = make_state(46, t, 2, "als")
    oracle = state.model.copy()
    als_sweep(state, t, UNCON)
    # oracle: per-mode pseudoinverse solve, reusing updated factors in order
    for mode in range(3):
        k = oracle_kr_full(oracle, mode)
        oracle.factors[mode] = (np.linalg.pinv(k) @ oracle_unfold(t, mode)).T
    for mode in range(3):
        scale = max(np.linalg.norm(oracle.factors[mode]), 1.0)
        assert np.linalg.norm(state.model.factors[mode] - oracle.factors[mode]) <= 1e-10 * scale


def test_als_constrained_sweep_stays_feasible_and_improves():
    t, _, _ = generate_synthetic(SyntheticSpec((6, 5, 4), 3, snr_db=20.0, seed=47))
    state = make_state(48, t, 3, "als")
    start = objective(t, state.model)
    for _ in range(10):
        als_sweep(state, t, NONNEG)
        for f in state.model.factors:
            assert np.all(f >= 0.0)
    assert objective(t, state.model) < start


def test_als_singular_gram_takes_ridge_repair():
    # a column that is zero in every factor makes every mode's Gram singular
    t, model = random_problem(51, dims=(5, 4, 3), rank=3)
    for f in model.factors:
        f[:, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(hadamard_gram(model, skip=0), mttkrp(t, model, 0).T)
    state = make_state(52, t, 3, "als")
    state.model = model
    als_sweep(state, t, UNCON)
    for f in state.model.factors:
        assert np.isfinite(f).all()
        assert np.all(f[:, 1] == 0.0)


def test_als_constrained_zero_gram_leaves_factor():
    # factors 1 and 2 all zero: mode 0's Gram is zero, so L = 0 and no step is taken
    t, model = random_problem(53, dims=(5, 4, 3), rank=2)
    model.factors[1][:] = 0.0
    model.factors[2][:] = 0.0
    before = model.factors[0].copy()
    state = make_state(54, t, 2, "als")
    state.model = model
    als_sweep(state, t, NONNEG)
    assert np.array_equal(state.model.factors[0], before)


SWEEP_DIMS = [(5,), (6, 4), (5, 4, 3), (4, 3, 5, 2), (3, 1, 4, 2), (3, 2, 2, 3, 2)]


@pytest.mark.parametrize("dims", SWEEP_DIMS)
def test_als_sweep_shares_one_partial_per_sweep(monkeypatch, dims):
    # `order` mttkrp calls per sweep, and the tensor-sized GEMM of the shared
    # partial runs once, inside the first of them (where a trace charges it)
    calls, partials = [], []
    real_mttkrp, real_partial = solvers.mttkrp, tensor._last_factor_partial

    def spy_mttkrp(t, model, mode, *args, **kwargs):
        calls.append(mode)
        return real_mttkrp(t, model, mode, *args, **kwargs)

    def spy_partial(t, last_factor):
        partials.append(len(calls))
        return real_partial(t, last_factor)

    monkeypatch.setattr(solvers, "mttkrp", spy_mttkrp)
    monkeypatch.setattr(tensor, "_last_factor_partial", spy_partial)
    t, _ = random_problem(55, dims=dims, rank=3)
    state = make_state(56, t, 3, "als")
    for sweep in range(3):
        calls.clear()
        partials.clear()
        als_sweep(state, t, NONNEG if sweep % 2 else UNCON)
        assert calls == list(range(len(dims)))
        assert partials == ([1] if len(dims) > 1 else [])


def per_mode_sweep(t, model):
    """An unconstrained ALS sweep on the per-mode MTTKRP, which shares nothing."""
    for mode in range(t.order):
        gram = hadamard_gram(model, skip=mode)
        model.factors[mode] = _solve_normal_equations(gram, per_mode_mttkrp(t, model, mode))


@pytest.mark.parametrize("dims", SWEEP_DIMS)
def test_als_sweeps_match_per_mode_kernel_sweeps(dims):
    # a partial that outlived its sweep would carry the old last factor into
    # the next sweep's first modes
    t, _ = random_problem(57, dims=dims, rank=3)
    state = make_state(58, t, 3, "als")
    oracle = state.model.copy()
    for _ in range(2):
        als_sweep(state, t, UNCON)
        per_mode_sweep(t, oracle)
    for got, want in zip(state.model.factors, oracle.factors):
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)


# peak traced bytes of one sweep, in units of the shared partial's size
# 8 * R * prod(dims) / I_last: the partial, or the last mode's Khatri-Rao
# chain of the same size, plus small arrays; the two at once would be 2
SWEEP_PEAK_MULTIPLE = 1.5


@pytest.mark.parametrize("constraint", [UNCON, NONNEG])
@pytest.mark.parametrize("dims, rank", [((100, 80, 3), 10), ((40, 30, 20, 3), 6)])
def test_als_sweep_drops_the_partial_before_the_last_mode(dims, rank, constraint):
    t, _ = random_problem(59, dims=dims, rank=rank)
    state = make_state(60, t, rank, "als")
    als_sweep(state, t, constraint)
    tracemalloc.start()
    try:
        als_sweep(state, t, constraint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SWEEP_PEAK_MULTIPLE * 8 * rank * math.prod(dims) / dims[-1]


def test_als_work_charged_per_sweep():
    t, _ = random_problem(49)
    state = make_state(50, t, 2, "als")
    als_sweep(state, t, UNCON)
    assert state.work_units == 4 * math.prod(t.dims)
    assert state.iteration == 1


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(solver="nope", rank=2)
    with pytest.raises(ValueError):
        SolverConfig(solver="ascpd", rank=0)
    with pytest.raises(ValueError):
        SolverConfig(solver="ascpd", rank=2, schedule=Adagrad())
    with pytest.raises(ValueError):
        SolverConfig(solver="ascpd", rank=2, tol=-1.0)
    with pytest.raises(ValueError, match="^tol"):
        SolverConfig(solver="ascpd", rank=2, tol=math.nan)
    with pytest.raises(ValueError, match="^seed"):
        SolverConfig(solver="ascpd", rank=2, seed=-1)
    with pytest.raises(ValueError, match="als takes no schedule"):
        SolverConfig(solver="als", rank=2, schedule=LocallyOptimal())
    with pytest.raises(ValueError, match="blocksizes"):
        SolverConfig(solver="ascpd", rank=2, blocksizes=0)
    with pytest.raises(ValueError, match="blocksizes"):
        SolverConfig(solver="als", rank=2, blocksizes=(4, 0, 4))
    with pytest.raises(ValueError, match="constraint"):
        SolverConfig(solver="ascpd", rank=2, constraint="box")
    cfg = SolverConfig(solver="ascpd", rank=2, blocksizes=5)
    assert cfg.blocks_for(3) == (5, 5, 5)
    assert cfg.schedule == LocallyOptimal()


def test_schedule_validation():
    with pytest.raises(ValueError):
        LocallyOptimal(1.0)
    with pytest.raises(ValueError):
        Adagrad(eta=0.0)
    with pytest.raises(ValueError):
        Diminishing(alpha=-0.1)
    with pytest.raises(ValueError, match="^beta_exp must be finite"):
        Diminishing(beta_exp=-math.inf)


def test_init_state_shapes_and_ranges():
    rng = np.random.default_rng(51)
    state = init_state(rng, (4, 5, 6), 3, "ascpd")
    assert [f.shape for f in state.model.factors] == [(4, 3), (5, 3), (6, 3)]
    for f in state.model.factors:
        assert np.all((f >= 0.0) & (f < 1.0))
    for n in range(3):
        np.testing.assert_array_equal(state.extrapolation.factors[n], state.model.factors[n])
    assert state.extrapolation.factors[0] is not state.model.factors[0]


def test_hadamard_gram_matches_dense():
    _, model = random_problem(52)
    for mode in range(3):
        k = oracle_kr_full(model, mode)
        np.testing.assert_allclose(hadamard_gram(model, skip=mode), k.T @ k, rtol=1e-12)
