"""The CPD solver family built on fiber-sampled gradients.

One stochastic iteration updates a single factor matrix from a fiber sample:

* brascpd  - proximal gradient step with diminishing step alpha / k^beta_exp,
             gradient scaled by 1/|F|.
* adacpd   - proximal gradient step with an elementwise accumulated-squared-
             gradient (Adagrad) step matrix.
* spg      - proximal gradient step with the locally optimal constant step
             1/L_bar derived from the sampled Gram matrix (no momentum).
* ascpd    - spg plus a Nesterov momentum step with beta from (L_bar, mu_bar);
             the update is taken at the extrapolated point Y and the sampled
             objective is regularized by lambda/2 * ||A - A_k||^2 so the
             condition number L_bar/mu_bar stays below the target.

spg and ascpd need the sampled Gram's L and mu only through the lambda rule.
Where two Rayleigh quotients prove its cap branch, `_cap_bounds` takes L from
a Collatz-Wielandt bracket and mu = 0 instead of a full eigensolve (nonneg
factors at the paper's cell); elsewhere both are `eigen_extremes`' exact values.

`als_sweep` is the full-batch block-coordinate baseline: each mode solves its
matrix least-squares subproblem exactly (unconstrained) or by an inner
accelerated projected-gradient loop (constrained).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .constraints import Constraint
from .sampling import FiberSample
from .tensor import (
    DenseTensor,
    KruskalModel,
    as_count,
    check_model,
    gather_fiber_rows,
    hadamard_gram,
    kr_rows,
    mttkrp,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# step schedules
# ---------------------------------------------------------------------------
# Each bound is written as `not <rule>` so that NaN fails it too, and every
# bound is finite.

@dataclass(frozen=True)
class Diminishing:
    """alpha_k = alpha / k^beta_exp, gradient scaled by 1/|F|."""

    alpha: float = 0.1
    beta_exp: float = 1e-6

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be >= 0 and finite")
        if not math.isfinite(self.beta_exp):
            raise ValueError("beta_exp must be finite")

    def step(self, k: int) -> float:
        if k < 1:
            raise ValueError("diminishing step defined for k >= 1")
        return self.alpha / k ** self.beta_exp


@dataclass(frozen=True)
class Adagrad:
    """Elementwise step eta / (b + sum of squared gradients)^(1/2 + eps)."""

    eta: float = 1.0
    b: float = 1e-6
    eps: float = 1e-6

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be > 0 and finite")
        if not 0 <= self.b < math.inf:
            raise ValueError("b must be >= 0 and finite")
        if not 0 <= self.eps < math.inf:
            raise ValueError("eps must be >= 0 and finite")


@dataclass(frozen=True)
class LocallyOptimal:
    """Constant step 1/L_bar with the condition-number cap enforced by the lambda rule."""

    cond: float = 100.0

    def __post_init__(self):
        if not 1 < self.cond < math.inf:
            raise ValueError("cond must be > 1 and finite")


Schedule = Diminishing | Adagrad | LocallyOptimal

# The stochastic solvers and the schedule each takes.  The schedule fields are
# the hyperparameters: their defaults, bounds, CLI flags, bench keys and CSV
# echo all come from these dataclasses.
SCHEDULES = {"ascpd": LocallyOptimal, "spg": LocallyOptimal,
             "brascpd": Diminishing, "adacpd": Adagrad}
SOLVERS = (*SCHEDULES, "als")


# ---------------------------------------------------------------------------
# work, state and curvature
# ---------------------------------------------------------------------------

def full_iteration_cost(dims) -> int:
    """The unit of work, one full iteration: 4 * prod(dims) tensor entries, the
    ALS sweep's cost counting its acceleration bookkeeping.  Every solver
    charges the entries its (partial) MTTKRPs touch against it."""
    return 4 * math.prod(dims)


@dataclass
class SolverState:
    """Mutable per-trial state; owned by exactly one run."""

    model: KruskalModel
    extrapolation: KruskalModel | None = None   # Y factors, ascpd only
    iteration: int = 0
    adagrad_accumulator: list[np.ndarray] | None = None
    work_units: int = 0                         # tensor entries touched so far


def init_state(rng: np.random.Generator, dims, rank: int, solver: str) -> SolverState:
    """Factors i.i.d. uniform [0,1); Y starts equal to A; accumulators start at zero."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    model = KruskalModel([rng.random((d, rank)) for d in dims])
    state = SolverState(model=model)
    if solver == "ascpd":
        state.extrapolation = model.copy()
    if solver == "adacpd":
        state.adagrad_accumulator = [np.zeros((d, rank)) for d in dims]
    return state


@dataclass(frozen=True)
class CurvatureEstimate:
    """The sampled Gram's L and mu (mu = 0 where the cap is certified, see
    `_cap_bounds`) and the derived step quantities."""

    L: float
    mu: float
    lam: float

    @property
    def L_bar(self) -> float:
        return self.L + self.lam

    @property
    def mu_bar(self) -> float:
        return self.mu + self.lam

    @property
    def beta(self) -> float:
        sl = math.sqrt(self.L_bar)
        sm = math.sqrt(self.mu_bar)
        return (sl - sm) / (sl + sm)


def eigen_extremes(gram: np.ndarray) -> tuple[float, float]:
    """(largest, smallest) eigenvalue of a symmetric PSD matrix; smallest clamped at 0."""
    gram = np.asarray(gram, dtype=np.float64)
    if not np.isfinite(gram).all():
        raise ValueError("Gram matrix has non-finite entries")
    w = np.linalg.eigvalsh(gram)
    return float(w[-1]), float(max(w[0], 0.0))


# The certified cap's power iteration stops once its Collatz-Wielandt bracket
# on L is this tight (relative), and falls back to eigvalsh after this many
# steps: paper-cell Grams close the bracket in 6-7 steps.
CAP_BRACKET_RTOL = 1e-12
CAP_MAX_STEPS = 30


def _cap_bounds(gram: np.ndarray, cond: float) -> tuple[float, float]:
    """(L, mu) for the lambda rule: eigen_extremes(gram), or (an upper bound on
    L within CAP_BRACKET_RTOL, 0.0) where two Rayleigh quotients prove that the
    rule takes its cap branch, L/mu > cond.

    mu <= min_i G_ii and L >= 1'G1/R, so min(diag G) * cond < G.sum()/R proves
    the cap.  For G >= 0 with x = G1 > 0, every step of x <- Gx / hi keeps L
    in the Collatz-Wielandt bracket [min_i (Gx)_i/x_i, max_i (Gx)_i/x_i = hi].
    mu = 0 underestimates the strong convexity, which is safe for the
    momentum step.  A non-finite Gram fails the certificate and raises in
    eigen_extremes.
    """
    r = gram.shape[0]
    if not gram.diagonal().min() * cond < gram.sum() / r < math.inf:
        return eigen_extremes(gram)
    x = gram.sum(axis=1)
    if (gram >= 0.0).all() and (x > 0.0).all():
        for _ in range(CAP_MAX_STEPS):
            y = gram @ x
            ratio = y / x
            hi = ratio.max()
            if hi - ratio.min() <= CAP_BRACKET_RTOL * hi:
                return float(hi), 0.0
            x = y / hi
    return eigen_extremes(gram)


def lambda_rule(L: float, mu: float, cond_target: float) -> float:
    """Regularizer keeping (L+lam)/(mu+lam) <= cond_target + 1 (cond_target > 1,
    as LocallyOptimal checks)."""
    if mu > 0 and L / mu < cond_target:
        return float(mu)
    return float(L / cond_target)


# ---------------------------------------------------------------------------
# sampled gradient
# ---------------------------------------------------------------------------

def sampled_gradient(t: DenseTensor, model: KruskalModel, sample: FiberSample,
                     at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of 0.5 * ||X_F - K_F @ at.T||_F^2 at `at`, plus the Gram matrix K_F.T K_F.

    grad = at @ (K_F.T K_F) - X_F.T K_F with X_F = gather_fiber_rows(t, mode, F)
    and K_F = kr_rows(model, mode, F); the Gram matrix is the Hessian, returned
    for reuse as the curvature estimate.  At at = 0 it is minus the MTTKRP
    restricted to the sampled fibers.  Touches |F| * I_mode tensor entries.
    The model must meet the tensor (`check_model`) and `at` must have the
    shape of the sampled mode's factor; either failure raises a ValueError.
    """
    check_model(t, model)
    at = np.asarray(at, dtype=np.float64)
    i = sample.mode
    if at.shape != (t.dims[i], model.rank):
        raise ValueError(f"expected shape {(t.dims[i], model.rank)}, got {at.shape}")
    k_f = kr_rows(model, i, sample.indices)
    gram = k_f.T @ k_f
    x_f = gather_fiber_rows(t, i, sample.indices)
    grad = at @ gram
    grad -= x_f.T @ k_f
    return grad, gram


# ---------------------------------------------------------------------------
# stochastic iterations (each touches exactly one mode)
# ---------------------------------------------------------------------------

def _gradient(state: SolverState, t: DenseTensor, sample: FiberSample,
              at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sampled_gradient at `at`, charging the sample's entries and counting the iteration."""
    grad, gram = sampled_gradient(t, state.model, sample, at)
    state.work_units += sample.size * t.dims[sample.mode]
    state.iteration += 1
    return grad, gram


def _curvature(state: SolverState, gram: np.ndarray, schedule: LocallyOptimal,
               mode: int) -> CurvatureEstimate | None:
    """Curvature of the sampled subproblem, or None (with a warning) when the
    sample is degenerate (L == 0) and the update is skipped.

    L and mu come from `_cap_bounds`: where the lambda rule's cap is certified,
    L is a power-iteration upper bound and mu = 0, so lam = L/cond and
    L_bar/mu_bar = cond + 1; elsewhere they are the Gram's exact extremes.
    """
    L, mu = _cap_bounds(gram, schedule.cond)
    if L <= 0.0:
        logger.warning("iteration %d: all-zero sampled rows on mode %d; skipping update",
                       state.iteration, mode)
        return None
    return CurvatureEstimate(L=L, mu=mu, lam=lambda_rule(L, mu, schedule.cond))


def ascpd_iteration(state: SolverState, t: DenseTensor, sample: FiberSample,
                    constraint: Constraint, schedule: LocallyOptimal) -> CurvatureEstimate | None:
    """Accelerated update: prox step at the extrapolation Y, then a momentum step.

    grad_F = grad_f(Y) + lam * (Y - A); A_next = prox(Y - grad_F / L_bar);
    Y_next = A_next + beta * (A_next - A).  Returns the curvature estimate
    (None for a degenerate sample, which leaves the factors untouched).
    """
    i = sample.mode
    a_old = state.model.factors[i]
    y_old = state.extrapolation.factors[i]
    grad, gram = _gradient(state, t, sample, y_old)
    est = _curvature(state, gram, schedule, i)
    if est is None:
        return None
    # in place on the fresh `grad` and one scratch array, in the same IEEE
    # operations as the formulas above; a_old and y_old are never written
    scratch = y_old - a_old
    scratch *= est.lam
    grad += scratch
    grad /= est.L_bar
    a_new = constraint.prox(np.subtract(y_old, grad, out=grad))
    np.subtract(a_new, a_old, out=scratch)
    scratch *= est.beta
    scratch += a_new
    state.extrapolation.factors[i] = scratch
    state.model.factors[i] = a_new
    return est


def spg_iteration(state: SolverState, t: DenseTensor, sample: FiberSample,
                  constraint: Constraint, schedule: LocallyOptimal) -> CurvatureEstimate | None:
    """The ascpd update without extrapolation or momentum: prox(A - grad / L_bar)."""
    i = sample.mode
    a_old = state.model.factors[i]
    grad, gram = _gradient(state, t, sample, a_old)
    est = _curvature(state, gram, schedule, i)
    if est is not None:
        grad /= est.L_bar
        state.model.factors[i] = constraint.prox(np.subtract(a_old, grad, out=grad))
    return est


def brascpd_iteration(state: SolverState, t: DenseTensor, sample: FiberSample,
                      constraint: Constraint, schedule: Diminishing) -> None:
    """Proximal gradient step A - (alpha_k / |F|) * grad with diminishing alpha_k."""
    i = sample.mode
    a_old = state.model.factors[i]
    grad, _ = _gradient(state, t, sample, a_old)
    grad *= schedule.step(state.iteration) / sample.size
    state.model.factors[i] = constraint.prox(np.subtract(a_old, grad, out=grad))


def adacpd_iteration(state: SolverState, t: DenseTensor, sample: FiberSample,
                     constraint: Constraint, schedule: Adagrad) -> None:
    """Adagrad step: accumulate squared gradients, scale elementwise, prox."""
    i = sample.mode
    a_old = state.model.factors[i]
    grad, _ = _gradient(state, t, sample, a_old)
    acc = state.adagrad_accumulator[i]
    denom = grad * grad
    acc += denom
    np.add(acc, schedule.b, out=denom)
    denom **= 0.5 + schedule.eps
    grad *= schedule.eta
    live = denom > 0
    np.divide(grad, denom, out=grad, where=live)
    np.copyto(grad, 0.0, where=~live)
    state.model.factors[i] = constraint.prox(np.subtract(a_old, grad, out=grad))


# ---------------------------------------------------------------------------
# full-batch baseline
# ---------------------------------------------------------------------------

def _solve_normal_equations(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A @ gram = rhs for A, adding a tiny ridge if the Gram is singular."""
    try:
        sol = np.linalg.solve(gram, rhs.T).T
        if np.isfinite(sol).all():
            return sol
    except np.linalg.LinAlgError:
        pass
    r = gram.shape[0]
    ridge = 1e-12 * np.trace(gram) / r
    if ridge <= 0:
        ridge = 1e-12
    try:
        return np.linalg.solve(gram + ridge * np.eye(r), rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("Gram matrix singular beyond ridge repair") from exc


def _prox_block_solve(a0: np.ndarray, gram: np.ndarray, rhs: np.ndarray,
                      constraint: Constraint, max_inner: int = 50,
                      rel_tol: float = 1e-8) -> np.ndarray:
    """Constrained block subproblem via accelerated projected gradient.

    Minimizes 0.5||X - K A^T||^2 s.t. the constraint, using step 1/L and
    momentum beta from the Gram's extreme eigenvalues, until the relative
    factor change drops below rel_tol or max_inner iterations.
    """
    L, mu = eigen_extremes(gram)
    if L <= 0.0:
        return a0
    beta = CurvatureEstimate(L, mu, 0.0).beta
    # three buffers updated in place, none of them a0 (the model's factor):
    # the iterate pair swaps each step, and `diff` holds a_new - a_prev and
    # then, scaled and shifted, the extrapolated point y the next step reads
    a_prev, a_new, diff = a0.copy(), np.empty_like(a0), np.empty_like(a0)
    y = a0
    for _ in range(max_inner):
        np.matmul(y, gram, out=a_new)
        a_new -= rhs
        a_new /= L
        constraint.prox(np.subtract(y, a_new, out=a_new))
        np.subtract(a_new, a_prev, out=diff)
        change = np.linalg.norm(diff)
        scale = max(np.linalg.norm(a_prev), 1e-30)
        diff *= beta
        diff += a_new
        y = diff
        a_prev, a_new = a_new, a_prev
        if change <= rel_tol * scale:
            break
    return a_prev


def als_sweep(state: SolverState, t: DenseTensor, constraint: Constraint) -> np.ndarray:
    """One pass over all modes, each solving its least-squares block in place.

    Updated factors are used immediately by the later modes of the same sweep.
    The last factor changes only at the end of the sweep, so every other mode's
    MTTKRP reduces one shared partial product `A_{N-1}^T X^T`: the first call
    computes it and the last mode's call drops it (see `tensor._mttkrp`).  A
    3-way sweep thus makes two tensor-sized GEMMs and three `mttkrp` calls.
    The sweep is charged one full-iteration unit of work.  Returns the last
    mode's MTTKRP, which stays exact for the updated model (only the last
    factor changed after it) and so lets the metric skip its own MTTKRP.
    """
    model = state.model
    shared: dict = {}
    for i in range(t.order):
        gram = hadamard_gram(model, skip=i)
        rhs = mttkrp(t, model, i, shared)
        if constraint.kind == "none":
            model.factors[i] = _solve_normal_equations(gram, rhs)
        else:
            model.factors[i] = _prox_block_solve(model.factors[i], gram, rhs, constraint)
    state.iteration += 1
    state.work_units += full_iteration_cost(t.dims)
    return rhs


# ---------------------------------------------------------------------------
# run-level configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Everything one trial needs besides the data tensor."""

    solver: str
    rank: int
    constraint: str = "none"
    blocksizes: int | tuple[int, ...] = 1      # stored as a tuple; one entry: every mode
    schedule: Schedule | None = None    # None: the solver's default schedule; ALS takes none
    seed: int = 0
    max_full_iters: int = 100
    tol: float | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; choose from {SOLVERS}")
        for name, low in (("rank", 1), ("max_full_iters", 0), ("seed", 0)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, low))
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tol must be positive when given")
        Constraint(self.constraint)                   # raises on an unknown kind
        blocks = self.blocksizes if np.iterable(self.blocksizes) else (self.blocksizes,)
        object.__setattr__(self, "blocksizes", tuple(as_count(b, "blocksizes") for b in blocks))
        kind = SCHEDULES.get(self.solver)
        if kind is None:
            if self.schedule is not None:
                raise ValueError(f"solver {self.solver} takes no schedule, "
                                 f"got {type(self.schedule).__name__}")
            return
        if self.schedule is None:
            object.__setattr__(self, "schedule", kind())
        elif not isinstance(self.schedule, kind):
            raise ValueError(f"solver {self.solver} takes a {kind.__name__} schedule, "
                             f"got {type(self.schedule).__name__}")

    def blocks_for(self, order: int) -> tuple[int, ...]:
        """One blocksize per mode of an order-`order` tensor: a single one is
        broadcast to every mode, any other count must equal the order."""
        if len(self.blocksizes) == 1:
            return self.blocksizes * order
        if len(self.blocksizes) != order:
            raise ValueError(f"need {order} blocksizes, got {len(self.blocksizes)}")
        return self.blocksizes
