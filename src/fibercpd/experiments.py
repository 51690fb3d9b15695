"""Synthetic data generation, the reconstruction-error metric, work-equivalent
full-iteration accounting, the single-trial run loop, and Monte-Carlo trials.

Work accounting: every solver charges the tensor entries its (partial) MTTKRPs
touch, in units of one full iteration (`solvers.full_iteration_cost`), so
stochastic and batch solvers are compared after the same amount of
arithmetic.  A checkpoint (metric evaluation) fires each time the running
entry count crosses a multiple of that unit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import solvers
from .constraints import Constraint
from .sampling import FiberSampler
from .solvers import SolverConfig, full_iteration_cost, hadamard_gram, init_state
from .tensor import (
    DenseTensor,
    KruskalModel,
    _check_model_compatible,
    _mttkrp,
    frob_norm,
    reconstruct,
    relative_error,
)

# below this residual^2 / ||t||^2 the Gram identity has cancelled too many
# digits and the metric recomputes the residual from the reconstruction
EXACT_METRIC_BELOW = 1e-10


@dataclass(frozen=True)
class SyntheticSpec:
    """Random low-rank tensor plus optional Gaussian noise at a target SNR (dB)."""

    dims: tuple[int, ...]
    rank: int
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")


def generate_synthetic(spec: SyntheticSpec) -> tuple[DenseTensor, KruskalModel, float]:
    """(noisy tensor, ground-truth factors, noise scale sigma).

    Factors are i.i.d. uniform [0,1).  Noise is i.i.d. standard normal, scaled
    so the realized signal-to-noise ratio ||clean||^2 / (sigma^2 ||noise||^2)
    hits 10^(snr_db/10) exactly for this realization.
    """
    rng = np.random.default_rng(spec.seed)
    truth = KruskalModel([rng.random((d, spec.rank)) for d in spec.dims])
    clean = reconstruct(truth)
    if spec.snr_db is None:
        return clean, truth, 0.0
    noise = rng.standard_normal(clean.values.size)
    sigma = frob_norm(clean) / (math.sqrt(10.0 ** (spec.snr_db / 10.0)) * np.linalg.norm(noise))
    noise *= sigma            # in place: the same IEEE operations as clean + sigma * noise
    noise += clean.values
    return DenseTensor(spec.dims, noise), truth, float(sigma)


def squared_norm(t: DenseTensor) -> float:
    return float(t.values @ t.values)


def metric(t: DenseTensor, model: KruskalModel, norm_sq: float | None = None,
           last_mttkrp: np.ndarray | None = None) -> float:
    """Relative reconstruction error ||t - reconstruct(model)||_F / ||t||_F.

    Computed without the reconstruction by the Gram identity
    ||t - Xhat||^2 = ||t||^2 - 2 <M, A_last> + sum(Hadamard product of A_n^T A_n),
    where M is the last mode's MTTKRP.  `norm_sq` (||t||^2) and `last_mttkrp`
    may be passed in when the caller already has them; ALS's sweep ends with
    that MTTKRP.  The subtraction costs digits as the residual shrinks: the
    error on m^2 is a few ulps of ||t||^2 + ||Xhat||^2, relative to ||t||^2.
    When the identity's residual^2 falls to EXACT_METRIC_BELOW * ||t||^2 or
    below, the residual is formed exactly instead.  A NaN model gives NaN.
    """
    _check_model_compatible(t, model)
    if norm_sq is None:
        norm_sq = squared_norm(t)
    if norm_sq == 0.0:
        raise ValueError("relative error is undefined for the zero tensor")
    last = t.order - 1
    if last_mttkrp is None:
        last_mttkrp = _mttkrp(t, model.factors, last)
    resid_sq = (norm_sq - 2.0 * float(np.vdot(last_mttkrp, model.factors[last]))
                + float(hadamard_gram(model).sum()))
    if resid_sq <= EXACT_METRIC_BELOW * norm_sq:
        return relative_error(t, model)
    return math.sqrt(resid_sq) / math.sqrt(norm_sq)


@dataclass(frozen=True)
class Checkpoint:
    full_iter: int
    work_units: int
    m: float
    wall_seconds: float


@dataclass
class RunRecord:
    """Metric trace of one trial (or the average of several)."""

    solver: str
    seed: int
    trial: int | None
    checkpoints: list[Checkpoint]

    @property
    def final_metric(self) -> float:
        return self.checkpoints[-1].m


def run(t: DenseTensor, cfg: SolverConfig, trial: int = 0) -> RunRecord:
    """Run one solver trial to its full-iteration budget (or tolerance).

    Deterministic given cfg.seed: the solver stream is spawned from the seed
    with a distinct spawn key so it never coincides with a data-generation
    stream built from the same integer.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    state = init_state(rng, t.dims, cfg.rank, cfg.solver)
    constraint = Constraint(cfg.constraint)
    cost = full_iteration_cost(t.dims)
    start = time.perf_counter()
    norm_sq = squared_norm(t)
    m0 = metric(t, state.model, norm_sq)
    checkpoints = [Checkpoint(0, 0, m0, 0.0)]
    record = RunRecord(solver=cfg.solver, seed=cfg.seed, trial=trial, checkpoints=checkpoints)
    if cfg.max_full_iters == 0 or (cfg.tol is not None and m0 <= cfg.tol):
        return record

    # the step is read from the solvers module once per run, so a function
    # rebound there (a tracer, a test double) is the one that runs
    if cfg.solver == "als":
        sweep = solvers.als_sweep

        def step():
            return sweep(state, t, constraint)  # the last MTTKRP, reused by metric
    else:
        iteration = getattr(solvers, f"{cfg.solver}_iteration")
        sampler = FiberSampler(t.dims, cfg.blocks_for(t.order), rng)

        def step():
            iteration(state, t, sampler.draw(), constraint, cfg.schedule)

    index = 0
    while True:
        last_mttkrp = step()
        if state.work_units // cost == index:
            continue
        index = state.work_units // cost
        m = metric(t, state.model, norm_sq, last_mttkrp)
        checkpoints.append(Checkpoint(index, state.work_units, m,
                                      time.perf_counter() - start))
        if index >= cfg.max_full_iters or (cfg.tol is not None and m <= cfg.tol):
            return record


def run_trials(data, cfg: SolverConfig, trials: int) -> tuple[RunRecord, list[RunRecord]]:
    """Monte-Carlo trials: trial k is seeded cfg.seed + k.

    `data` is either a fixed DenseTensor (reused by every trial) or a
    SyntheticSpec (a fresh tensor is generated per trial with the trial seed).
    Returns (averaged record, per-trial records).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    records = []
    for k in range(trials):
        seed_k = cfg.seed + k
        if isinstance(data, SyntheticSpec):
            tensor, _, _ = generate_synthetic(replace(data, seed=seed_k))
        else:
            tensor = data
        try:
            records.append(run(tensor, replace(cfg, seed=seed_k), trial=k))
        except Exception as exc:
            raise RuntimeError(f"trial {k} (seed {seed_k}) failed: {exc}") from exc
    return average_records(records), records


def _permutation_free_mean(values: list[float]) -> float:
    # summing in sorted order makes the mean independent of trial order, bit for bit
    return float(np.mean(np.sort(np.asarray(values))))


def average_records(records: list[RunRecord]) -> RunRecord:
    """Per-checkpoint mean across trials, aligned on the full-iteration index.

    A trial that stopped before an index (at its tolerance) still counts at
    it with its final m_k, so the mean curve is not left to the slower
    trials.  work_units and wall_seconds average only the trials that
    reached the index.
    """
    if not records:
        raise ValueError("nothing to average")
    by_index: dict[int, list[Checkpoint]] = {}
    for rec in records:
        for cp in rec.checkpoints:
            by_index.setdefault(cp.full_iter, []).append(cp)
    finals = [rec.checkpoints[-1] for rec in records]
    checkpoints = [
        Checkpoint(idx,
                   round(_permutation_free_mean([c.work_units for c in cps])),
                   _permutation_free_mean([c.m for c in cps]
                                          + [f.m for f in finals if f.full_iter < idx]),
                   _permutation_free_mean([c.wall_seconds for c in cps]))
        for idx, cps in sorted(by_index.items())
    ]
    return RunRecord(solver=records[0].solver, seed=records[0].seed, trial=None,
                     checkpoints=checkpoints)
