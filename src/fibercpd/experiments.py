"""Synthetic data generation, work-equivalent full-iteration accounting, the
single-trial run loop, and Monte-Carlo trials.

Work accounting: every solver charges the tensor entries its (partial) MTTKRPs
touch, in units of one full iteration (`solvers.full_iteration_cost`), so
stochastic and batch solvers are compared after the same amount of
arithmetic.  A checkpoint fires each time the running entry count crosses a
multiple of that unit and evaluates `metric` (defined in `tensor`; `run` looks
it up in this module, where a tracer or a test double can rebind it).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import solvers
from .constraints import Constraint
from .sampling import FiberSampler
from .solvers import SolverConfig, full_iteration_cost, init_state
from .tensor import (DenseTensor, KruskalModel, as_count, as_dims, hadamard_gram, metric,
                     reconstruct, squared_norm)


@dataclass(frozen=True)
class SyntheticSpec:
    """Random low-rank tensor plus optional Gaussian noise at a target SNR (dB)."""

    dims: tuple[int, ...]
    rank: int
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", as_dims(self.dims))
        object.__setattr__(self, "rank", as_count(self.rank, "rank"))
        object.__setattr__(self, "seed", as_count(self.seed, "seed", low=0))
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")


def generate_synthetic(spec: SyntheticSpec) -> tuple[DenseTensor, KruskalModel, float]:
    """(noisy tensor, ground-truth factors, noise scale sigma).

    Factors are i.i.d. uniform [0,1).  Noise is i.i.d. standard normal, scaled
    so the realized signal-to-noise ratio ||clean||^2 / (sigma^2 ||noise||^2)
    hits 10^(snr_db/10) for this realization, ||clean||^2 taken from the factor
    Grams.  The model is added into the scaled noise, so no clean tensor is formed.
    """
    rng = np.random.default_rng(spec.seed)
    truth = KruskalModel([rng.random((d, spec.rank)) for d in spec.dims])
    if spec.snr_db is None:
        return reconstruct(truth), truth, 0.0
    noise = rng.standard_normal(math.prod(spec.dims))
    scale = math.sqrt(10.0 ** (spec.snr_db / 10.0)) * math.sqrt(float(noise @ noise))
    sigma = math.sqrt(float(hadamard_gram(truth).sum())) / scale
    noise *= sigma     # in place: the same IEEE operations as clean + sigma * noise
    return reconstruct(truth, base=noise), truth, float(sigma)


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

    # the one stop condition; written `not m <= tol` so that a NaN m never stops
    index, m = 0, m0
    while index < cfg.max_full_iters and not (cfg.tol is not None and m <= cfg.tol):
        last_mttkrp = step()
        if state.work_units // cost > index:
            index = state.work_units // cost
            m = metric(t, state.model, norm_sq, last_mttkrp)
            checkpoints.append(Checkpoint(index, state.work_units, m,
                                          time.perf_counter() - start))
    return RunRecord(solver=cfg.solver, seed=cfg.seed, trial=trial, checkpoints=checkpoints)


def run_trials(data, cfg: SolverConfig, trials: int) -> tuple[RunRecord, list[RunRecord]]:
    """Monte-Carlo trials: trial k is seeded cfg.seed + k.

    `data` is either a fixed DenseTensor (reused by every trial) or a
    SyntheticSpec (a fresh tensor is generated per trial with the trial seed).
    Returns (averaged record, per-trial records).
    """
    records = []
    for k in range(as_count(trials, "trials")):
        seed_k = cfg.seed + k
        if isinstance(data, SyntheticSpec):
            tensor, _, _ = generate_synthetic(replace(data, seed=seed_k))
        else:
            tensor = data
        try:
            records.append(run(tensor, replace(cfg, seed=seed_k), trial=k))
        except Exception as exc:
            raise RuntimeError(f"trial {k} (seed {seed_k}) failed: {exc}") from exc
        del tensor   # so that trial k's tensor is freed before trial k+1's is generated
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
