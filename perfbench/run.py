#!/usr/bin/env python3
"""fibercpd benchmark: wall time per full iteration, time to a target error,
final error and memory of the five solvers, end to end and per layer.

Run from the root of a fibercpd checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

One process and a closed loop: a single caller runs one solver trial at a
time through the public API (`experiments.generate_synthetic`,
`storage.write_tensor`/`read_tensor`, `experiments.run`).  The seed makes the
tensor and the solver streams.  Trials go round robin over the solvers until
another trial would overrun a solver's share (seconds / 5) of the measuring
time.  Trial k seeds its solver with seed + k, as `run_trials` does, so the
repeats are Monte-Carlo trials; every solver runs at least the workload's
`trials` of them, and final_m is their mean.  README.md lists the metrics.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` the run makes a fixed amount of work instead: per solver, trial 0
untraced and then again under the outside-in span recorder (see spans.py).
It reports the per-layer metrics and the tracing overhead and writes the
spans to `.perfbench_out/`.
"""

import os

# pinned before numpy loads its BLAS: the hot GEMMs are at most 100 wide, and
# two threads were no faster than one at the desk or paper cell on two cores
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "fibercpd" / "__init__.py").is_file():
    sys.exit(f"perfbench: no fibercpd sources under {SRC}; run it from a fibercpd checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fibercpd  # noqa: E402
from fibercpd import experiments, storage  # noqa: E402
from fibercpd.solvers import SOLVERS, LocallyOptimal, SolverConfig  # noqa: E402

import spans  # noqa: E402

STOCHASTIC = tuple(s for s in SOLVERS if s != "als")
TARGET_SOLVERS = ("ascpd", "als")
# set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, so that a set-up of a few milliseconds still gets a steady median
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0


@dataclass(frozen=True)
class Workload:
    """One benchmark cell.

    Every trial runs `budget` full iterations.  `target` is the m_k that
    time_to_target_s waits for; it is chosen so that ascpd and als cross it at
    the same checkpoint on every seed tried, so the spread over seeds stays a
    spread of times.  paper and hsi cross it by full iteration 2 and stop
    there: short trials interleave the solvers finely, so each one's samples
    spread over the whole run.  final_m is the mean over the first `trials`
    Monte-Carlo trials; one trial's final m_k of spg/adacpd moves by ~10%
    with the solver seed.
    """

    name: str
    dims: tuple[int, ...]
    rank: int
    block: int
    constraint: str
    snr_db: float
    cond: float
    budget: int
    target: float
    trials: int = 1
    from_file: bool = False     # written by a separate process, loaded with read_tensor
    schedules: dict = field(default_factory=dict)   # solver -> schedule instead of the default


WORKLOADS = {w.name: w for w in (
    # criterion 06's cell; the 1.7 MB tensor fits one core's 2 MiB L2, so the
    # fixed per-iteration costs (sampler, dispatch, 20x20 eigvalsh) dominate
    Workload("desk", (60, 60, 60), 20, 200, "nonneg", 30.0, 100.0, budget=30, target=0.076,
             trials=4),
    # the paper's cell; the 64 MB tensor is 32x the L2 and fits the shared
    # 300 MiB L3 (4x the L3 would not run in usable time); gather, R=100
    # GEMMs, eigvalsh, the exact metric and the nonneg ALS inner loop are all large
    Workload("paper", (200, 200, 200), 100, 500, "nonneg", 10.0, 10.0, budget=2, target=0.3037),
    # hyperspectral-shaped cube: unequal modes, unconstrained (prox is the
    # identity, ALS takes the exact normal-equation branch), read from disk
    Workload("hsi", (145, 145, 220), 30, 300, "none", 20.0, 100.0, budget=2, target=0.12,
             trials=3, from_file=True),
)}


def full_iteration(dims) -> int:
    """Tensor entries in one full iteration, the paper's unit of work: 4 * prod(dims)."""
    return 4 * math.prod(dims)


# --- environment --------------------------------------------------------------

def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def cache_sizes() -> dict[str, str]:
    """Data/unified cache sizes of cpu0 by level, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches_cpu0": cache_sizes(),
    }


def computed_sizes(w: Workload) -> dict:
    """Bytes and flops per full iteration from the shapes alone (computed, not measured)."""
    total = math.prod(w.dims)
    full = full_iteration(w.dims)
    entries, flops = [], []
    for n, i_n in enumerate(w.dims):
        b = min(w.block, total // i_n)
        entries.append(b * i_n)
        flops.append(2 * b * w.rank ** 2 + 2 * b * i_n * w.rank + 2 * i_n * w.rank ** 2)
    iters_per_full = full / statistics.fmean(entries)
    return {
        "tensor_bytes": 8 * total,
        "stochastic_iters_per_full_iter": round(iters_per_full, 2),
        "gather_bytes_per_full_iter_computed": spans.GATHER_BYTES_PER_ENTRY * full,
        "sampled_gemm_flops_per_full_iter_computed":
            round(iters_per_full * statistics.fmean(flops)),
        "mttkrp_flops_per_als_sweep_computed": len(w.dims) * 2 * w.rank * total,
    }


# --- set-up -------------------------------------------------------------------

def synthetic_spec(w: Workload, seed: int):
    return experiments.SyntheticSpec(w.dims, w.rank, w.snr_db, seed)


def write_input(w: Workload, seed: int, path: Path) -> dict:
    """Have a separate process synthesize the tensor and write it to `path`."""
    spec = json.dumps(dataclasses.asdict(synthetic_spec(w, seed)))
    proc = subprocess.run(
        [sys.executable, str(HERE / "write_input.py"), spec, str(path)],
        capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"write_input.py failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load(w: Workload, seed: int, path: Path) -> tuple[object, list[float], dict]:
    """Get the tensor into memory repeatedly; (last tensor, times, info)."""
    info = write_input(w, seed, path) if w.from_file else {}
    times = []
    tensor = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        tensor = None  # drop the previous copy so the repeats do not stack up in RSS
        t0 = time.perf_counter()
        if w.from_file:
            tensor = storage.read_tensor(path)
        else:
            tensor = experiments.generate_synthetic(synthetic_spec(w, seed))[0]
        times.append(time.perf_counter() - t0)
    if w.from_file:
        info["read_bytes"] = path.stat().st_size
    return tensor, times, info


# --- trials -------------------------------------------------------------------

@dataclass
class Trial:
    solver: str
    record: object | None               # RunRecord; None when run() raised
    problems: list[str] = field(default_factory=list)   # why it counts as failed


def solver_config(w: Workload, solver: str, seed: int, budget: int | None = None) -> SolverConfig:
    schedule = w.schedules.get(solver)
    if schedule is None and solver in ("ascpd", "spg"):
        schedule = LocallyOptimal(w.cond)
    return SolverConfig(solver, w.rank, w.constraint, w.block, schedule, seed,
                        w.budget if budget is None else budget)


def run_trial(tensor, w: Workload, cfg: SolverConfig) -> Trial:
    try:
        # looked up on the module at call time, so the span recorder sees it
        record = experiments.run(tensor, cfg)
    except Exception as exc:  # one failed operation; the benchmark carries on
        return Trial(cfg.solver, None, [f"raised {exc!r}"])
    trial = Trial(cfg.solver, record)
    trial.problems = trial_problems(trial, w, cfg.max_full_iters)
    return trial


def first_at_target(record, target: float):
    return next((c for c in record.checkpoints if c.m <= target), None)


def trial_problems(trial: Trial, w: Workload, budget: int) -> list[str]:
    cps = trial.record.checkpoints
    problems = []
    if not all(math.isfinite(c.m) for c in cps):
        problems.append("non-finite m_k")
    cost = full_iteration(w.dims)
    if trial.solver == "als":
        work_ok = all(c.work_units == cost * c.full_iter for c in cps)
    else:
        work_ok = all(c.work_units // cost == c.full_iter for c in cps)
    if not work_ok or [c.full_iter for c in cps] != list(range(budget + 1)):
        problems.append("work_units disagree with the full-iteration checkpoints")
    if trial.solver in TARGET_SOLVERS and budget == w.budget \
            and first_at_target(trial.record, w.target) is None:
        problems.append(f"missed the target m_k <= {w.target}")
    return problems


def warm_up(tensor, w: Workload, seed: int) -> None:
    """One untimed full iteration of ascpd and als, which between them call
    every kernel the five solvers use: first calls pay one-off costs."""
    for solver in TARGET_SOLVERS:
        run_trial(tensor, w, solver_config(w, solver, seed, budget=1))


def measure(tensor, w: Workload, seed: int, seconds: float) -> dict[str, list[Trial]]:
    """Round-robin trials.  A solver stops at its first failed trial, or once it
    has run `w.trials` and another trial of average length would overrun its
    share of the time."""
    share = seconds / len(SOLVERS)
    trials = {s: [] for s in SOLVERS}
    spent = dict.fromkeys(SOLVERS, 0.0)
    pending = list(SOLVERS)
    while pending:
        for solver in list(pending):
            done = trials[solver]
            t0 = time.perf_counter()
            done.append(run_trial(tensor, w, solver_config(w, solver, seed + len(done))))
            spent[solver] += time.perf_counter() - t0
            next_end = spent[solver] * (len(done) + 1) / len(done)
            if done[-1].problems or (len(done) >= w.trials and next_end > share):
                pending.remove(solver)
    return trials


def traced_pass(tensor, w: Workload, seed: int):
    """Per solver, trial 0 untraced and then traced, back to back, so that the
    tracing overhead compares two runs made under the same host conditions.

    Returns ({solver: [untraced trial]}, {solver: (traced trial, recorder)}).
    """
    untraced, traced = {}, {}
    for solver in SOLVERS:
        cfg = solver_config(w, solver, seed)
        untraced[solver] = [run_trial(tensor, w, cfg)]
        recorder = spans.Recorder(cfg.blocks_for(len(w.dims)))
        with spans.instrument(recorder, fibercpd):
            traced[solver] = (run_trial(tensor, w, cfg), recorder)
    return untraced, traced


# --- statistics and metrics ---------------------------------------------------

TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)
# the timings report this percentile of their samples: the host's per-core
# speed steps between full speed and up to ~1.9x slower in phases of seconds,
# so a run's median flips with the share of the run spent slow, while a low
# percentile of samples spread over the whole run reads the full-speed cost
TIMING_PERCENTILE = 10


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    for pm in TAIL_PER_MILLE:
        if len(samples) * (1000 - pm) >= 10_000:
            return pm / 10, float(np.percentile(samples, pm / 10))
    return None


def intervals(trials: list[Trial]) -> list[float]:
    """Wall time between consecutive checkpoints of every trial.

    The first interval of a trial is left out: it also holds the m_0 metric
    evaluation that run() makes before its clock reads 0.
    """
    out = []
    for trial in trials:
        if trial.record is None:
            continue
        wall = [c.wall_seconds for c in trial.record.checkpoints]
        out.extend(b - a for a, b in zip(wall[1:], wall[2:]))
    return out


def low_or_none(samples):
    return float(np.percentile(samples, TIMING_PERCENTILE)) if samples else None


def end_to_end(w: Workload, trials: dict[str, list[Trial]], setup_times: list[float]) -> dict:
    """name -> (value, unit, samples); samples is None for values that are not timings."""
    out = {"setup_s": (statistics.median(setup_times), "s", setup_times)}
    for solver in SOLVERS:
        ints = intervals(trials[solver])
        out[f"s_per_full_iter.{solver}"] = (low_or_none(ints), "s", ints)
    for solver in TARGET_SOLVERS:
        hits = [first_at_target(t.record, w.target) for t in trials[solver] if t.record]
        times = [c.wall_seconds for c in hits if c is not None]
        out[f"time_to_target_s.{solver}"] = (low_or_none(times), "s", times)
    for solver in SOLVERS:
        finals = [t.record.final_metric for t in trials[solver][:w.trials] if t.record]
        out[f"final_m.{solver}"] = (statistics.fmean(finals) if finals else None, "1", None)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", None)
    return out


def _calls(span):
    return lambda totals, counts, solver: totals.get(span, (0, 0.0))[0]


def _self_s(span):
    return lambda totals, counts, solver: totals.get(span, (0, 0.0))[1]


def _count(key):
    return lambda totals, counts, solver: counts.get(key, 0)


def _iteration_self_s(totals, counts, solver):
    return totals.get(f"solvers.{solver}_iteration", (0, 0.0))[1]


def _useful_ratio(totals, counts, solver):
    iterations = totals.get(f"solvers.{solver}_iteration", (0, 0.0))[0]
    return (iterations - counts.get("solvers.skipped_updates", 0)) / max(iterations, 1)


# (name, unit, solvers, value); "{s}" in a name is the solver, else ".<solver>" is appended
LAYER_METRICS = [
    ("sampling.draw.calls", "count", STOCHASTIC, _calls("sampling.draw")),
    ("sampling.draw.self_s", "s", STOCHASTIC, _self_s("sampling.draw")),
    ("sampling.draw.rows", "count", STOCHASTIC, _count("sampling.draw.rows")),
    ("sampling.clamped_draws", "count", STOCHASTIC, _count("sampling.clamped_draws")),
    ("tensor.gather_fiber_rows.calls", "count", STOCHASTIC, _calls("tensor.gather_fiber_rows")),
    ("tensor.gather_fiber_rows.self_s", "s", STOCHASTIC, _self_s("tensor.gather_fiber_rows")),
    ("tensor.gather_fiber_rows.entries", "count", STOCHASTIC,
     _count("tensor.gather_fiber_rows.entries")),
    ("tensor.gather_fiber_rows.bytes_computed", "B", STOCHASTIC,
     _count("tensor.gather_fiber_rows.bytes_computed")),
    ("tensor.kr_rows.calls", "count", STOCHASTIC, _calls("tensor.kr_rows")),
    ("tensor.kr_rows.self_s", "s", STOCHASTIC, _self_s("tensor.kr_rows")),
    ("solvers.sampled_gradient.self_s", "s", STOCHASTIC, _self_s("solvers.sampled_gradient")),
    ("solvers.sampled_gradient.flops_computed", "flop", STOCHASTIC,
     _count("solvers.sampled_gradient.flops_computed")),
    ("solvers.eigen_extremes.calls", "count", ("ascpd", "spg", "als"),
     _calls("solvers.eigen_extremes")),
    ("solvers.eigen_extremes.self_s", "s", ("ascpd", "spg", "als"),
     _self_s("solvers.eigen_extremes")),
    ("solvers.{s}_iteration.self_s", "s", STOCHASTIC, _iteration_self_s),
    ("solvers.skipped_updates", "count", STOCHASTIC, _count("solvers.skipped_updates")),
    ("solvers.useful_update_ratio", "1", STOCHASTIC, _useful_ratio),
    ("tensor.mttkrp.calls", "count", ("als",), _calls("tensor.mttkrp")),
    ("tensor.mttkrp.self_s", "s", ("als",), _self_s("tensor.mttkrp")),
    ("tensor.mttkrp.flops_computed", "flop", ("als",), _count("tensor.mttkrp.flops_computed")),
    ("solvers.als_sweep.self_s", "s", ("als",), _self_s("solvers.als_sweep")),
    ("solvers.als_inner_iters", "count", ("als",), _count("solvers.als_inner_iters")),
    ("constraints.prox.calls", "count", SOLVERS, _calls("constraints.prox")),
    ("constraints.prox.self_s", "s", SOLVERS, _self_s("constraints.prox")),
    ("experiments.metric.calls", "count", SOLVERS, _calls("experiments.metric")),
    ("experiments.metric.self_s", "s", SOLVERS, _self_s("experiments.metric")),
    ("experiments.run.self_s", "s", SOLVERS, _self_s("experiments.run")),
]


def per_layer(w: Workload, traced: dict, untraced: dict[str, list[Trial]],
              setup_times: list[float], info: dict) -> dict:
    """name -> (value, unit) from the traced pass, plus set-up and overhead figures."""
    out = {}
    totals = {solver: recorder.totals() for solver, (_, recorder) in traced.items()}
    for name, unit, solvers, value in LAYER_METRICS:
        for solver in solvers:
            key = name.format(s=solver) if "{s}" in name else f"{name}.{solver}"
            out[key] = (value(totals[solver], traced[solver][1].counts, solver), unit)
    setup = statistics.median(setup_times)
    out["experiments.generate_synthetic.s"] = (
        info["generate_synthetic_s"] if w.from_file else setup, "s")
    out["storage.read_tensor.s"] = (setup if w.from_file else 0.0, "s")
    out["storage.read_tensor.bytes"] = (info.get("read_bytes", 0), "B")
    for solver in TARGET_SOLVERS:
        trial = traced[solver][0]
        hit = first_at_target(trial.record, w.target) if trial.record else None
        out[f"solvers.full_iters_to_target.{solver}"] = (hit.full_iter if hit else None, "count")
    for solver in SOLVERS:
        # whole trials: with a budget of 2 a trial has a single timed interval
        traced_rec, plain_rec = traced[solver][0].record, untraced[solver][0].record
        ratio = (traced_rec.checkpoints[-1].wall_seconds / plain_rec.checkpoints[-1].wall_seconds
                 if traced_rec and plain_rec else None)
        out[f"trace_overhead.{solver}"] = (ratio, "1")
    return out


# --- output checks ------------------------------------------------------------

def _trace_key(record) -> list[tuple]:
    return [(c.full_iter, c.work_units, float(c.m).hex()) for c in record.checkpoints]


def consistency_problems(trials: dict[str, list[Trial]]) -> list[str]:
    """Trial k has the same m_0 under every solver: one init stream per solver seed."""
    problems = []
    for k in range(max(len(ts) for ts in trials.values())):
        m0 = {s: ts[k].record.checkpoints[0].m for s, ts in trials.items()
              if len(ts) > k and ts[k].record}
        if len({float(m).hex() for m in m0.values()}) > 1:
            problems.append(f"trial {k}: m_0 differs across solvers: {m0}")
    return problems


def trace_problems(w: Workload, traced: dict, untraced: dict[str, list[Trial]]) -> list[str]:
    """Traced and untraced runs agree, and the traced counts match the run's own work."""
    problems = []
    for solver in SOLVERS:
        trial, recorder = traced[solver]
        plain = untraced[solver][0].record
        if trial.record is None or plain is None:
            continue
        if _trace_key(trial.record) != _trace_key(plain):
            problems.append(f"{solver}: traced m_k/work_units trace differs from untraced")
        work = trial.record.checkpoints[-1].work_units
        if solver == "als":
            calls = recorder.totals().get("tensor.mttkrp", (0, 0.0))[0]
            if calls != len(w.dims) * (len(trial.record.checkpoints) - 1):
                problems.append(f"als: traced {calls} MTTKRPs for "
                                f"{len(trial.record.checkpoints) - 1} sweeps")
        elif recorder.counts.get("tensor.gather_fiber_rows.entries", 0) != work:
            problems.append(f"{solver}: traced gather entries "
                            f"{recorder.counts.get('tensor.gather_fiber_rows.entries', 0)} "
                            f"!= work_units {work}")
    return problems


# --- report and entry point ---------------------------------------------------

def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report_line(name: str, value, unit: str, samples=None) -> str:
    line = f"{name:46s} {_fmt(value):>12s} {unit}"
    if samples is not None:
        line += f"  (n={len(samples)}"
        if samples:
            line += f"; median {statistics.median(samples):.6g}"
        high = tail(samples)
        line += f"; p{high[0]:g} {high[1]:.6g})" if high else "; too few samples for a tail)"
    return line


def run_benchmark(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, warm up, measure (and trace); returns the result object."""
    print(f"# workload {w.name}: dims={w.dims} rank={w.rank} block={w.block} "
          f"constraint={w.constraint} snr_db={w.snr_db} cond={w.cond} budget={w.budget} "
          f"target={w.target} seed={seed} seconds={seconds} trace={int(trace)}")
    print("# environment " + json.dumps(environment()))
    print("# sizes " + json.dumps(computed_sizes(w)))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{w.name}-seed{seed}-{os.getpid()}.dten"
    try:
        tensor, setup_times, info = load(w, seed, path)
    finally:
        path.unlink(missing_ok=True)
    warm_up(tensor, w, seed)
    if trace:
        trials, traced = traced_pass(tensor, w, seed)
    else:
        trials = measure(tensor, w, seed, seconds)
    all_trials = [t for ts in trials.values() for t in ts]
    problems = consistency_problems(trials)
    e2e = end_to_end(w, trials, setup_times)
    print("# end-to-end" + (" (the untraced trial of each traced pair)" if trace else "")
          + f"; setup_s is the median of its repeats, the other timings the "
          f"p{TIMING_PERCENTILE} of their samples")
    for name, (value, unit, samples) in e2e.items():
        print(report_line(name, value, unit, samples))
    metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
    if trace:
        all_trials += [trial for trial, _ in traced.values()]
        problems += trace_problems(w, traced, trials)
        metrics = per_layer(w, traced, trials, setup_times, info)
        print("# per-layer (one traced trial per solver)")
        for name, (value, unit) in metrics.items():
            print(report_line(name, value, unit))
        for name in sorted({n for _, rec in traced.values() for n in rec.missing}):
            print(f"# not traced: {name} (fibercpd no longer has it)")
        spans_path = OUT / f"spans-{w.name}-seed{seed}.json"
        spans.write_spans(spans_path, {s: rec.dump() for s, (_, rec) in traced.items()})
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    failed = [t for t in all_trials if t.problems]
    for t in failed:
        print(f"# FAILED trial {t.solver}: {'; '.join(t.problems)}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    print(f"# checks: {'all passed' if not problems else f'{len(problems)} failed'}; "
          f"trials attempted {len(all_trials)}, failed {len(failed)}")
    return {
        "correct": not problems,
        "attempted": len(all_trials),
        "failed": len(failed),
        "metrics": {name: {"value": value if value is not None and math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
