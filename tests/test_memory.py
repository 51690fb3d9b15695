"""The memory contract: each entry point's peak traced allocation (`tracemalloc`,
which sees numpy's buffers) as a multiple of the tensor's bytes.

The cell is 100^3 at rank 20 and 20 dB, so a last-mode Khatri-Rao chain or
partial product, (prod(dims) / I_last, R), is R / I_last = 0.2 tensors.  A
bound counts what the call returns: `reconstruct` and `generate_synthetic`
return a tensor, `read_tensor` and `read_raw64` the one payload copy.
`reconstruct`'s column blocks (1/64 of a tensor) fit in its 0.05 of slack; a
synthetic `run_trials` holds one trial's tensor at a time.  The README's
"Memory" table lists the same bounds.
"""

import math
import tracemalloc
from types import SimpleNamespace

import pytest

from fibercpd import storage
from fibercpd.experiments import SyntheticSpec, generate_synthetic, run, run_trials
from fibercpd.solvers import SOLVERS, SolverConfig
from fibercpd.tensor import metric, objective, reconstruct

DIMS, RANK, SNR_DB = (100, 100, 100), 20, 20.0
CHAIN = RANK / DIMS[-1]     # a last-mode chain, in tensors
TENSOR_BYTES = 8 * math.prod(DIMS)


@pytest.fixture(scope="module")
def cell(tmp_path_factory):
    """The cell's tensor and truth, and its .dten and raw64 files, made once."""
    t, truth, _ = generate_synthetic(SyntheticSpec(DIMS, RANK, SNR_DB, seed=3))
    out = tmp_path_factory.mktemp("memory")
    storage.write_tensor(t, out / "x.dten")
    t.values.tofile(out / "x.raw")
    return SimpleNamespace(t=t, truth=truth, dir=out)


def solver_cfg(solver):
    return SolverConfig(solver, RANK, "nonneg", 200, None, 4, 2)


def solver_run(solver):
    return lambda c: run(c.t, solver_cfg(solver))


# entry point -> (call on the cell, bound in tensors)
ENTRY_POINTS = {
    "generate_synthetic": (lambda c: generate_synthetic(SyntheticSpec(DIMS, RANK, SNR_DB, seed=3)),
                           1 + CHAIN + 0.05),
    "reconstruct": (lambda c: reconstruct(c.truth), 1 + CHAIN + 0.05),
    "objective": (lambda c: objective(c.t, c.truth), 1 + CHAIN + 0.05),
    "write_tensor": (lambda c: storage.write_tensor(c.t, c.dir / "w.dten"), 0.1),
    "write_factors": (lambda c: storage.write_factors(c.truth, c.dir / "w.dfac"), 0.1),
    "read_tensor": (lambda c: storage.read_tensor(c.dir / "x.dten"), 1.05),
    "read_raw64": (lambda c: storage.read_raw64(c.dir / "x.raw", DIMS), 1.05),
    "metric": (lambda c: metric(c.t, c.truth), CHAIN + 0.05),
    **{f"run-{solver}": (solver_run(solver), CHAIN + 0.1) for solver in SOLVERS},
    "run_trials-synthetic-2": (lambda c: run_trials(SyntheticSpec(DIMS, RANK, SNR_DB, seed=3),
                                                    solver_cfg("ascpd"), 2),
                               1 + CHAIN + 0.1),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_peak_allocation_within_bound(entry, cell):
    call, bound = ENTRY_POINTS[entry]
    tracemalloc.start()
    try:
        call(cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / TENSOR_BYTES <= bound
