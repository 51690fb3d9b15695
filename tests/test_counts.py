"""Every size and count (dims, rank, blocksizes, budget, seed, trials) passes one
checked conversion, `tensor.as_count`: a Python or NumPy integer at or above
its bound is accepted, anything else raises a ValueError naming the setting,
and nothing is truncated.  A tensor's dims as a whole pass `tensor.as_dims`:
a sequence of at least one count."""

import math

import numpy as np
import pytest

from fibercpd.cli import config_echo
from fibercpd.experiments import SyntheticSpec, run_trials
from fibercpd.sampling import FiberSampler
from fibercpd.solvers import SolverConfig
from fibercpd.storage import read_raw64, write_run_csv
from fibercpd.tensor import DenseTensor, as_count, as_dims


def _raw64(path):
    """A raw64 dump of a 2x2 tensor."""
    np.arange(4.0).astype("<f8").tofile(path)
    return path


def _rng():
    return np.random.default_rng(0)


# entry point -> (setting, lowest accepted value, call with the value under
# test in a spot where 2 is valid; `path` is a scratch directory)
ENTRY_POINTS = {
    "DenseTensor-dims": ("dims", 1, lambda v, path: DenseTensor((2, v), np.zeros(4))),
    "SyntheticSpec-dims": ("dims", 1, lambda v, path: SyntheticSpec((2, v), 1)),
    "SyntheticSpec-rank": ("rank", 1, lambda v, path: SyntheticSpec((2, 2), v)),
    "SyntheticSpec-seed": ("seed", 0, lambda v, path: SyntheticSpec((2, 2), 1, seed=v)),
    "FiberSampler-dims": ("dims", 1, lambda v, path: FiberSampler((2, v), (1, 1), _rng())),
    "FiberSampler-blocksizes": ("blocksizes", 1,
                                lambda v, path: FiberSampler((2, 2), (1, v), _rng())),
    "SolverConfig-rank": ("rank", 1, lambda v, path: SolverConfig("ascpd", v)),
    # a NaN budget must raise here: accepted, it made `run` loop forever
    "SolverConfig-max_full_iters": ("max_full_iters", 0,
                                    lambda v, path: SolverConfig("als", 2, max_full_iters=v)),
    "SolverConfig-seed": ("seed", 0, lambda v, path: SolverConfig("ascpd", 2, seed=v)),
    "SolverConfig-blocksize": ("blocksizes", 1,
                               lambda v, path: SolverConfig("ascpd", 2, blocksizes=v)),
    "SolverConfig-blocksizes": ("blocksizes", 1,
                                lambda v, path: SolverConfig("ascpd", 2, blocksizes=(2, v, 2))),
    "run_trials-trials": ("trials", 1, lambda v, path: run_trials(
        DenseTensor((2, 2), np.ones(4)), SolverConfig("als", 1, max_full_iters=0), v)),
    "read_raw64-dims": ("dims", 1,
                        lambda v, path: read_raw64(_raw64(path / "t.raw"), (2, v))),
}


@pytest.mark.parametrize("bad", [2.5, math.nan, True, "below"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_count_rejects_non_integer_and_below_bound(tmp_path, entry, bad):
    name, low, call = ENTRY_POINTS[entry]
    value = low - 1 if bad == "below" else bad
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value, tmp_path)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_count_accepts_numpy_integers(tmp_path, entry):
    _, _, call = ENTRY_POINTS[entry]
    call(np.int64(2), tmp_path)
    call(np.uint8(2), tmp_path)


# entry point -> call with a whole dims value in place of (2, 2)
DIMS_ENTRY_POINTS = {
    "DenseTensor": lambda dims, path: DenseTensor(dims, np.zeros(4)),
    "SyntheticSpec": lambda dims, path: SyntheticSpec(dims, 1),
    "FiberSampler": lambda dims, path: FiberSampler(dims, (1, 1), _rng()),
    "read_raw64": lambda dims, path: read_raw64(_raw64(path / "t.raw"), dims),
}


@pytest.mark.parametrize("bad", [(), 5], ids=["empty", "non-sequence"])
@pytest.mark.parametrize("entry", DIMS_ENTRY_POINTS)
def test_dims_rejects_empty_and_non_sequence(tmp_path, entry, bad):
    DIMS_ENTRY_POINTS[entry]((2, 2), tmp_path)
    with pytest.raises(ValueError, match="^dims must "):
        DIMS_ENTRY_POINTS[entry](bad, tmp_path)


def test_as_dims_returns_a_tuple_of_python_ints():
    for dims in ([3, 4], (3, 4), np.array([3, 4])):
        out = as_dims(dims)
        assert out == (3, 4) and all(type(d) is int for d in out)


def test_as_count_returns_a_python_int():
    for value in (3, np.int64(3), np.uint16(3)):
        out = as_count(value, "x")
        assert out == 3 and type(out) is int
    assert as_count(0, "seed", low=0) == 0
    for bad in (3.0, "3", None, np.float64(3.0), np.bool_(True)):
        with pytest.raises(ValueError, match="^x must be an integer, got "):
            as_count(bad, "x")


def test_blocksizes_accept_list_tuple_and_one_integer(tmp_path):
    for blocks in ([2, 3, 4], (2, 3, 4), np.array([2, 3, 4])):
        cfg = SolverConfig("ascpd", 2, blocksizes=blocks)
        assert cfg.blocks_for(3) == (2, 3, 4)
        assert FiberSampler((4, 5, 6), blocks, _rng()).blocksizes == (2, 3, 4)
    one, one_tuple = (SolverConfig("ascpd", 2, blocksizes=b) for b in (200, (200,)))
    assert one == one_tuple and one.blocks_for(3) == (200, 200, 200)
    for name, cfg in (("int", one), ("tuple", one_tuple)):
        write_run_csv(tmp_path / f"{name}.csv", [], config_echo([cfg], (30, 30, 30), {}))
    assert (tmp_path / "int.csv").read_text() == (tmp_path / "tuple.csv").read_text()
