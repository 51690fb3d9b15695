"""The span tracer of `perfbench/spans.py` still finds every function it traces.

The tracer rebinds functions by name (see its module docs), so a traced
function that is moved or renamed reads 0 in the benchmark's per-layer
metrics.  This test runs each solver under `spans.instrument` and asserts the
checks of the benchmark's `trace_problems`: nothing is missing, the traced
gathers account for every tensor entry a stochastic solver charges, ALS makes
one MTTKRP per mode and sweep, and the metric runs once per checkpoint.
"""

import importlib.util
from pathlib import Path

import pytest

import fibercpd
from fibercpd import experiments
from fibercpd.experiments import SyntheticSpec, generate_synthetic
from fibercpd.solvers import SOLVERS, SolverConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("solver", SOLVERS)
def test_every_traced_function_is_found_and_counted(solver):
    spans = load_spans()
    tensor, _, _ = generate_synthetic(SyntheticSpec((6, 5, 4), 2, snr_db=20.0, seed=7))
    cfg = SolverConfig(solver, 2, constraint="nonneg", blocksizes=4, seed=8,
                       max_full_iters=2)
    recorder = spans.Recorder(cfg.blocks_for(tensor.order))
    untraced = experiments.metric
    with spans.instrument(recorder, fibercpd):
        record = experiments.run(tensor, cfg)
    assert experiments.metric is untraced               # the bindings are restored
    assert recorder.missing == []
    checkpoints = record.checkpoints
    assert [c.full_iter for c in checkpoints] == [0, 1, 2]
    totals = recorder.totals()
    assert totals["experiments.run"][0] == 1
    assert totals["experiments.metric"][0] == len(checkpoints)
    if solver == "als":
        sweeps = len(checkpoints) - 1
        assert totals["tensor.mttkrp"][0] == tensor.order * sweeps
        assert totals["solvers.als_sweep"][0] == sweeps
    else:
        entries = recorder.counts["tensor.gather_fiber_rows.entries"]
        assert entries == checkpoints[-1].work_units
        assert totals[f"solvers.{solver}_iteration"][0] == totals["sampling.draw"][0]
