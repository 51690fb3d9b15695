"""Frozen m_k traces, recorded with the kernels these replaced: the einsum
MTTKRP, the index-matrix fiber gather and the metric from the full
reconstruction.  The kernels must not move the traces: work_units stays
exact, the stochastic solvers' m_k stay within 1e-12 relative (their factor
iterates do not depend on the MTTKRP or the metric at all) and ALS, whose
sweeps use the MTTKRP, within 1e-9.

free4-ascpd's checkpoints 1-4 were re-recorded when the certified lambda cap
(`solvers._cap_bounds`) replaced mu by 0 on its steps, a deliberate trace
change: those R = 2 Grams certify, so mu_bar = lambda.

free4-adacpd was re-recorded when `reconstruct` became one GEMM, a declared
data change: the GEMM rounds free4's tensor differently from the einsum in
the last bit, and adacpd's trace moves by up to 3e-11 relative under such
moves (nudging 30% of the entries by one ulp moves it by 3e-11 to 1.5e-10).
Every other entry stayed within its tolerance.
"""

import pytest

from fibercpd.experiments import SyntheticSpec, generate_synthetic, run
from fibercpd.solvers import SolverConfig

# cell -> (data, constraint, block, full iterations); solver seed 5
CELLS = {
    "nonneg3": (SyntheticSpec((7, 8, 9), 3, snr_db=20.0, seed=11), "nonneg", 10, 6),
    "free4": (SyntheticSpec((4, 5, 3, 6), 2, snr_db=15.0, seed=12), "none", 7, 4),
}

# (cell, solver) -> [(full_iter, work_units, m_k)]
GOLDEN = {
    ("nonneg3", "ascpd"): [
        (0, 0, 0.923285436391281),
        (1, 2060, 0.16051856436855091),
        (2, 4120, 0.12204691958927408),
        (3, 6100, 0.11222561099509007),
        (4, 8090, 0.10712974444527987),
        (5, 10140, 0.11565835414961369),
        (6, 12110, 0.11019508853286135),
    ],
    ("nonneg3", "spg"): [
        (0, 0, 0.923285436391281),
        (1, 2060, 0.18686758915711016),
        (2, 4120, 0.12477299158087769),
        (3, 6100, 0.11517220652303738),
        (4, 8090, 0.10683732847379335),
        (5, 10140, 0.11091618184496482),
        (6, 12110, 0.10523110415691768),
    ],
    ("nonneg3", "brascpd"): [
        (0, 0, 0.923285436391281),
        (1, 2060, 0.7474213412185639),
        (2, 4120, 0.6532880768321127),
        (3, 6100, 0.6012904616763614),
        (4, 8090, 0.5666549774138769),
        (5, 10140, 0.5367119008236334),
        (6, 12110, 0.5089339124176868),
    ],
    ("nonneg3", "adacpd"): [
        (0, 0, 0.923285436391281),
        (1, 2060, 0.5284929552147823),
        (2, 4120, 0.2466346589922399),
        (3, 6100, 0.23036523594845482),
        (4, 8090, 0.20662004637121775),
        (5, 10140, 0.19093135973229694),
        (6, 12110, 0.15826519900440827),
    ],
    ("nonneg3", "als"): [
        (0, 0, 0.923285436391281),
        (1, 2016, 0.2523622045739039),
        (2, 4032, 0.119399509425202),
        (3, 6048, 0.1015005119299057),
        (4, 8064, 0.0966407735806486),
        (5, 10080, 0.09503107068381486),
        (6, 12096, 0.09446244284258834),
    ],
    ("free4", "ascpd"): [
        (0, 0, 1.0126181272900308),
        (1, 1442, 0.31350639708781664),
        (2, 2884, 0.39147166841740616),
        (3, 4354, 0.35832447986602356),
        (4, 5782, 0.22626775025885812),
    ],
    ("free4", "spg"): [
        (0, 0, 1.0126181272900308),
        (1, 1442, 0.28223946237002945),
        (2, 2884, 0.2637173915744913),
        (3, 4354, 0.23653489772993277),
        (4, 5782, 0.19469958489148836),
    ],
    ("free4", "brascpd"): [
        (0, 0, 1.0126181272900308),
        (1, 1442, 0.9843743724784152),
        (2, 2884, 0.9597786576485797),
        (3, 4354, 0.9430548127559573),
        (4, 5782, 0.9293721125348764),
    ],
    ("free4", "adacpd"): [
        (0, 0, 1.0126181272900305),
        (1, 1442, 1.0230753310209812),
        (2, 2884, 0.4846619992984337),
        (3, 4354, 0.2701282865629521),
        (4, 5782, 0.2649085328806661),
    ],
    ("free4", "als"): [
        (0, 0, 1.0126181272900308),
        (1, 1440, 0.2084175482076378),
        (2, 2880, 0.18413403114818666),
        (3, 4320, 0.180434086599583),
        (4, 5760, 0.17632890696180314),
    ],
}


@pytest.mark.parametrize("cell,solver", list(GOLDEN))
def test_trace_matches_frozen(cell, solver):
    spec, constraint, block, iters = CELLS[cell]
    tensor = generate_synthetic(spec)[0]
    rec = run(tensor, SolverConfig(solver, spec.rank, constraint, block, None, 5, iters))
    got = [(c.full_iter, c.work_units, c.m) for c in rec.checkpoints]
    expected = GOLDEN[(cell, solver)]
    assert [g[:2] for g in got] == [e[:2] for e in expected]
    rel = 1e-9 if solver == "als" else 1e-12
    for (_, _, m), (_, _, m_ref) in zip(got, expected):
        assert m == pytest.approx(m_ref, rel=rel, abs=0.0)
