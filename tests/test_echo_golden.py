"""Frozen CSV output of `fibercpd decompose` (every solver) and `fibercpd
bench`: the `# key=value` config-echo lines byte for byte, and the data rows
modulo wall_seconds.  trial, full_iter and work_units must match exactly; m_k
within 1e-12 relative for the stochastic solvers and 1e-9 for ALS, the
tolerances of tests/test_golden_traces.py, so that a different BLAS build
does not fail the test.  The echo lists each schedule's hyperparameters in
field order, and ALS lists none.
"""

import json

import pytest

from fibercpd.cli import cli_main

# solver -> extra decompose flags; the others keep their defaults
DECOMPOSE_FLAGS = {
    "ascpd": ["--cond", "50"],
    "spg": [],
    "brascpd": ["--alpha", "0.05", "--beta-exp", "0.5"],
    "adacpd": ["--eta", "0.5"],
    "als": ["--cond", "20"],
}

BENCH_CONFIG = {
    "solvers": ["ascpd", "spg", "brascpd", "adacpd", "als"], "dims": [5, 4, 3], "rank": 2,
    "constraint": "none", "block": 4, "cond": 50.0, "beta_exp": 0.5, "eps": 1e-4,
    "snr_db": 15.0, "seed": 2, "trials": 2, "max_full_iters": 2,
}


def _echo(*middle):
    return ["# dims=6,5,4", "# rank=2", "# constraint=nonneg", "# block=5,5,5", *middle,
            "# seed=7", "# max_full_iters=3", "# tol=", "# rng=numpy-pcg64",
            "# input=<tmp>/x.dten"]


def _bench_echo(solver, *middle):
    return [f"# solver={solver}", "# dims=5,4,3", "# rank=2", "# constraint=none",
            "# block=4,4,4", *middle, "# seed=2", "# max_full_iters=2", "# tol=",
            "# rng=numpy-pcg64", "# snr_db=15.0", "# trials=2"]


# file -> (echo lines, header, rows without wall_seconds)
GOLDEN = {
    "ascpd.csv": (["# solver=ascpd", *_echo("# cond=50.0")], [
        "0,0,0,0.8689312457265966",
        "0,1,495,0.18193182025540663",
        "0,2,980,0.1599582125636592",
        "0,3,1440,0.11323546140787571",
    ]),
    "spg.csv": (["# solver=spg", *_echo("# cond=100.0")], [
        "0,0,0,0.8689312457265966",
        "0,1,495,0.209423168025374",
        "0,2,980,0.1852272277470904",
        "0,3,1440,0.1284428699423501",
    ]),
    "brascpd.csv": (["# solver=brascpd", *_echo("# alpha=0.05", "# beta_exp=0.5")], [
        "0,0,0,0.8689312457265966",
        "0,1,495,0.8634191341584527",
        "0,2,980,0.8616946160401591",
        "0,3,1440,0.8603341018693406",
    ]),
    "adacpd.csv": (["# solver=adacpd", *_echo("# eta=0.5", "# b=1e-06", "# eps=1e-06")], [
        "0,0,0,0.8689312457265966",
        "0,1,495,0.2719584095155148",
        "0,2,980,0.18247779080480797",
        "0,3,1440,0.20311370584233804",
    ]),
    "als.csv": (["# solver=als", *_echo()], [
        "0,0,0,0.8689312457265966",
        "0,1,480,0.13654017454362835",
        "0,2,960,0.10129147625093915",
        "0,3,1440,0.09266208614334502",
    ]),
    # average.csv echoes the joined solver list and every schedule field once
    "bench/average.csv": (_bench_echo("ascpd,spg,brascpd,adacpd,als", "# cond=50.0",
                                      "# alpha=0.1", "# beta_exp=0.5", "# eta=1.0",
                                      "# b=1e-06", "# eps=0.0001"), [
        "adacpd,0,0,0.9746859226949052",
        "adacpd,1,246,0.6299880108239877",
        "adacpd,2,488,0.5693473471516011",
        "als,0,0,0.9746859226949052",
        "als,1,240,0.2107308365331833",
        "als,2,480,0.16214117167561967",
        "ascpd,0,0,0.9746859226949052",
        "ascpd,1,246,0.33279036417426333",
        "ascpd,2,488,0.3156695365666803",
        "brascpd,0,0,0.9746859226949052",
        "brascpd,1,246,0.8864101445724315",
        "brascpd,2,488,0.8535939633417717",
        "spg,0,0,0.9746859226949052",
        "spg,1,246,0.3312575484795035",
        "spg,2,488,0.3693826639135309",
    ]),
    "bench/adacpd.csv": (_bench_echo("adacpd", "# eta=1.0", "# b=1e-06", "# eps=0.0001"), None),
    "bench/brascpd.csv": (_bench_echo("brascpd", "# alpha=0.1", "# beta_exp=0.5"), None),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every golden file's text, with the temporary directory replaced by <tmp>."""
    tmp = tmp_path_factory.mktemp("echo")
    tensor = tmp / "x.dten"
    assert cli_main(["synth", "--dims", "6,5,4", "--rank", "2", "--snr", "20", "--seed", "3",
                     "--out", str(tensor)]) == 0
    for solver, flags in DECOMPOSE_FLAGS.items():
        assert cli_main(["decompose", "--in", str(tensor), "--solver", solver, "--rank", "2",
                         "--block", "5", "--constraint", "nonneg", "--seed", "7",
                         "--max-full-iters", "3", "--csv", str(tmp / f"{solver}.csv"),
                         *flags]) == 0
    config = tmp / "bench.json"
    config.write_text(json.dumps({**BENCH_CONFIG, "out_dir": str(tmp / "bench")}))
    assert cli_main(["bench", "--config", str(config)]) == 0
    return {name: (tmp / name).read_text(encoding="utf-8").replace(str(tmp), "<tmp>")
            for name in GOLDEN}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_matches_golden(outputs, name):
    echo, rows = GOLDEN[name]
    lines = outputs[name].splitlines()
    assert lines[:len(echo)] == echo
    header = lines[len(echo)]
    assert header.split(",")[1:] == ["full_iter", "work_units", "m_k", "wall_seconds"]
    if rows is None:
        return
    got = [line.split(",")[:4] for line in lines[len(echo) + 1:]]
    assert [g[:3] for g in got] == [r.split(",")[:3] for r in rows]
    for g, r in zip(got, rows):
        rel = 1e-9 if g[0] == "als" or name == "als.csv" else 1e-12
        assert float(g[3]) == pytest.approx(float(r.split(",")[3]), rel=rel, abs=0.0)
