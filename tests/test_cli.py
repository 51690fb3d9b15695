import dataclasses
import json
import math

import numpy as np
import pytest

from fibercpd.cli import cli_main
from fibercpd.experiments import SyntheticSpec, generate_synthetic
from fibercpd.solvers import Adagrad, Diminishing, LocallyOptimal, SolverConfig
from fibercpd.storage import read_factors, read_run_csv, read_tensor, write_tensor
from fibercpd.tensor import DenseTensor, reconstruct


def rows_without_wall(path):
    echo, rows = read_run_csv(path)
    stripped = [{k: v for k, v in row.items() if k != "wall_seconds"} for row in rows]
    return echo, stripped


def test_synth_writes_tensor_truth_and_meta(tmp_path):
    out = tmp_path / "x.dten"
    code = cli_main(["synth", "--dims", "4,3,2", "--rank", "2", "--seed", "5",
                     "--out", str(out)])
    assert code == 0
    tensor = read_tensor(out)
    assert tensor.dims == (4, 3, 2)
    truth = read_factors(str(out) + ".truth.dfac")
    np.testing.assert_allclose(reconstruct(truth).values, tensor.values, rtol=1e-12)
    meta = json.loads((tmp_path / "x.dten.meta.json").read_text())
    assert meta["rank"] == 2 and meta["snr_db"] is None and meta["sigma"] == 0.0


def test_synth_with_snr_matches_library_generation(tmp_path):
    out = tmp_path / "y.dten"
    assert cli_main(["synth", "--dims", "5,4,3", "--rank", "2", "--snr", "10",
                     "--seed", "7", "--out", str(out)]) == 0
    expected, _, _ = generate_synthetic(SyntheticSpec((5, 4, 3), 2, snr_db=10.0, seed=7))
    np.testing.assert_array_equal(read_tensor(out).values, expected.values)


def test_decompose_missing_rank_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.dten"
    cli_main(["synth", "--dims", "4,3,2", "--rank", "2", "--out", str(out)])
    code = cli_main(["decompose", "--in", str(out), "--solver", "ascpd",
                     "--block", "4", "--csv", str(tmp_path / "o.csv")])
    capsys.readouterr()
    assert code != 0


def test_decompose_missing_block_for_stochastic(tmp_path, capsys):
    out = tmp_path / "x.dten"
    cli_main(["synth", "--dims", "4,3,2", "--rank", "2", "--out", str(out)])
    code = cli_main(["decompose", "--in", str(out), "--solver", "ascpd", "--rank", "2",
                     "--csv", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code != 0
    assert "block" in err


def test_decompose_runs_and_writes_csv(tmp_path):
    out = tmp_path / "x.dten"
    cli_main(["synth", "--dims", "6,5,4", "--rank", "2", "--snr", "20", "--seed", "1",
              "--out", str(out)])
    csv_path = tmp_path / "trace.csv"
    code = cli_main(["decompose", "--in", str(out), "--solver", "ascpd", "--rank", "2",
                     "--block", "5", "--cond", "100", "--constraint", "nonneg",
                     "--seed", "1", "--max-full-iters", "5", "--csv", str(csv_path)])
    assert code == 0
    echo, rows = read_run_csv(csv_path)
    assert echo["solver"] == "ascpd"
    assert echo["input"].endswith("x.dten")
    assert rows[0]["trial"] == "0" and rows[0]["full_iter"] == "0"
    assert int(rows[-1]["full_iter"]) >= 5
    m = [float(r["m_k"]) for r in rows]
    assert m[-1] < m[0]


def test_decompose_deterministic_modulo_wall(tmp_path):
    out = tmp_path / "x.dten"
    cli_main(["synth", "--dims", "5,5,5", "--rank", "2", "--snr", "15", "--seed", "3",
              "--out", str(out)])
    args = ["decompose", "--in", str(out), "--solver", "adacpd", "--rank", "2",
            "--block", "6", "--seed", "9", "--max-full-iters", "4"]
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--csv", str(a_csv)]) == 0
    assert cli_main(args + ["--csv", str(b_csv)]) == 0
    assert rows_without_wall(a_csv) == rows_without_wall(b_csv)


def test_decompose_als_ignores_block(tmp_path):
    out = tmp_path / "x.dten"
    cli_main(["synth", "--dims", "4,4,4", "--rank", "2", "--out", str(out)])
    code = cli_main(["decompose", "--in", str(out), "--solver", "als", "--rank", "2",
                     "--max-full-iters", "3", "--csv", str(tmp_path / "als.csv")])
    assert code == 0


def test_convert_raw64_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.standard_normal(24)
    raw_path = tmp_path / "cube.raw"
    values.astype("<f8").tofile(raw_path)
    out = tmp_path / "cube.dten"
    code = cli_main(["convert", "--from", "raw64", "--dims", "2,3,4",
                     "--in", str(raw_path), "--out", str(out)])
    assert code == 0
    assert np.array_equal(read_tensor(out).values, values)


def test_convert_wrong_count(tmp_path, capsys):
    raw_path = tmp_path / "cube.raw"
    np.zeros(7).astype("<f8").tofile(raw_path)
    code = cli_main(["convert", "--from", "raw64", "--dims", "2,2,2",
                     "--in", str(raw_path), "--out", str(tmp_path / "c.dten")])
    assert code != 0
    assert "require" in capsys.readouterr().err


def test_bench_writes_per_solver_and_average(tmp_path):
    cfg = {
        "solvers": ["ascpd", "als"],
        "dims": [5, 5, 5],
        "rank": 2,
        "constraint": "nonneg",
        "block": 5,
        "cond": 100.0,
        "snr_db": 20.0,
        "seed": 2,
        "trials": 2,
        "max_full_iters": 3,
        "out_dir": str(tmp_path / "bench"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["bench", "--config", str(cfg_path)]) == 0
    for solver in ("ascpd", "als"):
        echo, rows = read_run_csv(tmp_path / "bench" / f"{solver}.csv")
        assert echo["solver"] == solver
        assert echo["trials"] == "2"
        trials = {r["trial"] for r in rows}
        assert trials == {"0", "1"}
    _, avg_rows = read_run_csv(tmp_path / "bench" / "average.csv")
    solvers = {r["solver"] for r in avg_rows}
    assert solvers == {"ascpd", "als"}


def test_bench_rejects_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solvers": ["als"], "rank": 2, "dims": [3, 3, 3],
                                    "bogus": 1}))
    assert cli_main(["bench", "--config", str(cfg_path)]) != 0
    assert "unknown config keys" in capsys.readouterr().err


def test_bench_missing_config_file(tmp_path, capsys):
    assert cli_main(["bench", "--config", str(tmp_path / "nope.json")]) != 0


def test_unknown_subcommand():
    assert cli_main(["frobnicate"]) != 0


def run_bench(tmp_path, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    return cli_main(["bench", "--config", str(cfg_path)])


def test_run_settings_validation(tmp_path, capsys):
    base = {"solvers": ["ascpd"], "rank": 2, "dims": [4, 4, 4], "block": 4,
            "max_full_iters": 1, "out_dir": str(tmp_path / "bench")}
    assert run_bench(tmp_path, base) == 0
    capsys.readouterr()
    for change, message in [
        ({"solvers": ["nope"]}, "unknown solver 'nope'"),
        ({"dims": None}, "exactly one of dims or an input tensor path"),
        ({"dims": None, "input": str(tmp_path / "missing.dten")}, "input tensor not found"),
        ({"cond": 1.0}, "cond must be > 1"),
        ({"trials": 0}, "trials must be an integer >= 1"),
    ]:
        assert run_bench(tmp_path, {**base, **change}) == 1, change
        assert f"error: {message}" in capsys.readouterr().err
    assert run_bench(tmp_path, {k: v for k, v in base.items() if k != "rank"}) == 1
    assert "error: rank is required" in capsys.readouterr().err


def test_bench_single_solver_string(tmp_path):
    assert run_bench(tmp_path, {"solver": "als", "rank": 3, "dims": [4, 4, 4],
                                "max_full_iters": 1, "out_dir": str(tmp_path / "b")}) == 0
    echo, _ = read_run_csv(tmp_path / "b" / "als.csv")
    assert echo["solver"] == "als" and echo["rank"] == "3"


@pytest.mark.parametrize("config, message", [
    ({"dims": 5}, "error: dims must be a list of integers, got 5"),
    ({"seed": None}, "error: seed must be an integer, got null"),
    ({"block": 2.5}, "error: block must be an integer or a list of integers, got 2.5"),
    ({"rank": [2]}, "error: rank must be an integer, got [2]"),
    ({"trials": None}, "error: trials must be an integer >= 1, got null"),
    ({"cond": "50"}, 'error: cond must be a number, got "50"'),
    ({"solvers": ["ascpd", 1]}, 'error: solvers must be a list of solver names'),
    ({"block": 0}, "error: blocksizes must be >= 1"),
    ({"constraint": "box"}, "error: unknown constraint kind 'box'"),
    ([1, 2], "error: <cfg>: the config must be a JSON object"),
])
def test_bench_rejects_malformed_config(tmp_path, capsys, config, message):
    if isinstance(config, dict):
        config = {"solvers": ["ascpd"], "rank": 2, "dims": [4, 4, 4], "block": 4,
                  "max_full_iters": 1, "out_dir": str(tmp_path / "bench"), **config}
    assert run_bench(tmp_path, config) == 1
    err = capsys.readouterr().err.replace(str(tmp_path / "cfg.json"), "<cfg>")
    assert message in err
    assert not (tmp_path / "bench").exists()


def test_decompose_echoes_solver_config_defaults(tmp_path):
    tensor = tmp_path / "x.dten"
    assert cli_main(["synth", "--dims", "4,4,4", "--rank", "2", "--out", str(tensor)]) == 0
    csv_path = tmp_path / "als.csv"
    assert cli_main(["decompose", "--in", str(tensor), "--solver", "als", "--rank", "2",
                     "--csv", str(csv_path)]) == 0
    echo, rows = read_run_csv(csv_path)
    default = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    for name in ("seed", "constraint", "max_full_iters"):
        assert echo[name] == str(default[name])
    assert echo["tol"] == ""
    assert int(rows[-1]["full_iter"]) == default["max_full_iters"]


@pytest.mark.parametrize("kind, name, bad", [
    (LocallyOptimal, "cond", 1.0),
    (LocallyOptimal, "cond", float("nan")),
    (Diminishing, "alpha", -0.1),
    (Adagrad, "eta", 0.0),
    (Adagrad, "b", -1e-3),
    (Adagrad, "eps", -1e-3),
])
def test_out_of_range_hyperparameter_rejected_everywhere(tmp_path, capsys, kind, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must"):
        kind(**{name: bad})
    tensor = tmp_path / "x.dten"
    assert cli_main(["synth", "--dims", "4,4,4", "--rank", "2", "--out", str(tensor)]) == 0
    # ALS takes no schedule, yet every given hyperparameter is checked
    code = cli_main(["decompose", "--in", str(tensor), "--solver", "als", "--rank", "2",
                     "--max-full-iters", "1", "--" + name.replace("_", "-"), str(bad),
                     "--csv", str(tmp_path / "o.csv")])
    assert code != 0
    assert f"error: {name} must" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solvers": ["als"], "rank": 2, "dims": [4, 4, 4],
                                    "max_full_iters": 1, name: bad,
                                    "out_dir": str(tmp_path / "bench")}))
    assert cli_main(["bench", "--config", str(cfg_path)]) != 0
    assert f"error: {name} must" in capsys.readouterr().err


def test_zero_alpha_and_b_accepted(tmp_path):
    # the bounds are alpha >= 0 and b >= 0, as in the schedule dataclasses
    tensor = tmp_path / "x.dten"
    assert cli_main(["synth", "--dims", "4,4,4", "--rank", "2", "--out", str(tensor)]) == 0
    for solver, flag in (("brascpd", "--alpha"), ("adacpd", "--b")):
        csv_path = tmp_path / f"{solver}.csv"
        assert cli_main(["decompose", "--in", str(tensor), "--solver", solver, "--rank", "2",
                         "--block", "4", "--max-full-iters", "1", flag, "0",
                         "--csv", str(csv_path)]) == 0
        echo, _ = read_run_csv(csv_path)
        assert echo[flag[2:]] == "0.0"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solvers": ["brascpd", "adacpd"], "rank": 2,
                                    "dims": [4, 4, 4], "block": 4, "max_full_iters": 1,
                                    "alpha": 0, "b": 0, "out_dir": str(tmp_path / "bench")}))
    assert cli_main(["bench", "--config", str(cfg_path)]) == 0


def test_bench_rejects_duplicate_solver(tmp_path, capsys):
    config = {"solvers": ["ascpd", "als", "ascpd"], "rank": 2, "dims": [4, 4, 4], "block": 4,
              "max_full_iters": 1, "out_dir": str(tmp_path / "bench")}
    assert run_bench(tmp_path, config) == 1
    assert "error: solver 'ascpd' is listed more than once" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("solver", ["ascpd", "als"])
def test_blocksize_count_checked_before_any_trial(tmp_path, capsys, solver):
    tensor_path = tmp_path / "x.dten"
    write_tensor(DenseTensor((3, 4, 5), np.ones(60)), tensor_path)
    csv_path = tmp_path / "o.csv"
    assert cli_main(["decompose", "--in", str(tensor_path), "--solver", solver, "--rank", "2",
                     "--block", "4,4", "--csv", str(csv_path)]) == 1
    assert "error: need 3 blocksizes, got 2" in capsys.readouterr().err
    assert not csv_path.exists()
    config = {"solvers": [solver], "rank": 2, "dims": [4, 4, 4], "block": [4, 4],
              "max_full_iters": 1, "out_dir": str(tmp_path / "bench")}
    assert run_bench(tmp_path, config) == 1
    assert "error: need 3 blocksizes, got 2" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()
