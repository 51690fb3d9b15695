"""Command-line surface: synth, decompose, bench, convert."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .constraints import CONSTRAINT_KINDS
from .experiments import SyntheticSpec, generate_synthetic, run, run_trials
from .sampling import RNG_ALGORITHM
from .solvers import SCHEDULES, SOLVERS, SolverConfig
from .storage import read_raw64, read_tensor, write_factors, write_run_csv, write_tensor

# each schedule type once, in solver order; every field of one is a
# hyperparameter with a `decompose` flag and a bench JSON key of its name
SCHEDULE_KINDS = tuple(dict.fromkeys(SCHEDULES.values()))
HYPERPARAMETERS = tuple(f.name for kind in SCHEDULE_KINDS for f in fields(kind))


def solver_configs(solvers, given: dict) -> list[SolverConfig]:
    """One validated SolverConfig per solver from the run settings the user gave
    (flag dests or bench keys); a setting not given takes SolverConfig's default."""
    if not solvers:
        raise ValueError("at least one solver is required")
    repeated = next((s for k, s in enumerate(solvers) if s in solvers[:k]), None)
    if repeated is not None:
        raise ValueError(f"solver {repeated!r} is listed more than once")
    if "rank" not in given:
        raise ValueError("rank is required")
    # each schedule from the given values of its fields, so that every given
    # hyperparameter is checked, whichever solvers run
    schedules = {kind: kind(**{f.name: given[f.name] for f in fields(kind) if f.name in given})
                 for kind in SCHEDULE_KINDS}
    if "block" not in given and any(s in SCHEDULES for s in solvers):
        raise ValueError("--block is required for stochastic solvers")
    settings = {f.name: given[f.name] for f in fields(SolverConfig)
                if f.name in given and f.name != "solver"}
    if "block" in given:
        settings["blocksizes"] = given["block"]
    return [SolverConfig(solver=s, schedule=schedules[SCHEDULES[s]] if s in SCHEDULES else None,
                         **settings) for s in solvers]


def resolve_data(given: dict, cfg: SolverConfig):
    """The tensor to decompose, a SyntheticSpec seeded like the solver or the tensor
    read from `input`, and the CSV echo extras that describe it.  The blocksize
    count is checked against the tensor's order here, before any trial runs."""
    dims, path, snr_db = given.get("dims"), given.get("input"), given.get("snr_db")
    if (dims is None) == (path is None):
        raise ValueError("exactly one of dims or an input tensor path is required")
    if path is None:
        cfg.blocks_for(len(dims))
        spec = SyntheticSpec(dims, cfg.rank, snr_db=snr_db, seed=cfg.seed)
        return spec, {} if snr_db is None else {"snr_db": snr_db}
    if snr_db is not None:
        raise ValueError("snr applies only to synthetic dims")
    if not Path(path).is_file():
        raise ValueError(f"input tensor not found: {path}")
    tensor = read_tensor(path)
    cfg.blocks_for(tensor.order)
    return tensor, {"input": path}


def config_echo(cfgs: list[SolverConfig], dims, extra: dict) -> dict:
    """The CSV config echo of one or more configs that differ at most in solver and
    schedule (bench's average.csv): the solvers joined by commas, then every
    schedule field once, in solver order, then `extra`."""
    cfg = cfgs[0]
    echo = {
        "solver": ",".join(c.solver for c in cfgs),
        "dims": ",".join(str(d) for d in dims),
        "rank": cfg.rank,
        "constraint": cfg.constraint,
        "block": ",".join(str(b) for b in cfg.blocks_for(len(dims))),
    }
    for c in cfgs:
        if c.schedule is not None:
            echo.update(asdict(c.schedule))
    echo.update({
        "seed": cfg.seed,
        "max_full_iters": cfg.max_full_iters,
        "tol": "" if cfg.tol is None else cfg.tol,
        "rng": RNG_ALGORITHM,
        **extra,
    })
    return echo


def _parse_ints(text: str) -> tuple[int, ...]:
    """A comma list of integers (--dims, --block); the library checks their range."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibercpd",
        description="Dense-tensor CPD via fiber-sampled stochastic solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic low-rank tensor file")
    p.add_argument("--dims", type=_parse_ints, required=True, metavar="I1,I2,...")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--snr", type=float, default=None, help="target SNR in dB; omit for noiseless")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output .dten path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decompose", help="run one solver trial on a tensor file")
    p.add_argument("--in", dest="input", required=True, help="input .dten path")
    p.add_argument("--solver", choices=SOLVERS, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--block", type=_parse_ints, default=None,
                   help="fiber blocksize (single int or one per mode)")
    for kind in SCHEDULE_KINDS:
        users = "/".join(s for s, k in SCHEDULES.items() if k is kind)
        for f in fields(kind):
            p.add_argument("--" + f.name.replace("_", "-"), type=float, default=None,
                           help=f"{users} {kind.__name__} {f.name} (default {f.default})")
    # unset flags stay None, so SolverConfig's default applies; --help shows it
    default = {f.name: f.default for f in fields(SolverConfig)}
    p.add_argument("--constraint", choices=CONSTRAINT_KINDS,
                   help=f"(default {default['constraint']})")
    p.add_argument("--seed", type=int, help=f"(default {default['seed']})")
    p.add_argument("--max-full-iters", type=int, help=f"(default {default['max_full_iters']})")
    p.add_argument("--tol", type=float, help=f"stop once m_k <= tol (default {default['tol']})")
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bench", help="run the Monte-Carlo solver grid from a JSON config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("convert", help="wrap a raw float64 dump as a tensor file")
    p.add_argument("--from", dest="from_format", choices=["raw64"], required=True)
    p.add_argument("--dims", type=_parse_ints, required=True, metavar="I1,I2,...")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def cmd_synth(args) -> int:
    spec = SyntheticSpec(args.dims, args.rank, snr_db=args.snr, seed=args.seed)
    noisy, truth, sigma = generate_synthetic(spec)
    out = Path(args.out)
    truth_path = Path(str(out) + ".truth.dfac")
    write_tensor(noisy, out)
    write_factors(truth, truth_path)
    meta = {**asdict(spec), "sigma": sigma, "rng": RNG_ALGORITHM}
    Path(str(out) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                             encoding="utf-8")
    print(f"wrote {out} ({noisy.values.size} values), truth factors in {truth_path}")
    return 0


def cmd_decompose(args) -> int:
    given = {key: value for key, value in vars(args).items() if value is not None}
    [cfg] = solver_configs([args.solver], given)
    tensor, extra = resolve_data(given, cfg)
    record = run(tensor, cfg)
    write_run_csv(args.csv, [record], config_echo([cfg], tensor.dims, extra))
    print(f"wrote {args.csv}: final m_k = {record.final_metric:.6g} "
          f"after {record.checkpoints[-1].full_iter} full iterations")
    return 0


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ints(value) -> bool:
    return isinstance(value, list) and len(value) > 0 and all(map(_int, value))


# what each bench key takes, as a flag's argparse `type` does; numbers are read
# as floats, and null leaves a NULLABLE key (one whose absence means None) unset
BENCH_KEYS = {
    "solvers": ("a list of solver names",
                lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
    "dims": ("a list of integers", _ints),
    "block": ("an integer or a list of integers", lambda v: _int(v) or _ints(v)),
    "trials": ("an integer >= 1", lambda v: _int(v) and v >= 1),
    **dict.fromkeys(("rank", "seed", "max_full_iters"), ("an integer", _int)),
    **dict.fromkeys(("snr_db", "tol", *HYPERPARAMETERS),
                    ("a number", lambda v: _int(v) or isinstance(v, float))),
    **dict.fromkeys(("input", "constraint", "out_dir"),
                    ("a string", lambda v: isinstance(v, str))),
}
NULLABLE = {"dims", "input", "block", "snr_db", "tol", *HYPERPARAMETERS}


def read_bench_config(path: Path) -> dict:
    """The settings a bench JSON config gives, each checked against its key."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: the config must be a JSON object")
    unknown = set(raw) - set(BENCH_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    given = {}
    for key, value in raw.items():
        what, valid = BENCH_KEYS[key]
        if value is None and key in NULLABLE:
            continue
        if not valid(value):
            raise ValueError(f"{key} must be {what}, got {json.dumps(value)}")
        given[key] = (float(value) if what == "a number"
                      else tuple(value) if isinstance(value, list) else value)
    return given


def cmd_bench(args) -> int:
    given = read_bench_config(Path(args.config))
    configs = solver_configs(given.get("solvers", ()), given)
    data, extra = resolve_data(given, configs[0])
    trials = given.get("trials", 1)
    extra["trials"] = trials
    out_dir = Path(given.get("out_dir", "bench_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    averaged = []
    for cfg in configs:
        avg, records = run_trials(data, cfg, trials)
        write_run_csv(out_dir / f"{cfg.solver}.csv", records, config_echo([cfg], data.dims, extra))
        averaged.append(avg)
        print(f"{cfg.solver}: averaged final m_k = {avg.final_metric:.6g} over {trials} trials")
    write_run_csv(out_dir / "average.csv", averaged, config_echo(configs, data.dims, extra),
                  column="solver")
    print(f"wrote {out_dir}/<solver>.csv and {out_dir}/average.csv")
    return 0


def cmd_convert(args) -> int:
    write_tensor(read_raw64(args.input, args.dims), args.out)
    print(f"wrote {args.out}")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:  # FileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
