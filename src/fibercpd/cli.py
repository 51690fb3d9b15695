"""Command-line surface: synth, decompose, bench, convert."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .constraints import CONSTRAINT_KINDS
from .experiments import (
    SyntheticSpec,
    generate_synthetic,
    run,
    run_trials,
)
from .sampling import RNG_ALGORITHM
from .solvers import SCHEDULES, SOLVERS, SolverConfig
from .storage import (
    FileFormatError,
    read_tensor,
    write_average_csv,
    write_factors,
    write_run_csv,
    write_tensor,
)
from .tensor import DenseTensor

# each schedule type once, in solver order; every field of one is a
# hyperparameter with a `decompose` flag and a bench JSON key of its name
SCHEDULE_KINDS = tuple(dict.fromkeys(SCHEDULES.values()))
HYPERPARAMETERS = tuple(f.name for kind in SCHEDULE_KINDS for f in fields(kind))


def schedule_from(kind, hyperparameters: dict):
    """A `kind` schedule from the given hyperparameters among its fields; defaults elsewhere."""
    return kind(**{f.name: hyperparameters[f.name] for f in fields(kind)
                   if f.name in hyperparameters})


@dataclass
class RunConfig:
    """Validated description of a decompose/bench invocation."""

    solvers: tuple[str, ...]
    rank: int
    dims: tuple[int, ...] | None = None
    input: str | None = None
    constraint: str = "none"
    block: tuple[int, ...] | None = None
    hyperparameters: dict = field(default_factory=dict)   # given schedule fields by name
    snr_db: float | None = None
    seed: int = 0
    trials: int = 1
    max_full_iters: int = 100
    tol: float | None = None
    out: str = ""

    def validate(self) -> None:
        if not self.solvers:
            raise ValueError("at least one solver is required")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ValueError(f"unknown solver {s!r}; choose from {SOLVERS}")
        if (self.dims is None) == (self.input is None):
            raise ValueError("exactly one of dims or an input tensor path is required")
        if self.input is not None and not Path(self.input).is_file():
            raise ValueError(f"input tensor not found: {self.input}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.constraint not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint {self.constraint!r}")
        if any(s in SCHEDULES for s in self.solvers):
            if self.block is None:
                raise ValueError("--block is required for stochastic solvers")
            if any(b < 1 for b in self.block):
                raise ValueError("blocksizes must be >= 1")
        for kind in SCHEDULE_KINDS:    # every given value, whichever solvers run
            schedule_from(kind, self.hyperparameters)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_full_iters < 0:
            raise ValueError("max-full-iters must be >= 0")
        if self.tol is not None and self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.snr_db is not None and self.dims is None:
            raise ValueError("snr applies only to synthetic dims")

    def solver_config(self, solver: str) -> SolverConfig:
        return SolverConfig(
            solver=solver,
            rank=self.rank,
            constraint=self.constraint,
            blocksizes=self.block if self.block is not None else 1,
            schedule=schedule_from(SCHEDULES[solver], self.hyperparameters)
            if solver in SCHEDULES else None,
            seed=self.seed,
            max_full_iters=self.max_full_iters,
            tol=self.tol,
        )

    def data(self):
        """The tensor to decompose: a file-backed DenseTensor or a SyntheticSpec."""
        if self.input is not None:
            return read_tensor(self.input)
        return SyntheticSpec(self.dims, self.rank, snr_db=self.snr_db, seed=self.seed)

    def echo_extra(self) -> dict:
        extra = {}
        if self.input is not None:
            extra["input"] = self.input
        if self.snr_db is not None:
            extra["snr_db"] = self.snr_db
        return extra


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}: {exc}") from exc
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"dims must be positive integers, got {text!r}")
    return dims


def _parse_blocks(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad blocksizes {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibercpd",
        description="Dense-tensor CPD via fiber-sampled stochastic solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic low-rank tensor file")
    p.add_argument("--dims", type=_parse_dims, required=True, metavar="I1,I2,...")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--snr", type=float, default=None, help="target SNR in dB; omit for noiseless")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output .dten path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decompose", help="run one solver trial on a tensor file")
    p.add_argument("--in", dest="input", required=True, help="input .dten path")
    p.add_argument("--solver", choices=SOLVERS, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--block", type=_parse_blocks, default=None,
                   help="fiber blocksize (single int or one per mode)")
    for kind in SCHEDULE_KINDS:
        users = "/".join(s for s, k in SCHEDULES.items() if k is kind)
        for f in fields(kind):
            p.add_argument("--" + f.name.replace("_", "-"), type=float, default=None,
                           help=f"{users} {kind.__name__} {f.name} (default {f.default})")
    p.add_argument("--constraint", choices=CONSTRAINT_KINDS, default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-full-iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bench", help="run the Monte-Carlo solver grid from a JSON config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("convert", help="wrap a raw float64 dump as a tensor file")
    p.add_argument("--from", dest="from_format", choices=["raw64"], required=True)
    p.add_argument("--dims", type=_parse_dims, required=True, metavar="I1,I2,...")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    return parser


def cmd_synth(args) -> int:
    spec = SyntheticSpec(args.dims, args.rank, snr_db=args.snr, seed=args.seed)
    noisy, truth, sigma = generate_synthetic(spec)
    out = Path(args.out)
    write_tensor(noisy, out)
    write_factors(truth, _truth_path(out))
    meta = {
        "dims": list(spec.dims),
        "rank": spec.rank,
        "snr_db": spec.snr_db,
        "seed": spec.seed,
        "sigma": sigma,
        "rng": RNG_ALGORITHM,
    }
    Path(str(out) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n",
                                             encoding="utf-8")
    print(f"wrote {out} ({noisy.values.size} values), truth factors in {_truth_path(out)}")
    return 0


def _truth_path(out: Path) -> Path:
    return Path(str(out) + ".truth.dfac")


def cmd_decompose(args) -> int:
    rc = RunConfig(
        solvers=(args.solver,),
        rank=args.rank,
        input=args.input,
        constraint=args.constraint,
        block=args.block,
        hyperparameters={name: getattr(args, name) for name in HYPERPARAMETERS
                         if getattr(args, name) is not None},
        seed=args.seed,
        trials=1,
        max_full_iters=args.max_full_iters,
        tol=args.tol,
        out=args.csv,
    )
    rc.validate()
    tensor = rc.data()
    record = run(tensor, rc.solver_config(args.solver), trial=0,
                 echo_extra=rc.echo_extra())
    write_run_csv(rc.out, [record])
    print(f"wrote {rc.out}: final m_k = {record.final_metric:.6g} "
          f"after {record.checkpoints[-1].full_iter} full iterations")
    return 0


def cmd_bench(args) -> int:
    cfg_path = Path(args.config)
    if not cfg_path.is_file():
        raise ValueError(f"config not found: {cfg_path}")
    try:
        raw = json.loads(cfg_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON in {cfg_path}: {exc}") from exc
    rc = config_from_json(raw)
    rc.validate()
    out_dir = Path(rc.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = rc.data()
    averaged: dict = {}
    for solver in rc.solvers:
        avg, records = run_trials(data, rc.solver_config(solver), trials=rc.trials,
                                  echo_extra=rc.echo_extra())
        write_run_csv(out_dir / f"{solver}.csv", records)
        averaged[solver] = avg
        print(f"{solver}: averaged final m_k = {avg.final_metric:.6g} over {rc.trials} trials")
    echo = dict(next(iter(averaged.values())).config)
    echo["solver"] = ",".join(rc.solvers)
    write_average_csv(out_dir / "average.csv", averaged, config_echo=echo)
    print(f"wrote {out_dir}/<solver>.csv and {out_dir}/average.csv")
    return 0


_JSON_KEYS = {"solvers", "solver", "dims", "input", "rank", "constraint", "block",
              "snr_db", "seed", "trials", "max_full_iters", "tol", "out_dir",
              *HYPERPARAMETERS}


def config_from_json(raw: dict) -> RunConfig:
    unknown = set(raw) - _JSON_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    solvers = raw.get("solvers", raw.get("solver"))
    if isinstance(solvers, str):
        solvers = [solvers]
    if not solvers:
        raise ValueError("config needs a 'solvers' list")
    block = raw.get("block")
    if isinstance(block, int):
        block = (block,)
    elif block is not None:
        block = tuple(int(b) for b in block)
    dims = raw.get("dims")
    return RunConfig(
        solvers=tuple(solvers),
        rank=int(raw.get("rank", 0)),
        dims=tuple(int(d) for d in dims) if dims is not None else None,
        input=raw.get("input"),
        constraint=raw.get("constraint", "none"),
        block=block,
        hyperparameters={name: float(raw[name]) for name in HYPERPARAMETERS
                         if raw.get(name) is not None},
        snr_db=None if raw.get("snr_db") is None else float(raw["snr_db"]),
        seed=int(raw.get("seed", 0)),
        trials=int(raw.get("trials", 1)),
        max_full_iters=int(raw.get("max_full_iters", 100)),
        tol=None if raw.get("tol") is None else float(raw["tol"]),
        out=str(raw.get("out_dir", "bench_out")),
    )


def cmd_convert(args) -> int:
    src = Path(args.input)
    if not src.is_file():
        raise ValueError(f"input not found: {src}")
    values = np.fromfile(src, dtype="<f8")
    expected = math.prod(args.dims)
    if values.size != expected:
        raise ValueError(f"{src}: found {values.size} float64 values, dims "
                         f"{args.dims} require {expected}")
    if not np.isfinite(values).all():
        raise ValueError(f"{src}: payload contains non-finite values")
    write_tensor(DenseTensor(args.dims, values), args.out)
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
    except (ValueError, FileFormatError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
