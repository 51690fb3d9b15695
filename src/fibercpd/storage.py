"""On-disk formats: the DTEN tensor container, the DFAC factor container,
and the CSV metric traces.

DTEN layout (little-endian throughout):
    bytes 0-3   magic "DTEN"
    bytes 4-5   format version, u16 (currently 1)
    bytes 6-7   order N, u16
    next 8*N    dims, u64 each
    rest        prod(dims) float64 values, first mode fastest

DFAC layout (truth-factor sidecar):
    bytes 0-3   magic "DFAC"
    bytes 4-5   format version, u16 (currently 1)
    bytes 6-7   order N, u16
    bytes 8-15  rank R, u64
    next 8*N    dims, u64 each
    rest        per mode, I_n*R float64 values in column-major order

CSV traces carry a header row `trial,full_iter,work_units,m_k,wall_seconds`,
rows sorted by (trial, full_iter), preceded by `#`-prefixed `key=value`
comment lines echoing the run configuration.  Averaged traces have the same
layout with `solver` in place of `trial`.  All columns except
wall_seconds are deterministic under a fixed seed.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .experiments import RunRecord
from .sampling import RNG_ALGORITHM
from .solvers import SolverConfig
from .tensor import DenseTensor, KruskalModel

TENSOR_MAGIC = b"DTEN"
FACTOR_MAGIC = b"DFAC"
FORMAT_VERSION = 1
CSV_COLUMNS = ("trial", "full_iter", "work_units", "m_k", "wall_seconds")


class FileFormatError(ValueError):
    """Malformed or truncated container file."""


def write_tensor(t: DenseTensor, path) -> None:
    header = struct.pack("<4sHH", TENSOR_MAGIC, FORMAT_VERSION, t.order)
    header += np.asarray(t.dims, dtype="<u8").tobytes()
    Path(path).write_bytes(header + t.values.astype("<f8", copy=False).tobytes())


def read_tensor(path) -> DenseTensor:
    """Load a DTEN file: the header from a short read, the payload in one copy."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if len(head) < 8:
            raise FileFormatError(f"{path}: truncated header")
        magic, version, order = struct.unpack("<4sHH", head)
        if magic != TENSOR_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FileFormatError(f"{path}: unsupported format version {version}")
        if order < 1:
            raise FileFormatError(f"{path}: order must be positive")
        dims_raw = f.read(8 * order)
        if len(dims_raw) < 8 * order:
            raise FileFormatError(f"{path}: truncated dims block")
        dims = tuple(int(d) for d in np.frombuffer(dims_raw, dtype="<u8"))
        if any(d < 1 for d in dims):
            raise FileFormatError(f"{path}: nonpositive dim in {dims}")
        count = math.prod(dims)
        payload = size - 8 - 8 * order
        if payload != 8 * count:
            raise FileFormatError(f"{path}: payload length {payload} bytes does not "
                                  f"match dims {dims} (expected {8 * count})")
        values = np.fromfile(f, dtype="<f8", count=count)
    if not np.isfinite(values).all():
        raise FileFormatError(f"{path}: payload contains non-finite values")
    return DenseTensor(dims, values)


def write_factors(model: KruskalModel, path) -> None:
    header = struct.pack("<4sHHQ", FACTOR_MAGIC, FORMAT_VERSION, model.order, model.rank)
    header += np.asarray(model.dims, dtype="<u8").tobytes()
    body = b"".join(f.astype("<f8", copy=False).ravel(order="F").tobytes()
                    for f in model.factors)
    Path(path).write_bytes(header + body)


def read_factors(path) -> KruskalModel:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise FileFormatError(f"{path}: truncated header")
    magic, version, order, rank = struct.unpack("<4sHHQ", raw[:16])
    if magic != FACTOR_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format version {version}")
    dims_end = 16 + 8 * order
    if len(raw) < dims_end:
        raise FileFormatError(f"{path}: truncated dims block")
    dims = tuple(int(d) for d in np.frombuffer(raw[16:dims_end], dtype="<u8"))
    expected = dims_end + 8 * int(rank) * sum(dims)
    if len(raw) != expected:
        raise FileFormatError(f"{path}: payload length mismatch")
    factors = []
    offset = dims_end
    for d in dims:
        count = d * int(rank)
        block = np.frombuffer(raw[offset:offset + 8 * count], dtype="<f8")
        factors.append(block.reshape((d, int(rank)), order="F").copy())
        offset += 8 * count
    return KruskalModel(factors)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_echo(cfgs: list[SolverConfig], dims, extra: dict | None = None) -> dict:
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
    })
    if extra:
        echo.update(extra)
    return echo


def echo_lines(config: dict) -> list[str]:
    return [f"# {key}={_fmt(value)}" for key, value in config.items()]


def write_run_csv(path, records: list[RunRecord], config_echo: dict,
                  column: str = "trial") -> None:
    """Trace CSV after the config echo, one row per checkpoint.  The first column
    is each record's `column` attribute: `trial` for per-trial traces, `solver`
    for averaged ones (one record per solver); rows sorted by (column, full_iter)."""
    lines = echo_lines(config_echo)
    lines.append(",".join((column, *CSV_COLUMNS[1:])))
    for rec in sorted(records, key=lambda r: getattr(r, column)):
        for cp in rec.checkpoints:
            lines.append(f"{getattr(rec, column)},{cp.full_iter},{cp.work_units},"
                         f"{_fmt(float(cp.m))},{_fmt(float(cp.wall_seconds))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_run_csv(path) -> tuple[dict, list[dict]]:
    """Parse a trace CSV back into (config echo, row dicts)."""
    echo: dict[str, str] = {}
    rows: list[dict] = []
    header: list[str] | None = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            echo[key.strip()] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        parts = line.split(",")
        row = dict(zip(header, parts))
        rows.append(row)
    return echo, rows
