"""On-disk formats: the DTEN tensor container, the raw64 dump that `convert`
wraps, the DFAC factor container that `synth` writes, and the CSV metric traces.

DTEN layout (little-endian throughout); a raw64 dump is its payload alone:
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
comment lines echoing the run configuration (`cli.config_echo` builds them).
Averaged traces have the same layout with `solver` in place of `trial`.  All
columns except wall_seconds are deterministic under a fixed seed.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .experiments import RunRecord
from .tensor import DenseTensor, KruskalModel, as_dims

TENSOR_MAGIC = b"DTEN"
FACTOR_MAGIC = b"DFAC"
FORMAT_VERSION = 1
CSV_COLUMNS = ("trial", "full_iter", "work_units", "m_k", "wall_seconds")
CHECK_BLOCK = 1 << 16   # payload values per finiteness check: a block's mask, not a tensor's


class FileFormatError(ValueError):
    """Malformed or truncated container file."""


def write_tensor(t: DenseTensor, path) -> None:
    """The header, then the payload from the tensor's own buffer, with no copy."""
    header = struct.pack("<4sHH", TENSOR_MAGIC, FORMAT_VERSION, t.order)
    with open(path, "wb") as f:
        f.write(header + np.asarray(t.dims, dtype="<u8").tobytes())
        t.values.astype("<f8", copy=False).tofile(f)


def _read_payload(f, path, dims) -> np.ndarray:
    """The rest of the open file `f` as the float64 values of a tensor of `dims`:
    exactly 8 * prod(dims) bytes, every value finite."""
    count = math.prod(dims)
    payload = os.fstat(f.fileno()).st_size - f.tell()
    if payload != 8 * count:
        raise FileFormatError(f"{path}: payload length {payload} bytes does not "
                              f"match dims {dims}, which require {8 * count}")
    values = np.fromfile(f, dtype="<f8", count=count)
    if not all(np.isfinite(values[lo:lo + CHECK_BLOCK]).all()
               for lo in range(0, count, CHECK_BLOCK)):
        raise FileFormatError(f"{path}: payload contains non-finite values")
    return values


def read_tensor(path) -> DenseTensor:
    """Load a DTEN file: the header from a short read, the payload in one copy."""
    with open(path, "rb") as f:
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
        return DenseTensor(dims, _read_payload(f, path, dims))


def read_raw64(path, dims) -> DenseTensor:
    """Load a raw64 dump (a headerless DTEN payload) as a tensor of `dims`."""
    dims = as_dims(dims)
    with open(path, "rb") as f:
        return DenseTensor(dims, _read_payload(f, path, dims))


def write_factors(model: KruskalModel, path) -> None:
    """The header, then each factor column-major from its own buffer, with no copy."""
    header = struct.pack("<4sHHQ", FACTOR_MAGIC, FORMAT_VERSION, model.order, model.rank)
    with open(path, "wb") as out:
        out.write(header + np.asarray(model.dims, dtype="<u8").tobytes())
        for f in model.factors:
            f.astype("<f8", copy=False).T.tofile(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_run_csv(path, records: list[RunRecord], config_echo: dict,
                  column: str = "trial") -> None:
    """Trace CSV after the config echo, one row per checkpoint.  The first column
    is each record's `column` attribute: `trial` for per-trial traces, `solver`
    for averaged ones (one record per solver); rows sorted by (column, full_iter)."""
    lines = [f"# {key}={_fmt(value)}" for key, value in config_echo.items()]
    lines.append(",".join((column, *CSV_COLUMNS[1:])))
    for rec in sorted(records, key=lambda r: getattr(r, column)):
        for cp in rec.checkpoints:
            lines.append(f"{getattr(rec, column)},{cp.full_iter},{cp.work_units},"
                         f"{_fmt(float(cp.m))},{_fmt(float(cp.wall_seconds))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

