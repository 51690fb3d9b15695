import math
import struct

import numpy as np
import pytest

from fibercpd.experiments import Checkpoint, RunRecord
from fibercpd.storage import (
    FileFormatError,
    read_factors,
    read_run_csv,
    read_tensor,
    write_factors,
    write_run_csv,
    write_tensor,
)
from fibercpd.tensor import DenseTensor, KruskalModel


def random_tensor(seed, dims=(3, 4, 5)):
    rng = np.random.default_rng(seed)
    return DenseTensor(dims, rng.standard_normal(math.prod(dims)))


def test_tensor_roundtrip_bitwise(tmp_path):
    t = random_tensor(0)
    path = tmp_path / "t.dten"
    write_tensor(t, path)
    back = read_tensor(path)
    assert back.dims == t.dims
    assert np.array_equal(back.values, t.values)


def test_tensor_header_layout(tmp_path):
    t = DenseTensor((2, 3), np.arange(6.0))
    path = tmp_path / "t.dten"
    write_tensor(t, path)
    raw = path.read_bytes()
    assert raw[:4] == b"DTEN"
    version, order = struct.unpack("<HH", raw[4:8])
    assert (version, order) == (1, 2)
    assert np.frombuffer(raw[8:24], dtype="<u8").tolist() == [2, 3]
    assert len(raw) == 24 + 6 * 8


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "t.dten"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(FileFormatError, match="magic"):
        read_tensor(path)


def test_tensor_bad_version(tmp_path):
    t = DenseTensor((2, 2), np.ones(4))
    path = tmp_path / "t.dten"
    write_tensor(t, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="version"):
        read_tensor(path)


def test_tensor_truncated_payload(tmp_path):
    header = struct.pack("<4sHH", b"DTEN", 1, 3) + np.asarray((2, 2, 2), "<u8").tobytes()
    path = tmp_path / "t.dten"
    path.write_bytes(header + np.zeros(7).astype("<f8").tobytes())
    with pytest.raises(FileFormatError, match="length"):
        read_tensor(path)


def test_tensor_trailing_junk_rejected(tmp_path):
    t = DenseTensor((2, 2), np.ones(4))
    path = tmp_path / "t.dten"
    write_tensor(t, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FileFormatError, match="length"):
        read_tensor(path)


@pytest.mark.parametrize("cut,match", [
    (-1, "length"),           # payload one byte short
    (8, "length"),            # one value too many
    (-32, "length"),          # no payload at all
    (-33, "truncated dims"),  # dims block one byte short
    (-52, "truncated header"),
])
def test_tensor_wrong_size_rejected(tmp_path, cut, match):
    t = DenseTensor((2, 2), np.arange(4.0))
    path = tmp_path / "t.dten"
    write_tensor(t, path)
    raw = path.read_bytes()
    assert len(raw) == 56
    path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
    with pytest.raises(FileFormatError, match=match):
        read_tensor(path)


def test_tensor_nan_payload_rejected(tmp_path):
    t = DenseTensor((2, 2), np.ones(4))
    path = tmp_path / "t.dten"
    write_tensor(t, path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError, match="non-finite"):
        read_tensor(path)


def test_factors_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    model = KruskalModel([rng.standard_normal((d, 3)) for d in (4, 2, 5)])
    path = tmp_path / "m.dfac"
    write_factors(model, path)
    back = read_factors(path)
    assert back.rank == 3
    for a, b in zip(back.factors, model.factors):
        assert np.array_equal(a, b)


def test_factors_bad_magic(tmp_path):
    path = tmp_path / "m.dfac"
    path.write_bytes(b"ZZZZ" + bytes(20))
    with pytest.raises(FileFormatError, match="magic"):
        read_factors(path)


def sample_records():
    return [
        RunRecord("ascpd", 1, 0, [Checkpoint(0, 0, 1.0, 0.0), Checkpoint(1, 100, 0.5, 0.1)]),
        RunRecord("ascpd", 2, 1, [Checkpoint(0, 0, 0.9, 0.0), Checkpoint(1, 100, 0.4, 0.1)]),
    ]


def test_run_csv_layout(tmp_path):
    path = tmp_path / "out.csv"
    write_run_csv(path, sample_records(), {"solver": "ascpd", "seed": 1})
    lines = path.read_text().splitlines()
    assert lines[0] == "# solver=ascpd"
    assert lines[1] == "# seed=1"
    assert lines[2] == "trial,full_iter,work_units,m_k,wall_seconds"
    assert lines[3].startswith("0,0,0,1.0,")
    assert lines[4].startswith("0,1,100,0.5,")
    assert lines[5].startswith("1,0,0,0.9,")
    # rows sorted by (trial, full_iter)
    body = [line.split(",")[:2] for line in lines[3:]]
    assert body == sorted(body, key=lambda p: (int(p[0]), int(p[1])))


def test_run_csv_roundtrip_parse(tmp_path):
    path = tmp_path / "out.csv"
    write_run_csv(path, sample_records(), {"solver": "ascpd", "seed": 1})
    echo, rows = read_run_csv(path)
    assert echo["solver"] == "ascpd"
    assert len(rows) == 4
    assert rows[0]["m_k"] == "1.0"
    assert rows[-1]["full_iter"] == "1"


def test_average_csv_layout(tmp_path):
    path = tmp_path / "avg.csv"
    rec = RunRecord("spg", 1, None, [Checkpoint(0, 0, 1.0, 0.0)])
    rec2 = RunRecord("ascpd", 1, None, [Checkpoint(0, 0, 0.5, 0.0)])
    write_run_csv(path, [rec, rec2], {"trials": 10}, column="solver")
    lines = path.read_text().splitlines()
    assert lines[0] == "# trials=10"
    assert lines[1] == "solver,full_iter,work_units,m_k,wall_seconds"
    assert lines[2].startswith("ascpd,")  # solver blocks sorted
    assert lines[3].startswith("spg,")
