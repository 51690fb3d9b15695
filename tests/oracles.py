"""Index-walk reference implementations, independent of the package kernels.

`oracle_unfold` and `oracle_kr_full` build the mode unfolding and the full
Khatri-Rao product entry by entry from the row-stride formula of the layout
convention (see `fibercpd.tensor`); `fd_sampled_gradient` differentiates the
sampled objective built from them by central finite differences.
`read_dfac` parses the factor sidecar that `synth` writes by its documented
layout, and `read_run_csv` a trace CSV; the package itself has no reader for
either.

`einsum_reconstruct`, `per_mode_mttkrp` and `allocating_prox_block_solve` are
kernels the package replaced, kept as the references of its differential tests.
"""

import itertools
import math
import struct
from pathlib import Path

import numpy as np

from fibercpd.solvers import eigen_extremes
from fibercpd.tensor import DenseTensor, KruskalModel, _kr_chain, row_count


def oracle_unfold(t: DenseTensor, mode: int) -> np.ndarray:
    """Walk every multi-index and place the entry by the row-stride formula."""
    dims = t.dims
    out = np.zeros((row_count(dims, mode), dims[mode]))
    arr = t.values.reshape(dims, order="F")
    for multi in itertools.product(*(range(d) for d in dims)):
        row, stride = 0, 1
        for n, idx in enumerate(multi):
            if n == mode:
                continue
            row += idx * stride
            stride *= dims[n]
        out[row, multi[mode]] = arr[multi]
    return out


def oracle_kr_full(model: KruskalModel, mode: int) -> np.ndarray:
    """Khatri-Rao product of every factor but `mode`, one row at a time, smallest
    surviving mode fastest."""
    dims = model.dims
    out = np.zeros((row_count(dims, mode), model.rank))
    surv = [n for n in range(len(dims)) if n != mode]
    for row in range(out.shape[0]):
        rem, prod_row = row, np.ones(model.rank)
        for n in surv:
            prod_row = prod_row * model.factors[n][rem % dims[n]]
            rem //= dims[n]
        out[row] = prod_row
    return out


def fd_sampled_gradient(t: DenseTensor, model: KruskalModel, mode: int, rows,
                        at: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences, entry by entry, of the sampled objective
    0.5 * ||X_F - K_F @ at.T||_F^2 over the fiber rows `rows` of `mode`."""
    x_f = oracle_unfold(t, mode)[rows]
    k_f = oracle_kr_full(model, mode)[rows]

    def objective(a):
        resid = x_f - k_f @ a.T
        return 0.5 * float(np.vdot(resid, resid))

    grad = np.zeros_like(at)
    for s, r in itertools.product(range(at.shape[0]), range(at.shape[1])):
        plus, minus = at.copy(), at.copy()
        plus[s, r] += h
        minus[s, r] -= h
        grad[s, r] = (objective(plus) - objective(minus)) / (2 * h)
    return grad


def read_dfac(path) -> KruskalModel:
    """A DFAC file by its documented layout: magic "DFAC", u16 version 1, u16
    order N, u64 rank R, N u64 dims, then each I_n x R factor column-major."""
    raw = Path(path).read_bytes()
    magic, version, order, rank = struct.unpack_from("<4sHHQ", raw)
    assert (magic, version) == (b"DFAC", 1)
    dims = struct.unpack_from(f"<{order}Q", raw, 16)
    offset, factors = 16 + 8 * order, []
    for d in dims:
        block = np.frombuffer(raw, dtype="<f8", count=d * rank, offset=offset)
        factors.append(block.reshape((d, rank), order="F"))
        offset += 8 * d * rank
    assert offset == len(raw), "DFAC payload length"
    return KruskalModel(factors)


def read_run_csv(path) -> tuple[dict, list[dict]]:
    """A trace CSV as (config echo, row dicts), every value a string: `# key=value`
    comment lines, then the header row, then one row per checkpoint."""
    echo: dict[str, str] = {}
    rows: list[dict] = []
    header: list[str] | None = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            echo[key.strip()] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return echo, rows


# rank axis uses 'z'; tensor modes take a..y, which caps the order at 25
LETTERS = "abcdefghijklmnopqrstuvwxy"


def einsum_reconstruct(model: KruskalModel) -> DenseTensor:
    """Dense tensor with entries sum_r prod_n A^(n)[i_n, r]."""
    n_modes = model.order
    if n_modes > len(LETTERS):
        raise ValueError(f"order {n_modes} exceeds supported maximum {len(LETTERS)}")
    expr = ",".join(LETTERS[n] + "z" for n in range(n_modes)) + "->" + LETTERS[:n_modes]
    arr = np.einsum(expr, *model.factors, optimize=True)
    return DenseTensor(model.dims, arr.ravel(order="F"))


def per_mode_mttkrp(t: DenseTensor, model: KruskalModel, mode: int) -> np.ndarray:
    """The MTTKRP with one tensor-sized GEMM of its own in every mode: for every
    mode but the last, the Khatri-Rao product of all the later factors
    (transposed) times the C-contiguous (R_t, L * I_mode) transpose of the
    storage, then reduced against the Khatri-Rao product of the earlier ones.
    The last mode is the C-contiguous (I_mode, L) form."""
    dims, factors, rank = t.dims, model.factors, model.rank
    left = math.prod(dims[:mode])
    i_n = dims[mode]
    if mode == len(dims) - 1:
        return t.values.reshape(left, i_n, order="F").T @ _kr_chain(factors[:mode], rank)
    right = math.prod(dims[mode + 1:])
    partial = (_kr_chain(factors[mode + 1:], rank).T
               @ t.values.reshape(left * i_n, right, order="F").T)
    if mode == 0:
        return partial.T
    return np.einsum("zil,lz->iz", partial.reshape(rank, i_n, left),
                     _kr_chain(factors[:mode], rank))


def allocating_prox_block_solve(a0, gram, rhs, constraint, max_inner=50, rel_tol=1e-8):
    """The constrained ALS block solve with a fresh array for every intermediate."""
    L, mu = eigen_extremes(gram)
    if L <= 0.0:
        return a0
    beta = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
    a_prev = a0
    y = a0
    for _ in range(max_inner):
        grad = y @ gram - rhs
        a_new = constraint.prox(y - grad / L)
        change = np.linalg.norm(a_new - a_prev)
        scale = max(np.linalg.norm(a_prev), 1e-30)
        y = a_new + beta * (a_new - a_prev)
        a_prev = a_new
        if change <= rel_tol * scale:
            break
    return a_prev
