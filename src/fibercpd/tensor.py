"""Dense tensor kernels: fiber gathers, Khatri-Rao rows, MTTKRP, norms.

Layout convention
-----------------
A tensor of shape (I_0, ..., I_{N-1}) is stored as a flat float64 array with
the first mode varying fastest (Fortran order): the entry at zero-based
multi-index (i_0, ..., i_{N-1}) sits at linear position
sum_n i_n * prod_{m<n} I_m.

The mode-n unfolding is the J x I_n matrix (J = prod of the other dims) whose
row index enumerates the surviving modes with the smallest surviving mode
varying fastest.  Under this convention, for any fiber rows `rows`,

    gather_fiber_rows(reconstruct(model), n, rows)
        == kr_rows(model, n, rows) @ model.factors[n].T

holds up to rounding, with kr_rows returning rows of the Khatri-Rao product
of the surviving factors, the smallest mode the fastest Kronecker index.
Everything downstream (fiber sampling, sampled gradients, the solvers) relies
on this identity.

The kernels work on the flat storage without permuting it.  With L and R_t the
products of the dims before and after mode n, the storage is an (L, I_n, R_t)
Fortran-order array: a fiber gather indexes it at [j % L, :, j // L], and the
MTTKRP is one GEMM of its (L * I_n, R_t) matricization with the Khatri-Rao
product of the later factors, followed by a batched reduction against that of
the earlier factors.

The reconstruction error needs no reconstruction either:

    ||X - Xhat||^2 = ||X||^2 - 2 <mttkrp(X, model, N-1), A_{N-1}>
                     + sum(A_0^T A_0 * ... * A_{N-1}^T A_{N-1})

(`*` elementwise).  experiments.metric evaluates it with ||X||^2 computed once
per run, reuses the MTTKRP an ALS sweep ends with, and falls back to the
exact form `objective` when the residual^2 is at most 1e-10 ||X||^2, where the
subtraction cancels too many digits.

Modes are 0-based everywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# rank axis uses 'z'; tensor modes take a..y, which caps the order at 25
_LETTERS = "abcdefghijklmnopqrstuvwxy"


@dataclass
class DenseTensor:
    """Order-N dense real tensor with explicit flat storage (see module docs)."""

    dims: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) == 0:
            raise ValueError("tensor must have at least one mode")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
        self.values = np.ascontiguousarray(self.values, dtype=np.float64).ravel()
        expected = math.prod(self.dims)
        if self.values.size != expected:
            raise ValueError(
                f"values length {self.values.size} does not match dims {self.dims} "
                f"(expected {expected})"
            )

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def array(self) -> np.ndarray:
        """N-d view of the flat storage (no copy)."""
        return self.values.reshape(self.dims, order="F")

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        return cls(arr.shape, arr.ravel(order="F"))


@dataclass
class KruskalModel:
    """List of factor matrices A^(n), each I_n x R, sharing the column count R."""

    factors: list[np.ndarray]

    def __post_init__(self):
        self.factors = [np.ascontiguousarray(f, dtype=np.float64) for f in self.factors]
        if not self.factors:
            raise ValueError("model needs at least one factor matrix")
        for n, f in enumerate(self.factors):
            if f.ndim != 2:
                raise ValueError(f"factor {n} must be a matrix, got ndim={f.ndim}")
        ranks = {f.shape[1] for f in self.factors}
        if len(ranks) != 1:
            raise ValueError(f"factors disagree on column count: {sorted(ranks)}")
        if self.rank < 1:
            raise ValueError("rank must be positive")

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def order(self) -> int:
        return len(self.factors)

    def copy(self) -> "KruskalModel":
        return KruskalModel([f.copy() for f in self.factors])


def _check_mode(dims, mode: int) -> None:
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for order-{len(dims)} tensor")


def surviving_modes(dims, mode: int) -> list[int]:
    """Modes other than `mode`, in increasing order (fastest unfolding index first)."""
    _check_mode(dims, mode)
    return [n for n in range(len(dims)) if n != mode]


def row_count(dims, mode: int) -> int:
    """Number of rows J of the mode-`mode` unfolding (= number of mode fibers)."""
    _check_mode(dims, mode)
    return math.prod(d for n, d in enumerate(dims) if n != mode)


def khatri_rao(a, b) -> np.ndarray:
    """Columnwise Kronecker product; the row index of `b` varies fastest."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("khatri_rao expects matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column-count mismatch: {a.shape[1]} vs {b.shape[1]}")
    out = a[:, None, :] * b[None, :, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1])


def _kr_chain(factors, rank: int) -> np.ndarray:
    """Khatri-Rao product of `factors` with the first one fastest; 1 x rank ones if empty."""
    out = np.ones((1, rank))
    for f in factors:
        out = khatri_rao(f, out)
    return out


def kr_rows(model: KruskalModel, mode: int, rows) -> np.ndarray:
    """Rows `rows` of the Khatri-Rao product of every factor but `mode`, smallest
    mode fastest (aligned with the unfolding rows), without forming the product.

    Cost is O(len(rows) * order * rank): each requested row is the elementwise
    product of one row from every surviving factor.  Surviving mode n's index
    is (row // stride) % I_n, with stride the product of the earlier surviving
    dims; the range check makes the last one's `%` a no-op, so it is skipped.
    """
    dims = model.dims
    rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
    j = row_count(dims, mode)
    if rows.size and (rows.min() < 0 or rows.max() >= j):
        raise ValueError(f"fiber row index out of range [0, {j})")
    surv = surviving_modes(dims, mode)
    if not surv:
        return np.ones((rows.size, model.rank))
    first, *rest = surv
    out = model.factors[first].take(rows % dims[first] if rest else rows, axis=0)
    stride = dims[first]
    for n in rest:
        digit = rows // stride
        if n != rest[-1]:
            digit %= dims[n]
        out *= model.factors[n].take(digit, axis=0)
        stride *= dims[n]
    return out


def gather_fiber_rows(t: DenseTensor, mode: int, rows) -> np.ndarray:
    """Rows `rows` of the mode unfolding, gathered straight from flat storage.

    Row j of the unfolding is the fiber at [j % L, :, j // L] of the
    (L, I_mode, R_t) view described in the module docs; no per-entry index
    matrix is built.  Touches exactly len(rows) * I_mode tensor entries.
    """
    dims = t.dims
    _check_mode(dims, mode)
    rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
    left = math.prod(dims[:mode])
    right = math.prod(dims[mode + 1:])
    if rows.size and (rows.min() < 0 or rows.max() >= left * right):
        raise ValueError(f"fiber row index out of range [0, {left * right})")
    view = t.values.reshape(left, dims[mode], right, order="F")
    return view[rows % left, :, rows // left]


def _check_model_compatible(t: DenseTensor, model: KruskalModel, skip: int | None = None):
    for n, f in enumerate(model.factors):
        if n == skip:
            continue
        if f.shape[0] != t.dims[n]:
            raise ValueError(f"factor {n} has {f.shape[0]} rows, tensor dim is {t.dims[n]}")
    if model.order != t.order:
        raise ValueError(f"model order {model.order} != tensor order {t.order}")


def _mttkrp(t: DenseTensor, factors, mode: int) -> np.ndarray:
    """MTTKRP kernel on the Fortran-ordered storage, without permuting the tensor.

    With L and R_t the products of the dims before and after `mode`, the
    storage is the (L * I_mode, R_t) matrix whose columns are contracted with the
    Khatri-Rao product of the later factors in one GEMM; the (I_mode, L, rank)
    result is then reduced against the Khatri-Rao product of the earlier
    factors.  The first and the last mode need a single GEMM.  No validation.
    """
    dims = t.dims
    rank = factors[0].shape[1]
    left = math.prod(dims[:mode])
    i_n = dims[mode]
    if mode == len(dims) - 1:
        return t.values.reshape(left, i_n, order="F").T @ _kr_chain(factors[:mode], rank)
    right = math.prod(dims[mode + 1:])
    partial = (t.values.reshape(left * i_n, right, order="F")
               @ _kr_chain(factors[mode + 1:], rank))
    if mode == 0:
        return partial
    return np.einsum("ilz,lz->iz", partial.reshape(i_n, left, rank),
                     _kr_chain(factors[:mode], rank))


def mttkrp(t: DenseTensor, model: KruskalModel, mode: int) -> np.ndarray:
    """Full MTTKRP: the mode unfolding's transpose times the Khatri-Rao product of
    every factor but `mode`, computed by GEMMs."""
    _check_mode(t.dims, mode)
    _check_model_compatible(t, model, skip=mode)
    return _mttkrp(t, model.factors, mode)


def reconstruct(model: KruskalModel) -> DenseTensor:
    """Dense tensor with entries sum_r prod_n A^(n)[i_n, r]."""
    n_modes = model.order
    if n_modes > len(_LETTERS):
        raise ValueError(f"order {n_modes} exceeds supported maximum {len(_LETTERS)}")
    expr = ",".join(_LETTERS[n] + "z" for n in range(n_modes)) + "->" + _LETTERS[:n_modes]
    return DenseTensor.from_array(np.einsum(expr, *model.factors, optimize=True))


def frob_norm(t: DenseTensor) -> float:
    return float(np.linalg.norm(t.values))


def objective(t: DenseTensor, model: KruskalModel) -> float:
    """Squared Frobenius norm of the residual between `t` and the model."""
    _check_model_compatible(t, model)
    resid = t.values - reconstruct(model).values
    return float(resid @ resid)


def relative_error(t: DenseTensor, model: KruskalModel) -> float:
    """||t - reconstruct(model)||_F / ||t||_F; undefined for the zero tensor."""
    denom = frob_norm(t)
    if denom == 0.0:
        raise ValueError("relative error is undefined for the zero tensor")
    return math.sqrt(objective(t, model)) / denom
