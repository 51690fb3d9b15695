"""Dense tensor kernels: fiber gathers, Khatri-Rao rows, MTTKRP, norms and the
reconstruction-error metric.

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
Fortran-order array, and a fiber gather indexes it at [j % L, :, j // L].
A full MTTKRP rests on one tensor-sized GEMM, which always takes the tensor
operand C-contiguous and untransposed: a BLAS GEMM streams that form faster
than a transposed one (up to 2x on OpenBLAS for these shapes), and the tensor
is by far the largest operand.  The last mode's storage is the C-contiguous
(I_{N-1}, L) matrix, contracted with the Khatri-Rao product K of the other
factors; `reconstruct` adds A_{N-1} K^T into a flat buffer in column blocks.
Every other mode starts from the same partial product P = A_{N-1}^T X^T, with
X^T the C-contiguous (I_{N-1}, prod of the other dims) view of the storage,
and reduces it against the remaining factors.
Since P depends on the last factor only, one P serves every mode but the last
of an ALS sweep (a two-level dimension tree): a 3-way sweep makes two
tensor-sized GEMMs, not three.

The reconstruction error needs no reconstruction either:

    ||X - Xhat||^2 = ||X||^2 - 2 <mttkrp(X, model, N-1), A_{N-1}>
                     + sum(A_0^T A_0 * ... * A_{N-1}^T A_{N-1})

(`*` elementwise), which `metric` evaluates.

Modes are 0-based everywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

def as_count(value, name: str, low: int = 1) -> int:
    """`value`, a Python or NumPy integer >= `low`, as an int: the one rule for
    every size and count (dims, rank, blocksizes, budget, seed, trials).
    Anything else raises a ValueError naming `name`: a bool, a float (whole or
    NaN), a string.  Nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def as_dims(dims) -> tuple[int, ...]:
    """`dims`, a sequence of at least one count (`as_count`), as a tuple of ints:
    the one rule for a tensor's shape.  A non-sequence or an empty sequence
    raises a ValueError naming dims."""
    try:
        dims = tuple(dims)
    except TypeError:
        raise ValueError(f"dims must be a sequence of integers, got {dims!r}") from None
    if not dims:
        raise ValueError("dims must have at least one entry, got ()")
    return tuple(as_count(d, "dims") for d in dims)


@dataclass
class DenseTensor:
    """Order-N dense real tensor with explicit flat storage (see module docs)."""

    dims: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        self.dims = as_dims(self.dims)
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


def row_count(dims, mode: int) -> int:
    """Number of rows J of the mode-`mode` unfolding (= number of mode fibers)."""
    _check_mode(dims, mode)
    return math.prod(dims[:mode]) * math.prod(dims[mode + 1:])


def _fiber_rows(dims, mode: int, rows) -> np.ndarray:
    """`rows` as int64 row indices of the mode-`mode` unfolding, `mode` and every
    row checked in range."""
    j = row_count(dims, mode)
    rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
    if rows.size and (rows.min() < 0 or rows.max() >= j):
        raise ValueError(f"fiber row index out of range [0, {j})")
    return rows


def _kr_chain(factors, rank: int) -> np.ndarray:
    """Khatri-Rao (columnwise Kronecker) product of `factors` with the first one
    fastest; 1 x rank ones if empty.  No validation."""
    out = np.ones((1, rank))
    for f in factors:
        out = (f[:, None, :] * out[None, :, :]).reshape(-1, rank)
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
    rows = _fiber_rows(dims, mode, rows)
    surv = [n for n in range(len(dims)) if n != mode]
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
    rows = _fiber_rows(dims, mode, rows)
    left = math.prod(dims[:mode])
    view = t.values.reshape(left, dims[mode], -1, order="F")
    return view[rows % left, :, rows // left]


def check_model(t: DenseTensor, model: KruskalModel) -> None:
    """The one rule for a model against a tensor: one factor per mode, each with
    that mode's row count."""
    if model.dims != t.dims:
        raise ValueError(f"model dims {model.dims} do not match tensor dims {t.dims}")


def _last_factor_partial(t: DenseTensor, last_factor: np.ndarray) -> np.ndarray:
    """P = A_{N-1}^T X^T, the (rank, prod(dims[:-1])) partial product that every
    mode but the last reduces: one GEMM over the C-contiguous
    (I_{N-1}, prod(dims[:-1])) view of the storage, with inner dimension I_{N-1}."""
    return last_factor.T @ t.values.reshape(t.dims[-1], -1)


def _mttkrp(t: DenseTensor, factors, mode: int, shared: dict | None = None) -> np.ndarray:
    """MTTKRP kernel on the Fortran-ordered storage, without permuting the tensor.

    The last mode's storage is the C-contiguous (I_mode, L) matrix, L the
    product of the earlier dims, contracted with the Khatri-Rao product of the
    earlier factors.  Every other mode reduces the partial product
    P = A_{N-1}^T X^T (`_last_factor_partial`), viewed as the C-ordered
    (rank, M, I_mode, L) array with M the product of the dims between `mode`
    and the last: first against the Khatri-Rao product of those middle factors
    (skipped for mode N-2, which has none), then against that of the earlier
    factors (skipped for mode 0, whose result is a transpose, not a copy).
    Either tensor-sized GEMM takes the tensor operand C-contiguous and
    untransposed (see the module docs).

    `shared`, when given, carries P between the calls of one ALS sweep, which
    is valid while the last factor does not change: the first call that needs
    P stores it there and later calls reuse it.  The last mode's call empties
    it before it builds its Khatri-Rao chain, which is as large as P.  No
    validation.
    """
    shared = {} if shared is None else shared
    dims = t.dims
    rank = factors[0].shape[1]
    last = len(dims) - 1
    left = math.prod(dims[:mode])
    i_n = dims[mode]
    if mode == last:
        shared.clear()
        return t.values.reshape(left, i_n, order="F").T @ _kr_chain(factors[:mode], rank)
    if "partial" not in shared:
        shared["partial"] = _last_factor_partial(t, factors[last])
    partial = shared["partial"]
    if mode < last - 1:
        middle = math.prod(dims[mode + 1:last])
        partial = np.einsum("zmq,mz->zq", partial.reshape(rank, middle, i_n * left),
                            _kr_chain(factors[mode + 1:last], rank))
    if mode == 0:
        return partial.T
    return np.einsum("zil,lz->iz", partial.reshape(rank, i_n, left),
                     _kr_chain(factors[:mode], rank))


def mttkrp(t: DenseTensor, model: KruskalModel, mode: int,
           shared: dict | None = None) -> np.ndarray:
    """Full MTTKRP: the mode unfolding's transpose times the Khatri-Rao product of
    every factor but `mode`, computed by GEMMs.

    Pass one empty dict as `shared` to every call of an ALS sweep, modes in
    order, so that the tensor-sized partial product of every mode but the last
    is computed once (see `_mttkrp`); each result equals that of a call
    without it, bit for bit.
    """
    _check_mode(t.dims, mode)
    check_model(t, model)
    return _mttkrp(t, model.factors, mode, shared)


def reconstruct(model: KruskalModel, base: np.ndarray | None = None) -> DenseTensor:
    """Dense tensor with entries sum_r prod_n A^(n)[i_n, r], added into `base`
    (a flat float64 array in storage order, written in place) or into zeros.
    The last mode's storage matrix A_{N-1} K^T, K the Khatri-Rao product of the
    earlier factors, is added in at most 64 column blocks of two columns or
    more (BLAS's one-column path rounds differently); see the module docs."""
    *earlier, last = model.factors
    chain = _kr_chain(earlier, model.rank)
    out = np.zeros(math.prod(model.dims)) if base is None else base
    storage = out.reshape(last.shape[0], -1)
    blocks = min(64, max(1, storage.shape[1] // 2))
    edges = [storage.shape[1] * b // blocks for b in range(blocks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        storage[:, lo:hi] += last @ chain[lo:hi].T
    return DenseTensor(model.dims, out)


def objective(t: DenseTensor, model: KruskalModel) -> float:
    """Squared Frobenius norm of the residual between `t` and the model."""
    check_model(t, model)
    resid = reconstruct(model, base=-t.values).values   # -t + model: the bits of model - t
    return float(resid @ resid)


def squared_norm(t: DenseTensor) -> float:
    return float(t.values @ t.values)


def hadamard_gram(model: KruskalModel, skip: int | None = None) -> np.ndarray:
    """K^T K for the Khatri-Rao product of every factor but `skip` (None: all of
    them), as the Hadamard product of factor Grams."""
    out = np.ones((model.rank, model.rank))
    for n, f in enumerate(model.factors):
        if n != skip:
            out *= f.T @ f
    return out


# below this residual^2 / ||t||^2 the Gram identity has cancelled too many
# digits and the metric recomputes the residual from the reconstruction
EXACT_METRIC_BELOW = 1e-10


def metric(t: DenseTensor, model: KruskalModel, norm_sq: float | None = None,
           last_mttkrp: np.ndarray | None = None) -> float:
    """Relative reconstruction error ||t - reconstruct(model)||_F / ||t||_F.

    Computed without the reconstruction by the Gram identity of the module
    docs.  `norm_sq` (||t||^2) and `last_mttkrp` (the last mode's MTTKRP) may
    be passed in when the caller already has them; ALS's sweep ends with that
    MTTKRP.  The subtraction costs digits as the residual shrinks: the error
    on m^2 is a few ulps of ||t||^2 + ||Xhat||^2, relative to ||t||^2.  When
    the identity's residual^2 falls to EXACT_METRIC_BELOW * ||t||^2 or below,
    the residual is formed exactly (`objective`) instead.  Undefined for the
    zero tensor.  A NaN model gives NaN.
    """
    check_model(t, model)
    if norm_sq is None:
        norm_sq = squared_norm(t)
    if norm_sq == 0.0:
        raise ValueError("relative error is undefined for the zero tensor")
    last = t.order - 1
    if last_mttkrp is None:
        last_mttkrp = _mttkrp(t, model.factors, last)
    resid_sq = (norm_sq - 2.0 * float(np.vdot(last_mttkrp, model.factors[last]))
                + float(hadamard_gram(model).sum()))
    if resid_sq <= EXACT_METRIC_BELOW * norm_sq:
        resid_sq = objective(t, model)
    return math.sqrt(resid_sq) / math.sqrt(norm_sq)
