"""Index-walk reference implementations, independent of the package kernels.

`oracle_unfold` and `oracle_kr_full` build the mode unfolding and the full
Khatri-Rao product entry by entry from the row-stride formula of the layout
convention (see `fibercpd.tensor`); `fd_sampled_gradient` differentiates the
sampled objective built from them by central finite differences.
"""

import itertools

import numpy as np

from fibercpd.tensor import DenseTensor, KruskalModel, row_count


def oracle_unfold(t: DenseTensor, mode: int) -> np.ndarray:
    """Walk every multi-index and place the entry by the row-stride formula."""
    dims = t.dims
    out = np.zeros((row_count(dims, mode), dims[mode]))
    arr = t.array
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
