"""Feasible-set projections used as proximal operators on factor matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONSTRAINT_KINDS = ("none", "nonneg")


@dataclass(frozen=True)
class Constraint:
    """Feasible set of every factor matrix: unconstrained, or the nonnegative orthant."""

    kind: str = "none"

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}; "
                             f"choose from {CONSTRAINT_KINDS}")

    def prox(self, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Euclidean projection onto the set; identity when unconstrained.

        With `out` (which may be `m` itself) the projection is written there and
        `out` is returned.  Without it, the unconstrained case returns the input
        array itself, not a copy.
        """
        if self.kind == "nonneg":
            return np.maximum(m, 0.0, out=out)
        if out is not None:
            out[...] = m
            return out
        return m

