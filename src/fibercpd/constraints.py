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

    def prox(self, m: np.ndarray) -> np.ndarray:
        """Euclidean projection of `m` onto the set, written into `m` itself,
        which is returned: the caller hands over a buffer it owns."""
        if self.kind == "nonneg":
            np.maximum(m, 0.0, out=m)
        return m
