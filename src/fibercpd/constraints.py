"""Feasible-set projections used as proximal operators on factor matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONSTRAINT_KINDS = ("none", "nonneg")


@dataclass(frozen=True)
class Constraint:
    """Per-mode feasible set: unconstrained, or the nonnegative orthant."""

    kind: str = "none"

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}; "
                             f"choose from {CONSTRAINT_KINDS}")

    def prox(self, m: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the set; identity when unconstrained.

        The unconstrained case returns the input array itself, not a copy.
        """
        if self.kind == "nonneg":
            return np.maximum(m, 0.0)
        return m


def per_mode(constraint, order: int) -> list[Constraint]:
    """Broadcast a single constraint (or kind string) to one per mode."""
    if isinstance(constraint, str):
        constraint = Constraint(constraint)
    if isinstance(constraint, Constraint):
        return [constraint] * order
    constraints = list(constraint)
    if len(constraints) != order:
        raise ValueError(f"need {order} constraints, got {len(constraints)}")
    return constraints
