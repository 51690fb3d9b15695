import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fibercpd.constraints import Constraint

matrices = arrays(np.float64, (3, 2),
                  elements=st.floats(-100, 100, allow_nan=False, width=64))


def test_nonneg_projection_known():
    c = Constraint("nonneg")
    m = np.array([[-1.0, 2.0], [3.0, -4.0]])
    np.testing.assert_array_equal(c.prox(m), [[0.0, 2.0], [3.0, 0.0]])


def test_unconstrained_is_identity():
    c = Constraint("none")
    m = np.array([[-1.0, 2.0], [3.0, -4.0]])
    assert c.prox(m) is m


@settings(max_examples=50, deadline=None)
@given(m=matrices)
def test_prox_projects_in_place_and_returns_its_argument(m):
    for kind, want in (("none", m), ("nonneg", np.maximum(m, 0.0))):
        x = m.copy()
        assert Constraint(kind).prox(x) is x
        np.testing.assert_array_equal(x, want)


@settings(max_examples=50, deadline=None)
@given(m=matrices)
def test_prox_idempotent(m):
    for kind in ("none", "nonneg"):
        c = Constraint(kind)
        once = c.prox(m.copy())
        np.testing.assert_array_equal(c.prox(once.copy()), once)


@settings(max_examples=50, deadline=None)
@given(a=matrices, b=matrices)
def test_prox_nonexpansive(a, b):
    for kind in ("none", "nonneg"):
        c = Constraint(kind)
        assert np.linalg.norm(c.prox(a.copy()) - c.prox(b.copy())) <= np.linalg.norm(a - b) + 1e-12


@settings(max_examples=50, deadline=None)
@given(m=matrices)
def test_prox_output_in_set(m):
    c = Constraint("nonneg")
    assert (c.prox(m) >= 0.0).all()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Constraint("simplex")

