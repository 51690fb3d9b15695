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
def test_prox_into_out_matches_allocating_prox(m):
    for kind in ("none", "nonneg"):
        c = Constraint(kind)
        want = c.prox(m.copy())
        out = np.empty_like(m)
        assert c.prox(m, out=out) is out
        np.testing.assert_array_equal(out, want)
        in_place = m.copy()
        assert c.prox(in_place, out=in_place) is in_place
        np.testing.assert_array_equal(in_place, want)


@settings(max_examples=50, deadline=None)
@given(m=matrices)
def test_prox_idempotent(m):
    for kind in ("none", "nonneg"):
        c = Constraint(kind)
        once = c.prox(m)
        np.testing.assert_array_equal(c.prox(once), once)


@settings(max_examples=50, deadline=None)
@given(a=matrices, b=matrices)
def test_prox_nonexpansive(a, b):
    for kind in ("none", "nonneg"):
        c = Constraint(kind)
        assert np.linalg.norm(c.prox(a) - c.prox(b)) <= np.linalg.norm(a - b) + 1e-12


@settings(max_examples=50, deadline=None)
@given(m=matrices)
def test_prox_output_in_set(m):
    c = Constraint("nonneg")
    assert (c.prox(m) >= 0.0).all()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Constraint("simplex")

