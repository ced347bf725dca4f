"""Backend parity: the compiled kernels and the numpy fallback must agree."""

import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinelaw import kernels
from sinelaw.kernels import get_backend, pure


def test_backend_selected():
    assert kernels.BACKEND in ("cython", "pure")


def test_pure_backend_always_available():
    assert pure.BACKEND == "pure"
    assert pure.j0(0.0) == 1.0


@pytest.mark.skipif(kernels.BACKEND != "cython",
                    reason="compiled backend unavailable")
def test_backends_agree_scalar():
    cy = get_backend("cython")
    xs = np.concatenate([np.linspace(0, 150, 2003), [11.999, 12.0, 12.001]])
    for x in xs:
        assert abs(cy.j0(float(x)) - pure.j0(float(x))) <= 2e-12
        assert abs(cy.j1(float(x)) - pure.j1(float(x))) <= 2e-12


@pytest.mark.skipif(kernels.BACKEND != "cython",
                    reason="compiled backend unavailable")
def test_backends_agree_array():
    cy = get_backend("cython")
    xs = np.linspace(0.0, 200.0, 40001)
    assert np.max(np.abs(cy.j0_array(xs) - pure.j0_array(xs))) <= 2e-12


def test_env_var_forces_pure_backend():
    code = ("import os; os.environ['SINELAW_PURE']='1'; "
            "from sinelaw import kernels; print(kernels.BACKEND)")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert out.stdout.strip() == "pure"


def test_get_backend_unknown():
    with pytest.raises(ValueError):
        get_backend("fortran")


def test_pure_array_matches_pure_scalar():
    # the stopping thresholds differ (absolute 1e-18 for the array, relative
    # to the sum for the scalar) so agreement is at the documented accuracy
    # level, not bitwise
    xs = np.linspace(0.0, 80.0, 1111)
    arr = pure.j0_array(xs)
    sc = np.array([pure.j0(float(x)) for x in xs])
    assert np.max(np.abs(arr - sc)) <= 2e-12


def test_pure_array_batch_equals_per_element():
    # each element stops the series on its own term, so batching a point
    # with x = 12 changes none of its bits: the batched quadrature relies
    # on this
    rng = np.random.default_rng(7)
    xs = np.concatenate([[0.0, 1e-8, 0.3, 12.0, 11.999, 12.001, 40.0],
                         rng.uniform(0.0, 14.0, 200)])
    batch = pure.j0_array(xs)
    alone = np.array([pure.j0_array(np.array([x]))[0] for x in xs])
    assert np.array_equal(batch, alone)


@given(st.lists(st.floats(0.0, 12.0), min_size=15, max_size=15))
@settings(max_examples=200, deadline=None)
def test_pure_array_15_point_batches_against_mpmath(xs):
    got = pure.j0_array(np.array(xs))
    with mp.workdps(30):
        want = [float(mp.besselj(0, mp.mpf(x))) for x in xs]
    assert np.max(np.abs(got - np.array(want))) <= 1e-12
