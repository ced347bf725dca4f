"""The J0/J1 kernels: their Chebyshev table, scalar/array agreement and
accuracy against mpmath."""

import mpmath as mp
import numpy as np
from hypothesis import given, settings, strategies as st

from sinelaw import kernels


def chebyshev_table(pieces=12, degree=16):
    """Chebyshev coefficients of J0 on each [i, i + 1], i < pieces: the
    interpolant of the given degree at the Chebyshev points of the first
    kind, computed at 30 digits and rounded to float."""
    n = degree + 1
    table = []
    with mp.workdps(30):
        theta = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
        for i in range(pieces):
            f = [mp.besselj(0, i + (1 + mp.cos(th)) / 2) for th in theta]
            c = [2 * mp.fsum(fj * mp.cos(k * th) for fj, th in zip(f, theta))
                 / n for k in range(n)]
            c[0] /= 2
            table.append(tuple(float(ck) for ck in c))
    return tuple(table)


def test_backend_selected():
    assert kernels.BACKEND == "pure"


def test_pure_backend_always_available():
    assert kernels.j0(0.0) == 1.0
    assert kernels.j1(0.0) == 0.0


def test_chebyshev_table_regenerates_bitwise():
    want = np.array(chebyshev_table())
    got = np.array(kernels.J0_CHEB)
    assert got.shape == (12, 17)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_pure_array_matches_pure_scalar():
    # one Clenshaw and one Horner routine serve both, on the same
    # coefficients; only the piece lookup differs, so the bits agree,
    # also on both sides of the x = 12 crossover
    xs = np.concatenate([np.linspace(0.0, 200.0, 20001),
                         [11.999, 12.0, 12.001, np.nextafter(12.0, 0.0),
                          np.nextafter(12.0, 13.0), 1e-300, 1e100]])
    arr = kernels.j0_array(xs)
    sc = np.array([kernels.j0(float(x)) for x in xs])
    assert np.array_equal(arr, sc)
    assert np.array_equal(kernels.j0_array(-xs), arr)


def test_pure_array_batch_equals_per_element():
    # every element is computed on its own, so batching a point with
    # x = 12 changes none of its bits: the batched quadrature relies on
    # this
    rng = np.random.default_rng(7)
    xs = np.concatenate([[0.0, 1e-8, 0.3, 12.0, 11.999, 12.001, 40.0],
                         rng.uniform(0.0, 14.0, 200)])
    batch = kernels.j0_array(xs)
    alone = np.array([kernels.j0_array(np.array([x]))[0] for x in xs])
    assert np.array_equal(batch, alone)


def test_j1_against_mpmath():
    xs = np.concatenate([np.linspace(0.0, 100.0, 1001), [12.0, 12.001]])
    with mp.workdps(30):
        for x in xs:
            want = float(mp.besselj(1, mp.mpf(x)))
            bound = 7e-13 if x <= kernels.CUTOFF else 1.2e-12
            assert abs(kernels.j1(x) - want) <= bound, x
            assert kernels.j1(-x) == -kernels.j1(x)


@given(st.lists(st.floats(0.0, 12.0), min_size=15, max_size=15))
@settings(max_examples=200, deadline=None)
def test_pure_array_15_point_batches_against_mpmath(xs):
    got = kernels.j0_array(np.array(xs))
    with mp.workdps(30):
        want = [float(mp.besselj(0, mp.mpf(x))) for x in xs]
    assert np.max(np.abs(got - np.array(want))) <= 2.3e-16
