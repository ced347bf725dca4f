"""The J0/J1 kernels: the J0 table, scalar/array agreement and accuracy
against mpmath."""

import sys
import threading

import mpmath as mp
import numpy as np
from hypothesis import given, settings, strategies as st

from sinelaw import kernels


def chebyshev_table(pieces=25, degree=10):
    """Monomial coefficients of J0 on each [k/2, (k + 1)/2), k < pieces,
    in s = 2 (2x - k) - 1: the interpolant of the given degree at the
    Chebyshev points of the first kind, computed at 30 digits and
    rounded to float."""
    n = degree + 1
    to_monomial = [[1] + [0] * degree, [0, 1] + [0] * (degree - 1)]
    for m in range(2, n):  # T_m = 2 s T_(m-1) - T_(m-2), in powers of s
        to_monomial.append([2 * (to_monomial[m - 1][p - 1] if p else 0)
                            - to_monomial[m - 2][p] for p in range(n)])
    table = []
    with mp.workdps(30):
        theta = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
        for k in range(pieces):
            f = [mp.besselj(0, (k + (1 + mp.cos(th)) / 2) / 2) for th in theta]
            c = [2 * mp.fsum(fj * mp.cos(m * th) for fj, th in zip(f, theta))
                 / n for m in range(n)]
            c[0] /= 2
            table.append(tuple(
                float(mp.fsum(c[m] * to_monomial[m][p] for m in range(n)))
                for p in range(n)))
    return tuple(table)


def test_backend_selected():
    assert kernels.BACKEND == "pure"


def test_pure_backend_always_available():
    assert kernels.j0(0.0) == 1.0
    assert kernels.j1(0.0) == 0.0


def test_chebyshev_table_regenerates_bitwise():
    want = np.array(chebyshev_table())
    got = np.array(kernels.J0_PIECES)
    assert got.shape == (25, 11)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_table_starts_with_the_committed_pieces():
    cols, rows = kernels._j0_table()
    assert cols.shape == (11, 256)
    assert rows[:25] == [list(r) for r in kernels.J0_PIECES]
    assert np.array_equal(cols.T, np.array(rows))


def test_pure_array_matches_pure_scalar():
    # scalar and array J0 take the same piece and run the same Horner
    # steps, so the bits agree, also at every piece edge and across
    # x = 128, where the asymptotic form takes over
    edges = np.arange(257) / 2.0
    xs = np.concatenate([np.linspace(0.0, 200.0, 20001), edges,
                         np.nextafter(edges, 0.0), np.nextafter(edges, 200.0),
                         [1e-300, 1e100]])
    arr = kernels.j0_array(xs)
    sc = np.array([kernels.j0(float(x)) for x in xs])
    assert np.array_equal(arr, sc)
    assert np.array_equal(kernels.j0_array(-xs), arr)
    assert np.array_equal(kernels.j0_array(xs.reshape(2, -1)).ravel(), arr)


def test_pure_array_batch_equals_per_element():
    # every element is computed on its own, so batching a point with
    # x = 128 changes none of its bits: the batched quadrature relies on
    # this
    rng = np.random.default_rng(7)
    xs = np.concatenate([[0.0, 1e-8, 0.3, 12.0, 12.5, 127.9, 128.0, 400.0],
                         rng.uniform(0.0, 140.0, 200)])
    batch = kernels.j0_array(xs)
    alone = np.array([kernels.j0_array(np.array([x]))[0] for x in xs])
    assert np.array_equal(batch, alone)


@given(st.lists(st.floats(0.0, 200.0), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_scalar_array_and_batch_agree_bitwise(xs):
    batch = kernels.j0_array(np.array(xs))
    assert np.array_equal(batch, [kernels.j0(x) for x in xs])
    assert np.array_equal(batch, [kernels.j0_array(np.array([x]))[0]
                                  for x in xs])


def test_j0_at_piece_edges_against_mpmath():
    # the documented bounds: the mpmath pieces below 12.5, the pieces
    # built from Miller's recurrence and from the asymptotic form up to
    # 128, the asymptotic form beyond
    edges = np.arange(257) / 2.0
    xs = np.concatenate([edges, np.nextafter(edges, 0.0),
                         np.nextafter(edges, 200.0), [12.0, 12.5, 128.0]])
    got = kernels.j0_array(xs)
    with mp.workdps(30):
        for x, v in zip(xs, got):
            want = float(mp.besselj(0, mp.mpf(float(x))))
            if x < 12.5:
                bound = 2.3e-16
            elif x < 20.0:
                bound = 1e-15
            elif x < 128.0:
                bound = 2e-15
            else:
                bound = 6e-13
            assert abs(v - want) <= bound, x


@given(st.lists(st.floats(20.0, 128.0, exclude_max=True), min_size=15,
                max_size=15))
@settings(max_examples=100, deadline=None)
def test_built_pieces_past_20_against_mpmath(xs):
    got = kernels.j0_array(np.array(xs))
    with mp.workdps(30):
        want = [float(mp.besselj(0, mp.mpf(x))) for x in xs]
    assert np.max(np.abs(got - np.array(want))) <= 2e-15


def test_no_x_below_128_reaches_the_asymptotic_form(monkeypatch):
    kernels._j0_table()

    def refuse(x, *args):
        raise AssertionError(f"asymptotic form called at {x}")

    monkeypatch.setattr(kernels, "_asymptotic", refuse)
    xs = np.concatenate([np.linspace(0.0, 128.0, 2001)[:-1],
                         [np.nextafter(128.0, 0.0)]])
    kernels.j0_array(xs)
    for x in xs[::50]:
        kernels.j0(float(x))


def test_no_x_below_12_5_uses_a_built_piece(monkeypatch):
    cols, rows = kernels._j0_table()
    xs = np.concatenate([np.linspace(0.0, 12.5, 1001)[:-1],
                         [np.nextafter(12.5, 0.0)]])
    want = kernels.j0_array(xs)
    poisoned = cols.copy()
    poisoned[:, 25:] = np.nan
    monkeypatch.setattr(kernels, "_j0_tables",
                        (poisoned, rows[:25] + [[float("nan")] * 11] * 231))
    assert np.array_equal(kernels.j0_array(xs), want)
    assert [kernels.j0(float(x)) for x in xs] == want.tolist()


def test_first_calls_from_eight_threads_build_the_same_bits(monkeypatch):
    # eight threads race to build the table, five times over; some of
    # the races build it twice, and every thread still gets the bits of
    # one build
    xs = np.linspace(0.0, 130.0, 1001)
    want = kernels.j0_array(xs)
    results = [None] * 8

    def worker(n):
        start.wait(timeout=30)
        results[n] = (kernels.j0_array(xs) if n % 2
                      else np.array([kernels.j0(x) for x in xs.tolist()]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(kernels, "_j0_tables", None)
            start = threading.Barrier(8)
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            for r in results:
                assert np.array_equal(r, want)
    finally:
        sys.setswitchinterval(interval)


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
