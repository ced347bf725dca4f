"""Golden families: scale mixtures of the two builtin targets, whose k has
a closed form, drawn by hypothesis.

Gaussian mixture:    psi = sum w_i e^{-s_i^2 r^2 / 2},  k = sum w_i e^{-t^2 / (2 s_i^2)}
Exponential mixture: psi = sum w_i e^{-a_i r},          k = sum w_i a_i / sqrt(a_i^2 + t^2)
Student t, 3 d.o.f.: psi = (1 + sqrt3 r) e^{-sqrt3 r},   k = (1 + t^2/3)^(-3/2)

On one table per draw, k is checked against its closed form and the f
pieces against Newton's roots on that table, unless building the table
raises ConvergenceError. The Student t, the one family with an
algebraic tail of k, is checked against its closed f as well.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from sinelaw import inverse
from sinelaw.errors import ConvergenceError
from sinelaw.inverse import CharFn
from sinelaw.quadrature import QuadConfig
from sinelaw.transforms import Decay

# u toward both ends of (0, 1), down to the lowest f piece, and at random
_U = np.concatenate([np.geomspace(2.0 ** -14, 0.5, 800),
                     1.0 - np.geomspace(1e-15, 0.5, 800),
                     np.random.default_rng(0).random(100_000)])


def _mixtures(ratio):
    # 1 to 3 weights and scales, the scales within ratio:1 of each other
    return st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(0.0, math.log(ratio)), min_size=n, max_size=n),
        st.floats(0.3, 3.0)))


def _gaussian(w, log_s, base):
    s = base * np.exp(log_s)
    psi = CharFn(eval=lambda r: sum(wi * np.exp(-0.5 * np.square(si * r))
                                    for wi, si in zip(w, s)),
                 decay=Decay("gaussian", 1.0 / s.min()), name="gmix")
    return psi, lambda t: sum(wi * np.exp(-0.5 * np.square(t / si))
                              for wi, si in zip(w, s))


def _exponential(w, log_a, base):
    a = base * np.exp(log_a)
    psi = CharFn(eval=lambda r: sum(wi * np.exp(-ai * np.abs(r))
                                    for wi, ai in zip(w, a)),
                 decay=Decay("exponential", a.min()), name="emix")
    return psi, lambda t: sum(wi * ai / np.sqrt(ai * ai + np.square(t))
                              for wi, ai in zip(w, a))


def _check(family, draw):
    w, logs, base = draw
    w = np.array(w) / sum(w)
    psi, k_exact = family(w, np.array(logs), base)
    try:
        kp = inverse.KPsi(psi, QuadConfig())
        got = kp.invert(_U)
    except ConvergenceError:
        return  # an H0 value missed its tolerance, and the table says so
    want = kp.newton(_U)
    # the f pieces, or newton where a piece was left to it
    fin = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), fin)
    assert np.all(np.abs(got[fin] - want[fin])
                  <= 0.01 * kp.k_tol * (1.0 + want[fin]))
    # k on the table, which now reaches below k = 2^-14
    ts = np.geomspace(1e-3, kp._table[0][-1], 400)
    assert np.max(np.abs(kp.k(ts) - k_exact(ts))) <= 2e-12


@given(_mixtures(30.0))
@settings(max_examples=8, deadline=None)
def test_gaussian_mixtures_k_and_f_pieces(draw):
    _check(_gaussian, draw)


@given(_mixtures(10.0))
@settings(max_examples=8, deadline=None)
def test_exponential_mixtures_k_and_f_pieces(draw):
    _check(_exponential, draw)


def test_student_t_k_and_f():
    r3 = math.sqrt(3.0)
    psi = CharFn(
        eval=lambda r: (1.0 + r3 * np.abs(r)) * np.exp(-r3 * np.abs(r)),
        decay=Decay("exponential", r3), name="student3")
    kp = inverse.KPsi(psi, QuadConfig())
    ts = np.geomspace(1e-3, 100.0, 400)
    assert np.max(np.abs(kp.k(ts) - (1.0 + ts * ts / 3.0) ** -1.5)) <= 1e-12
    us = np.concatenate([np.geomspace(1e-4, 0.5, 400),
                         1.0 - np.geomspace(1e-3, 0.5, 400)])
    got, want = kp.invert(us), kp.newton(us)
    f = np.sqrt(3.0 * (us ** (-2.0 / 3.0) - 1.0))
    assert np.max(np.abs(got - f) / (1.0 + f)) <= 1e-9
    assert np.all(np.abs(got - want) <= 0.01 * kp.k_tol * (1.0 + want))
