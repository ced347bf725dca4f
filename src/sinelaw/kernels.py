"""J0 and J1 in numpy, for scalars and arrays alike.

  |x| <= 12 (CUTOFF):  J0 from 12 Chebyshev pieces of degree 16, one on
                       each [i, i + 1], summed by Clenshaw's recurrence;
                       J1 (and J_n in bessel.jn) from the Taylor series
                       with compensated summation
  |x| >  12:           amplitude/phase asymptotic form, 11 terms by Horner

Largest absolute error against mpmath at 30 digits, measured on dense
grids:

            [0, 12]   [12, 14]   [14, 20]   [20, 100]
    J0      1.1e-16   5.7e-13    3.9e-14    4e-16
    J1      6.3e-13   1.1e-12    9.5e-15    6e-16

Past 12 the asymptotic form is at its truncation floor, which falls fast
with x. j0 and j0_array run the same Clenshaw and Horner routines on the
same coefficients and differ only in how they look up a piece, so they
agree bit for bit.

The asymptotic coefficients come exactly from the Hankel symbols

    a_m(nu) = prod_{j=1..m} (4 nu^2 - (2j-1)^2) / (m! 8^m)

so that for x -> infinity

    J_nu(x) ~ sqrt(2/(pi x)) * (P_nu(x) cos(chi) - Q_nu(x) sin(chi)),
    chi = x - nu*pi/2 - pi/4,
    P_nu(x) = sum_k (-1)^k a_{2k}   x^{-2k},
    Q_nu(x) = sum_k (-1)^k a_{2k+1} x^{-(2k+1)}.

The series are asymptotic (divergent); eleven terms keep the truncation
floor below 1e-12 for x >= 12.
"""

import math
from fractions import Fraction

import numpy as np

BACKEND = "pure"


def _pq(four_nu_sq, n_terms):
    a = [Fraction(1)]  # the Hankel symbols a_0 .. a_{2 n_terms + 1}
    for m in range(1, 2 * n_terms + 2):
        a.append(a[-1] * Fraction(four_nu_sq - (2 * m - 1) ** 2, 8 * m))
    p = tuple(float((-1) ** k * a[2 * k]) for k in range(n_terms))
    q = tuple(float((-1) ** k * a[2 * k + 1]) for k in range(n_terms))
    return p, q


P0, Q0 = _pq(0, 11)
P1, Q1 = _pq(4, 11)

# the small-argument branches hold for |x| <= CUTOFF, the asymptotic
# form beyond
CUTOFF = 12.0

# J0(x) = sum_k J0_CHEB[i][k] T_k(2 (x - i) - 1) on [i, i + 1]: the
# degree-16 interpolant at the 17 Chebyshev points of the first kind,
# computed with mpmath at 30 digits (tests/test_kernels.py regenerates
# it and compares bit for bit)
J0_CHEB = (
    (0.9104258702920535, -0.11832956313695851, -0.027935294269241982,
     0.000930832471870907, 0.00010845478487074111, -2.4292197302025427e-06,
     -1.8771155861420868e-07, 3.166274916193185e-09, 1.829738665917202e-10,
     -2.475121262776526e-12, -1.1421787721528947e-13, 1.2896247345739364e-15,
     4.9530112175795275e-17, -4.799015381495475e-19, -1.5783614033218218e-20,
     1.3392803236888218e-22, 3.852184380327342e-24),
    (0.503160985371335, -0.2727215085015022, -0.008641683507151688,
     0.0020733671312508396, 2.4966890587229578e-05, -5.319195111469313e-06,
     -3.593598929733202e-08, 6.862322427736139e-09, 3.0837379490235026e-11,
     -5.327819921316264e-12, -1.7524931980700656e-14, 2.762467040937768e-15,
     7.070039016797115e-18, -1.0242306633493389e-18, -2.127292185278011e-21,
     2.85024980644838e-22, 4.954607293836081e-25),
    (-0.03315752973184414, -0.2436074020067074, 0.015151452695363514,
     0.0016399706955738337, -7.465229765848646e-05, -3.940587739955078e-06,
     1.4159846800952735e-07, 4.8809732333381875e-09, -1.4477077545086715e-10,
     -3.6861193981291175e-12, 9.303163507231105e-14, 1.8734185824869667e-15,
     -4.113375451512091e-17, -6.841878452791937e-19, 1.3290905934559384e-20,
     1.8816223533672425e-22, -3.2776242725169113e-24),
    (-0.35425277915362463, -0.06858484884743897, 0.025763229478330492,
     3.544176052810097e-05, -0.0001115318347976108, 4.806394516416416e-07,
     1.9932373261934414e-07, -1.0345043236923009e-09, -1.966545779128255e-10,
     1.0071851251739693e-12, 1.2337615673360882e-13, -5.948635746876169e-16,
     -5.361315786864369e-17, 2.401270249663533e-19, 1.7097247220065568e-20,
     -7.095112403237365e-23, -4.1730981154664614e-24),
    (-0.3038980567838027, 0.11120639513867601, 0.01658451520761655,
     -0.001434141182661845, -5.984291907372224e-05, 4.271202530317713e-06,
     9.399034867888039e-08, -5.888526970771432e-09, -8.423067933527774e-11,
     4.739526094883208e-12, 4.9063036721004564e-14, -2.5121562097623534e-15,
     -2.0098944041866864e-17, 9.451054216903354e-19, 6.1093040704544334e-21,
     -2.657113094354275e-22, -1.4330160977521325e-24),
    (-0.010193723307713932, 0.16576171295646963, -0.0033158622298791883,
     -0.0016451024622399515, 3.390998913882326e-05, 4.409485013043859e-06,
     -8.157698192482273e-08, -5.700962372781732e-09, 9.38301380895997e-11,
     4.389507769185155e-12, -6.463170729547237e-14, -2.2518248135112695e-15,
     2.990148293451008e-17, 8.261403763481575e-19, -9.972447073658186e-21,
     -2.27680091014499e-22, 2.517138353099125e-24),
    (0.24263654885892696, 0.07526591816276111, -0.017365990904615727,
     -0.00054991002491166, 9.188568825623069e-05, 9.993280444467654e-07,
     -1.799434291602174e-07, -8.31987313444528e-10, 1.862580837949314e-10,
     3.728290289509422e-13, -1.2016964954214716e-13, -8.49296488604862e-17,
     5.314839648250909e-17, 2.398158396175314e-22, -1.7149601663707025e-20,
     6.830671583831506e-24, 4.2203987520662016e-24),
    (0.2510321349308818, -0.06506083178709117, -0.015237185308438097,
     0.0008495411306834364, 7.021330470990928e-05, -2.9454826806253893e-06,
     -1.2421740167122004e-07, 4.45187837422015e-09, 1.1887484490069094e-10,
     -3.792951428971811e-12, -7.205548429007293e-14, 2.08710432035073e-15,
     3.0291492001217515e-17, -8.058627155578779e-19, -9.37202027650129e-21,
     2.308715883980967e-22, 2.2263161948202872e-24),
    (0.041305707460385706, -0.132376112105661, -0.0006403572687175537,
     0.001388039484746439, -6.782505532991318e-06, -4.142248252574892e-06,
     3.033588441412162e-08, 5.713524031958505e-09, -4.4715999956973845e-11,
     -4.574333458776597e-12, 3.533069074876498e-14, 2.4052112828423353e-15,
     -1.783133011287515e-17, -8.968865148671662e-19, 6.3134184075249075e-21,
     2.499475874471362e-22, -1.664298721089486e-24),
    (-0.18096089862439413, -0.07850527162859838, 0.012896881367384932,
     0.0007059866802363462, -7.081896601692861e-05, -1.7937906219487305e-06,
     1.4856766191417267e-07, 2.106191598457482e-09, -1.618561910907742e-10,
     -1.4443738498905842e-12, 1.0821475142602283e-13, 6.553352157926478e-16,
     -4.90794358551979e-17, -2.1232770673817597e-19, 1.6127604857907158e-20,
     5.172249802982487e-23, -4.0230212256053154e-24),
    (-0.22253623397560351, 0.0378820443645916, 0.014042447728059194,
     -0.0005111859731833301, -6.937933482635059e-05, 1.876683332764326e-06,
     1.3328839273790296e-07, -3.055425796086677e-09, -1.3537976739304014e-10,
     2.7624747743501547e-12, 8.552441525165722e-14, -1.5890598926854502e-15,
     -3.7019145813251334e-17, 6.342961060220845e-19, 1.1698518939360737e-20,
     -1.8638162349823537e-22, -2.823077325294861e-24),
    (-0.06469336884892299, 0.11061983435650137, 0.0029517208319371087,
     -0.0011836945182266262, -8.852614528672372e-06, 3.6710581045817824e-06,
     5.821314349571307e-09, -5.298761913269477e-09, 5.028398899188989e-12,
     4.399780962939324e-12, -9.482046084093007e-15, -2.3773224238330098e-15,
     6.5399012988483364e-18, 9.045884176500401e-19, -2.748550888804102e-21,
     -2.559452108428083e-22, 8.089615195636466e-25),
)

# coefficient k of every piece in row k, for gathering whole batches
_J0_CHEB_ROWS = np.array(J0_CHEB).T


def jn_series(n, x):
    """J_n(x) for n >= 0, 0 <= x <= CUTOFF: the Taylor series

        sum_k (-1)^k (x/2)^(2k+n) / (k! (k+n)!)

    with compensated summation, stopped once a term falls below 1e-18
    relative to the sum."""
    half = 0.5 * x
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
    q = half * half
    s = term
    c = 0.0
    k = 0
    while True:
        k += 1
        term *= -q / (k * (k + n))
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        if k > 3 and abs(term) <= 1e-18 * (1.0 + abs(s)):
            return s


# The routines below take a float or an array. The trig runs through
# numpy in both cases, so a scalar gets the bits of an array element.

def _horner(y, coeffs):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _clenshaw(t, coeffs):
    # sum_k coeffs[k] T_k(t)
    t2 = 2.0 * t
    b1 = b2 = 0.0
    for c in coeffs[:0:-1]:
        b1, b2 = t2 * b1 - b2 + c, b1
    return t * b1 - b2 + coeffs[0]


def _asymptotic(x, p, q, phase):
    with np.errstate(over="ignore"):  # x * x is inf past 1.3e154, y is 0
        y = 1.0 / (x * x)
    chi = x - phase
    return np.sqrt(2.0 / (math.pi * x)) * (
        _horner(y, p) * np.cos(chi) - _horner(y, q) / x * np.sin(chi))


def j0(x):
    """J0 at a scalar."""
    x = abs(x)
    if x <= CUTOFF:
        i = min(int(x), len(J0_CHEB) - 1)
        return _clenshaw(2.0 * (x - i) - 1.0, J0_CHEB[i])
    return float(_asymptotic(x, P0, Q0, 0.25 * math.pi))


def j1(x):
    """J1 at a scalar; odd in x."""
    ax = abs(x)
    if ax <= CUTOFF:
        v = jn_series(1, ax)
    else:
        v = float(_asymptotic(ax, P1, Q1, 0.75 * math.pi))
    return -v if x < 0 else v


def j0_array(x):
    """J0 over a float64 array; each element has the bits of j0."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    out = np.empty_like(x)
    small = x <= CUTOFF
    if small.any():
        xs = x[small]
        i = np.minimum(xs.astype(np.intp), len(J0_CHEB) - 1)
        out[small] = _clenshaw(2.0 * (xs - i) - 1.0, _J0_CHEB_ROWS[:, i])
    big = ~small
    if big.any():
        out[big] = _asymptotic(x[big], P0, Q0, 0.25 * math.pi)
    return out
