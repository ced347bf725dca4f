"""J0 and J1 in numpy, for scalars and arrays alike.

  J0, |x| < 128:   a table of 256 polynomials of degree 10, one on each
                   [k/2, (k + 1)/2), evaluated by Horner in monomial form;
                   no trig and no branch on the piece
  J1, |x| < 20     Miller's downward recurrence (miller), as J_n in
  (_MILLER_END):   bessel.jn
  beyond:          amplitude/phase asymptotic form, 11 terms by Horner

The J0 pieces are Chebyshev interpolants at 11 points. Below 12.5 they
come from mpmath at 30 digits and are committed (J0_PIECES); the others
are built on first use, from Miller's recurrence up to 20 (_MILLER_END),
where the asymptotic form is still 1e-12 off at 12, and from the
asymptotic form beyond.

Largest absolute error against mpmath at 30 digits, measured on dense
grids and at every piece edge:

            [0, 12.5)  [12.5, 20)  [20, 128)  [128, 200]
    J0      1.1e-16    5.6e-16     1.2e-15    1.9e-16

            [0, 20)    [20, 100]
    J1      3.2e-16    6e-16

Past 20 the built pieces carry the rounding of their float64 nodes and
phases, about 1e-15, where the asymptotic form itself is at 4e-16.
j0 and j0_array take the same piece and run the same Horner steps, so
they agree bit for bit.

The asymptotic coefficients come exactly from the Hankel symbols

    a_m(nu) = prod_{j=1..m} (4 nu^2 - (2j-1)^2) / (m! 8^m)

so that for x -> infinity

    J_nu(x) ~ sqrt(2/(pi x)) * (P_nu(x) cos(chi) - Q_nu(x) sin(chi)),
    chi = x - nu*pi/2 - pi/4,
    P_nu(x) = sum_k (-1)^k a_{2k}   x^{-2k},
    Q_nu(x) = sum_k (-1)^k a_{2k+1} x^{-(2k+1)}.

The series are asymptotic (divergent); eleven terms keep the truncation
floor below 1e-12 for x >= 12 and below 4e-16 for x >= 20.
"""

import math

import numpy as np

BACKEND = "pure"


def _pq(four_nu_sq, n_terms):
    # the Hankel symbols a_m, m < 2 n_terms, signed (-1)^(m // 2), each an
    # exact integer ratio, which int true division rounds correctly
    a, num, den = [], 1, 1
    for m in range(2 * n_terms):
        a.append((-1) ** (m // 2) * num / den)
        num, den = num * (four_nu_sq - (2 * m + 1) ** 2), den * 8 * (m + 1)
    return tuple(a[0::2]), tuple(a[1::2])


P0, Q0 = _pq(0, 11)
P1, Q1 = _pq(4, 11)

# J0 on piece k, [k/2, (k + 1)/2), is sum_p c[k][p] s^p with
# s = 2 (2x - k) - 1. J0_PIECES holds pieces 0-24, computed with mpmath
# at 30 digits (tests/test_kernels.py regenerates them bit for bit);
# _j0_table builds the rest up to J0_TABLE_END.
J0_TABLE_END = 128.0
_MILLER_END = 20.0
J0_PIECES = (
    (0.9844359292958527, -0.031006494330681728, -0.015260375625154532,
     0.00024202713588241854, 5.945292910810707e-05, -6.300042571142305e-07,
     -1.0307992076831016e-07, 8.201025518748128e-10, 1.0058369631803032e-10,
     -6.396772955240068e-13, -6.275652317651007e-14),
    (0.8642422751666486, -0.08731090054371554, -0.012455754341671845,
     0.0006765927233730518, 4.7306964241285474e-05, -1.754798617865566e-06,
     -8.096817254845558e-08, 2.2793124479506654e-09, 7.839286818027527e-11,
     -1.7752732724897286e-12, -4.865636783848123e-14),
    (0.6459060852712852, -0.1276558150799701, -0.007418983656730653,
     0.0009733082169983178, 2.5619114703982474e-05, -2.5037817437319906e-06,
     -4.1621288487023283e-08, 3.2362036139913125e-09, 3.899589677990022e-11,
     -2.512309741067498e-12, -2.3664345682419033e-14),
    (0.36903253018515075, -0.1450390494097481, -0.0011723344675896668,
     0.0010733187821556909, -9.765728776679669e-07, -2.719149262087527e-06,
     6.30265877330567e-09, 3.482199893734579e-09, -8.771843828137728e-12,
     -2.686619380454196e-12, 6.5398502690939585e-15),
    (0.08274985128873404, -0.13709458916174003, 0.005030433211768174,
     0.0009596686639045695, -2.6835415131054162e-05, -2.3602725379670875e-06,
     5.2305344430109104e-08, 2.9679183707026145e-09, -5.423185958877303e-11,
     -2.261778318246499e-12, 3.5108410280483184e-14),
    (-0.16414142780851365, -0.10649307573947558, 0.009970013970810397,
     0.0006604965594798561, -4.653815459495627e-05, -1.5118490187356966e-06,
     8.639445998582224e-08, 1.8134836651797283e-09, -8.728307754814628e-11,
     -1.3369287909476768e-12, 5.559380835611968e-14),
    (-0.33275080217061154, -0.06027992200380097, 0.012716921106439339,
     0.0002423932992050467, -5.606758311915996e-05, -3.6411844169389624e-07,
     1.0130331054943575e-07, 2.804962496141136e-10, -1.006810469041806e-10,
     -1.236005960538355e-13, 6.342027788858797e-14),
    (-0.4014060549361743, -0.008307337282419938, 0.01282085045950278,
     -0.00020452660780244175, -5.366444030782503e-05, 8.302386193381656e-07,
     9.408302280260544e-08, -1.2877919901226497e-09, -9.16557158201334e-11,
     1.103035522997923e-12, 5.691966648906537e-14),
    (-0.3691997702998954, 0.038888298244585666, 0.0103937193440898,
     -0.0005864579276221943, -4.01751181116639e-05, 1.8126646424357583e-06,
     6.671189679642306e-08, -2.544310110385238e-09, -6.250162259744726e-11,
     2.0671793158526067e-12, 3.769479803754992e-14),
    (-0.25512082749137394, 0.07229669966177758, 0.006069981131163919,
     -0.0008262035408313403, -1.8819361643128998e-05, 2.3759280781983806e-06,
     2.5592125009238858e-08, -3.2161880233851797e-09, -2.0011981507745313e-11,
     2.555138346478939e-12, 1.0229887060347732e-14),
    (-0.09308098963931788, 0.0862534946448594, 0.0008551262918272688,
     -0.0008794496431444059, 5.56289728164531e-06, 2.4091093005640352e-06,
     -1.9941956398606128e-08, -3.165219401775676e-09, 2.6105764690805408e-11,
     2.4633917087033422e-12, -1.9157990413557338e-14),
    (0.07597533201690107, 0.07948613097983316, -0.004102188494654967,
     -0.0007434856344631838, 2.7610085090565922e-05, 1.920404388041016e-06,
     -5.975616648682937e-08, -2.4171710035990593e-09, 6.546245940218345e-11,
     1.821048557256359e-12, -4.378050238898001e-14),
    (0.21309005307666073, 0.05518021938480931, -0.007762668546341834,
     -0.0004565769794711796, 4.263199569116058e-05, 1.032912766590738e-06,
     -8.519900160361112e-08, -1.1535817453198063e-09, 8.935131883957596e-11,
     7.817457523620221e-13, -5.811282592998765e-14),
    (0.2894567897845566, 0.020080696313819306, -0.009417389427319602,
     -8.831893013479016e-05, 4.7628615772218824e-05, -4.5245959939724163e-08,
     -9.101507030891789e-08, 3.316629175249637e-10, 9.2701174660348e-11,
     -4.128871236643703e-13, -5.904700585133983e-14),
    (0.291996924191779, -0.017145425163282928, -0.008829293102315802,
     0.0002766864813545753, 4.190949565648933e-05, -1.0693368249680613e-06,
     -7.646028194461801e-08, 1.7006542445646922e-09, 7.517583303976278e-11,
     -1.489525348476033e-12, -4.6577063560656806e-14),
    (0.22523406912010668, -0.04790064804727944, -0.006265973562466569,
     0.0005580337124807297, 2.7182287279312628e-05, -1.8136831707320372e-06,
     -4.5377106794322594e-08, 2.6487632486032092e-09, 4.1177267572860824e-11,
     -2.2060542194884373e-12, -2.3762850813107223e-14),
    (0.10920747150610137, -0.06555088799818594, -0.002419538211865881,
     0.0006972292544168502, 7.101426192187177e-06, -2.1218742682626956e-06,
     -5.228952707929899e-09, 2.9731341759454548e-09, -1.234781123947158e-12,
     -2.406524971721067e-12, 4.011986800873795e-15),
    (-0.02594885609462996, -0.06680447287157039, 0.0017652513654081918,
     0.0006699789640513988, -1.3609567818620515e-05, -1.9402201545787193e-06,
     3.466928402693628e-08, 2.6168238393493528e-09, -4.2244761720873366e-11,
     -2.0555877472441747e-12, 3.030911498332514e-14),
    (-0.14741426284123627, -0.052286662617530275, 0.00531327223564715,
     0.0004904198639099018, -3.0254063978663393e-05, -1.3271762511018162e-06,
     6.530692587585193e-08, 1.6788430683105307e-09, -7.25564744265926e-11,
     -1.2447072288424564e-12, 4.9132354686758253e-14),
    (-0.22733329951184827, -0.02620962531462438, 0.0074401864471122375,
     0.0002065536202369106, -3.92229390273542e-05, -4.370757407795673e-07,
     8.001983427276575e-08, 3.8833433874317577e-10, -8.551252146271082e-11,
     -1.6908246716735967e-13, 5.6303113839262294e-14),
    (-0.24897577978284946, 0.004755113924217136, 0.007722503924016275,
     -0.00011184556459517985, -3.8779473260559454e-05, 5.175845556688974e-07,
     7.59537675417077e-08, -9.505960297101742e-10, -7.857192703006668e-11,
     9.190098781898103e-13, 5.039714134019467e-14),
    (-0.21006948984951077, 0.03311752563574754, 0.006179584050404798,
     -0.000389892803224966, -2.9396205927653013e-05, 1.3162234875947475e-06,
     5.462404371374788e-08, -2.0302039829478043e-09, -5.3814727609425925e-11,
     1.7693339750760065e-12, 3.303077157635874e-14),
    (-0.12266024171056998, 0.05233129490618014, 0.003251673721164421,
     -0.0005648970248196641, -1.3577713053762207e-05, 1.780874091441374e-06,
     2.1460392361895046e-08, -2.609877895787243e-09, -1.737213791124531e-11,
     2.191408707373774e-12, 8.4385260024532e-15),
    (-0.009669352567074631, 0.05827014706849106, -0.00031772791385860995,
     -0.0006003308894423692, 4.7773396456761895e-06, 1.815843134848067e-06,
     -1.5538179438731115e-08, -2.5700316128823125e-09, 2.206870851770813e-11,
     2.097457233244489e-12, -1.7550450956254854e-14),
    (0.1009306105105151, 0.05008929968896374, -0.0036651968814022063,
     -0.0004933532514581645, 2.131677462900799e-05, 1.4274497374394182e-06,
     -4.771039966819989e-08, -1.936970074744773e-09, 5.53239763007158e-11,
     1.5208431283719248e-12, -3.8890932815899247e-14),
)

_j0_tables = None


# The routines below take a float or an array. The trig runs through
# numpy in both cases, so a scalar gets the bits of an array element.

def _horner(y, coeffs):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _asymptotic(x, p, q, phase):
    with np.errstate(over="ignore"):  # x * x is inf past 1.3e154, y is 0
        y = 1.0 / (x * x)
    chi = x - phase
    return np.sqrt(2.0 / (math.pi * x)) * (
        _horner(y, p) * np.cos(chi) - _horner(y, q) / x * np.sin(chi))


_TINY = 2.0 ** -26  # below, (x/2)^n / n! is J_n(x) to half an ulp
_BIG = 2.0 ** 500  # the ldexp in miller shifts by its exponent


def miller(x, n):
    """[J_0(x), ..., J_(top-1)(x)] for a float x >= 0 or an array of
    x >= _TINY: Miller's recurrence down from J_top = 1, J_(top+1) = 0,
    normalized by J0 + 2 (J2 + J4 + ...) = 1. With m the larger of n and
    the largest x, top = m + sqrt(40 m) + 14 puts J_(top-1) below 3e-19,
    so orders up to n carry rounding error only. Values past _BIG are
    divided by it, and those stored before are scaled to match once, at
    the end; a power of two, this costs no bits. A float below _TINY,
    where 2k / x could overflow, takes the series' leading terms."""
    many = isinstance(x, np.ndarray)
    m = max(n, int(x.max() if many else x), 1)
    top = m + int(math.sqrt(40.0 * m)) + 14
    if not many and x < _TINY:
        out = [1.0]
        for k in range(1, top):
            out.append(out[-1] * (0.5 * x) / k)
        return out
    jp, jc, even, s = 0.0 * x, 1.0 + 0.0 * x, 0.0 * x, 0
    out, shifts = [], []  # J_k, and the divisions by _BIG before it
    for k in range(top, 0, -1):
        jp, jc = jc, (2.0 * k / x) * jc - jp  # jc is J_{k-1}
        if k % 2 and k > 1:
            even += jc
        out.append(jc)
        shifts.append(s)
        if (abs(jc).max() if many else abs(jc)) > _BIG:
            jp, jc, even, s = jp / _BIG, jc / _BIG, even / _BIG, s + 1
    norm = jc + 2.0 * even
    return [v / norm if t == s else np.ldexp(v / norm, 500 * (t - s))
            for v, t in zip(reversed(out), reversed(shifts))]


def _j0_table(rows=True):
    """The 256 pieces of J0 as (columns, rows): columns[p] holds
    coefficient p of every piece, rows[k] is piece k as a list of floats,
    or None until a call with rows asks for them (the scalar j0 does).

    Built on the first call: the pieces past J0_PIECES interpolate
    miller up to _MILLER_END and _asymptotic beyond at the 11
    Chebyshev points of each piece. The finished tables are assigned in
    one statement, so concurrent first calls at worst build the same bits
    twice."""
    global _j0_tables
    tables = _j0_tables
    if tables is None:
        s = np.cos((np.arange(11) + 0.5) * (math.pi / 11))
        k = np.arange(len(J0_PIECES), 2.0 * J0_TABLE_END)
        x = 0.5 * (k[:, None] + 0.5 * (1.0 + s))
        m = int(2.0 * _MILLER_END) - len(J0_PIECES)
        vals = np.vstack([miller(x[:m], 0)[0],
                          _asymptotic(x[m:], P0, Q0, 0.25 * math.pi)])
        built = np.linalg.solve(np.vander(s, increasing=True), vals.T)
        tables = (np.hstack([np.array(J0_PIECES).T, built]), None)
    if rows and tables[1] is None:
        tables = (tables[0], tables[0].T.tolist())
    _j0_tables = tables
    return tables


def j0(x):
    """J0 at a scalar."""
    x = abs(x)
    if x < J0_TABLE_END:
        t = 2.0 * x
        k = int(t)
        return _horner(2.0 * (t - k) - 1.0, _j0_table()[1][k])
    return float(_asymptotic(x, P0, Q0, 0.25 * math.pi))


def j1(x):
    """J1 at a scalar; odd in x."""
    ax = abs(x)
    v = (miller(ax, 1)[1] if ax < _MILLER_END
         else float(_asymptotic(ax, P1, Q1, 0.75 * math.pi)))
    return -v if x < 0 else v


def _j0_pieces(t, slope=False):
    # J0(t / 2) for 0 <= t < 2 J0_TABLE_END: the steps of j0, in place;
    # with slope, the piece's derivative in x instead, by Horner alongside
    k = t.astype(np.intp)
    s = t - k
    s *= 2.0
    s -= 1.0
    c = np.take(_j0_table(False)[0], k, axis=1)
    acc, d = c[-1], 0.0
    for ck in c[-2::-1]:
        if slope:
            d = d * s + acc
        acc *= s
        acc += ck
    return 4.0 * d if slope else acc


def j0_slope(x):
    """dJ0/dx over a float64 array of x >= 0: the derivative of J0's own
    piece below J0_TABLE_END, -J1 by the asymptotic form beyond."""
    far, out = x >= J0_TABLE_END, np.empty_like(x)
    out[~far] = _j0_pieces(2.0 * x[~far], slope=True)
    out[far] = -_asymptotic(x[far], P1, Q1, 0.75 * math.pi)
    return out


def j0_array(x):
    """J0 over a float64 array; each element has the bits of j0."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    flat = x.ravel()
    t = 2.0 * flat
    if t.max(initial=0.0) < 2.0 * J0_TABLE_END:
        return _j0_pieces(t).reshape(x.shape)
    out = np.empty_like(t)
    near = t < 2.0 * J0_TABLE_END
    out[near] = _j0_pieces(t[near])
    far = ~near
    out[far] = _asymptotic(flat[far], P0, Q0, 0.25 * math.pi)
    return out.reshape(x.shape)
