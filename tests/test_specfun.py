"""Bessel I_n and generalized Marcum Q.

Reference values were computed ahead of time with 60-digit arbitrary
precision arithmetic (series for the Bessel function, adaptive quadrature
of the noncentral chi density for the Q function) and frozen here as
literals.  The library code never touches scipy; the cross-checks against
scipy.special below are a second, independent route.
"""

import math

import numpy as np
import pytest

from hapdc.errors import NumericsError
from hapdc.specfun import _erlang_tail, bessel_i, marcum_q

# (n, x, I_n(x)) truncated from 40 significant digits
BESSEL_CASES = [
    (0, 1.0, 1.266065877752008335598244625214717537608),
    (1, 1.0, 0.5651591039924850272076960276098633073289),
    (3, 2.5, 0.4743704087780355895548240178693314512679),
    (5, 10.0, 777.1882864032599599072934848023396328527),
    (0, 19.99, 43135797.87064532947989024754100532648271),
    (2, 20.01, 39699917.35077925415301235537404627370318),
    (10, 35.0, 25449470018534.76535685424757800146434839),
    (20, 50.0, 5442008402752997526.521403168652103497966),
    (0, 300.0, 4.475847367935052118099328003179646816683e128),
    (7, 700.0, 1.476947072395407092424140389263891328581e302),
]

# (m, a, y, Q_m(a, y))
MARCUM_CASES = [
    (1, 1.0, 1.0, 0.732879803796820218250950764782),
    (1, 0.5, 2.0, 0.169140638509467182706797983347),
    (2, 3.0, 4.0, 0.286654209365580802856937333369),
    (4, 1.5, 0.5, 0.999996926422132514757767288341),
    (8, 2.0, 6.0, 0.0229758162786384111832811634138),
    (16, 10.0, 12.0, 0.278462702994532849612709169361),
    (32, 25.3, 13.2, 1.0),
    (3, 0.01, 5.0, 0.000341515255276384457589270199634),
    (1, 12.0, 10.0, 0.979604362396259606801792967522),
    (64, 8.0, 20.0, 2.20242297701234379427209183098e-13),
]


def test_bessel_reference_values():
    for n, x, want in BESSEL_CASES:
        got = bessel_i(n, x)
        assert math.isclose(got, want, rel_tol=1e-12), (n, x, got, want)


def test_bessel_at_zero():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(1, 0.0) == 0.0
    assert bessel_i(5, 0.0) == 0.0


def test_bessel_against_scipy():
    from scipy.special import ive

    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(0, 30))
        x = float(rng.uniform(1e-3, 600.0))
        want = float(ive(n, x)) * math.exp(x)
        got = bessel_i(n, x)
        assert math.isclose(got, want, rel_tol=1e-10), (n, x)


def test_bessel_overflow():
    with pytest.raises(OverflowError):
        bessel_i(0, 800.0)


def test_bessel_domain_errors():
    with pytest.raises(NumericsError):
        bessel_i(0, 3.1e4)
    with pytest.raises(ValueError):
        bessel_i(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_i(2, -1.0)
    with pytest.raises(ValueError):
        bessel_i(1.5, 1.0)


def test_bessel_underflow_returns_zero():
    # high order at modest argument is far below the subnormal floor
    assert bessel_i(400, 0.5) == 0.0


def test_marcum_reference_values():
    for m, a, y, want in MARCUM_CASES:
        got = marcum_q(m, a, y)
        # float cancellation wobbles the last couple of digits near 1
        assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-12), \
            (m, a, y, got, want)


def test_marcum_half_identity():
    # Q_1(a, a) = (1 + exp(-a^2) I_0(a^2)) / 2
    got = marcum_q(1, 1.0, 1.0)
    want = 0.5 * (1.0 + math.exp(-1.0) * bessel_i(0, 1.0))
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_marcum_zero_threshold_is_one():
    for m in (1, 2, 7, 40):
        assert marcum_q(m, 3.0, 0.0) == 1.0


def test_marcum_zero_noncentrality():
    # reduces to a plain chi-square tail: Q_1(0, y) = exp(-y^2/2)
    assert math.isclose(marcum_q(1, 0.0, 2.0), math.exp(-2.0), rel_tol=1e-14)


def test_marcum_bounds_and_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(1, 40))
        a = float(rng.uniform(0.0, 15.0))
        y = float(rng.uniform(0.0, 25.0))
        q = marcum_q(m, a, y)
        assert 0.0 <= q <= 1.0
        # larger threshold can only shrink the tail
        assert marcum_q(m, a, y + 0.5) <= q + 1e-12
        # stronger signal can only grow it
        assert marcum_q(m, a + 0.5, y) >= q - 1e-12
        # extra degrees of freedom can only grow it
        assert marcum_q(m + 1, a, y) >= q - 1e-12


def test_marcum_against_scipy():
    from scipy.stats import ncx2

    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(1, 50))
        a = float(rng.uniform(0.01, 12.0))
        y = float(rng.uniform(0.0, 20.0))
        want = float(ncx2.sf(y * y, 2 * m, a * a))
        got = marcum_q(m, a, y)
        assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-10), (m, a, y)


def test_marcum_domain_errors():
    with pytest.raises(ValueError):
        marcum_q(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        marcum_q(1, -0.1, 1.0)
    with pytest.raises(ValueError):
        marcum_q(1, 1.0, -0.1)


def _marcum_q_quadratic(m, a, y):
    """The Poisson-mixture series with a fresh ``math.fsum`` over all terms
    at every step past the centre: quadratic in the term count, kept as the
    reference the linear-time stopping test must match bit for bit."""
    if y == 0.0:
        return 1.0
    x = 0.5 * y * y
    h = 0.5 * a * a
    if h == 0.0:
        return _erlang_tail(m, x)[0]
    j0 = int(h)
    p = math.exp(-h + j0 * math.log(h) - math.lgamma(j0 + 1.0))
    half_width = int(12.0 * math.sqrt(h)) + 25
    jlo = max(0, j0 - half_width)
    for j in range(j0, jlo, -1):
        p *= j / h
    g, t = _erlang_tail(m + jlo, x)
    terms = []
    j = jlo
    n = m + jlo
    while True:
        term = p * g
        terms.append(term)
        if j > j0 + half_width:
            total = math.fsum(terms)
            if term == 0.0 or term < total * 1e-18:
                break
        j += 1
        p *= h / j
        t *= x / n
        g = min(g + t, 1.0)
        n += 1
    return min(math.fsum(terms), 1.0)


def test_marcum_bitwise_equal_to_quadratic_series():
    rng = np.random.default_rng(939)
    points = []
    for _ in range(600):
        m = int(rng.integers(1, 65))
        a = float(rng.uniform(0.0, 40.0))
        y = abs(a + float(rng.normal(0.0, 8.0)))
        points.append((m, a, y))
    for m in (1, 5, 64):
        # a = 0: the Erlang-tail path
        points += [(m, 0.0, float(y)) for y in rng.uniform(0.0, 30.0, 20)]
        # far above the centre the tail underflows to subnormals, then to 0
        for a in (0.5, 12.0, 40.0):
            points += [(m, a, float(a + d)) for d in np.arange(30.0, 46.0, 0.25)]
    values = []
    for m, a, y in points:
        got = marcum_q(m, a, y)
        assert got == _marcum_q_quadratic(m, a, y), (m, a, y)
        values.append(got)
    values = np.array(values)
    # the grid reaches both sides of the centre and the underflowing tail
    assert (values > 0.99).any() and (values < 1e-3).any()
    assert (values == 0.0).any() and ((values > 0.0) & (values < 1e-300)).any()
