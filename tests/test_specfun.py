"""The generalized Marcum Q and its Chernoff bound.

Reference values were computed ahead of time with 60-digit arbitrary
precision arithmetic (adaptive quadrature of the noncentral chi density)
and frozen here as literals.  The library code never touches scipy; the
checks against scipy.special below are a second, independent route.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapdc.specfun import _erlang_tail, marcum_log_bound, marcum_q

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


def test_marcum_reference_values():
    for m, a, y, want in MARCUM_CASES:
        got = marcum_q(m, a, y)
        # float cancellation wobbles the last couple of digits near 1
        assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-12), \
            (m, a, y, got, want)


def test_marcum_half_identity():
    from scipy.special import i0

    # Q_1(a, a) = (1 + exp(-a^2) I_0(a^2)) / 2
    got = marcum_q(1, 1.0, 1.0)
    want = 0.5 * (1.0 + math.exp(-1.0) * float(i0(1.0)))
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


@settings(deadline=None, max_examples=200)
@given(m=st.integers(min_value=1, max_value=64),
       a=st.floats(min_value=0.0, max_value=40.0),
       spread=st.floats(min_value=-3.0, max_value=3.0))
def test_marcum_log_bound_bounds_both_tails(m, a, spread):
    # s = y^2 at exp(spread) times the mean a^2 + 2m: above the mean the
    # bound is on Q = Pr(X > s), below it on 1 - Q = Pr(X < s)
    from scipy.stats import ncx2

    mean = a * a + 2 * m
    s = mean * math.exp(spread)
    y = math.sqrt(s)
    bound = marcum_log_bound(m, a, y)
    tail = ncx2.logsf if s > mean else ncx2.logcdf
    assert tail(s, 2 * m, a * a) <= bound + 1e-9 * max(1.0, -bound)
    # elementwise over an array of thresholds
    ys = np.array([y, 2.0 * y, 0.5 * y])
    assert marcum_log_bound(m, a, ys).tolist() == [
        marcum_log_bound(m, a, v) for v in ys.tolist()]


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


def _marcum_series_tail(m, a, y):
    """How many terms the reference loop keeps past the first index its
    stopping rule checks (``j0 + half_width + 1``); a copy of the loop in
    ``_marcum_q_quadratic`` that counts instead of summing."""
    x = 0.5 * y * y
    h = 0.5 * a * a
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
                return j - (j0 + half_width + 1)
        j += 1
        p *= h / j
        t *= x / n
        g = min(g + t, 1.0)
        n += 1


def test_marcum_bitwise_equal_past_the_first_block():
    # thresholds well above the centre move the series' peak past it, so
    # the terms run on for one or more blocks after the first check
    points = [(m, a, a + d) for m in (1, 32)
              for a in (3.0, 10.0, 25.3, 60.0)
              for d in (10.0, 15.0, 20.0, 22.0)]
    points.append((64, 60.0, 80.0))
    tails = []
    for m, a, y in points:
        assert marcum_q(m, a, y) == _marcum_q_quadratic(m, a, y), (m, a, y)
        tails.append(_marcum_series_tail(m, a, y))
    # the grid holds series that stop inside the second block (after
    # the first check, within 256 terms) and series that run past it
    assert any(0 < k <= 256 for k in tails)
    assert any(k > 256 for k in tails)


def test_marcum_array_bitwise_equal_to_scalar_calls():
    # an array of thresholds sharing m and a gives, element by element,
    # the float the scalar call returns: zeros, both sides of the centre,
    # the underflowing tail and series that run past the first block
    rng = np.random.default_rng(2014)
    values, far_ones = [], []
    for trial in range(40):
        m = int(rng.integers(1, 65))
        a = 0.0 if trial % 8 == 0 else float(rng.uniform(0.0, 40.0))
        far = a + rng.uniform(10.0, 22.0, 4)  # past the first block
        ys = np.concatenate([
            [0.0, 0.0], far,
            np.abs(a + rng.normal(0.0, 8.0, 12)),
            a + rng.uniform(30.0, 46.0, 4),     # the tail underflows
        ])
        rng.shuffle(ys)
        got = marcum_q(m, a, ys)
        assert got.shape == ys.shape and got.dtype == float
        want = [marcum_q(m, a, float(y)) for y in ys]
        assert got.tolist() == want, (m, a)
        values += want
        if a > 0.0:
            far_ones += [(m, a, float(y)) for y in far
                         if marcum_q(m, a, float(y)) > 0.0]
    assert 0.0 in values and 1.0 in values
    assert any(0.0 < v < 1e-300 for v in values)
    assert any(_marcum_series_tail(*args) > 0 for args in far_ones)
    # an array keeps its shape, and a scalar still gives a Python float
    grid = np.array([[0.0, 3.0], [9.0, 60.0]])
    assert marcum_q(4, 5.0, grid).tolist() == [
        [marcum_q(4, 5.0, y) for y in row] for row in grid.tolist()]
    assert type(marcum_q(4, 5.0, 3.0)) is float
    assert type(marcum_q(4, 0.0, 3.0)) is float
    assert marcum_q(4, 5.0, np.array([])).shape == (0,)
    with pytest.raises(ValueError):
        marcum_q(4, 5.0, np.array([1.0, -0.1]))


def test_marcum_q_at_an_infinite_threshold_is_its_limit_zero():
    from hapdc import validate

    assert marcum_q(32, 25.3, math.inf) == 0.0
    assert marcum_q(3, 0.0, math.inf) == 0.0  # the Erlang-tail branch
    ys = np.array([0.0, 3.0, math.inf, 40.0])
    assert marcum_q(4, 5.0, ys).tolist() == [
        1.0, marcum_q(4, 5.0, 3.0), 0.0, marcum_q(4, 5.0, 40.0)]
    assert marcum_q(4, 0.0, ys).tolist() == [
        1.0, marcum_q(4, 0.0, 3.0), 0.0, marcum_q(4, 0.0, 40.0)]
    # the quadrature oracle stops past its limit, where only an infinite
    # y lies (and a finite one so large that y + 40 rounds to y)
    assert validate._marcum_quadrature(32, 25.3, math.inf) == 0.0
    assert validate._marcum_quadrature(3, 2.0, 1e300) == 0.0
