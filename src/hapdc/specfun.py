"""Modified Bessel functions of the first kind and the generalized Marcum Q.

Both are evaluated from scratch: ``bessel_i`` by power series for small
arguments and a normalized backward recurrence (Miller's scheme) otherwise,
``marcum_q`` by the canonical Bessel series resummed as a Poisson mixture of
Erlang tails, which keeps every partial sum positive and cancellation-free.
Relative accuracy is about 1e-12 in the bulk; results within a few hundred
log-units of the double-precision floor degrade gracefully to absolute
accuracy and finally to an exact zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

_MAX_EXP = 709.0  # ln of the largest double
_SERIES_CUTOFF = 20.0
_MAX_RECURRENCE_ARG = 3.0e4
_BLOCK = 256  # Marcum series terms per block past the first


def _bessel_series(n: int, x: float) -> float:
    # ascending series; all terms positive
    log_first = n * math.log(x / 2.0) - math.lgamma(n + 1.0)
    term = math.exp(log_first)
    if term == 0.0:
        return 0.0
    total = term
    q = x * x / 4.0
    for k in range(1, 1000):
        term *= q / (k * (n + k))
        total += term
        if term < total * 1e-17:
            return total
    raise NumericsError(f"bessel_i series failed to converge (n={n}, x={x})")


def _scaled_bessel_family(z: float, kmax: int) -> np.ndarray:
    """exp(-z) * I_k(z) for k = 0..kmax via normalized backward recurrence."""
    start = int(max(kmax, z) + 17.0 * math.sqrt(z + 1.0)) + 50
    values = np.zeros(start + 1)
    p_hi = 0.0
    p = 1e-300
    values[start] = p
    for k in range(start, 0, -1):
        p_lo = p_hi + (2.0 * k / z) * p
        p_hi = p
        p = p_lo
        if p > 1e250:
            p *= 1e-250
            p_hi *= 1e-250
            values[k:] *= 1e-250
        values[k - 1] = p
    norm = values[0] + 2.0 * math.fsum(values[1:])
    return values[: kmax + 1] / norm


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function I_n(x) for integer n >= 0, x >= 0.

    Raises OverflowError where the value exceeds the double range and
    NumericsError for arguments beyond the recurrence's working domain.
    Values below the subnormal floor return 0.0.
    """
    if n != int(n) or n < 0:
        raise ValueError("order n must be a non-negative integer")
    n = int(n)
    if x < 0.0:
        raise ValueError("argument x must be non-negative")
    x = float(x)
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x < _SERIES_CUTOFF:
        return _bessel_series(n, x)
    if x > _MAX_RECURRENCE_ARG:
        raise NumericsError(f"bessel_i argument {x} beyond the supported range")
    scaled = _scaled_bessel_family(x, n)[n]
    if scaled == 0.0:
        return 0.0
    if x <= _MAX_EXP:
        return scaled * math.exp(x)
    log_value = x + math.log(scaled)
    if log_value > _MAX_EXP:
        raise OverflowError(f"bessel_i({n}, {x}) exceeds the double range")
    return math.exp(log_value)


def _erlang_tail(n: int, x: float) -> tuple[float, float]:
    """Pr(Poisson(x) < n) and the i = n-1 probability mass, both plain doubles.

    The sum starts at its dominant index so no leading underflow can wipe it.
    """
    if x == 0.0:
        return 1.0, 1.0 if n == 1 else 0.0
    istar = min(n - 1, int(x))
    t_star = math.exp(-x + istar * math.log(x) - math.lgamma(istar + 1.0))
    if t_star == 0.0:
        # every other mass is a multiple of this one, so the loops below
        # would only add zeros
        return 0.0, 0.0
    total = t_star
    t = t_star
    i = istar
    while i > 0:
        t *= i / x
        total += t
        if t < total * 1e-20:
            break
        i -= 1
    t = t_star
    for i in range(istar + 1, n):
        t *= x / i
        total += t
    return min(total, 1.0), t


def marcum_q(m: int, a: float, y: float) -> float:
    """Generalized Marcum Q_m(a, y): Pr that a 2m-dof noncentral chi
    variable with noncentrality a^2 exceeds y^2.

    Equivalent to the canonical series e^{-(a^2+y^2)/2} sum (a/y)^k I_k(ay)
    over k >= 1-m, evaluated here through its Poisson-mixture resummation.
    Past the Poisson centre the series stops at the first term below 1e-18
    of a running sum, so its cost is linear in the term count.

    The series runs in blocks of numpy ``accumulate`` calls, which are
    strictly sequential and so round exactly as a scalar loop would: the
    Poisson weights and Erlang masses as running products, the Erlang tail
    and the stopping rule's running sum as running sums.  The first block
    ends at the first index the stopping rule checks, later ones hold
    ``_BLOCK`` terms.  The value returned is one ``math.fsum`` of all the
    terms kept; ``fsum`` is correctly rounded, so the order it reads them
    in cannot change the result, and descending order keeps its list of
    partials short.
    """
    if m != int(m) or m < 1:
        raise ValueError("order m must be a positive integer")
    m = int(m)
    if a < 0.0 or y < 0.0:
        raise ValueError("arguments a and y must be non-negative")
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
    if j0 > jlo:
        # back off from the centre: p *= j / h for j = j0 down to jlo + 1
        back = np.empty(j0 - jlo + 1)
        back[0] = p
        np.divide(np.arange(j0, jlo, -1), h, out=back[1:])
        p = float(np.multiply.accumulate(back, out=back)[-1])
    g, t = _erlang_tail(m + jlo, x)
    if g == 0.0:
        # then t == 0 too, every later t and g stay 0, and so does each term
        return 0.0

    # each block carries p, t, g and the running sum from its left edge j
    # to its right edge: p *= h / i, t *= x / (m + i - 1), g = min(g + t, 1),
    # term = p * g, running += term, for i = j + 1 .. end.  The first block
    # starts at jlo and also keeps jlo's own term.
    checked = j0 + half_width  # the stopping rule reads indices above this
    cap = j0 + 12 * half_width + 4000
    blocks = []
    running = 0.0
    j, lead, end = jlo, 0, checked + 1
    while True:
        steps = np.arange(j + 1, end + 1, dtype=float)
        pt = np.empty((2, len(steps) + 1))
        pt[:, 0] = p, t
        np.divide(h, steps, out=pt[0, 1:])
        steps += m - 1
        np.divide(x, steps, out=pt[1, 1:])
        ps, ts = np.multiply.accumulate(pt, axis=1, out=pt)
        # every t >= 0, so a sum clamped at 1 stays there: clamping after
        # the running sum gives the bits of clamping at every step
        gs = ts.copy()
        gs[0] = g
        np.minimum(np.add.accumulate(gs, out=gs), 1.0, out=gs)
        terms = ps[lead:] * gs[lead:]  # those of j + lead .. end
        sums = np.empty(len(terms) + 1)
        sums[0] = running
        sums[1:] = terms
        sums = np.add.accumulate(sums, out=sums)[1:]
        first = max(0, checked + 1 - (j + lead))
        stop = terms[first:] == 0.0
        stop |= terms[first:] < sums[first:] * 1e-18
        if stop.any():
            blocks.append(terms[:first + stop.argmax() + 1])
            break
        blocks.append(terms)
        if end > cap:
            raise NumericsError(
                f"marcum_q failed to converge (m={m}, a={a}, y={y})")
        p, t, g, running = ps[-1], ts[-1], gs[-1], sums[-1]
        j, lead, end = end, 1, min(end + _BLOCK, cap + 1)
    terms = np.concatenate(blocks)
    terms[::-1].sort()
    return min(math.fsum(terms.tolist()), 1.0)
