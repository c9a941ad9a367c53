"""The generalized Marcum Q-function and a Chernoff bound on its tails.

``marcum_q`` is evaluated from scratch: the canonical Bessel series is
resummed as a Poisson mixture of Erlang tails (Gil, Segura & Temme, ACM
TOMS 2014), which keeps every partial sum positive and cancellation-free.
Relative accuracy is about 1e-12 in the bulk; results within a few hundred
log-units of the double-precision floor degrade gracefully to absolute
accuracy and finally to an exact zero.

``marcum_log_bound`` is the closed-form Chernoff bound on either tail of
the same law (Chernoff 1952; Simon & Alouini, IEEE Trans. Commun. 2000).
It runs no series, so a caller can settle where Q or 1 - Q is so small
that the rounded result no longer depends on it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericsError

_BLOCK = 256  # Marcum series terms per block past the first


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
    for i in range(istar, 0, -1):
        t *= i / x
        total += t
        if t < total * 1e-20:
            break
    t = t_star
    for i in range(istar + 1, n):
        t *= x / i
        total += t
    return min(total, 1.0), t


def marcum_q(m: int, a: float, y: float | np.ndarray) -> float | np.ndarray:
    """Generalized Marcum Q_m(a, y): Pr that a 2m-dof noncentral chi
    variable with noncentrality a^2 exceeds y^2.

    Equivalent to the canonical series e^{-(a^2+y^2)/2} sum (a/y)^k I_k(ay)
    over k >= 1-m, evaluated here through its Poisson-mixture resummation.
    Past the Poisson centre the series stops at the first term below 1e-18
    of a running sum, so its cost is linear in the term count.

    ``y`` may be an ndarray of thresholds sharing m and a; the result is
    then an array of the same shape.  A scalar ``y`` is the one-element
    call and returns a float.  The mixture reads y only through the
    Erlang tails (Gil, Segura & Temme, ACM TOMS 2014), so the Poisson
    weights are computed once for all thresholds, and ``_poisson_weights``
    keeps them for the last few values of a: the reliable-rate bisection
    and the outage rows call this many times on one link.

    The series runs in blocks of numpy ``accumulate`` calls, which are
    strictly sequential and so round exactly as a scalar loop would: the
    Poisson weights as one running product, each threshold's Erlang masses
    as a running product and its Erlang tail and the stopping rule's
    running sum as running sums along its own row.  The first block ends
    at the first index the stopping rule checks, later ones hold
    ``_BLOCK`` terms and carry only the thresholds still running.  Each
    threshold's value is one ``math.fsum`` of its own kept terms;
    ``fsum`` is correctly rounded, so the order it reads them in cannot
    change the result, and descending order keeps its list of partials
    short.
    """
    if m != int(m) or m < 1:
        raise ValueError("order m must be a positive integer")
    m = int(m)
    ys = np.asarray(y, dtype=float)
    if a < 0.0 or (ys < 0.0).any():
        raise ValueError("arguments a and y must be non-negative")
    values = _marcum_q(m, a, ys.ravel().tolist())
    if isinstance(y, np.ndarray) or ys.ndim:
        return np.array(values).reshape(ys.shape)
    return values[0]


def marcum_log_bound(m: int, a: float, y: float | np.ndarray):
    """ln B, the Chernoff bound on the tail of X ~ chi'^2(2m, a^2) beyond
    s = y^2; elementwise over an ndarray ``y`` of positive thresholds.

    Where s > a^2 + 2m, the mean of X, B bounds Q_m(a, y) = Pr(X > s);
    where s < a^2 + 2m, it bounds 1 - Q_m(a, y) = Pr(X < s).  It is
    exp(-t s) E[exp(t X)] at the minimizing t = (1 - 1/u) / 2, with
    u = (sqrt(m^2 + a^2 s) - m) / a^2, taken here in the form
    s / (m + sqrt(m^2 + a^2 s)) that has no cancellation and holds at
    a = 0: ln B = -t s + a^2 t u + m ln u.
    """
    lam = a * a
    s = y * y
    u = s / (m + np.sqrt(m * m + lam * s))
    t = 0.5 * (1.0 - 1.0 / u)
    return -t * s + lam * t * u + m * np.log(u)


@lru_cache(maxsize=64)
def _poisson_weights(h: float) -> tuple[int, int, int, np.ndarray]:
    """The Poisson(h) side of the mixture, which no threshold changes:
    the centre j0, the half width, the first index jlo = max(0, j0 -
    half_width) and the weights from jlo to the first index the stopping
    rule checks, j0 + half_width + 1, as a read-only array.

    The weight at the centre is taken directly, the others by running
    products from it: p *= j / h backwards to jlo, then p *= h / j
    forwards, each one ``accumulate`` that rounds as a scalar loop would.
    """
    j0 = int(h)
    p = math.exp(-h + j0 * math.log(h) - math.lgamma(j0 + 1.0))
    half_width = int(12.0 * math.sqrt(h)) + 25
    jlo = max(0, j0 - half_width)
    if j0 > jlo:
        back = np.empty(j0 - jlo + 1)
        back[0] = p
        np.divide(np.arange(j0, jlo, -1), h, out=back[1:])
        p = float(np.multiply.accumulate(back, out=back)[-1])
    ps = np.empty(j0 + half_width + 2 - jlo)
    ps[0] = p
    np.divide(h, np.arange(jlo + 1, j0 + half_width + 2, dtype=float),
              out=ps[1:])
    np.multiply.accumulate(ps, out=ps)
    ps.flags.writeable = False
    return j0, half_width, jlo, ps


def _marcum_q(m: int, a: float, ys: list) -> list[float]:
    """``marcum_q(m, a, y)`` of every y in ``ys``, m and a validated."""
    # Q is 1 at y = 0 and 0 at y = inf, its limit; neither needs the series
    values = [0.0 if y == math.inf else 1.0 for y in ys]
    rows = [i for i, y in enumerate(ys) if y != 0.0 and y != math.inf]
    if not rows:
        return values
    h = 0.5 * a * a
    if h == 0.0:
        for i in rows:
            values[i] = _erlang_tail(m, 0.5 * ys[i] * ys[i])[0]
        return values

    j0, half_width, jlo, ps = _poisson_weights(h)
    live, x, t, g = [], [], [], []
    for i in rows:
        xi = 0.5 * ys[i] * ys[i]
        gi, ti = _erlang_tail(m + jlo, xi)
        if gi == 0.0:
            # then t == 0 too, every later t and g stay 0, and so does
            # each term
            values[i] = 0.0
        else:
            live.append(i)
            x.append(xi)
            t.append(ti)
            g.append(gi)
    if not live:
        return values

    # each block carries p, and for every live threshold t, g and the
    # running sum, from its left edge j to its right edge:
    # p *= h / i, t *= x / (m + i - 1), g = min(g + t, 1), term = p * g,
    # running += term, for i = j + 1 .. end.  The first block starts at
    # jlo, keeps jlo's own term and takes its weights from
    # ``_poisson_weights``.  Each threshold runs on its own row of 2-D
    # arrays.
    checked = j0 + half_width  # the stopping rule reads indices above this
    cap = j0 + 12 * half_width + 4000
    x = np.array(x)[:, None]
    t, g, running = np.array(t), np.array(g), np.zeros(len(live))
    kept = [[] for _ in live]
    j, lead, end = jlo, 0, checked + 1
    while True:
        steps = np.arange(j + 1, end + 1, dtype=float)
        if lead:
            p = ps[-1]
            ps = np.empty(len(steps) + 1)
            ps[0] = p
            np.divide(h, steps, out=ps[1:])
            np.multiply.accumulate(ps, out=ps)
        steps += m - 1
        ts = np.empty((len(t), len(steps) + 1))
        ts[:, 0] = t
        np.divide(x, steps, out=ts[:, 1:])
        np.multiply.accumulate(ts, axis=1, out=ts)
        # every t >= 0, so a sum clamped at 1 stays there: clamping after
        # the running sum gives the bits of clamping at every step
        gs = ts.copy()
        gs[:, 0] = g
        np.minimum(np.add.accumulate(gs, axis=1, out=gs), 1.0, out=gs)
        terms = ps[lead:] * gs[:, lead:]  # those of j + lead .. end
        sums = np.empty((len(t), terms.shape[1] + 1))
        sums[:, 0] = running
        sums[:, 1:] = terms
        sums = np.add.accumulate(sums, axis=1, out=sums)[:, 1:]
        first = max(0, checked + 1 - (j + lead))
        stop = terms[:, first:] == 0.0
        stop |= terms[:, first:] < sums[:, first:] * 1e-18
        hit = stop.any(axis=1).tolist()
        last = (first + stop.argmax(axis=1)).tolist()
        going = []
        for r, row in enumerate(terms):
            if hit[r]:
                kept[r].append(row[:last[r] + 1])
                series = (kept[r][0] if len(kept[r]) == 1
                          else np.concatenate(kept[r]))
                series[::-1].sort()
                values[live[r]] = min(math.fsum(series.tolist()), 1.0)
            else:
                kept[r].append(row)
                going.append(r)
        if not going:
            return values
        if end > cap:
            raise NumericsError(f"marcum_q failed to converge "
                                f"(m={m}, a={a}, y={ys[live[going[0]]]})")
        x, t, g, running = (x[going], ts[going, -1], gs[going, -1],
                            sums[going, -1])
        live = [live[r] for r in going]
        kept = [kept[r] for r in going]
        j, lead, end = end, 1, min(end + _BLOCK, cap + 1)
