"""Ground-to-HAP offload link.

Rician MIMO channel sampling, the full-covariance achievable rate,
closed-form CCDF bounds built on the Marcum Q-function with a Monte Carlo
estimate to check them, and the transmission-side energy/latency
quantities the offload planner consumes.  Every link quantity reads the
task length from its workload, through ``WorkloadSpec.bits_per_task``.

The Monte Carlo estimate draws the full-covariance rate from the law of
the Gram matrix H^H H rather than from H itself.  A unitary rotation on
the larger antenna side moves the rank-one line of sight onto one row, so
the Gram matrix is that noncentral row's outer product plus a central
complex Wishart matrix with ``max(tx, rx) - 1`` degrees of freedom, which
the Bartlett decomposition draws as a triangular factor (Bartlett 1933;
Goodman 1963 for the complex case).  The reference draw is
``sample_channel`` and ``channel_rate``: they draw H and take its rate
directly, at the configured mean receive SNR as well, and that sampler is
tested against them.

Each link quantity has one route.  ``spectral_demand`` is the offered bit
rate over the bandwidth, bit/s/Hz, and ``_threshold`` maps it to its
Marcum threshold for both CCDF bounds, the drop probability and the
reliable-rate bisection, which yields its brackets step by step;
``empirical_ccdf`` draws, sorts and counts the Monte Carlo estimate.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ._threads import ordered_map
from .config import ChannelConfig, WorkloadSpec
from .errors import LinkRateError, LinkSaturationWarning
from .specfun import marcum_log_bound, marcum_q

_LN2 = math.log(2.0)
# ln of the Chernoff bounds below which ``drop_probability`` takes a drop
# of exactly 1.0, and ``reliable_brackets`` passes or fails an iterate,
# without the Marcum series
_DEEP_TAIL = -60.0 * _LN2
_SURE = math.log(1e-14)
_UNSURE = math.log1p(-1e-9)

# Airtime share above which the offered traffic saturates the link.
SATURATION = 1.0 + 1e-12

# Monte Carlo draws are taken in chunks of this many rates, one per usable
# CPU at a time; ``empirical_ccdf`` draws chunk ``c`` from the ``c``-th
# child its generator spawns, then sorts and counts it.
MC_CHUNK = 20_000


def sample_channel(ch: ChannelConfig, count: int,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw ``count`` Rician channel matrices, shape (count, rx, tx).

    This is the reference draw of the channel itself; the Monte Carlo
    estimate samples rates through ``sample_rates`` instead.  The
    line-of-sight part is rank one, co-phased, with unit entries, so it
    adds ``los`` to every entry.  The matrices are built in one complex
    array: the real parts take the first normal draw, the imaginary parts
    the second.
    """
    if rng is None:
        rng = np.random.default_rng()
    shape = (count, ch.rx_antennas, ch.tx_antennas)
    h = np.empty(shape, dtype=complex)
    h.real = rng.standard_normal(shape)
    h.imag = rng.standard_normal(shape)
    zeta = ch.rician_factor
    h *= math.sqrt(0.5)
    h *= math.sqrt(1.0 / (zeta + 1.0))
    h += math.sqrt(zeta / (zeta + 1.0))
    h *= math.sqrt(ch.ref_gain) / ch.link_distance
    return h


def channel_rate(ch: ChannelConfig, h: np.ndarray) -> np.ndarray:
    """Full-covariance achievable rate B*log2 det(I + (P/noise) h^H h).

    P/noise is ``ChannelConfig.power_over_noise``, so the rate reads the
    configured mean receive SNR, as the closed-form bounds and
    ``sample_rates`` do.
    This is the quantity the closed-form CCDF bounds sandwich; the
    determinant runs over the (small) transmit dimension.  Together with
    ``sample_channel`` it is the reference rate of ``sample_rates``.
    """
    gram = np.swapaxes(h, -1, -2).conj() @ h
    scaled = ch.power_over_noise() * gram
    eye = np.eye(ch.tx_antennas)
    det = np.linalg.det(eye + scaled).real
    det = np.maximum(det, 1.0)
    return ch.bandwidth_hz * np.log2(det)


def reference_rate(ch: ChannelConfig) -> float:
    """Offload rate on the unfaded line-of-sight channel with MRT, bit/s."""
    array_snr = ch.tx_antennas * ch.rx_antennas * ch.avg_rx_snr
    rate = ch.bandwidth_hz * math.log2(1.0 + array_snr)
    if rate <= 0.0:
        raise LinkRateError("link reference rate is not positive")
    return rate


def _non_negative(name: str, value: float | np.ndarray) -> None:
    """Refuse a negative value, or an ndarray holding one."""
    if np.any(value < 0):
        raise ValueError(f"{name} must be non-negative")


def offered_bit_rate(workload: WorkloadSpec,
                     arrival_rate: float | np.ndarray) -> float | np.ndarray:
    """Bits per second the offloaded stream presents to the link;
    elementwise over an ndarray of arrival rates."""
    _non_negative("arrival_rate", arrival_rate)
    return arrival_rate * workload.bits_per_task()


def spectral_demand(ch: ChannelConfig, workload: WorkloadSpec,
                    arrival_rate: float | np.ndarray) -> float | np.ndarray:
    """Rate argument of the outage CCDF for a given arrival rate, or for
    each of an ndarray of them: the offered bits/s over the bandwidth,
    bit/s/Hz."""
    return offered_bit_rate(workload, arrival_rate) / ch.bandwidth_hz


def _bound_params(ch: ChannelConfig) -> tuple[int, float, float]:
    orders = ch.tx_antennas * ch.rx_antennas
    noncentral = math.sqrt(2.0 * ch.rician_factor * orders)
    scale = (1.0 + ch.rician_factor) / ch.avg_rx_snr
    return orders, noncentral, scale


def _threshold(demand: float, rank: int, scale: float) -> float:
    """Marcum threshold y of a spectral demand spread over ``rank``
    virtual streams.

    A demand that is not positive gives y = 0, where Q = 1, and one past
    700 / ln 2 bit/s/Hz per stream gives y = inf, where Q = 0; neither
    needs the series.  A NaN gives a NaN, which goes to the series.
    """
    if demand <= 0.0:
        return 0.0
    if (demand / rank) * _LN2 > 700.0:
        return math.inf
    return math.sqrt(2.0 * scale * (rank * math.expm1(demand * _LN2 / rank)))


def _bound(ch: ChannelConfig, demand: float | np.ndarray,
           rank: int) -> float | np.ndarray:
    """Marcum-Q bound on Pr(link rate > demand * bandwidth) with the
    demand spread over ``rank`` virtual streams; elementwise over an
    ndarray of demands, and a float for a scalar one."""
    demands = np.asarray(demand, dtype=float)
    orders, noncentral, scale = _bound_params(ch)
    ys = np.array([_threshold(d, rank, scale)
                   for d in demands.ravel().tolist()])
    values = marcum_q(orders, noncentral, ys).reshape(demands.shape)
    if isinstance(demand, np.ndarray) or values.ndim:
        return values
    return float(values)


def ccdf_lower(ch: ChannelConfig,
               demand: float | np.ndarray) -> float | np.ndarray:
    """Lower bound on Pr(link rate > demand * bandwidth); elementwise over
    an ndarray of demands."""
    return _bound(ch, demand, 1)


def ccdf_upper(ch: ChannelConfig,
               demand: float | np.ndarray) -> float | np.ndarray:
    """Upper bound on Pr(link rate > demand * bandwidth); elementwise over
    an ndarray of demands.

    Uses the geometric-mean relaxation of the rate determinant over its
    rank (the smaller antenna count), which spreads the demand across that
    many virtual streams.
    """
    return _bound(ch, demand, min(ch.tx_antennas, ch.rx_antennas))


def sample_rates(ch: ChannelConfig, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` full-covariance rates B*log2 det(I + (P/noise) H^H H)
    of Rician channels H, bit/s, from the law of the Gram matrix.

    The SNR s is ``ch.avg_rx_snr``, the one the closed-form bounds read:
    P/noise times the path gain ref_gain/distance^2 when the config derives
    it.  With m = min(tx, rx) and n = max(tx, rx), det(I + s G^H G) for
    the unit-power Rician channel G equals
    det(I + s/(zeta + 1) F F^H) for an m x (m + 1) factor F (Bartlett 1933;
    Goodman 1963): its first m columns are the lower-triangular Bartlett
    factor of a central complex Wishart matrix with n - 1 degrees of
    freedom (diagonal k the root of a Gamma(n - 1 - k) draw, which is 0
    when m = n and k = m - 1; unit complex normals below it), and its last
    column is the line-of-sight row rotated onto one axis, unit complex
    normals plus sqrt(zeta * n).  The determinant is taken by elimination
    without pivoting, safe on a Hermitian positive definite matrix.
    """
    m = min(ch.tx_antennas, ch.rx_antennas)
    n = max(ch.tx_antennas, ch.rx_antennas)
    zeta = ch.rician_factor
    below = np.tril_indices(m, -1)
    normals = rng.standard_normal((2, len(below[0]) + m, count))
    normals *= math.sqrt(0.5)
    factor = np.zeros((m, m + 1, count), dtype=complex)
    factor[below] = normals[0, m:] + 1j * normals[1, m:]
    factor[:, m] = normals[0, :m] + 1j * normals[1, :m]
    factor[:, m] += math.sqrt(zeta * n)
    shapes = np.arange(n - 1.0, n - 1.0 - m, -1.0)
    diag = np.arange(m)
    factor[diag, diag] = np.sqrt(rng.standard_gamma(shapes[:, None],
                                                    size=(m, count)))

    scale = ch.avg_rx_snr / (zeta + 1.0)
    # lower triangle of I + scale * F F^H, one array per entry
    a = [[scale * (factor[i] * factor[j].conj()).sum(axis=0)
          for j in range(i + 1)] for i in range(m)]
    for i in range(m):
        a[i][i] = a[i][i].real + 1.0
    det = np.ones(count)
    for k in range(m):
        pivot = a[k][k].real
        det *= pivot
        for i in range(k + 1, m):
            ratio = a[i][k] / pivot
            for j in range(k + 1, i + 1):
                a[i][j] = a[i][j] - ratio * a[j][k].conj()
    return ch.bandwidth_hz * np.log2(np.maximum(det, 1.0))


def empirical_ccdf(ch: ChannelConfig, demands, samples: int = 100_000,
                   rng: np.random.Generator | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo CCDF of the full-covariance rate at each spectral demand.

    The rates are drawn by ``sample_rates`` from the law of the Gram
    matrix H^H H (Bartlett 1933; Goodman 1963), not from the channel
    itself, in chunks of ``MC_CHUNK``: chunk ``c`` draws from
    ``rng.spawn(n_chunks)[c]``, which for ``rng = default_rng(seed)`` is
    the generator of ``SeedSequence(seed, spawn_key=(c,))``.  Each chunk
    is sorted once and counts, per demand, the rates strictly above
    ``demand * bandwidth``; every demand is counted against the same
    draws.  The chunks run through ``ordered_map``, and their counts are
    summed in chunk order, exactly.  Returns the exceedance probability
    and its standard error over ``samples`` draws; the error takes a
    half-count continuity adjustment where a count is 0 or ``samples``,
    so it never collapses to zero.
    """
    if rng is None:
        rng = np.random.default_rng()
    demands = np.atleast_1d(np.asarray(demands, dtype=float))
    thresholds = demands * ch.bandwidth_hz
    starts = range(0, samples, MC_CHUNK)

    def count(chunk):
        done, chunk_rng = chunk
        rates = np.sort(sample_rates(ch, min(MC_CHUNK, samples - done),
                                     chunk_rng))
        return len(rates) - np.searchsorted(rates, thresholds, side="right")

    counts = sum(ordered_map(count, zip(starts, rng.spawn(len(starts)))),
                 np.zeros(demands.shape, dtype=np.int64))
    prob = counts / samples
    edge = (counts == 0) | (counts == samples)
    adjusted = np.where(edge, (counts + 0.5) / (samples + 1.0), prob)
    return prob, np.sqrt(adjusted * (1.0 - adjusted) / samples)


def drop_probability(ch: ChannelConfig, workload: WorkloadSpec,
                     arrival_rate: float | np.ndarray) -> float | np.ndarray:
    """Conservative per-task drop probability: one minus the CCDF lower
    bound; elementwise over an ndarray of arrival rates, and a float for
    a scalar one.

    Each distinct rate is evaluated once.  A rate whose threshold the
    Chernoff bound ``specfun.marcum_log_bound`` puts Q below 2^-60 is
    settled at exactly 1.0 without the Marcum series: the series then
    returns less than 2^-54 (it cannot overshoot the true Q 2^6-fold),
    and one minus that rounds to 1.0.  The other thresholds share one
    ``marcum_q`` call, so every drop keeps the bits of
    ``1 - ccdf_lower``.
    """
    demand = spectral_demand(ch, workload, arrival_rate)
    distinct, inverse = np.unique(demand, return_inverse=True)
    orders, noncentral, scale = _bound_params(ch)
    ys = np.array([_threshold(d, 1, scale) for d in distinct.tolist()])
    deep = (ys * ys > noncentral * noncentral + 2 * orders) & (ys < math.inf)
    deep[deep] = marcum_log_bound(orders, noncentral, ys[deep]) < _DEEP_TAIL
    drops = np.ones(distinct.shape)
    drops[~deep] = 1.0 - marcum_q(orders, noncentral, ys[~deep])
    drops = drops[inverse].reshape(np.shape(demand))
    return drops if isinstance(demand, np.ndarray) else float(drops)


def reliable_brackets(ch: ChannelConfig, workload: WorkloadSpec):
    """The reliable-rate bisection's brackets (lo, hi), task/s: one once
    doubling finds a failing ``hi``, then one after each step.

    It bisects the test that a rate's CCDF lower bound stays at or above
    1 - 1e-12.  A step only raises ``lo`` or lowers ``hi``, so the last
    ``lo`` lies in every bracket even where the test is not monotone.  An
    iterate that the Chernoff bound ``specfun.marcum_log_bound`` settles
    skips the Marcum series and keeps the series' verdict, so every bracket
    keeps its bits: it passes where the bound puts 1 - Q at or below 1e-14,
    100 times below the test, which the series, noisy by about 1e-13 near
    Q = 1, passes too, and fails past the mean, where the bound puts Q
    below 1 - 1e-9.
    """
    orders, noncentral, scale = _bound_params(ch)
    mean = noncentral * noncentral + 2 * orders

    def ok(lam: float) -> bool:
        y = _threshold(spectral_demand(ch, workload, lam), 1, scale)
        if y in (0.0, math.inf):
            # the lower bound is 1 at no demand, 0 past the threshold cap
            return y == 0.0
        bound = marcum_log_bound(orders, noncentral, y)
        if y * y < mean and bound <= _SURE:
            return True
        if y * y > mean and bound < _UNSURE:
            return False
        return marcum_q(orders, noncentral, y) >= 1.0 - 1e-12

    hi = 1.0
    grow = 0
    while ok(hi):
        hi *= 2.0
        grow += 1
        if grow > 80:
            raise LinkRateError("CCDF lower bound never drops below the floor")
    lo = 0.0
    yield lo, hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
        yield lo, hi
        if hi - lo <= 1e-12 * max(1.0, hi):
            break


def max_reliable_rate(ch: ChannelConfig, workload: WorkloadSpec) -> float:
    """Largest offload arrival rate whose CCDF lower bound stays at or
    above 1 - 1e-12: the last ``lo`` of ``reliable_brackets``."""
    return list(reliable_brackets(ch, workload))[-1][0]


def airtime_fraction(ch: ChannelConfig, workload: WorkloadSpec,
                     arrival_rate: float | np.ndarray) -> float | np.ndarray:
    """Share of the window the transmitter must be on air, overhead
    included; elementwise over an ndarray of arrival rates."""
    rate = reference_rate(ch)
    bits = workload.overhead_ratio * offered_bit_rate(workload, arrival_rate)
    return bits / rate


def link_energy(ch: ChannelConfig, workload: WorkloadSpec,
                arrival_rate: float | np.ndarray,
                window: float | np.ndarray) -> tuple:
    """Transmit energy over ``window`` seconds of offloading, J, and the
    airtime share it takes; elementwise over ndarrays of arrival rates and
    windows.

    Past ``SATURATION`` the link cannot carry the offered traffic, and the
    figure assumes the backlog is still sent; ``transmission_energy``
    warns there, this function does not.
    """
    _non_negative("window", window)
    duty = airtime_fraction(ch, workload, arrival_rate)
    return ch.tx_power * duty * window, duty


def transmission_energy(ch: ChannelConfig, workload: WorkloadSpec,
                        arrival_rate: float, window: float) -> float:
    """Transmit energy over ``window`` seconds of offloading, J; a
    ``LinkSaturationWarning`` past ``SATURATION``."""
    energy, duty = link_energy(ch, workload, arrival_rate, window)
    warn_if_saturated(duty)
    return energy


def warn_if_saturated(duty: float) -> None:
    """Warn the caller's caller when the airtime ``duty`` saturates the link."""
    if duty > SATURATION:
        warnings.warn(
            f"offered traffic needs {duty:.3f}x the link capacity; "
            "the energy figure assumes the backlog is still sent",
            LinkSaturationWarning, stacklevel=3,
        )


def round_trip_time(ch: ChannelConfig, workload: WorkloadSpec,
                    arrival_rate: float) -> float:
    """Two-way transport delay of one second of offered traffic, s."""
    rate = reference_rate(ch)
    return 2.0 * offered_bit_rate(workload, arrival_rate) / rate
