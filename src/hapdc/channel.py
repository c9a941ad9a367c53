"""Ground-to-HAP offload link.

Rician MIMO channel sampling, achievable-rate laws, closed-form CCDF bounds
built on the Marcum Q-function with a Monte Carlo estimate to check them,
and the transmission-side energy/latency quantities the offload planner
consumes.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .config import ChannelConfig, WorkloadSpec
from .errors import LinkRateError, LinkSaturationWarning
from .specfun import marcum_q

_LN2 = math.log(2.0)


def mean_channel(ch: ChannelConfig) -> np.ndarray:
    """Deterministic line-of-sight component: rank-1, co-phased, unit entries."""
    return np.ones((ch.rx_antennas, ch.tx_antennas), dtype=complex)


def sample_channel(ch: ChannelConfig, count: int,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw ``count`` Rician channel matrices, shape (count, rx, tx)."""
    if rng is None:
        rng = np.random.default_rng()
    ch = ch.resolved()
    shape = (count, ch.rx_antennas, ch.tx_antennas)
    scatter = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    scatter *= math.sqrt(0.5)
    zeta = ch.rician_factor
    gain = math.sqrt(ch.ref_gain) / ch.link_distance
    los = math.sqrt(zeta / (zeta + 1.0))
    nlos = math.sqrt(1.0 / (zeta + 1.0))
    return gain * (los * mean_channel(ch) + nlos * scatter)


def mrt_precoder(ch: ChannelConfig) -> np.ndarray:
    """Transmit vector matched to the line-of-sight direction, |q|^2 = tx_power."""
    q = np.ones(ch.tx_antennas, dtype=complex)
    return q * math.sqrt(ch.tx_power / ch.tx_antennas)


def beamformed_rate(ch: ChannelConfig, h: np.ndarray,
                    precoder: np.ndarray | None = None) -> np.ndarray:
    """Single-stream rate B*log2(1 + |h q|^2 / noise) for channel(s) ``h``."""
    ch = ch.resolved()
    if precoder is None:
        precoder = mrt_precoder(ch)
    received = h @ precoder
    snr = np.sum(np.abs(received) ** 2, axis=-1) / ch.noise_power
    return ch.bandwidth_hz * np.log2(1.0 + snr)


def channel_rate(ch: ChannelConfig, h: np.ndarray) -> np.ndarray:
    """Full-covariance achievable rate B*log2 det(I + (P/noise) h^H h).

    This is the quantity the closed-form CCDF bounds sandwich; the
    determinant runs over the (small) transmit dimension.
    """
    ch = ch.resolved()
    gram = np.swapaxes(h, -1, -2).conj() @ h
    scaled = (ch.tx_power / ch.noise_power) * gram
    eye = np.eye(ch.tx_antennas)
    det = np.linalg.det(eye + scaled).real
    det = np.maximum(det, 1.0)
    return ch.bandwidth_hz * np.log2(det)


def reference_rate(ch: ChannelConfig) -> float:
    """Offload rate on the unfaded line-of-sight channel with MRT, bit/s."""
    ch = ch.resolved()
    array_snr = ch.tx_antennas * ch.rx_antennas * ch.avg_rx_snr
    return ch.bandwidth_hz * math.log2(1.0 + array_snr)


def offered_bit_rate(workload: WorkloadSpec, arrival_rate: float,
                     task_len: float | None = None) -> float:
    """Bits per second the offloaded stream presents to the link."""
    if arrival_rate < 0:
        raise ValueError("arrival_rate must be non-negative")
    return arrival_rate * workload.bits_per_task(task_len)


def spectral_demand(ch: ChannelConfig, workload: WorkloadSpec,
                    arrival_rate: float, task_len: float | None = None) -> float:
    """Rate argument of the outage CCDF for a given arrival rate.

    The default mapping converts offered bits/s to bits/s/Hz; the
    ``identity`` mapping feeds the arrival rate through unchanged.
    """
    if ch.demand_mapping == "identity":
        if arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        return float(arrival_rate)
    return offered_bit_rate(workload, arrival_rate, task_len) / ch.bandwidth_hz


def _bound_params(ch: ChannelConfig) -> tuple[int, float, float]:
    ch = ch.resolved()
    orders = ch.tx_antennas * ch.rx_antennas
    noncentral = math.sqrt(2.0 * ch.rician_factor * orders)
    scale = (1.0 + ch.rician_factor) / ch.avg_rx_snr
    return orders, noncentral, scale


def ccdf_lower(ch: ChannelConfig, demand: float) -> float:
    """Lower bound on Pr(link rate > demand * bandwidth)."""
    if demand <= 0.0:
        return 1.0
    orders, noncentral, scale = _bound_params(ch)
    if demand * _LN2 > 700.0:
        return 0.0
    threshold = math.expm1(demand * _LN2)
    return marcum_q(orders, noncentral, math.sqrt(2.0 * scale * threshold))


def ccdf_upper(ch: ChannelConfig, demand: float) -> float:
    """Upper bound on Pr(link rate > demand * bandwidth).

    Uses the geometric-mean relaxation of the rate determinant over its
    rank (the smaller antenna count), which spreads the demand across that
    many virtual streams.
    """
    if demand <= 0.0:
        return 1.0
    orders, noncentral, scale = _bound_params(ch)
    rank = min(ch.tx_antennas, ch.rx_antennas)
    if (demand / rank) * _LN2 > 700.0:
        return 0.0
    threshold = rank * math.expm1(demand * _LN2 / rank)
    return marcum_q(orders, noncentral, math.sqrt(2.0 * scale * threshold))


def exceedances(ch: ChannelConfig, demands: np.ndarray, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """Count, per spectral demand, how many of ``count`` channel draws
    from ``rng`` have a full-covariance rate above it.

    Callers that split their samples into batches (``empirical_ccdf``, the
    chunk-keyed outage sweep) add up the counts and hand the total to
    ``ccdf_estimate``.
    """
    ch = ch.resolved()
    thresholds = demands * ch.bandwidth_hz
    rates = channel_rate(ch, sample_channel(ch, count, rng))
    return (rates[None, :] > thresholds[:, None]).sum(axis=1)


def ccdf_estimate(counts: np.ndarray, samples: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Exceedance probability and its standard error from ``counts`` hits
    out of ``samples`` draws.

    The standard error uses a half-count continuity adjustment when a
    count is 0 or ``samples``, so the error bar never collapses to zero.
    """
    prob = counts / samples
    edge = (counts == 0) | (counts == samples)
    adjusted = np.where(edge, (counts + 0.5) / (samples + 1.0), prob)
    return prob, np.sqrt(adjusted * (1.0 - adjusted) / samples)


def empirical_ccdf(ch: ChannelConfig, demands, samples: int = 100_000,
                   rng: np.random.Generator | None = None,
                   batch: int = 20_000) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo CCDF of the full-covariance rate at each spectral demand.

    Returns the (probability, standard error) arrays of ``ccdf_estimate``
    over ``samples`` draws taken in batches of ``batch``.
    """
    if rng is None:
        rng = np.random.default_rng()
    demands = np.atleast_1d(np.asarray(demands, dtype=float))
    counts = np.zeros(demands.shape, dtype=np.int64)
    for done in range(0, samples, batch):
        counts += exceedances(ch, demands, min(batch, samples - done), rng)
    return ccdf_estimate(counts, samples)


def drop_probability(ch: ChannelConfig, workload: WorkloadSpec,
                     arrival_rate: float, task_len: float | None = None) -> float:
    """Conservative per-task drop probability: one minus the CCDF lower bound."""
    return 1.0 - ccdf_lower(ch, spectral_demand(ch, workload, arrival_rate, task_len))


def max_reliable_rate(ch: ChannelConfig, workload: WorkloadSpec,
                      task_len: float | None = None,
                      ccdf_floor: float = 1.0 - 1e-12) -> float:
    """Largest offload arrival rate whose CCDF lower bound stays above the floor.

    Bisection on the monotone lower bound; this is where link drops stop
    being negligible.
    """
    if not 0.0 < ccdf_floor < 1.0:
        raise ValueError("ccdf_floor must be in (0, 1)")

    def ok(lam: float) -> bool:
        return ccdf_lower(ch, spectral_demand(ch, workload, lam, task_len)) >= ccdf_floor

    hi = 1.0
    grow = 0
    while ok(hi):
        hi *= 2.0
        grow += 1
        if grow > 80:
            raise LinkRateError("CCDF lower bound never drops below the floor")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return lo


def airtime_fraction(ch: ChannelConfig, workload: WorkloadSpec,
                     arrival_rate: float, task_len: float | None = None) -> float:
    """Share of the window the transmitter must be on air, overhead included."""
    rate = reference_rate(ch)
    if rate <= 0.0:
        raise LinkRateError("link reference rate is not positive")
    bits = workload.overhead_ratio * offered_bit_rate(workload, arrival_rate, task_len)
    return bits / rate


def transmission_energy(ch: ChannelConfig, workload: WorkloadSpec,
                        arrival_rate: float, window: float,
                        task_len: float | None = None) -> float:
    """Transmit energy over ``window`` seconds of offloading, J."""
    if window < 0:
        raise ValueError("window must be non-negative")
    ch = ch.resolved()
    duty = airtime_fraction(ch, workload, arrival_rate, task_len)
    if duty > 1.0 + 1e-12:
        warnings.warn(
            f"offered traffic needs {duty:.3f}x the link capacity; "
            "the energy figure assumes the backlog is still sent",
            LinkSaturationWarning, stacklevel=2,
        )
    return ch.tx_power * duty * window


def round_trip_time(ch: ChannelConfig, workload: WorkloadSpec,
                    arrival_rate: float, task_len: float | None = None) -> float:
    """Two-way transport delay of one second of offered traffic, s."""
    rate = reference_rate(ch)
    if rate <= 0.0:
        raise LinkRateError("link reference rate is not positive")
    return 2.0 * offered_bit_rate(workload, arrival_rate, task_len) / rate
