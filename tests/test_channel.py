"""Rician MIMO link: sampling statistics, rate laws, CCDF bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapdc import channel, specfun
from hapdc.config import ChannelConfig, WorkloadSpec
from hapdc.errors import LinkRateError, LinkSaturationWarning


def test_resolved_noise_and_snr():
    ch = ChannelConfig()
    assert math.isclose(ch.noise_power, 3.98107e-13, rel_tol=1e-4)
    assert math.isclose(ch.avg_rx_snr, 0.062797, rel_tol=1e-3)


def test_reference_rate_default_link():
    assert math.isclose(channel.reference_rate(ChannelConfig()),
                        1.589528e8, rel_tol=1e-5)


def test_sample_entry_power_rayleigh():
    """With no line-of-sight the entries are zero-mean with power gain^2."""
    ch = ChannelConfig(rician_factor=0.0)
    rng = np.random.default_rng(1)
    h = channel.sample_channel(ch, 20_000, rng)
    gain2 = ch.ref_gain / ch.link_distance**2
    power = np.mean(np.abs(h) ** 2)
    assert abs(power / gain2 - 1.0) < 0.02
    assert abs(np.mean(h)) < 3.0 * math.sqrt(gain2 / h.size)


def test_sample_entry_power_any_factor():
    # the Rician split is power preserving for every factor
    rng = np.random.default_rng(2)
    for zeta in (0.5, 5.0, 20.0):
        ch = ChannelConfig(rician_factor=zeta)
        h = channel.sample_channel(ch, 10_000, rng)
        gain2 = ch.ref_gain / ch.link_distance**2
        assert abs(np.mean(np.abs(h) ** 2) / gain2 - 1.0) < 0.03


def _sample_channel_out_of_place(ch, count, rng):
    """The draw as one expression with its temporaries: LOS matrix plus
    scaled scatter, then the gain.  Kept as the reference of the in-place
    build."""
    shape = (count, ch.rx_antennas, ch.tx_antennas)
    scatter = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    scatter *= math.sqrt(0.5)
    zeta = ch.rician_factor
    gain = math.sqrt(ch.ref_gain) / ch.link_distance
    los = math.sqrt(zeta / (zeta + 1.0))
    nlos = math.sqrt(1.0 / (zeta + 1.0))
    mean = np.ones((ch.rx_antennas, ch.tx_antennas), dtype=complex)
    return gain * (los * mean + nlos * scatter)


@pytest.mark.parametrize("zeta", [0.0, 10.0])
@pytest.mark.parametrize("antennas", [1, 2, 3, 4])
def test_sample_channel_bitwise_equal_to_out_of_place(antennas, zeta):
    for tx, rx in ((antennas, antennas), (antennas, 16), (2, antennas)):
        ch = ChannelConfig(tx_antennas=tx, rx_antennas=rx, rician_factor=zeta)
        got = channel.sample_channel(ch, 3000, np.random.default_rng(antennas))
        want = _sample_channel_out_of_place(ch, 3000,
                                            np.random.default_rng(antennas))
        assert got.shape == want.shape == (3000, rx, tx)
        # compared as bit patterns, so signed zeros count too
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_strong_los_approaches_reference_rate():
    ch = ChannelConfig(rician_factor=1e12)
    rng = np.random.default_rng(3)
    h = channel.sample_channel(ch, 4, rng)
    ref = channel.reference_rate(ch)
    for r in channel.channel_rate(ch, h):
        assert math.isclose(r, ref, rel_tol=1e-4)


def test_sampling_is_seed_deterministic():
    ch = ChannelConfig()
    a = channel.sample_channel(ch, 16, np.random.default_rng(77))
    b = channel.sample_channel(ch, 16, np.random.default_rng(77))
    assert np.array_equal(a, b)


def test_channel_rate_against_slogdet():
    ch = ChannelConfig()
    rng = np.random.default_rng(4)
    h = channel.sample_channel(ch, 8, rng)
    got = channel.channel_rate(ch, h)
    for k in range(8):
        gram = h[k].conj().T @ h[k]
        m = np.eye(ch.tx_antennas) + (ch.tx_power / ch.noise_power) * gram
        sign, logdet = np.linalg.slogdet(m)
        want = ch.bandwidth_hz * max(logdet, 0.0) / math.log(2.0)
        assert sign > 0
        assert math.isclose(got[k], want, rel_tol=1e-12)


def test_single_antenna_det_equals_beamformed():
    ch = ChannelConfig(tx_antennas=1)
    rng = np.random.default_rng(5)
    h = channel.sample_channel(ch, 32, rng)
    a = channel.channel_rate(ch, h)
    # one stream: B log2(1 + (P/N) |h|^2)
    gain = np.sum(np.abs(h[:, :, 0]) ** 2, axis=-1)
    b = ch.bandwidth_hz * np.log2(1.0 + ch.power_over_noise() * gain)
    assert np.allclose(a, b, rtol=1e-12)


def test_rate_phase_invariance():
    ch = ChannelConfig()
    rng = np.random.default_rng(6)
    h = channel.sample_channel(ch, 8, rng)
    rotated = h * np.exp(0.91j)
    assert np.allclose(channel.channel_rate(ch, h),
                       channel.channel_rate(ch, rotated), rtol=1e-12)


def test_spectral_demand_mappings():
    w = WorkloadSpec()
    ch = ChannelConfig()
    lam = 3.0
    want = lam * w.bits_per_task() / ch.bandwidth_hz
    assert math.isclose(channel.spectral_demand(ch, w, lam), want, rel_tol=1e-12)
    # the rate that offers a demand of 3 bit/s/Hz through the workload
    rate = 3.0 * ch.bandwidth_hz / w.bits_per_task()
    assert channel.spectral_demand(ch, w, rate) == 3.0
    with pytest.raises(ValueError):
        channel.spectral_demand(ch, w, -1.0)
    # the demand reads the workload's task length
    short = channel.spectral_demand(
        ch, replace(w, task_length_instr=w.task_length_instr / 2), lam)
    assert math.isclose(short, want / 2, rel_tol=1e-12)


def test_bounds_trivial_at_zero_demand():
    ch = ChannelConfig()
    assert channel.ccdf_lower(ch, 0.0) == 1.0
    assert channel.ccdf_upper(ch, 0.0) == 1.0
    assert channel.ccdf_lower(ch, -1.0) == 1.0


def test_lower_bound_underflows_to_zero():
    assert channel.ccdf_lower(ChannelConfig(), 1200.0) == 0.0


def test_bounds_ordered_and_monotone():
    ch = ChannelConfig()
    grid = np.linspace(0.05, 12.0, 60)
    lo = [channel.ccdf_lower(ch, d) for d in grid]
    hi = [channel.ccdf_upper(ch, d) for d in grid]
    for a, b in zip(lo, hi):
        assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
        assert a <= b + 1e-12
    for k in range(1, len(grid)):
        assert lo[k] <= lo[k - 1] + 1e-12
        assert hi[k] <= hi[k - 1] + 1e-12


def test_empirical_ccdf_sandwich():
    ch = ChannelConfig()
    demands = np.linspace(0.5, 4.0, 6)
    prob, se = channel.empirical_ccdf(ch, demands, samples=20_000,
                                      rng=np.random.default_rng(8))
    for k, d in enumerate(demands):
        lo = channel.ccdf_lower(ch, d)
        hi = channel.ccdf_upper(ch, d)
        assert lo - 3.0 * se[k] <= prob[k] <= hi + 3.0 * se[k], (d, prob[k])


def test_empirical_ccdf_reads_the_configured_snr():
    # an SNR set in the config, not derived from the link budget (0.0628
    # here), is the one both the bounds and the Monte Carlo read
    ch = replace(ChannelConfig(), avg_rx_snr=0.2)
    demands = np.array([1.5, 1.8, 2.4])
    prob, se = channel.empirical_ccdf(ch, demands, samples=20_000,
                                      rng=np.random.default_rng(8))
    for k, d in enumerate(demands):
        lo = channel.ccdf_lower(ch, d)
        hi = channel.ccdf_upper(ch, d)
        assert lo - 3.0 * se[k] <= prob[k] <= hi + 3.0 * se[k], (d, prob[k])


def test_empirical_se_never_zero():
    ch = ChannelConfig()
    prob, se = channel.empirical_ccdf(ch, [1e-9, 50.0], samples=2000,
                                      rng=np.random.default_rng(9))
    assert prob[0] == 1.0 and prob[1] == 0.0
    assert se[0] > 0.0 and se[1] > 0.0


def test_empirical_seed_pair_consistent():
    ch = ChannelConfig()
    demands = [1.2, 1.8]
    p1, s1 = channel.empirical_ccdf(ch, demands, samples=20_000,
                                    rng=np.random.default_rng(10))
    p2, s2 = channel.empirical_ccdf(ch, demands, samples=20_000,
                                    rng=np.random.default_rng(11))
    for k in range(len(demands)):
        gap = abs(p1[k] - p2[k])
        assert gap <= 6.0 * math.hypot(s1[k], s2[k])


def test_drop_probability_complements_lower_bound():
    ch = ChannelConfig()
    # a drop of 1.06e-5 at this demand; the shipped 0.02 bits would give
    # 7.8e-14, within the Marcum series' rounding noise
    w = WorkloadSpec(bits_per_instruction=32.0)
    lam = 4.0
    d = channel.spectral_demand(ch, w, lam)
    assert channel.drop_probability(ch, w, lam) == 1.0 - channel.ccdf_lower(ch, d)


def test_max_reliable_rate_boundary():
    ch = ChannelConfig()
    w = WorkloadSpec()
    floor = 1.0 - 1e-12
    lam = channel.max_reliable_rate(ch, w)
    assert lam > 0.0
    at = channel.ccdf_lower(ch, channel.spectral_demand(ch, w, lam))
    above = channel.ccdf_lower(ch, channel.spectral_demand(ch, w, lam * 1.01))
    assert at >= floor - 1e-13
    assert above < floor


def test_max_reliable_rate_through_the_threshold_cap(shipped_cfg,
                                                     monkeypatch):
    # so strong a link that the doubling runs into the threshold cap
    # (y = inf, a lower bound of 0) before the bound leaves the floor; the
    # onset is still finite
    ch = ChannelConfig(avg_rx_snr=1e300, link_distance=1.0)
    thresholds = []
    real = channel._threshold
    monkeypatch.setattr(channel, "_threshold",
                        lambda *args: thresholds.append(real(*args))
                        or thresholds[-1])
    w = shipped_cfg.workload
    lam = channel.max_reliable_rate(ch, w)
    assert math.inf in thresholds
    assert math.isfinite(lam) and math.isclose(lam, 5.0e6, rel_tol=1e-3)
    # the cap sits at the onset: the lower bound holds there, is 0 above
    at = channel.ccdf_lower(ch, channel.spectral_demand(ch, w, lam))
    above = channel.ccdf_lower(ch, channel.spectral_demand(ch, w, lam * 1.01))
    assert at >= 1.0 - 1e-12 and above == 0.0


def test_airtime_and_transmission_energy():
    ch = ChannelConfig()
    w = WorkloadSpec()
    ref = channel.reference_rate(ch)
    lam_full = ref / (w.overhead_ratio * w.bits_per_task())
    duty = channel.airtime_fraction(ch, w, lam_full)
    assert math.isclose(duty, 1.0, rel_tol=1e-12)
    e = channel.transmission_energy(ch, w, lam_full, 3600.0)
    assert math.isclose(e, ch.tx_power * 3600.0, rel_tol=1e-12)
    assert channel.transmission_energy(ch, w, 0.0, 3600.0) == 0.0


def test_transmission_saturation_warns():
    ch = ChannelConfig()
    w = WorkloadSpec()
    ref = channel.reference_rate(ch)
    lam = 1.5 * ref / (w.overhead_ratio * w.bits_per_task())
    with pytest.warns(LinkSaturationWarning):
        channel.transmission_energy(ch, w, lam, 100.0)


def test_round_trip_time():
    ch = ChannelConfig()
    w = WorkloadSpec()
    assert channel.round_trip_time(ch, w, 0.0) == 0.0
    ref = channel.reference_rate(ch)
    lam = ref / w.bits_per_task()  # offered bits match the link rate
    assert math.isclose(channel.round_trip_time(ch, w, lam), 2.0, rel_tol=1e-12)


# --- the Gram-matrix sampler against the reference draw ----------------------

_SHAPES = [(2, 16), (1, 8), (8, 1), (3, 3), (4, 4), (4, 3)]


def _reference_rates(ch, count, rng):
    return channel.channel_rate(ch, channel.sample_channel(ch, count, rng))


@pytest.mark.parametrize("zeta", [0.0, 10.0])
@pytest.mark.parametrize("tx, rx", _SHAPES)
def test_sample_rates_law_matches_reference(tx, rx, zeta):
    """Two-sample Kolmogorov-Smirnov test at alpha = 1e-3 on three seeds:
    the Gram-matrix rates and the rates of drawn channels share a law."""
    from scipy.stats import ks_2samp

    ch = ChannelConfig(tx_antennas=tx, rx_antennas=rx, rician_factor=zeta)
    for seed in range(3):
        gram_rng, ref_rng = (
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
            for k in (0, 1))
        got = channel.sample_rates(ch, 20_000, gram_rng)
        want = _reference_rates(ch, 20_000, ref_rng)
        assert ks_2samp(got, want).pvalue > 1e-3, (tx, rx, zeta, seed)


@pytest.mark.parametrize("tx, rx", _SHAPES)
def test_sample_rates_strong_los_is_reference_rate(tx, rx):
    ch = ChannelConfig(tx_antennas=tx, rx_antennas=rx, rician_factor=1e12)
    ref = channel.reference_rate(ch)
    rates = channel.sample_rates(ch, 1000, np.random.default_rng(12))
    assert np.all(np.abs(rates / ref - 1.0) <= 1e-4)


def test_sample_rates_shipped_link_moments(shipped_cfg):
    ch = shipped_cfg.channel
    got = channel.sample_rates(ch, 200_000, np.random.default_rng(13)) / 1e6
    want = _reference_rates(ch, 100_000, np.random.default_rng(14)) / 1e6
    assert math.isclose(got.mean(), 166.4, abs_tol=0.1)
    assert math.isclose(got.std(), 7.8, abs_tol=0.1)
    # within four standard errors of the reference draw's moments
    se_mean = math.hypot(got.std() / math.sqrt(got.size),
                         want.std() / math.sqrt(want.size))
    assert abs(got.mean() - want.mean()) <= 4.0 * se_mean
    assert abs(got.std() - want.std()) <= 0.1


# --- exceedance counting ------------------------------------------------------

@pytest.mark.parametrize("samples", [1, channel.MC_CHUNK + 1])
def test_empirical_ccdf_short_last_chunk(samples):
    ch = ChannelConfig()
    # chunk c draws from the c-th generator default_rng(18) spawns
    chunks = [channel.sample_rates(
        ch, min(channel.MC_CHUNK, samples - done),
        np.random.default_rng(np.random.SeedSequence(18, spawn_key=(c,))))
        for c, done in enumerate(range(0, samples, channel.MC_CHUNK))]
    # demands at drawn rates keep the tie rule tested: a rate equal to the
    # threshold is not above it
    demands = np.concatenate([[1.0, 1.6, 1.7, 2.5]]
                             + [rates[:5] / ch.bandwidth_hz
                                for rates in chunks])
    prob, se = channel.empirical_ccdf(ch, demands, samples=samples,
                                      rng=np.random.default_rng(18))
    rates = np.concatenate(chunks)
    thresholds = demands * ch.bandwidth_hz
    assert np.isin(thresholds, rates).sum() >= len(chunks)
    counts = (rates[None, :] > thresholds[:, None]).sum(axis=1)
    assert np.array_equal(prob, counts / samples)
    # the outage sweep's bytes rest on spawned children keying by index
    spawned = np.random.default_rng(18).spawn(2)[1]
    keyed = np.random.default_rng(np.random.SeedSequence(18, spawn_key=(1,)))
    assert np.array_equal(spawned.standard_normal(8), keyed.standard_normal(8))
    assert np.all(se > 0.0)
    assert np.all(np.diff(prob[:4]) <= 0.0)


@pytest.mark.parametrize("tx, rx, zeta", [(2, 16, 10.0), (1, 8, 0.0),
                                          (4, 3, 10.0)])
def test_sample_rates_law_matches_reference_at_a_configured_snr(tx, rx, zeta):
    """The KS check of ``test_sample_rates_law_matches_reference`` on a
    config that sets ``avg_rx_snr`` itself (0.2 against a derived 0.063):
    the reference draw reads the configured SNR too."""
    from scipy.stats import ks_2samp

    ch = replace(ChannelConfig(tx_antennas=tx, rx_antennas=rx,
                               rician_factor=zeta), avg_rx_snr=0.2)
    for seed in range(3):
        gram_rng, ref_rng = (
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
            for k in (0, 1))
        got = channel.sample_rates(ch, 20_000, gram_rng)
        want = _reference_rates(ch, 20_000, ref_rng)
        assert ks_2samp(got, want).pvalue > 1e-3, (tx, rx, zeta, seed)


def test_reference_rates_read_the_configured_snr():
    derived = ChannelConfig(rician_factor=1e12)
    ch = replace(derived, avg_rx_snr=0.2)
    h = channel.sample_channel(ch, 4, np.random.default_rng(3))
    ref = channel.reference_rate(ch)
    assert ref > 1.5 * channel.reference_rate(derived)
    for r in channel.channel_rate(ch, h):
        assert math.isclose(r, ref, rel_tol=1e-4)


# "identity" draws the demands, bit/s/Hz, and derives their rates through
# the workload; "bits_per_hz" draws the rates, task/s
@pytest.mark.parametrize("tx, rx, zeta, mapping", [
    (2, 16, 10.0, "bits_per_hz"),     # the shipped link
    (1, 1, 0.0, "bits_per_hz"),       # Rayleigh: a = 0, the Erlang path
    (4, 3, 2.5, "identity"),
])
def test_bounds_and_drops_on_arrays_equal_scalar_calls(tx, rx, zeta, mapping):
    ch = ChannelConfig(tx_antennas=tx, rx_antennas=rx, rician_factor=zeta)
    w = WorkloadSpec()
    rng = np.random.default_rng(tx * 100 + rx)
    # demands <= 0 skip the series, demand * ln 2 > 700 gives 0 without it
    demands = np.concatenate([[0.0, -2.0, 1011.0, 2000.0],
                              rng.uniform(0.0, 12.0, 40)])
    rng.shuffle(demands)
    for bound in (channel.ccdf_lower, channel.ccdf_upper):
        got = bound(ch, demands)
        assert got.tolist() == [bound(ch, float(d)) for d in demands]
        assert type(bound(ch, float(demands[0]))) is float
    assert channel.ccdf_lower(ch, demands.reshape(4, 11)).tolist() == \
        channel.ccdf_lower(ch, demands).reshape(4, 11).tolist()
    lower = channel.ccdf_lower(ch, demands).tolist()
    assert 0.0 in lower and 1.0 in lower

    rates = np.concatenate([[0.0], rng.uniform(0.0, 3.0e4, 30)])
    if mapping == "identity":
        rates = rates / 3.0e3 * ch.bandwidth_hz / w.bits_per_task()
    # the reference drop is one minus the lower bound at the rate's demand
    want = [1.0 - channel.ccdf_lower(
        ch, channel.spectral_demand(ch, w, float(r))) for r in rates]
    assert channel.drop_probability(ch, w, rates).tolist() == want
    assert [channel.drop_probability(ch, w, float(r)) for r in rates] == want
    assert type(channel.drop_probability(ch, w, float(rates[1]))) is float
    with pytest.raises(ValueError, match="arrival_rate"):
        channel.drop_probability(ch, w, np.array([1.0, -1.0]))


def test_bounds_are_zero_where_the_threshold_overflows():
    # under the 700 / ln 2 cap per stream, a weak link's threshold y can
    # still overflow to inf; Q is 0 there, as past the cap
    ch = replace(ChannelConfig(tx_antennas=4, rx_antennas=4,
                               rician_factor=20.0),
                 avg_rx_snr=1e-8)
    w = WorkloadSpec()
    assert channel.ccdf_upper(ch, 4030.0) == 0.0
    assert channel.ccdf_lower(ch, 1005.0) == 0.0
    rate = 1005.0 * ch.bandwidth_hz / w.bits_per_task()
    assert channel.drop_probability(ch, w, rate) == 1.0


def _prune_edge(orders, a):
    """The threshold y^2, as a multiple of the mean a^2 + 2m, where the
    Chernoff bound on Q crosses ``channel._DEEP_TAIL``: by bisection on
    its logarithm, the bound falling as y grows past the mean."""
    mean = a * a + 2 * orders
    lo, hi = 0.0, 8.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        y = math.sqrt(mean * math.exp(mid))
        bound = specfun.marcum_log_bound(orders, a, y)
        lo, hi = (mid, hi) if bound > channel._DEEP_TAIL else (lo, mid)
    return math.exp(hi)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), tx=st.integers(min_value=1, max_value=4),
       rx=st.integers(min_value=1, max_value=16),
       zeta=st.floats(min_value=0.0, max_value=20.0),
       snr=st.floats(min_value=1e-3, max_value=10.0))
def test_drop_probability_array_equals_scalar_across_the_prune(
        data, tx, rx, zeta, snr):
    # rates drawn with repeats, their thresholds y^2 from 1/20 of the mean
    # a^2 + 2m up to deep in the tail, half of them within a factor e of
    # the edge where the Chernoff bound starts to settle the drop: the
    # drops must keep the bits of one minus the lower bound on both sides
    ch = ChannelConfig(tx_antennas=tx, rx_antennas=rx, rician_factor=zeta,
                       avg_rx_snr=snr)
    w = WorkloadSpec()
    orders, a, scale = channel._bound_params(ch)
    mean = a * a + 2 * orders
    edge = _prune_edge(orders, a)
    near = st.floats(min_value=-1.0, max_value=1.0).map(
        lambda x: edge * math.exp(x))
    anywhere = st.floats(min_value=-3.0, max_value=4.0).map(math.exp)
    # each rate offers its drawn demand through the workload
    pool = [math.log2(1.0 + mean * ratio / (2.0 * scale))
            * ch.bandwidth_hz / w.bits_per_task() for ratio in
            data.draw(st.lists(near | anywhere, min_size=1, max_size=8))]
    rates = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                        max_size=20)))
    assert channel.drop_probability(ch, w, rates).tolist() == [
        1.0 - channel.ccdf_lower(ch, channel.spectral_demand(ch, w, float(r)))
        for r in rates]


def _series_only_reliable_rate(ch, w):
    """``max_reliable_rate`` with every iterate tested by the Marcum
    series: the reference the Chernoff shortcut must match bit for bit."""
    def ok(lam):
        demand = channel.spectral_demand(ch, w, lam)
        return channel.ccdf_lower(ch, demand) >= 1.0 - 1e-12

    hi = 1.0
    while ok(hi):
        hi *= 2.0
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


@pytest.mark.parametrize("link", [
    None,                    # the shipped link
    (1, 1, 0.0, 0.5),        # Rayleigh: a = 0
    (4, 3, 2.5, 2.0),
    (3, 8, 18.0, 0.01),
])
def test_max_reliable_rate_equals_series_only_bisection(monkeypatch,
                                                        shipped_cfg, link):
    ch, w = shipped_cfg.channel, shipped_cfg.workload
    if link is not None:
        tx, rx, zeta, snr = link
        ch = ChannelConfig(tx_antennas=tx, rx_antennas=rx, rician_factor=zeta,
                           avg_rx_snr=snr)
    calls = []
    real = specfun.marcum_q
    monkeypatch.setattr(channel, "marcum_q",
                        lambda *args: calls.append(1) or real(*args))
    got = channel.max_reliable_rate(ch, w)
    shortcut = len(calls)
    calls.clear()
    assert got == _series_only_reliable_rate(ch, w)
    assert shortcut <= len(calls)
    if link is None:
        assert got == 5361.783167347312
        assert (shortcut, len(calls)) == (40, 55)


def test_link_energy_on_arrays_equals_transmission_energy():
    ch = ChannelConfig()
    w = WorkloadSpec()
    ref = channel.reference_rate(ch)
    full = ref / (w.overhead_ratio * w.bits_per_task())
    rates = np.array([0.0, 0.3 * full, full, 2.0 * full])
    windows = np.array([3600.0, 86400.0, 60.0, 86400.0])
    energy, duty = channel.link_energy(ch, w, rates, windows)
    with pytest.warns(LinkSaturationWarning):
        want = [channel.transmission_energy(ch, w, float(r), float(t))
                for r, t in zip(rates, windows)]
    assert energy.tolist() == want
    assert duty.tolist() == [channel.airtime_fraction(ch, w, float(r))
                             for r in rates]
    # the saturation test transmission_energy warns on
    assert (duty > channel.SATURATION).tolist() == [False, False, False, True]
    with pytest.raises(ValueError, match="window"):
        channel.link_energy(ch, w, rates, -windows)


def test_link_reads_the_workload_only_through_its_bits_per_task(shipped_cfg):
    # twice the task length at half the bits per instruction: the same bits
    # per task, exactly, so every link quantity keeps its bits.  The
    # reliable-rate cache keys on these two numbers.
    ch, w = shipped_cfg.channel, shipped_cfg.workload
    scaled = replace(w, task_length_instr=2.0 * w.task_length_instr,
                     bits_per_instruction=w.bits_per_instruction / 2.0)
    assert scaled.bits_per_task() == w.bits_per_task()
    onset = channel.max_reliable_rate(ch, w)
    assert channel.max_reliable_rate(ch, scaled) == onset
    rates = np.linspace(0.5, 4.0, 36) * onset
    drops = channel.drop_probability(ch, w, rates)
    # from below the onset into the tail that the Chernoff bound settles
    assert drops.min() < 1e-12 and drops.max() == 1.0
    assert channel.drop_probability(ch, scaled, rates).tolist() \
        == drops.tolist()
    energy, duty = channel.link_energy(ch, w, rates, 3600.0)
    energy2, duty2 = channel.link_energy(ch, scaled, rates, 3600.0)
    assert energy2.tolist() == energy.tolist()
    assert duty2.tolist() == duty.tolist()
