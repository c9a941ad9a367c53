"""Fleet admission, energy saving and end-to-end delay."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hapdc import aero, channel, offload, queueing, solar, sweeps, thermal
from hapdc.config import (
    ChannelConfig,
    HapPlatform,
    ModelConfig,
    Scenario,
    ServerSpec,
    WindSpec,
    uniform_split,
)
from hapdc.errors import (LinkRateError, LinkSaturationWarning,
                          NumericsError, OverloadError, PolarError,
                          StabilityError)

import offload_reference


def test_payload_energy_idle_fleet():
    s = ServerSpec()
    (e,), _ = thermal.fleet_compute_energy(s, np.zeros((1, 12)), 1e6,
                                           (0.0, 3600.0))
    assert math.isclose(e, 12 * s.p_idle * 3600.0, rel_tol=1e-12)


def test_payload_energy_full_server():
    s = ServerSpec()
    cap = offload.high_load_threshold(s, 1e6)
    (e,), errors = thermal.fleet_compute_energy(s, np.array([[cap]]), 1e6,
                                                (0.0, 100.0))
    assert errors == [None]
    assert math.isclose(e, s.p_peak * 100.0, rel_tol=1e-12)


def test_high_load_threshold_shipped(shipped_cfg):
    got = offload.high_load_threshold(shipped_cfg.server,
                                      shipped_cfg.workload.task_length_instr)
    assert math.isclose(got, 580.0, rel_tol=1e-12)


def test_lambda_max_shipped_values(shipped_cfg):
    assert math.isclose(offload.fly_point(40.0, 150.0, 40, shipped_cfg)[0],
                        380.0672, rel_tol=1e-4)
    assert math.isclose(offload.fly_point(60.0, 150.0, 40, shipped_cfg)[0],
                        407.0531, rel_tol=1e-4)
    assert math.isclose(offload.fly_point(40.0, 355.0, 40, shipped_cfg)[0],
                        41.8717, rel_tol=1e-4)


def test_lambda_max_harvest_algebra(shipped_cfg):
    cfg = shipped_cfg
    wind = cfg.wind.speed_at(40.0, 150.0)
    budget = (solar.harvested_power(cfg.hap, 40.0, 150.0)
              - aero.propulsion_power(cfg.hap, wind)) / 40.0
    srv = cfg.server
    u = (budget - srv.p_idle) / (srv.p_peak - srv.p_idle)
    want = u * srv.service_rate_ips / cfg.workload.task_length_instr
    assert math.isclose(offload.fly_point(40.0, 150.0, 40, cfg)[0], want,
                        rel_tol=1e-12)


def test_lambda_max_clamped_at_zero(shipped_cfg):
    dark = replace(shipped_cfg, hap=replace(shipped_cfg.hap, pv_efficiency=1e-6))
    assert offload.fly_point(40.0, 150.0, 40, dark)[0] == 0.0
    lam, threshold, binding = offload.fly_point(40.0, 150.0, 40, dark)
    assert (lam, binding) == (0.0, offload.PAYLOAD_BOUND)
    assert threshold == 580.0


def test_fly_point_bindings(shipped_cfg):
    lam, threshold, binding = offload.fly_point(40.0, 150.0, 40, shipped_cfg)
    assert binding == offload.HARVEST_BOUND
    assert 0.0 < lam < threshold
    # southern winter at this date cannot even hold the fleet idle
    assert offload.fly_point(-60.0, 150.0, 40, shipped_cfg) == (
        0.0, 580.0, offload.PAYLOAD_BOUND)
    # a single airborne server swims in harvested power
    lam1, thr1, binding1 = offload.fly_point(40.0, 150.0, 1, shipped_cfg)
    assert binding1 == offload.HIGH_LOAD_BOUND
    assert lam1 == thr1


def _flight_outcome(fly, *point):
    """``fly(*point)``'s (lambda_max, threshold, binding), or its
    PolarError's text."""
    try:
        return fly(*point)
    except PolarError as exc:
        return str(exc)


@pytest.mark.parametrize("windy", [False, True])
def test_fly_points_equal_the_scalar_flight_check_bit_for_bit(shipped_cfg,
                                                              windy):
    # a latitude x day grid through both polar circles, with a column of
    # fleet sizes that reaches every binding, under the shipped wind and
    # under a wind table (one still row); every point's array cells equal
    # the one-point call's and the scalar math route's bits, every polar
    # point's error text equals theirs, and the station-keeping power
    # column is the scalar power of each point's wind, 0.0 in still air
    cfg = shipped_cfg
    if windy:
        cfg = replace(cfg, wind=WindSpec(table=(
            (40.0, 1.0, 35.0), (40.0, 182.0, 9.5), (-70.0, 274.0, 0.0),
            (60.0, 182.0, 41.0))))
    days = (0.0, 30.5, 79.75, 120.0, 171.0, 230.0, 300.0, 355.0, 366.0)
    # with the latitudes where numpy's tan rounds otherwise than math's
    fine = np.arange(-89.9, 90.0, 0.1).round(1)
    angles = np.radians(fine)
    odd = fine[np.tan(angles) != list(map(math.tan, angles))]
    points = [(lat, day, (1, 40, 1000)[k % 3])
              for lat in np.arange(-90.0, 90.1, 3.75).tolist() + odd.tolist()
              for k, day in enumerate(days)]
    rates, cap, bounds, errors, power = offload.fly_points(*zip(*points),
                                                           cfg)
    want_power = [aero.propulsion_power_reduced(
        cfg.hap, cfg.wind.speed_at(lat, day)) for lat, day, _ in points]
    assert power.tobytes() == np.array(want_power).tobytes()
    assert (0.0 in power.tolist()) == windy
    kinds = set()
    for point, rate, bound, error in zip(points, rates, bounds, errors):
        got = str(error) if error else (rate, cap, bound)
        assert _flight_outcome(offload.fly_point, *point, cfg) == got, point
        want = _flight_outcome(offload_reference.fly_point, *point, cfg)
        assert got == want, point
        if not error:
            assert np.array(got[:2]).tobytes() == np.array(want[:2]).tobytes()
        kinds.add(got.split()[0] if error else bound)
    assert kinds == {"sun", "continuous", offload.PAYLOAD_BOUND,
                     offload.HARVEST_BOUND, offload.HIGH_LOAD_BOUND}
    assert {error.__class__ for error in errors} == {type(None), PolarError}


def test_fly_point_needs_servers(shipped_cfg):
    with pytest.raises(ValueError):
        offload.fly_point(40.0, 150.0, 0, shipped_cfg)


def test_flying_condition_components(shipped_cfg):
    cfg = shipped_cfg
    lam = offload.fly_point(40.0, 150.0, 40, cfg)[0]
    out = offload_reference.flying_condition(cfg,
                                             uniform_split(lam * 40.0, 40))
    window = cfg.scenario.window
    assert math.isclose(
        out.harvested_j,
        solar.harvested_power(cfg.hap, 40.0, 150.0) * (window[1] - window[0]),
        rel_tol=1e-12)
    assert math.isclose(
        out.propulsion_j,
        aero.propulsion_power_reduced(cfg.hap, 20.0)
        * (window[1] - window[0]), rel_tol=1e-12)
    assert math.isclose(
        out.slack_j, out.harvested_j - out.payload_j - out.propulsion_j,
        rel_tol=1e-9, abs_tol=1e-6)
    # at the harvest-bound rate the budget closes to rounding error
    assert abs(out.slack_j) <= 1e-9 * out.harvested_j
    assert out.feasible == (out.slack_j >= 0.0)


def test_allocate_rates_greedy(shipped_cfg):
    cfg = shipped_cfg
    ground, hap = offload.allocate_rates(cfg)
    lam = offload.fly_point(40.0, 150.0, 40, cfg)[0]
    assert len(ground) == 40 and len(hap) == 40
    assert math.isclose(math.fsum(hap), lam * 40.0, rel_tol=1e-12)
    total = math.fsum(ground) + math.fsum(hap) * cfg.scenario.hap_count
    assert math.isclose(total, cfg.workload.arrival_rate_total, rel_tol=1e-12)
    cap = offload.high_load_threshold(cfg.server, cfg.workload.task_length_instr)
    assert all(r <= cap * (1 + 1e-12) for r in ground + hap)


def test_allocate_rates_small_total(shipped_cfg):
    # workload below the airborne capacity leaves the ground idle
    ground, hap = offload.allocate_rates(shipped_cfg, total_rate=100.0)
    assert math.fsum(ground) == 0.0
    assert math.isclose(math.fsum(hap), 100.0, rel_tol=1e-12)


def test_allocate_rates_overload(shipped_cfg):
    scen = replace(shipped_cfg.scenario, ground_servers=0)
    cfg = replace(shipped_cfg, scenario=scen)
    with pytest.raises(OverloadError):
        offload.allocate_rates(cfg)  # 20000 task/s will not fit airborne


def test_propulsion_priced_once_per_wind_speed(shipped_cfg, monkeypatch):
    # one platform's station keeping at 365 sites prices each distinct wind
    # once, and two platforms' bill over a day is that power times the span
    real = aero.propulsion_power_reduced
    winds = []
    monkeypatch.setattr(aero, "propulsion_power_reduced",
                        lambda hap, wind: winds.append(wind) or real(hap, wind))
    sites = [(40.0, float(day)) for day in range(1, 366)]
    table = WindSpec(table=((40.0, 10.0, 15.0), (40.0, 200.0, 15.0),
                            (40.0, 300.0, 25.0)))
    for cfg, distinct in ((shipped_cfg, 1),
                          (replace(shipped_cfg, wind=table), 2)):
        winds.clear()
        power = offload.station_keeping(cfg, *zip(*sites))
        assert len(winds) == len(set(winds)) == distinct
        want = [real(cfg.hap, cfg.wind.speed_at(*site)) for site in sites]
        assert power.tolist() == want
        fleets = offload.Fleets(np.zeros((365, 4)), np.zeros((365, 4)),
                                power, 2, (0.0, 86400.0))
        got = offload.evaluate_offload(fleets, cfg).propulsion_j.tolist()
        assert got == [2 * (watts * 86400.0) for watts in want]


def test_saving_no_fleet_is_zero(shipped_cfg):
    report = offload.saving(shipped_cfg, uniform_split(8000.0, 40), ())
    assert report.saved_j == 0.0
    assert report.saved_rate == 0.0
    assert report.retransmissions == 0


def test_saving_study_point(shipped_cfg):
    """Northern summer site offloading at the admissible rate saves on the
    order of a tenth of the baseline bill.  It offers the link more than
    twice what it carries, which saving() reports as a warning."""
    cfg = replace(shipped_cfg,
                  scenario=replace(shipped_cfg.scenario, latitude_deg=60.0))
    with pytest.warns(LinkSaturationWarning):
        report = offload.saving(cfg, *offload.allocate_rates(cfg),
                                with_retransmission=True)
    assert 0.05 <= report.saved_rate <= 0.25
    assert report.e_tdc_j > report.e_hybrid_j


def test_saving_monotone_in_wind(shipped_cfg):
    rates = []
    with pytest.warns(LinkSaturationWarning):
        for w in (0.0, 10.0, 20.0, 30.0):
            cfg = replace(shipped_cfg, wind=WindSpec(speed=w))
            rates.append(offload.saving(cfg, *offload.allocate_rates(cfg),
                                        with_retransmission=True).saved_rate)
    for a, b in zip(rates, rates[1:]):
        assert b <= a + 1e-12


def test_saving_grows_with_fleet_size(faint_link_cfg):
    # a faint-link trend: on the shipped study the saving falls from
    # 0.1124 to 0.1039 as the airborne fleet grows from 30 to 50 servers,
    # here it rises from -0.244 to -0.166; both points saturate the link
    rates = []
    with pytest.warns(LinkSaturationWarning):
        for servers in (30, 40, 50):
            scen = Scenario(latitude_deg=40.0, day_of_year=150.0,
                            ground_servers=40, hap_servers=servers)
            cfg = replace(faint_link_cfg, scenario=scen)
            rates.append(offload.saving(
                cfg, *offload.allocate_rates(cfg),
                with_retransmission=True).saved_rate)
    for a, b in zip(rates, rates[1:]):
        assert b >= a - 1e-12


def test_saving_second_platform_helps(shipped_cfg, faint_link_cfg):
    for base in (shipped_cfg, faint_link_cfg):
        by_count = []
        for k in (1, 2):
            scen = Scenario(latitude_deg=40.0, day_of_year=150.0,
                            ground_servers=40, hap_servers=40, hap_count=k)
            cfg = replace(base, scenario=scen)
            with pytest.warns(LinkSaturationWarning):
                by_count.append(offload.saving(
                    cfg, *offload.allocate_rates(cfg),
                    with_retransmission=True).saved_rate)
        assert by_count[1] >= by_count[0] - 1e-12


def test_saving_branches_agree_below_drop_onset(shipped_cfg):
    # the reliable-rate gate zeroes the drop bound, so the two accounting
    # branches describe the same system
    rates = (0.0,) * 40, uniform_split(3000.0, 40)
    with_r = offload.saving(shipped_cfg, *rates, with_retransmission=True)
    without = offload.saving(shipped_cfg, *rates, with_retransmission=False)
    assert with_r.e_hybrid_j == without.e_hybrid_j
    assert with_r.retransmissions == 0


def test_saving_with_beats_without_above_onset(shipped_cfg):
    onset = channel.max_reliable_rate(shipped_cfg.channel, shipped_cfg.workload)
    assert math.isclose(onset, 5361.78, rel_tol=1e-3)
    # 8000 task/s saturates the link
    with pytest.warns(LinkSaturationWarning):
        for lam in (6000.0, 7000.0, 8000.0):
            rates = (0.0,) * 40, uniform_split(lam, 40)
            with_r = offload.saving(shipped_cfg, *rates,
                                    with_retransmission=True)
            without = offload.saving(shipped_cfg, *rates,
                                     with_retransmission=False)
            assert with_r.saved_j >= without.saved_j
            assert with_r.retransmissions > 0


def test_reliable_rate_inverted_once_per_link(shipped_cfg, monkeypatch):
    # the threshold does not depend on the offered load, so a load sweep
    # inverts the link once, and only the bits per task start a new inversion
    calls = []
    real = channel.reliable_brackets

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(channel, "reliable_brackets", counting)
    offload._link_gate.cache_clear()
    spec = sweeps.SweepSpec("arrival_rate", 4000.0, 8000.0, 1000.0)
    result = sweeps.run_energy_sweep(shipped_cfg, spec)
    assert all(row[-1] is None for row in result.rows)
    assert len(calls) == 1
    longer = replace(shipped_cfg, workload=replace(
        shipped_cfg.workload, task_length_instr=2.0e6))
    sweeps.run_energy_sweep(longer, spec)
    assert len(calls) == 2
    busier = replace(shipped_cfg, workload=replace(
        shipped_cfg.workload, arrival_rate_total=12345.0))
    sweeps.run_energy_sweep(busier, spec)
    assert len(calls) == 2


def test_link_that_never_drops_charges_no_drop(shipped_cfg, monkeypatch):
    # so few bits per task that the lower bound never leaves the floor: the
    # inversion raises, the gate falls back to inf, and a ramp charges no
    # drop anywhere
    cfg = replace(shipped_cfg, workload=replace(
        shipped_cfg.workload, bits_per_instruction=1e-30))
    with pytest.raises(LinkRateError, match="never drops"):
        channel.max_reliable_rate(cfg.channel, cfg.workload)
    offload._link_gate.cache_clear()
    assert offload._gate(cfg).refine() == math.inf
    monkeypatch.setattr(channel, "drop_probability",
                        lambda *args: pytest.fail("a drop was evaluated"))
    out = sweeps.run_energy_sweep(
        cfg, sweeps.SweepSpec("arrival_rate", 0.0, 40_000.0, 4000.0))
    priced = [row for row in out.rows if row[-1] is None]
    assert len(priced) == 10 and out.notes == []
    assert all(row[out.header.index("n_retx")] == 0 for row in priced)


def _link(cfg, link):
    """The channel and workload of a link case: the shipped link, a
    (tx, rx, Rician factor, SNR) channel on the shipped workload, or the
    shipped channel carrying so few bits per task that it never drops."""
    ch, w = cfg.channel, cfg.workload
    if link == "never drops":
        return ch, replace(w, bits_per_instruction=1e-30)
    if link is not None:
        tx, rx, zeta, snr = link
        ch = ChannelConfig(tx_antennas=tx, rx_antennas=rx, rician_factor=zeta,
                           avg_rx_snr=snr)
    return ch, w


def _gate_rates(ch, w):
    """The full gate of a link and the rates that decide a lazy one: 0,
    rates far below and far above the gate, and the gate and every bracket
    edge of its bisection, each with its float neighbours."""
    try:
        brackets = list(channel.reliable_brackets(ch, w))
    except LinkRateError:
        gate, brackets = math.inf, []
    else:
        gate = channel.max_reliable_rate(ch, w)
        assert gate == brackets[-1][0]
    rates = {0.0, 1e-300, 1.0, 1e4, 1e300}
    for edge in {gate, *(edge for bracket in brackets for edge in bracket)}:
        if math.isfinite(edge):
            rates |= {edge, np.nextafter(edge, -1.0),
                      np.nextafter(edge, math.inf), edge * 1e-6, edge * 1e6}
    return gate, sorted(float(rate) for rate in rates if rate >= 0.0)


@pytest.mark.parametrize("link", [
    None,                    # the shipped link
    (1, 1, 0.0, 0.5),        # Rayleigh: a = 0
    (4, 3, 2.5, 2.0),
    (3, 8, 18.0, 0.01),
    "never drops",           # the gate is inf
])
def test_lazy_gate_answers_as_the_full_gate(shipped_cfg, link):
    # the gate steps its bisection only while some rate lies in its
    # current bracket; every answer, fresh or after earlier calls refined
    # it part-way, is ``rates >= max_reliable_rate``
    ch, w = _link(shipped_cfg, link)
    gate, rates = _gate_rates(ch, w)

    def lazy():
        return offload._Gate(channel.reliable_brackets(ch, w))

    fresh = [rate >= lazy().refine(np.array([rate])) for rate in rates]
    assert fresh == [rate >= gate for rate in rates]
    column = np.array(rates)
    assert (column >= lazy().refine(column)).tolist() == fresh

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.lists(st.sampled_from(rates), min_size=1, max_size=6),
                    min_size=1, max_size=4))
    def answers(columns):
        stepped = lazy()
        for column in map(np.array, columns):
            assert (column >= stepped.refine(column)).tolist() \
                == (column >= gate).tolist()
        assert stepped.refine() == gate

    answers()


def test_gate_whose_step_raised_raises_again(shipped_cfg, monkeypatch):
    # a step that raises leaves the bisection dead: the cached gate must
    # not read its last bracket as final, so every later use raises too,
    # even one whose rate an earlier bracket already settles
    real, failed = channel.marcum_q, []

    def once(*args):
        if not failed:
            failed.append(1)
            raise NumericsError("Marcum series did not converge")
        return real(*args)

    below = (0.0,) * 40, uniform_split(1000.0, 40)
    monkeypatch.setattr(channel, "marcum_q", once)
    offload._link_gate.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(NumericsError):
                offload._gate(shipped_cfg).refine()
        assert offload._gate(shipped_cfg).lo > 1000.0
        with pytest.raises(NumericsError):
            offload.saving(shipped_cfg, *below)
    finally:
        offload._link_gate.cache_clear()
    assert failed == [1]
    assert offload._gate(shipped_cfg).refine() == 5361.783167347312


def test_retransmission_budget_formula(shipped_cfg):
    cfg = shipped_cfg
    lam = 7000.0
    rates = (0.0,) * 40, uniform_split(lam, 40)
    report = offload.saving(cfg, *rates, with_retransmission=True)
    pr = channel.drop_probability(cfg.channel, cfg.workload, lam)
    e_round = channel.transmission_energy(cfg.channel, cfg.workload, lam * pr,
                                          cfg.scenario.window_length)
    e_base = offload.hybrid_total_energy(cfg, *rates).total_j
    gross = report.e_tdc_j - e_base
    assert report.e_hybrid_j == pytest.approx(e_base + e_round, rel=1e-12)
    assert report.retransmissions == math.ceil(gross / e_round)


def test_hybrid_reduces_to_baseline_without_fleet(shipped_cfg):
    ground = uniform_split(9000.0, 40)
    hybrid = offload.hybrid_total_energy(shipped_cfg, ground, ())
    (compute,), (cooling,), _ = thermal.tdc_total_energy(
        offload.Fleets.of(shipped_cfg, ground, ()), shipped_cfg)
    assert hybrid.total_j == math.fsum([compute, cooling])
    assert hybrid.propulsion_j == 0.0 and hybrid.transmission_j == 0.0


def test_ground_bill_shared_by_baseline_and_hybrid(shipped_cfg):
    cfg, window = shipped_cfg, shipped_cfg.scenario.window
    ground_rates, hap_rates = offload.allocate_rates(cfg)
    (compute,), (cooling,), _ = thermal.ground_energy(
        np.array([ground_rates]), cfg, window)
    with pytest.warns(LinkSaturationWarning):
        hybrid = offload.hybrid_total_energy(cfg, ground_rates, hap_rates)
    assert (hybrid.compute_j, hybrid.cooling_j) == (compute, cooling)
    everything = ground_rates + hap_rates * cfg.scenario.hap_count
    baseline = thermal.tdc_total_energy(
        offload.Fleets.of(cfg, ground_rates, hap_rates), cfg)
    want = thermal.ground_energy(np.array([everything]), cfg, window)
    assert [baseline[0].tolist(), baseline[1].tolist(), baseline[2]] == [
        want[0].tolist(), want[1].tolist(), want[2]]
    assert offload.hybrid_total_energy(cfg, ground_rates, ()) == (
        thermal.EnergyBreakdown.from_parts(compute_j=compute,
                                           cooling_j=cooling))


def test_end_to_end_delay_identity(shipped_cfg):
    cfg = shipped_cfg
    report = offload.end_to_end_delay(cfg, 2000.0)
    service = 40 * cfg.server.service_rate_ips / cfg.workload.task_length_instr
    want_wait = queueing.mean_wait(2000.0, service, cfg.workload.vacation_rate)
    want_rtt = channel.round_trip_time(cfg.channel, cfg.workload, 2000.0)
    assert math.isclose(report.mean_wait_s, want_wait, rel_tol=1e-12)
    assert math.isclose(report.rtt_s, want_rtt, rel_tol=1e-12)
    assert math.isclose(report.total_delay_s, want_wait + want_rtt, rel_tol=1e-12)
    assert report.transport_dominated == (report.rtt_s >= report.mean_wait_s)


def test_end_to_end_delay_carries_the_fleet_service_rate(shipped_cfg):
    cfg = shipped_cfg
    service = 40 * cfg.server.service_rate_ips / cfg.workload.task_length_instr
    assert offload.end_to_end_delay(cfg, 2000.0).service_rate == service


def test_end_to_end_delay_unstable(shipped_cfg):
    service = 40 * 580.0
    with pytest.raises(StabilityError):
        offload.end_to_end_delay(shipped_cfg, service * 1.01)


def test_end_to_end_delay_needs_fleet(shipped_cfg):
    scen = Scenario(hap_servers=0, ground_servers=40)
    cfg = replace(shipped_cfg, scenario=scen)
    with pytest.raises(ValueError):
        offload.end_to_end_delay(cfg, 100.0)
