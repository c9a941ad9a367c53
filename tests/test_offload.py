"""Fleet admission, energy saving and end-to-end delay."""

import math
from dataclasses import replace

import pytest

from hapdc import aero, channel, offload, queueing, solar, sweeps, thermal
from hapdc.config import (
    HapPlatform,
    ModelConfig,
    Scenario,
    ServerSpec,
    WindSpec,
    uniform_split,
)
from hapdc.errors import LinkSaturationWarning, OverloadError, StabilityError


def test_payload_energy_idle_fleet():
    s = ServerSpec()
    e = thermal.fleet_compute_energy(s, (0.0,) * 12, 1e6, (0.0, 3600.0))
    assert math.isclose(e, 12 * s.p_idle * 3600.0, rel_tol=1e-12)


def test_payload_energy_full_server():
    s = ServerSpec()
    cap = offload.high_load_threshold(s, 1e6)
    e = thermal.fleet_compute_energy(s, (cap,), 1e6, (0.0, 100.0))
    assert math.isclose(e, s.p_peak * 100.0, rel_tol=1e-12)


def test_high_load_threshold_shipped(shipped_cfg):
    got = offload.high_load_threshold(shipped_cfg.server,
                                      shipped_cfg.workload.task_length_instr)
    assert math.isclose(got, 580.0, rel_tol=1e-12)


def test_lambda_max_shipped_values(shipped_cfg):
    assert math.isclose(offload.lambda_max(40.0, 150.0, 40, shipped_cfg),
                        380.0672, rel_tol=1e-4)
    assert math.isclose(offload.lambda_max(60.0, 150.0, 40, shipped_cfg),
                        407.0531, rel_tol=1e-4)
    assert math.isclose(offload.lambda_max(40.0, 355.0, 40, shipped_cfg),
                        41.8717, rel_tol=1e-4)


def test_lambda_max_harvest_algebra(shipped_cfg):
    cfg = shipped_cfg
    wind = cfg.wind.speed_at(40.0, 150.0)
    budget = (solar.harvested_power(cfg.hap, 40.0, 150.0)
              - aero.propulsion_power(cfg.hap, wind)) / 40.0
    srv = cfg.server
    u = (budget - srv.p_idle) / (srv.p_peak - srv.p_idle)
    want = u * srv.service_rate_ips / cfg.workload.task_length_instr
    assert math.isclose(offload.lambda_max(40.0, 150.0, 40, cfg), want,
                        rel_tol=1e-12)


def test_lambda_max_clamped_at_zero(shipped_cfg):
    dark = replace(shipped_cfg, hap=replace(shipped_cfg.hap, pv_efficiency=1e-6))
    assert offload.lambda_max(40.0, 150.0, 40, dark) == 0.0
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


def test_fly_point_needs_servers(shipped_cfg):
    with pytest.raises(ValueError):
        offload.fly_point(40.0, 150.0, 0, shipped_cfg)
    with pytest.raises(ValueError):
        offload.lambda_max(40.0, 150.0, 0, shipped_cfg)


def test_flying_condition_components(shipped_cfg):
    cfg = shipped_cfg
    lam = offload.lambda_max(40.0, 150.0, 40, cfg)
    scen = replace(cfg.scenario, hap_rates=uniform_split(lam * 40.0, 40))
    out = offload.flying_condition(scen, cfg)
    window = scen.window
    assert math.isclose(
        out.harvested_j,
        solar.harvested_energy(cfg.hap, 40.0, 150.0, window), rel_tol=1e-12)
    assert math.isclose(
        out.propulsion_j,
        aero.propulsion_energy(cfg.hap, 20.0, window), rel_tol=1e-12)
    assert math.isclose(
        out.slack_j, out.harvested_j - out.payload_j - out.propulsion_j,
        rel_tol=1e-9, abs_tol=1e-6)
    # at the harvest-bound rate the budget closes to rounding error
    assert abs(out.slack_j) <= 1e-9 * out.harvested_j
    assert out.feasible == (out.slack_j >= 0.0)


def test_allocate_rates_greedy(shipped_cfg):
    cfg = shipped_cfg
    ground, hap = offload.allocate_rates(cfg)
    lam = offload.lambda_max(40.0, 150.0, 40, cfg)
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
    scen = replace(shipped_cfg.scenario, ground_servers=0, ground_rates=())
    cfg = replace(shipped_cfg, scenario=scen)
    with pytest.raises(OverloadError):
        offload.allocate_rates(cfg)  # 20000 task/s will not fit airborne


def test_saving_no_fleet_is_zero(shipped_cfg):
    scen = Scenario(latitude_deg=40.0, day_of_year=150.0, ground_servers=40,
                    hap_servers=0, ground_rates=uniform_split(8000.0, 40))
    report = offload.saving(scen, shipped_cfg)
    assert report.saved_j == 0.0
    assert report.saved_rate == 0.0
    assert report.retransmissions == 0


def test_saving_study_point(shipped_cfg):
    """Northern summer site offloading at the admissible rate saves on the
    order of a tenth of the baseline bill.  It offers the link more than
    twice what it carries, which saving() reports as a warning."""
    cfg = replace(shipped_cfg,
                  scenario=replace(shipped_cfg.scenario, latitude_deg=60.0))
    scen = offload.allocated_scenario(cfg)
    with pytest.warns(LinkSaturationWarning):
        report = offload.saving(scen, cfg, with_retransmission=True)
    assert 0.05 <= report.saved_rate <= 0.25
    assert report.e_tdc_j > report.e_hybrid_j


def test_saving_monotone_in_wind(shipped_cfg):
    rates = []
    with pytest.warns(LinkSaturationWarning):
        for w in (0.0, 10.0, 20.0, 30.0):
            cfg = replace(shipped_cfg, wind=WindSpec(speed=w))
            scen = offload.allocated_scenario(cfg)
            rates.append(
                offload.saving(scen, cfg, with_retransmission=True).saved_rate)
    for a, b in zip(rates, rates[1:]):
        assert b <= a + 1e-12


def test_saving_grows_with_fleet_size(default_cfg):
    rates = []
    with pytest.warns(LinkSaturationWarning):
        for servers in (30, 40, 50):
            scen = Scenario(latitude_deg=40.0, day_of_year=150.0,
                            ground_servers=40, hap_servers=servers)
            cfg = replace(default_cfg, scenario=scen)
            alloc = offload.allocated_scenario(cfg)
            rates.append(offload.saving(
                alloc, cfg, with_retransmission=True).saved_rate)
    for a, b in zip(rates, rates[1:]):
        assert b >= a - 1e-12


def test_saving_second_platform_helps(shipped_cfg, default_cfg):
    for base in (shipped_cfg, default_cfg):
        by_count = []
        for k in (1, 2):
            scen = Scenario(latitude_deg=40.0, day_of_year=150.0,
                            ground_servers=40, hap_servers=40, hap_count=k)
            cfg = replace(base, scenario=scen)
            alloc = offload.allocated_scenario(cfg)
            with pytest.warns(LinkSaturationWarning):
                by_count.append(offload.saving(
                    alloc, cfg, with_retransmission=True).saved_rate)
        assert by_count[1] >= by_count[0] - 1e-12


def test_saving_branches_agree_below_drop_onset(shipped_cfg):
    # the reliable-rate gate zeroes the drop bound, so the two accounting
    # branches describe the same system
    lam = 3000.0
    scen = Scenario(latitude_deg=40.0, day_of_year=150.0, ground_servers=40,
                    hap_servers=40, hap_rates=uniform_split(lam, 40))
    with_r = offload.saving(scen, shipped_cfg, with_retransmission=True)
    without = offload.saving(scen, shipped_cfg, with_retransmission=False)
    assert with_r.e_hybrid_j == without.e_hybrid_j
    assert with_r.retransmissions == 0


def test_saving_with_beats_without_above_onset(shipped_cfg):
    onset = channel.max_reliable_rate(shipped_cfg.channel, shipped_cfg.workload,
                                      shipped_cfg.workload.task_length_instr)
    assert math.isclose(onset, 5361.78, rel_tol=1e-3)
    # 8000 task/s saturates the link
    with pytest.warns(LinkSaturationWarning):
        for lam in (6000.0, 7000.0, 8000.0):
            scen = Scenario(latitude_deg=40.0, day_of_year=150.0,
                            ground_servers=40, hap_servers=40,
                            hap_rates=uniform_split(lam, 40))
            with_r = offload.saving(scen, shipped_cfg,
                                    with_retransmission=True)
            without = offload.saving(scen, shipped_cfg,
                                     with_retransmission=False)
            assert with_r.saved_j >= without.saved_j
            assert with_r.retransmissions > 0


def test_reliable_rate_inverted_once_per_link(shipped_cfg, monkeypatch):
    # the threshold does not depend on the offered load, so a load sweep
    # inverts the link once, and only the bits per task start a new inversion
    calls = []
    real = channel.max_reliable_rate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(channel, "max_reliable_rate", counting)
    offload._reliable_rate.cache_clear()
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


def test_retransmission_budget_formula(shipped_cfg):
    cfg = shipped_cfg
    lam = 7000.0
    scen = Scenario(latitude_deg=40.0, day_of_year=150.0, ground_servers=40,
                    hap_servers=40, hap_rates=uniform_split(lam, 40))
    report = offload.saving(scen, cfg, with_retransmission=True)
    task_len = cfg.workload.task_length_instr
    pr = channel.drop_probability(cfg.channel, cfg.workload, lam, task_len)
    e_round = channel.transmission_energy(cfg.channel, cfg.workload, lam * pr,
                                          scen.window_length, task_len)
    e_base = offload.hybrid_total_energy(scen, cfg).total_j
    gross = report.e_tdc_j - e_base
    assert report.e_hybrid_j == pytest.approx(e_base + e_round, rel=1e-12)
    assert report.retransmissions == math.ceil(gross / e_round)


def test_hybrid_reduces_to_baseline_without_fleet(shipped_cfg):
    scen = Scenario(latitude_deg=40.0, day_of_year=150.0, ground_servers=40,
                    hap_servers=0, ground_rates=uniform_split(9000.0, 40))
    hybrid = offload.hybrid_total_energy(scen, shipped_cfg)
    baseline = thermal.tdc_total_energy(scen, shipped_cfg)
    assert hybrid.total_j == baseline.total_j
    assert hybrid.propulsion_j == 0.0 and hybrid.transmission_j == 0.0


def test_ground_bill_shared_by_baseline_and_hybrid(shipped_cfg):
    scen = offload.allocated_scenario(shipped_cfg)
    ground = thermal.ground_energy(scen.ground_rates, shipped_cfg, scen.window)
    with pytest.warns(LinkSaturationWarning):
        hybrid = offload.hybrid_total_energy(scen, shipped_cfg)
    assert (hybrid.compute_j, hybrid.cooling_j) == (ground.compute_j,
                                                    ground.cooling_j)
    everything = scen.ground_rates + scen.hap_rates * scen.hap_count
    assert thermal.tdc_total_energy(scen, shipped_cfg) == thermal.ground_energy(
        everything, shipped_cfg, scen.window)
    grounded = replace(scen, hap_servers=0, hap_rates=())
    assert offload.hybrid_total_energy(grounded, shipped_cfg) == ground


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
