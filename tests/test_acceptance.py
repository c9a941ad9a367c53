"""End-to-end acceptance checks.

Each test covers one numbered claim about the library and finishes by
printing a single PASS line; a failed assertion reads as the FAIL line.
Independent oracles (scipy quadrature, scipy.special) appear only here
and in the validate command, never inside the library.
"""

import math
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hapdc import (aero, channel, offload, queueing, solar, thermal,
                   validate)
from hapdc.config import (
    ChannelConfig,
    CoolingSpec,
    HapPlatform,
    ModelConfig,
    Scenario,
    ServerSpec,
    uniform_split,
)
from hapdc.specfun import marcum_q
from hapdc.sweeps import SweepSpec, run_delay_sweep

import offload_reference
from conftest import SHIPPED_CONFIG

# The short and long task presets of criterion 8, instructions per task.
SMALL_TASK_INSTR = 1.0e6
LARGE_TASK_INSTR = 1.0e8


def _report(n: int, detail: str = ""):
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE criterion {n}: PASS{extra}")


def test_criterion_1_marcum_against_quadrature():
    from scipy.special import i0

    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    cases = [(m, float(rng.uniform(0.01, 20.0)), float(rng.uniform(0.0, 30.0)))
             for m in range(1, 65)]
    while len(cases) < 200:
        cases.append((int(rng.integers(1, 65)),
                      float(rng.uniform(0.01, 20.0)),
                      float(rng.uniform(0.0, 30.0))))
    worst = 0.0
    for m, a, y in cases:
        got = marcum_q(m, a, y)
        want = validate._marcum_quadrature(m, a, y)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-8, (m, a, y, got, want)
    ident = 0.5 * (1.0 + math.exp(-1.0) * float(i0(1.0)))
    assert abs(marcum_q(1, 1.0, 1.0) - ident) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f} s"
    _report(1, f"200 points, worst abs err {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_outage_sandwich():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    zetas = [0.0, 5.0, 10.0, 20.0, 10.0]
    for i, zeta in enumerate(zetas):
        ch = ChannelConfig(
            tx_antennas=int(rng.integers(1, 5)),
            rx_antennas=int(rng.integers(4, 17)),
            rician_factor=zeta,
            tx_power=float(rng.uniform(1.0, 20.0)),
        )
        # straddle the transition region of this link's spectral efficiency
        r_bar = math.log2(1.0 + ch.tx_antennas * ch.rx_antennas * ch.avg_rx_snr)
        demands = np.linspace(0.3 * r_bar, 2.2 * r_bar, 8)
        mc_rng = np.random.default_rng(100 + i)
        prob, se = channel.empirical_ccdf(ch, demands, samples=100_000,
                                          rng=mc_rng)
        for k, d in enumerate(demands):
            lb = channel.ccdf_lower(ch, float(d))
            ub = channel.ccdf_upper(ch, float(d))
            assert lb - 3.0 * se[k] <= prob[k] <= ub + 3.0 * se[k], (
                zeta, d, lb, prob[k], ub)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f} s"
    _report(2, f"5 configs x 8 demands x 1e5 draws, {elapsed:.1f} s")


def test_criterion_3_queueing_des_vs_closed_form():
    t0 = time.monotonic()
    mu, nu = 1.0, 1.0
    for j, u in enumerate(np.arange(0.1, 0.95, 0.1)):
        lam = float(u) * mu
        want = queueing.mean_wait(lam, mu, nu)
        sim = queueing.simulate_mm1_vacations(
            lam, mu, nu, 1_000_000, rng=np.random.default_rng(300 + j))
        err = abs(sim.mean_wait - want)
        assert err <= 0.02 * want, (u, sim.mean_wait, want)
        assert err <= 3.0 * sim.stderr, (u, err, sim.stderr)
    low = queueing.simulate_mm1_vacations(
        0.005, 1.0, 0.05, 100_000, rng=np.random.default_rng(400))
    assert abs(low.mean_wait - 20.0) <= 3.0 * low.stderr
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f} s"
    _report(3, f"9 load points x 1e6 tasks plus the idle limit, {elapsed:.1f} s")


def test_criterion_4_cooling_energy_closed_form():
    from scipy.integrate import quad

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        server = ServerSpec(
            service_rate_mips=float(rng.uniform(100.0, 2000.0)),
            p_idle=float(rng.uniform(50.0, 400.0)),
            p_peak=float(rng.uniform(500.0, 1500.0)),
            heat_capacity=float(rng.uniform(100.0, 900.0)),
            thermal_resistance=float(rng.uniform(0.05, 1.5)),
        )
        supply_temp = float(rng.uniform(285.0, 303.0))
        fan_power = float(rng.uniform(0.0, 900.0))
        # an air heat-capacity flow, W/K, that no bill reads; drawn so the
        # instances stay the ones this criterion was written against
        rng.uniform(10.0, 120.0)
        cooling = CoolingSpec(
            supply_temp=supply_temp,
            fan_power=fan_power,
            recirculation_raise=float(rng.uniform(0.0, 5.0)),
            crac_influence_rate=float(rng.uniform(0.005, 0.5)),
            t_in_initial=float(rng.uniform(300.0, 320.0)),
            t_cpu_initial=float(rng.uniform(305.0, 330.0)),
        )
        task_len = float(rng.uniform(1e5, 1e7))
        loads = [
            (server, float(rng.uniform(0.0, 1.0))
             * server.service_rate_ips / task_len)
            for _ in range(int(rng.integers(1, 4)))
        ]
        t1 = float(rng.uniform(0.0, 100.0))
        t2 = t1 + float(rng.uniform(10.0, 3000.0))
        closed = thermal.cooling_energy(loads, cooling, task_len, (t1, t2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            num, _ = quad(
                lambda t: thermal.cooling_power(loads, cooling, task_len, t),
                t1, t2, limit=500, epsabs=1e-10, epsrel=1e-12)
        rel = abs(closed - num) / abs(num)
        worst = max(worst, rel)
        assert rel <= 1e-8, (closed, num)
        # past twenty-plus relaxation constants the removed heat equals the
        # dissipated compute power
        rc = server.thermal_resistance * server.heat_capacity
        late = 25.0 * max(rc, 1.0 / cooling.crac_influence_rate)
        total_comp = sum(
            thermal.compute_power(server, r, task_len) for _, r in loads)
        settled = thermal.heat_removed(loads, cooling, task_len, late)
        assert abs(settled - total_comp) <= 1e-9 * total_comp
    _report(4, f"100 instances, worst rel err {worst:.2e}")


def test_criterion_5_propulsion_duality():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        p = HapPlatform(
            air_density=float(rng.uniform(0.01, 1.2)),
            air_viscosity=float(rng.uniform(5e-6, 5e-5)),
            propeller_efficiency=float(rng.uniform(0.3, 0.95)),
            body_length=float(rng.uniform(20.0, 200.0)),
            body_diameter=float(rng.uniform(5.0, 60.0)),
            hap_velocity=float(rng.uniform(0.1, 50.0)),
            drag_constant=float(rng.uniform(1.0, 3.0)),
        )
        v = float(rng.uniform(0.01, 60.0))
        a = aero.propulsion_power(p, v)
        b = aero.propulsion_power_reduced(p, v)
        rel = abs(a - b) / max(abs(a), abs(b))
        worst = max(worst, rel)
        assert rel <= 1e-12, (p, v)
    _report(5, f"1000 draws, worst rel gap {worst:.2e}")


def test_criterion_6_solar_identities():
    assert solar.declination(79.75) == 0.0
    assert solar.declination(171.0) == 0.4093
    for day in range(0, 366):
        assert solar.day_fraction(0.0, float(day)) == 0.5
    _report(6, "declination anchors exact, equator half-day all year")


def test_criterion_7_flying_condition_closes(shipped_cfg):
    cfg = shipped_cfg
    worst = 0.0
    points = 0
    for lat in (0.0, 10.0, 20.0, 30.0, 40.0):
        for day in (80.0, 150.0, 220.0, 300.0):
            lam, threshold, binding = offload.fly_point(lat, day, 40, cfg)
            assert binding == offload.HARVEST_BOUND, (lat, day, binding)
            assert 0.0 < lam < threshold
            site = replace(cfg, scenario=replace(
                cfg.scenario, latitude_deg=lat, day_of_year=day))
            out = offload_reference.flying_condition(
                site, uniform_split(lam * 40.0, 40))
            gap = abs(out.slack_j) / out.harvested_j
            worst = max(worst, gap)
            assert gap <= 1e-9, (lat, day, gap)
            points += 1
    assert points == 20
    _report(7, f"20 grid points, worst relative residual {worst:.2e}")


def test_criterion_8_shipped_config_trends(shipped_cfg):
    t0 = time.monotonic()
    cfg = shipped_cfg

    # (a) the admissible rate peaks near the solstices, one per hemisphere
    days = [1.0 + 3.0 * k for k in range(122)]
    north = [offload.fly_point(40.0, d, 40, cfg)[0] for d in days]
    south = [offload.fly_point(-40.0, d, 40, cfg)[0] for d in days]
    peak_n = days[north.index(max(north))]
    peak_s = days[south.index(max(south))]
    assert abs(peak_n - 172.0) <= 6.0, peak_n
    assert abs(peak_s - 355.0) <= 6.0, peak_s

    # (b) more airborne servers shrink the per-server admissible rate
    lams = [offload.fly_point(40.0, 355.0, n, cfg)[0] for n in
            (10, 20, 30, 40, 50)]
    for a, b in zip(lams, lams[1:]):
        assert b < a, lams

    # (c) offloading saves on the whole latitude band, about a tenth of
    # the bill at the northern study site
    for lat in range(-60, 61, 10):
        cfg_l = replace(cfg, scenario=replace(cfg.scenario,
                                              latitude_deg=float(lat)))
        rates = offload.allocate_rates(cfg_l)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = offload.saving(cfg_l, *rates, with_retransmission=True)
        assert rep.saved_rate > 0.0, (lat, rep.saved_rate)
        if lat == 60:
            assert 0.05 <= rep.saved_rate <= 0.25, rep.saved_rate

    # (d) retransmission accounting never loses to the reroute variant and
    # wins outright once the link starts dropping
    onset = channel.max_reliable_rate(cfg.channel, cfg.workload)
    cfg_s = replace(cfg, scenario=Scenario(
        latitude_deg=40.0, day_of_year=150.0, ground_servers=40,
        hap_servers=40))
    for lam in [500.0 * k for k in range(17)]:
        ground_total = max(0.0, cfg.workload.arrival_rate_total - lam)
        rates = uniform_split(ground_total, 40), uniform_split(lam, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with_r = offload.saving(cfg_s, *rates, with_retransmission=True)
            without = offload.saving(cfg_s, *rates,
                                     with_retransmission=False)
        assert with_r.saved_j >= without.saved_j - 1e-12 * with_r.e_tdc_j
        if lam >= 6000.0:
            assert lam > onset
            assert with_r.saved_j > without.saved_j, lam

    # (e) longer tasks push the outage onset to lower arrival rates
    onset_small = channel.max_reliable_rate(cfg.channel, replace(
        cfg.workload, task_length_instr=SMALL_TASK_INSTR))
    onset_large = channel.max_reliable_rate(cfg.channel, replace(
        cfg.workload, task_length_instr=LARGE_TASK_INSTR))
    assert onset_large < onset_small

    # (f) short tasks leave the queue in charge everywhere; long tasks
    # open a band where the round trip dominates
    spec = SweepSpec("arrival_rate", 0.0, 208.0, 26.0, seed=8, samples=50_000)
    small = run_delay_sweep(cfg, spec)
    assert all(row[6] == "queueing" for row in small.rows)
    cfg_large = replace(cfg, workload=replace(
        cfg.workload, task_length_instr=LARGE_TASK_INSTR))
    large = run_delay_sweep(cfg_large, spec)
    assert any(row[6] == "transport" for row in large.rows)
    assert all(row[7] is None for row in large.rows)

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 8 took {elapsed:.1f} s"
    _report(8, f"trends (a)-(f) on the shipped config, {elapsed:.1f} s")


def test_criterion_9_cli_byte_determinism(tmp_path):
    runs = {
        "outage": ["outage", "--config", SHIPPED_CONFIG, "--axis",
                   "arrival_rate", "--range", "2000:8000:2000",
                   "--samples", "20000", "--seed", "11"],
        "delay": ["delay", "--config", SHIPPED_CONFIG, "--axis",
                  "arrival_rate", "--range", "0:20000:5000",
                  "--samples", "20000", "--seed", "1"],
        "fly": ["fly", "--config", SHIPPED_CONFIG, "--axis", "latitude",
                "--range", "-60:60:15"],
    }
    for name, argv in runs.items():
        paths = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "hapdc.cli"] + argv
                + ["--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes(), name
    _report(9, "three subcommands, repeated runs byte-identical")
