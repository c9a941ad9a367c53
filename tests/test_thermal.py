"""Compute power, transient heat and CRAC energy.

The closed-form cooling energy is checked against direct numerical
integration of the instantaneous cooling power (scipy is the oracle here,
the library itself never calls it).
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from hapdc import aero, channel, offload, thermal
from hapdc.config import (CoolingSpec, ModelConfig, Scenario, ServerSpec,
                          WorkloadSpec, uniform_split)
from hapdc.errors import LinkSaturationWarning, OverloadError

import offload_reference


def _one(bill):
    """The entry of each column of a one-fleet bill, as floats; the row's
    OverloadError is raised."""
    *columns, (error,) = bill
    if error is not None:
        raise error
    return [float(column[0]) for column in columns]


def _random_cooling(rng, **drawn):
    """A random cooling spec and an air heat-capacity flow per server, W/K,
    drawn in one fixed order after the fields already ``drawn``."""
    drawn.update(supply_temp=float(rng.uniform(285.0, 303.0)),
                 fan_power=float(rng.uniform(0.0, 900.0)))
    air_flow = float(rng.uniform(10.0, 120.0))
    cooling = CoolingSpec(
        **drawn,
        recirculation_raise=float(rng.uniform(0.0, 5.0)),
        crac_influence_rate=float(rng.uniform(0.005, 0.5)),
        t_in_initial=float(rng.uniform(300.0, 320.0)),
        t_cpu_initial=float(rng.uniform(305.0, 330.0)),
    )
    return cooling, air_flow


def _random_instance(rng):
    """Loads on one random server, a cooling spec, a task length and an air
    heat-capacity flow, W/K."""
    server = ServerSpec(
        service_rate_mips=float(rng.uniform(100.0, 2000.0)),
        p_idle=float(rng.uniform(50.0, 400.0)),
        p_peak=float(rng.uniform(500.0, 1200.0)),
        heat_capacity=float(rng.uniform(100.0, 900.0)),
        thermal_resistance=float(rng.uniform(0.05, 1.5)),
    )
    cooling, air_flow = _random_cooling(rng)
    task_len = float(rng.uniform(1e5, 1e7))
    loads = []
    for _ in range(rng.integers(1, 5)):
        u = float(rng.uniform(0.0, 1.0))
        loads.append((server, u * server.service_rate_ips / task_len))
    return loads, cooling, task_len, air_flow


def _trace_heat(server, rate, task_len, cooling, air_flow, t):
    """Heat one server's airflow carries off at time t, W, by the component
    route: the transient inlet and CPU temperatures give the outlet
    temperature, and the heat is air_flow * (t_out - t_in), ``air_flow``
    being the air's heat capacity times its mass flow per server, W/K."""
    t_steady = cooling.supply_temp + cooling.recirculation_raise
    t_in = t_steady + (cooling.t_in_initial - t_steady) * math.exp(
        -cooling.crac_influence_rate * t)
    r = server.thermal_resistance
    rp = r * thermal.compute_power(server, rate, task_len)
    t_cpu = t_in + rp + (cooling.t_cpu_initial - t_in - rp) * math.exp(
        -t / (r * server.heat_capacity))
    share = 1.0 / (air_flow * r)
    t_out = (1.0 - share) * t_in + share * t_cpu
    return air_flow * (t_out - t_in)


def test_cop_shipped_supply_temperature():
    c = CoolingSpec()
    assert math.isclose(thermal.cop(c, 299.15), 5.2628, rel_tol=1e-12)


def test_compute_power_endpoints():
    s = ServerSpec()
    assert thermal.compute_power(s, 0.0, 1e6) == s.p_idle
    full = s.desired_utilization * s.service_rate_ips / 1e6
    assert math.isclose(thermal.compute_power(s, full, 1e6), s.p_peak,
                        rel_tol=1e-12)


def test_compute_power_linear_midpoint():
    s = ServerSpec()
    half = 0.5 * s.service_rate_ips / 1e6
    expect = s.p_idle + 0.5 * (s.p_peak - s.p_idle)
    assert math.isclose(thermal.compute_power(s, half, 1e6), expect,
                        rel_tol=1e-12)


def test_compute_power_overload():
    s = ServerSpec(desired_utilization=0.7)
    ok = 0.7 * s.service_rate_ips / 1e6
    thermal.compute_power(s, ok, 1e6)  # at the ceiling is allowed
    with pytest.raises(OverloadError):
        thermal.compute_power(s, ok * 1.01, 1e6)


def test_compute_energy_is_power_times_span():
    s = ServerSpec()
    (e,) = _one(thermal.fleet_compute_energy(s, np.array([[100.0]]), 1e6,
                                             (500.0, 2300.0)))
    assert math.isclose(e, thermal.compute_power(s, 100.0, 1e6) * 1800.0,
                        rel_tol=1e-12)


def test_trace_matches_aggregate_heat():
    """Per-server component route must equal the aggregated closed form."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        loads, cooling, task_len, air_flow = _random_instance(rng)
        for t in (0.0, 1.0, 10.0, 300.0, 5000.0):
            by_trace = sum(
                _trace_heat(srv, rate, task_len, cooling, air_flow, t)
                for srv, rate in loads)
            agg = thermal.heat_removed(loads, cooling, task_len, t)
            assert math.isclose(by_trace, agg, rel_tol=1e-12, abs_tol=1e-9)


def test_heat_removed_settles_to_compute_power():
    rng = np.random.default_rng(11)
    for _ in range(10):
        loads, cooling, task_len, _ = _random_instance(rng)
        rc = max(s.thermal_resistance * s.heat_capacity for s, _ in loads)
        late = 25.0 * max(rc, 1.0 / cooling.crac_influence_rate)
        total_comp = sum(thermal.compute_power(s, r, task_len) for s, r in loads)
        assert math.isclose(thermal.heat_removed(loads, cooling, task_len, late),
                            total_comp, rel_tol=1e-9)


def test_cooling_power_composition():
    loads = [(ServerSpec(), 200.0)]
    cooling = CoolingSpec()
    t = 42.0
    expect = cooling.fan_power_w() + thermal.heat_removed(
        loads, cooling, 1e6, t) / thermal.cop(cooling, cooling.supply_temp)
    assert thermal.cooling_power(loads, cooling, 1e6, t) == expect


def test_cooling_energy_matches_quadrature():
    from scipy.integrate import quad

    rng = np.random.default_rng(3)
    for _ in range(10):
        loads, cooling, task_len, _ = _random_instance(rng)
        t1 = float(rng.uniform(0.0, 50.0))
        t2 = t1 + float(rng.uniform(10.0, 2000.0))
        closed = thermal.cooling_energy(loads, cooling, task_len, (t1, t2))
        num, _err = quad(
            lambda t: thermal.cooling_power(loads, cooling, task_len, t),
            t1, t2, limit=400, epsabs=1e-10, epsrel=1e-12)
        assert math.isclose(closed, num, rel_tol=1e-8)


def test_partition_servers_balanced():
    assert thermal.partition_servers(40, 4) == [10, 10, 10, 10]
    assert thermal.partition_servers(10, 4) == [3, 3, 2, 2]
    assert thermal.partition_servers(3, 4) == [1, 1, 1, 0]
    assert sum(thermal.partition_servers(123, 7)) == 123


def test_grouped_cooling_matches_manual_split():
    server = ServerSpec()
    cooling = CoolingSpec(crac_count=3)
    rates = [10.0 * k for k in range(8)]
    window = (0.0, 3600.0)
    manual = 0.0
    start = 0
    for n in (3, 3, 2):
        group = [(server, r) for r in rates[start:start + n]]
        manual += thermal.cooling_energy(group, cooling, 1e6, window)
        start += n
    (got,) = _one(thermal.grouped_cooling_energy(np.array([rates]), server,
                                                 cooling, 1e6, window))
    assert math.isclose(got, manual, rel_tol=1e-12)


def test_tdc_total_energy_composition():
    cfg = ModelConfig(scenario=Scenario(ground_servers=4, hap_servers=2,
                                        hap_count=2))
    fleets = offload.Fleets.of(cfg, (10.0, 20.0, 30.0, 40.0), (5.0, 15.0))
    out_compute, out_cooling = _one(thermal.tdc_total_energy(fleets, cfg))
    rates = [10.0, 20.0, 30.0, 40.0, 5.0, 15.0, 5.0, 15.0]
    task_len, sc = cfg.workload.task_length_instr, cfg.scenario
    compute = math.fsum(
        thermal.compute_power(cfg.server, r, task_len) * sc.window_length
        for r in rates)
    (cool,) = _one(thermal.grouped_cooling_energy(
        np.array([rates]), cfg.server, cfg.cooling, task_len, sc.window))
    assert math.isclose(out_compute, compute, rel_tol=1e-12)
    assert math.isclose(out_cooling, cool, rel_tol=1e-12)


def test_energy_breakdown_total():
    b = thermal.EnergyBreakdown.from_parts(compute_j=1.0, cooling_j=2.0,
                                           payload_j=3.0, propulsion_j=4.0,
                                           transmission_j=5.0)
    assert b.total_j == 15.0


# The per-server loops the fleet sums replaced, kept as the reference the
# array kernels must match bit for bit.

def _compute_power_loop(server, rate, task_len):
    u = task_len * rate / server.service_rate_ips
    if u > server.desired_utilization * (1.0 + 1e-12):
        raise OverloadError(
            f"utilization {u:.4f} exceeds ceiling {server.desired_utilization}"
        )
    return server.p_idle + (server.p_peak - server.p_idle) * u


def _compute_sum_loop(rates, server, task_len, window):
    return math.fsum(_compute_power_loop(server, r, task_len)
                     * (window[1] - window[0]) for r in rates)


def _cooling_energy_loop(server_loads, cooling, task_len, window):
    t1, t2 = window
    span = t2 - t1
    nu = cooling.crac_influence_rate
    base = cooling.supply_temp + cooling.recirculation_raise
    d_cpu = cooling.t_cpu_initial - base
    d_in = cooling.t_in_initial - base
    c = thermal.cop(cooling, cooling.supply_temp)
    heat_integral = 0.0
    for server, rate in server_loads:
        r = server.thermal_resistance
        cap = server.heat_capacity
        rc = r * cap
        k = nu + 1.0 / rc
        p = _compute_power_loop(server, rate, task_len)
        heat_integral += (
            p * (span + rc * (math.exp(-t2 / rc) - math.exp(-t1 / rc)))
            + cap * d_cpu * (math.exp(-t1 / rc) - math.exp(-t2 / rc))
            + cap / (nu * rc + 1.0) * d_in * (math.exp(-k * t2) - math.exp(-k * t1))
        )
    return cooling.fan_power_w() * span + heat_integral / c


def _grouped_cooling_loop(rates, server, cooling, task_len, window):
    total = 0.0
    start = 0
    for n in thermal.partition_servers(len(rates), cooling.crac_count):
        group = [(server, r) for r in rates[start:start + n]]
        total += _cooling_energy_loop(group, cooling, task_len, window)
        start += n
    return total


def _tdc_loop(cfg, ground_rates, hap_rates):
    sc = cfg.scenario
    rates = list(ground_rates) + list(hap_rates) * sc.hap_count
    task_len = cfg.workload.task_length_instr
    compute = _compute_sum_loop(rates, cfg.server, task_len, sc.window)
    cooling = _grouped_cooling_loop(rates, cfg.server, cfg.cooling, task_len,
                                    sc.window)
    return thermal.EnergyBreakdown.from_parts(compute_j=compute, cooling_j=cooling)


def _hybrid_loop(cfg, ground_rates, hap_rates):
    task_len = cfg.workload.task_length_instr
    sc = cfg.scenario
    window = sc.window
    compute = _compute_sum_loop(ground_rates, cfg.server, task_len, window)
    cooling = _grouped_cooling_loop(list(ground_rates), cfg.server,
                                    cfg.cooling, task_len, window)
    if not hap_rates:
        return thermal.EnergyBreakdown.from_parts(compute_j=compute, cooling_j=cooling)
    k = sc.hap_count
    payload = k * _compute_sum_loop(hap_rates, cfg.server, task_len, window)
    wind = cfg.wind.speed_at(sc.latitude_deg, sc.day_of_year)
    propulsion = k * (aero.propulsion_power_reduced(cfg.hap, wind)
                      * (window[1] - window[0]))
    transmission = k * channel.transmission_energy(
        cfg.channel, cfg.workload, math.fsum(hap_rates), sc.window_length)
    return thermal.EnergyBreakdown.from_parts(
        compute_j=compute, cooling_j=cooling, payload_j=payload,
        propulsion_j=propulsion, transmission_j=transmission)


def _random_fleet(rng):
    """A random server and cooling spec, a task length, a window, and a
    rate maker that gives ``n`` per-server rates under the ceiling, split
    uniformly or drawn one by one."""
    server = ServerSpec(
        service_rate_mips=float(rng.uniform(100.0, 2000.0)),
        p_idle=float(rng.uniform(50.0, 400.0)),
        p_peak=float(rng.uniform(500.0, 1200.0)),
        desired_utilization=float(rng.uniform(0.5, 1.0)),
        heat_capacity=float(rng.uniform(100.0, 900.0)),
        thermal_resistance=float(rng.uniform(0.05, 1.5)),
    )
    cooling, _ = _random_cooling(rng, crac_count=int(rng.integers(1, 7)))
    task_len = float(rng.uniform(1e5, 1e7))
    t1 = float(rng.uniform(0.0, 500.0))
    window = (t1, t1 + float(rng.uniform(10.0, 86400.0)))
    cap = server.desired_utilization * server.service_rate_ips / task_len

    def rates(n, uniform):
        if uniform:
            return uniform_split(n * float(rng.uniform(0.0, 1.0)) * cap, n)
        return tuple(float(u) * cap for u in rng.uniform(0.0, 1.0, n))

    return server, cooling, task_len, window, rates


def test_fleet_sums_bitwise_equal_to_loops():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        server, cooling, task_len, window, rates = _random_fleet(rng)
        uniform = bool(trial % 2)
        ground = rates(int(rng.integers(0, 90)), uniform)
        got = _one(thermal.grouped_cooling_energy(
            np.array([ground], dtype=float), server, cooling, task_len,
            window))
        assert got == [_grouped_cooling_loop(list(ground), server, cooling,
                                             task_len, window)]
        hap = rates(int(rng.integers(1, 50)), uniform)
        assert _one(thermal.fleet_compute_energy(
            server, np.array([hap]), task_len, window)) \
            == [_compute_sum_loop(hap, server, task_len, window)]
        for hap_count in (0, 1, 3):
            cfg = ModelConfig(
                server=server, cooling=cooling,
                workload=WorkloadSpec(task_length_instr=task_len),
                scenario=Scenario(ground_servers=len(ground),
                                  hap_servers=len(hap) if hap_count else 0,
                                  hap_count=max(hap_count, 1), window=window))
            airborne = hap if hap_count else ()
            fleets = offload.Fleets.of(cfg, ground, airborne)
            assert _bills(*thermal.tdc_total_energy(fleets, cfg)) \
                == [_tdc_loop(cfg, ground, airborne)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinkSaturationWarning)
                assert offload.hybrid_total_energy(cfg, ground, airborne) \
                    == _hybrid_loop(cfg, ground, airborne)


def test_grouped_cooling_with_an_empty_crac():
    # 3 servers on 4 CRACs: the last CRAC cools nobody and pays its fan
    server, cooling, task_len, window, rates = _random_fleet(
        np.random.default_rng(5))
    cooling = dataclasses.replace(cooling, crac_count=4)
    assert thermal.partition_servers(3, 4)[-1] == 0
    for ground in (rates(3, True), rates(3, False), ()):
        assert _one(thermal.grouped_cooling_energy(
            np.array([ground], dtype=float), server, cooling, task_len,
            window)) \
            == [_grouped_cooling_loop(ground, server, cooling, task_len,
                                      window)]


def test_overload_message_names_the_first_server_as_the_loop_did():
    server = ServerSpec(desired_utilization=0.8)
    task_len = 1e6
    cap = 0.8 * server.service_rate_ips / task_len
    rates = (0.5 * cap, cap, 1.3 * cap, 0.2 * cap, 2.0 * cap)
    with pytest.raises(OverloadError) as loop:
        _compute_sum_loop(rates, server, task_len, (0.0, 60.0))
    assert "1.0400" in str(loop.value)
    cfg, batch = ModelConfig(server=server), np.array([rates])
    calls = (
        lambda: thermal.compute_power(server, np.array(rates), task_len),
        lambda: _one(thermal.grouped_cooling_energy(
            batch, server, CoolingSpec(), task_len, (0.0, 60.0))),
        lambda: _one(thermal.fleet_compute_energy(server, batch, task_len,
                                                  (0.0, 60.0))),
        lambda: _one(thermal.tdc_total_energy(
            offload.Fleets.of(cfg, rates, ()), cfg)),
    )
    for call in calls:
        with pytest.raises(OverloadError) as got:
            call()
        assert str(got.value) == str(loop.value)


# --- batched bills: one fleet per row, each row bit for bit its own loop ----

def _rate_batch(rng, rates, rows, ground_n, hap_n):
    """``rows`` (ground, per-platform) rate pairs of one fleet shape with
    independent draws."""
    return [(rates(ground_n, bool(rng.integers(2))),
             rates(hap_n, bool(rng.integers(2)))) for _ in range(rows)]


def _ground_loop(rates, cfg, window):
    task_len = cfg.workload.task_length_instr
    return thermal.EnergyBreakdown.from_parts(
        compute_j=_compute_sum_loop(rates, cfg.server, task_len, window),
        cooling_j=_grouped_cooling_loop(list(rates), cfg.server, cfg.cooling,
                                        task_len, window))


def _fleets(batch, cfg):
    """The (ground, per-platform) rate pairs of ``batch``, which share one
    fleet shape, as one group at the config's scenario."""
    sc = cfg.scenario
    return offload.Fleets(
        np.array([ground for ground, _ in batch], dtype=float),
        np.array([hap for _, hap in batch], dtype=float),
        offload.station_keeping(cfg, [sc.latitude_deg] * len(batch),
                                [sc.day_of_year] * len(batch)),
        sc.hap_count, sc.window)


def _bills(compute, cooling, errors):
    """Each row of a batch's compute and cooling columns as a ground bill,
    or its error."""
    return [thermal.EnergyBreakdown.from_parts(compute_j=c, cooling_j=k)
            if error is None else error
            for c, k, error in zip(compute.tolist(), cooling.tolist(), errors)]


def _assert_batch_matches_loops(batch, cfg, server, cooling, task_len,
                                window):
    ground = np.array([g for g, _ in batch], dtype=float)
    hap = np.array([h for _, h in batch], dtype=float)
    fine = [None] * len(batch)
    energy, errors = thermal.fleet_compute_energy(server, ground, task_len,
                                                  window)
    assert (energy.tolist(), errors) == (
        [_compute_sum_loop(g, server, task_len, window) for g, _ in batch],
        fine)
    energy, errors = thermal.grouped_cooling_energy(ground, server, cooling,
                                                    task_len, window)
    assert (energy.tolist(), errors) == (
        [_grouped_cooling_loop(list(g), server, cooling, task_len, window)
         for g, _ in batch], fine)
    assert _bills(*thermal.ground_energy(ground, cfg, window)) \
        == [_ground_loop(g, cfg, window) for g, _ in batch]
    energy, errors = thermal.fleet_compute_energy(server, hap, task_len,
                                                  window)
    assert (energy.tolist(), errors) == (
        [_compute_sum_loop(h, server, task_len, window) for _, h in batch],
        fine)
    fleets = _fleets(batch, cfg)
    assert _bills(*thermal.tdc_total_energy(fleets, cfg)) \
        == [_tdc_loop(cfg, *pair) for pair in batch]
    compute, cool, payload, errors = offload.split_bills(fleets, cfg)
    assert list(zip(_bills(compute, cool, errors), payload.tolist())) \
        == [(_ground_loop(g, cfg, window),
             _compute_sum_loop(h, server, task_len, window))
            for g, h in batch]


def test_batched_bills_bitwise_equal_to_loops():
    rng = np.random.default_rng(909)
    for trial in range(12):
        server, cooling, task_len, window, rates = _random_fleet(rng)
        rows, ground_n, hap_n, hap_count = (int(rng.integers(1, top))
                                            for top in (9, 60, 30, 4))
        cfg = ModelConfig(server=server, cooling=cooling,
                          workload=WorkloadSpec(task_length_instr=task_len),
                          scenario=Scenario(hap_count=hap_count,
                                            window=window))
        batch = _rate_batch(rng, rates, rows, ground_n, hap_n)
        _assert_batch_matches_loops(batch, cfg, server, cooling, task_len,
                                    window)


@pytest.mark.parametrize("ground_n, hap_n, crac_count", [
    (3, 2, 4),     # the last CRAC cools nobody
    (10, 3, 4),    # uneven split: 3, 3, 2, 2 on the ground side
    (0, 5, 3),     # no ground servers: every CRAC pays its fan only
    (7, 0, 2),     # no airborne servers: the split system is all ground
])
def test_batched_bills_edge_fleets(ground_n, hap_n, crac_count):
    rng = np.random.default_rng(ground_n * 100 + hap_n)
    server, cooling, task_len, window, rates = _random_fleet(rng)
    cooling = dataclasses.replace(cooling, crac_count=crac_count)
    cfg = ModelConfig(server=server, cooling=cooling,
                      workload=WorkloadSpec(task_length_instr=task_len),
                      scenario=Scenario(hap_count=2, window=window))
    batch = _rate_batch(rng, rates, 4, ground_n, hap_n)
    _assert_batch_matches_loops(batch, cfg, server, cooling, task_len,
                                window)


def test_batched_overloaded_row_keeps_the_other_rows(faint_link_cfg,
                                                     monkeypatch):
    # the faint link drops every fine row's traffic, which then overloads
    # its ground fleet (the last assertion); the shipped link drops ~8e-14
    server = dataclasses.replace(faint_link_cfg.server,
                                 desired_utilization=0.8)
    window = (0.0, 3600.0)
    cfg = dataclasses.replace(faint_link_cfg, server=server, scenario=Scenario(
        ground_servers=2, hap_servers=5, window=window))
    task_len = cfg.workload.task_length_instr
    cap = 0.8 * server.service_rate_ips / task_len
    fine = [tuple(f * cap for f in (0.1, 0.5, 0.9, 1.0, 0.3)),
            tuple(f * cap for f in (0.7, 0.2, 0.0, 0.6, 0.4))]
    bad = tuple(f * cap for f in (0.5, 0.9, 1.3, 0.2, 2.0))
    rows = [fine[0], bad, fine[1]]
    with pytest.raises(OverloadError) as loop:
        _compute_sum_loop(bad, server, task_len, window)
    assert "1.0400" in str(loop.value)

    batch = np.array(rows)
    for (*columns, errors), want in (
            (thermal.fleet_compute_energy(server, batch, task_len, window),
             lambda r: [_compute_sum_loop(r, server, task_len, window)]),
            (thermal.grouped_cooling_energy(batch, server, cfg.cooling,
                                            task_len, window),
             lambda r: [_grouped_cooling_loop(list(r), server, cfg.cooling,
                                              task_len, window)]),
            (thermal.ground_energy(batch, cfg, window),
             lambda r: [_ground_loop(r, cfg, window).compute_j,
                        _ground_loop(r, cfg, window).cooling_j])):
        assert isinstance(errors[1], OverloadError)
        assert str(errors[1]) == str(loop.value)
        assert errors[0] is None and errors[2] is None
        assert [[column[k] for column in columns] for k in (0, 2)] \
            == [want(fine[0]), want(fine[1])]

    # the same rows as the airborne side of three scenarios
    pairs = [((0.1 * cap, 0.2 * cap), r) for r in rows]
    fleets = _fleets(pairs, cfg)
    baseline = _bills(*thermal.tdc_total_energy(fleets, cfg))
    assert str(baseline[1]) == str(loop.value)
    assert [baseline[0], baseline[2]] == [_tdc_loop(cfg, *pairs[0]),
                                          _tdc_loop(cfg, *pairs[2])]
    *_, errors = offload.split_bills(fleets, cfg)
    assert str(errors[1]) == str(loop.value)

    # priced together, the overloaded row holds its baseline's error and
    # never reaches the drop; the others price as the scalar route does
    drops = []
    real_drop = channel.drop_probability
    monkeypatch.setattr(channel, "drop_probability",
                        lambda *args: drops.append(args[2]) or real_drop(*args))
    # a bisection that ends before its first bracket leaves the gate at 0
    # (the faint link's own gate, 3.35 task/s, is below every row too)
    gates = []
    monkeypatch.setattr(
        offload, "_gate",
        lambda cfg: gates.append(cfg) or offload._Gate(iter(())))
    ev = offload.evaluate_offload(fleets, cfg)
    assert gates == [cfg]
    priced = offload.retransmit_savings(ev, cfg)
    assert priced.errors[1] is ev.errors[1]
    assert str(priced.errors[1]) == str(loop.value)
    assert [r.tolist() for r in drops] == [[math.fsum(rows[0]),
                                            math.fsum(rows[2])]]
    # rerouting every dropped task overloads the other two rows' ground
    # fleets, which their reroute reports hold
    rerouted = offload.reroute_savings(ev, cfg)
    assert rerouted.errors[1] is ev.errors[1]

    def reported(price):
        """``price(k)`` of the two fine rows, or its error's text."""
        out = []
        for k in (0, 2):
            try:
                out.append(price(k))
            except OverloadError as exc:
                out.append(str(exc))
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinkSaturationWarning)
        for flag, got in ((True, priced), (False, rerouted)):
            want = reported(lambda k: offload.saving(
                cfg, *pairs[k], with_retransmission=flag))
            assert reported(got.report) == want
            assert want == reported(lambda k: offload_reference.saving(
                cfg, *pairs[k], with_retransmission=flag))
    assert all(isinstance(error, OverloadError) for error in rerouted.errors)
