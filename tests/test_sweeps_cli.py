"""Sweep engine and command line behavior."""

import ast
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hapdc import channel, cli, offload, queueing, sweeps, thermal
from hapdc.config import ModelConfig, WorkloadSpec, load_config
from hapdc.errors import ConfigError, LinkSaturationWarning, OverloadError

import offload_reference
from conftest import REPO_ROOT, SHIPPED_CONFIG


# --- SweepSpec ---------------------------------------------------------------

def test_spec_values_inclusive():
    assert sweeps.SweepSpec("day", 1.0, 10.0, 3.0).values() == [1.0, 4.0, 7.0, 10.0]
    assert sweeps.SweepSpec("latitude", -60.0, 60.0, 30.0).values() == [
        -60.0, -30.0, 0.0, 30.0, 60.0]
    # float slack keeps the endpoint
    assert len(sweeps.SweepSpec("arrival_rate", 0.0, 1.0, 0.1).values()) == 11


def test_spec_rejects_bad_ranges():
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("orbit", 0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("day", 0.0, 10.0, 0.0)
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("day", 0.0, 10.0, -1.0)
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("day", 10.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("day", 0.0, math.inf, 1.0)
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("day", 0.0, 10.0, 1.0, samples=0)


def test_spec_refuses_an_oversized_grid(monkeypatch):
    # the count is checked when the spec is built, before any grid list
    monkeypatch.setattr(sweeps.SweepSpec, "values",
                        lambda self: pytest.fail("grid list built"))
    with pytest.raises(ConfigError, match="366,000,000,001 points"):
        sweeps.SweepSpec("day", 0.0, 366.0, 1e-9)
    with pytest.raises(ConfigError, match="inf points"):
        sweeps.SweepSpec("arrival_rate", -1.7e308, 1.7e308, 1.0)
    with pytest.raises(ConfigError, match="1,000,001 points"):
        sweeps.SweepSpec("arrival_rate", 0.0, 1e6, 1.0)
    assert sweeps.SweepSpec("arrival_rate", 0.0, 999_999.0, 1.0)._count() == (
        sweeps.MAX_GRID_POINTS)
    assert cli.main(["energy", "--axis", "day",
                     "--range", "0:366:1e-9"]) == 2
    # so is the sample count, before the delay simulation allocates a task
    monkeypatch.setattr(queueing, "simulate_mm1_vacations",
                        lambda *a, **k: pytest.fail("tasks simulated"))
    with pytest.raises(ConfigError, match="10,000,000,000 samples"):
        sweeps.SweepSpec("arrival_rate", 0.0, 1.0, 1.0, samples=10**10)
    assert sweeps.SweepSpec("arrival_rate", 0.0, 1.0, 1.0,
                            samples=sweeps.MAX_SAMPLES).samples == 10**8
    assert cli.main(["delay", "--axis", "arrival_rate", "--range",
                     "1000:1000:1", "--samples", "10000000000"]) == 2


def test_spec_axis_domains():
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("latitude", -100.0, 0.0, 10.0).values()
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("day", 300.0, 400.0, 10.0).values()
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("hap_servers", 0.0, 10.0, 1.0).values()
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("hap_servers", 1.0, 10.0, 0.5).values()
    with pytest.raises(ConfigError):
        sweeps.SweepSpec("arrival_rate", -5.0, 5.0, 1.0).values()


# --- axis application --------------------------------------------------------

def test_apply_axis(shipped_cfg):
    # a grid point is the config's scenario with the axis knob set, and
    # the config's total offered rate unless the axis sets that
    total = shipped_cfg.workload.arrival_rate_total
    for axis, value in (("latitude", -10.0), ("day", 200.0),
                        ("hap_servers", 12.0), ("arrival_rate", 5000.0)):
        sc, rate = sweeps._axis_point(shipped_cfg, axis, value)
        point = offload_reference.apply_axis(shipped_cfg, axis, value)
        assert sc == point.scenario
        assert rate == point.workload.arrival_rate_total
    sc, rate = sweeps._axis_point(shipped_cfg, "latitude", -10.0)
    assert sc.latitude_deg == -10.0 and rate == total
    sc, _ = sweeps._axis_point(shipped_cfg, "day", 200.0)
    assert sc.day_of_year == 200.0
    sc, _ = sweeps._axis_point(shipped_cfg, "hap_servers", 12.0)
    assert sc.hap_servers == 12
    assert sc.hap_rates == (0.0,) * 12
    sc, rate = sweeps._axis_point(shipped_cfg, "arrival_rate", 5000.0)
    assert sc is shipped_cfg.scenario and rate == 5000.0


def _with_scenario(cfg, **changes):
    """``cfg`` with the given scenario fields replaced."""
    return replace(cfg, scenario=replace(cfg.scenario, **changes))


# --- flying sweep ------------------------------------------------------------

def test_flying_sweep_matches_direct_calls(shipped_cfg):
    spec = sweeps.SweepSpec("latitude", -60.0, 60.0, 30.0)
    out = sweeps.run_flying_sweep(shipped_cfg, spec)
    assert out.header == ["latitude", "lambda_max", "threshold", "binding",
                          "error"]
    assert len(out.rows) == 5
    for row in out.rows:
        lat = row[0]
        lam, threshold, binding = offload.fly_point(lat, 150.0, 40, shipped_cfg)
        assert row[1] == lam and row[2] == threshold and row[3] == binding
        assert row[4] is None
    assert not out.all_failed


def test_flying_sweep_polar_rows_error(shipped_cfg):
    spec = sweeps.SweepSpec("latitude", 60.0, 90.0, 10.0)
    out = sweeps.run_flying_sweep(
        _with_scenario(shipped_cfg, day_of_year=171.0), spec)
    errs = [row[4] for row in out.rows]
    assert errs[0] is None            # 60 degrees still sees a day cycle
    assert all(e is not None for e in errs[2:])  # 80 and 90 do not
    assert not out.all_failed


def test_flying_sweep_decreases_with_fleet_size(shipped_cfg):
    spec = sweeps.SweepSpec("hap_servers", 1.0, 50.0, 7.0)
    out = sweeps.run_flying_sweep(shipped_cfg, spec)
    lams = [row[1] for row in out.rows]
    assert all(e is None for e in (row[4] for row in out.rows))
    for a, b in zip(lams, lams[1:]):
        assert b <= a + 1e-12
    assert lams[0] == 580.0           # one server is capacity-bound
    assert lams[-1] < 580.0           # fifty share the harvest


def test_flying_day_sweep_flattest_at_equator(shipped_cfg):
    spreads = {}
    for lat in (0.0, 20.0, 40.0):
        spec = sweeps.SweepSpec("day", 1.0, 361.0, 30.0)
        out = sweeps.run_flying_sweep(
            _with_scenario(shipped_cfg, latitude_deg=lat), spec)
        lams = [row[1] for row in out.rows if row[4] is None]
        spreads[lat] = max(lams) - min(lams)
    assert spreads[0.0] < spreads[20.0] < spreads[40.0]


def test_flying_sweep_needs_fleet(shipped_cfg):
    cfg = replace(shipped_cfg,
                  scenario=replace(shipped_cfg.scenario, hap_servers=0,
                                   hap_rates=()))
    with pytest.raises(ConfigError):
        sweeps.run_flying_sweep(cfg, sweeps.SweepSpec("day", 1.0, 2.0, 1.0))


# --- energy sweep ------------------------------------------------------------

def test_energy_sweep_latitude(shipped_cfg):
    spec = sweeps.SweepSpec("latitude", -60.0, 60.0, 60.0)
    out = sweeps.run_energy_sweep(shipped_cfg, spec)
    assert out.header == ["latitude", "e_tdc", "e_hybrid", "saved_rate",
                          "n_retx", "error"]
    for row in out.rows:
        assert row[5] is None
        assert row[1] > 0.0
        assert row[3] >= 0.0          # offloading never loses on this config
    # the link saturates at the allocated offload rate, which is reported
    # in the notes, never inside the data rows
    assert out.notes
    assert "saturat" not in sweeps.render_csv(out)


def test_energy_sweep_day_axis_minimum_midyear(shipped_cfg):
    spec = sweeps.SweepSpec("day", 60.0, 300.0, 15.0)
    out = sweeps.run_energy_sweep(shipped_cfg, spec)
    hybrid = [row[2] for row in out.rows]
    best = out.rows[hybrid.index(min(hybrid))][0]
    assert 120.0 <= best <= 240.0


def test_energy_sweep_second_platform(shipped_cfg):
    one = sweeps.run_energy_sweep(
        shipped_cfg, sweeps.SweepSpec("day", 150.0, 150.0, 1.0))
    two = sweeps.run_energy_sweep(
        _with_scenario(shipped_cfg, hap_count=2),
        sweeps.SweepSpec("day", 150.0, 150.0, 1.0))
    assert two.rows[0][3] > one.rows[0][3]


def test_saturation_note_counts_grid_points(shipped_cfg):
    # the retransmission variant prices the uplink more than once per row,
    # so a count of warnings would report six points here
    out = sweeps.run_energy_sweep(
        shipped_cfg, sweeps.SweepSpec("day", 150.0, 152.0, 1.0))
    assert len(out.notes) == 1
    assert out.notes[0].startswith("3 grid point(s) offered more traffic")
    # the shipped sweeps: each saturated point is counted once, read from
    # its airtime
    for axis, bounds, count in (("day", (1.0, 365.0, 1.0), 218),
                                ("arrival_rate", (0.0, 40_000.0, 100.0), 312),
                                ("hap_servers", (1.0, 40.0, 3.0), 10)):
        out = sweeps.run_energy_sweep(shipped_cfg,
                                      sweeps.SweepSpec(axis, *bounds))
        assert out.notes == [
            f"{count} grid point(s) offered more traffic than the link "
            "carries; their energy figures assume the backlog still goes "
            "out"], axis


def test_sweep_passes_other_warnings_on(shipped_cfg, monkeypatch):
    admitted = offload.lambda_max

    def noisy(*args):
        warnings.warn("unrelated", UserWarning)
        return admitted(*args)

    monkeypatch.setattr(offload, "lambda_max", noisy)
    with pytest.warns(UserWarning, match="unrelated"):
        out = sweeps.run_energy_sweep(
            shipped_cfg, sweeps.SweepSpec("day", 150.0, 150.0, 1.0))
    assert out.notes[0].startswith("1 grid point(s)")


# --- outage sweep ------------------------------------------------------------

def test_outage_sweep_columns_and_ordering(shipped_cfg):
    spec = sweeps.SweepSpec("arrival_rate", 1000.0, 8000.0, 1000.0,
                            seed=5, samples=2000)
    out = sweeps.run_outage_sweep(shipped_cfg, spec)
    assert out.header == ["lambda", "ccdf_lb", "ccdf_ub", "ccdf_mc",
                          "ccdf_mc_se", "drop_rate", "saved_with_retx",
                          "saved_without", "error"]
    assert out.manifest["samples"] == "2000"
    lbs = [row[1] for row in out.rows]
    ubs = [row[2] for row in out.rows]
    for k, row in enumerate(out.rows):
        lam, lb, ub, mc, se, drop, with_r, without, err = row
        assert err is None
        assert 0.0 <= lb <= ub + 1e-12 and ub <= 1.0
        assert 0.0 <= mc <= 1.0 and se > 0.0
        assert drop == 1.0 - lb
        assert with_r >= without - 1e-12
        if k:
            assert lb <= lbs[k - 1] + 1e-12
            assert ub <= ubs[k - 1] + 1e-12


def test_outage_sweep_requires_rate_axis(shipped_cfg):
    with pytest.raises(ConfigError):
        sweeps.run_outage_sweep(shipped_cfg,
                                sweeps.SweepSpec("day", 1.0, 2.0, 1.0))


def test_outage_onset_moves_down_with_longer_tasks(shipped_cfg):
    spec = sweeps.SweepSpec("arrival_rate", 2000.0, 10000.0, 2000.0,
                            samples=1)
    small = sweeps.run_outage_sweep(shipped_cfg, spec)
    longer = replace(shipped_cfg, workload=replace(shipped_cfg.workload,
                                                   task_length_instr=4.0e6))
    large = sweeps.run_outage_sweep(longer, spec)
    for s_row, l_row in zip(small.rows, large.rows):
        assert l_row[1] <= s_row[1] + 1e-12


def test_outage_fleet_overload_keeps_link_columns(shipped_cfg):
    # 4e6-instruction tasks overload the ground residual on every row; the
    # link columns do not depend on the fleet and must survive that
    longer = replace(shipped_cfg, workload=replace(shipped_cfg.workload,
                                                   task_length_instr=4.0e6))
    spec = sweeps.SweepSpec("arrival_rate", 2000.0, 6000.0, 2000.0,
                            seed=4, samples=2000)
    out = sweeps.run_outage_sweep(longer, spec)
    ch = longer.channel.resolved()
    for lam, lb, ub, mc, se, drop, with_r, without, err in out.rows:
        demand = channel.spectral_demand(ch, longer.workload, lam)
        assert lb == channel.ccdf_lower(ch, demand)
        assert ub == channel.ccdf_upper(ch, demand)
        assert drop == 1.0 - lb
        assert 0.0 <= mc <= 1.0 and se > 0.0
        assert with_r is None and without is None
        assert "exceeds ceiling" in err
    assert out.all_failed


def test_outage_without_ground_servers_errs_per_row(shipped_cfg, tmp_path,
                                                   capsys):
    # a residual with no ground server to take it, or dropped traffic with
    # none to absorb it, lands in its own row's error cell with the link
    # columns kept, and the sweep carries on
    no_ground = _with_scenario(shipped_cfg, ground_servers=0, ground_rates=())
    spec = sweeps.SweepSpec("arrival_rate", 0.0, 20_000.0, 4000.0, samples=1)
    out = sweeps.run_outage_sweep(no_ground, spec)
    fleet = sweeps.run_outage_sweep(shipped_cfg, spec)
    assert [row[-1] for row in out.rows] == (
        ["no ground servers to take the residual workload"] * 5
        + ["no ground servers to absorb dropped workload"])
    # the saturated last row has no energy figure, so no note counts it
    assert out.notes == []
    for row, kept in zip(out.rows, fleet.rows):
        assert row[:6] == kept[:6] and row[6:8] == [None, None]
    # on the command line every row errs, so the run is infeasible, not a
    # usage error
    cfg = tmp_path / "no_ground.yaml"
    cfg.write_text("scenario: {ground_servers: 0}\n")
    csv_out = tmp_path / "outage.csv"
    rc = cli.main(["outage", "--config", str(cfg), "--axis", "arrival_rate",
                   "--range", "0:12000:4000", "--samples", "100",
                   "--out", str(csv_out)])
    assert rc == 4
    assert "error:" not in capsys.readouterr().err
    assert csv_out.read_text().count("no ground servers") == 4


def test_outage_sweep_notes_saturated_rows(shipped_cfg):
    spec = sweeps.SweepSpec("arrival_rate", 0.0, 12000.0, 2000.0, samples=1)
    out = sweeps.run_outage_sweep(shipped_cfg, spec)
    ch = shipped_cfg.channel
    over = sum(channel.airtime_fraction(ch, shipped_cfg.workload, lam) > 1.0
               for lam in spec.values())
    assert 0 < over < len(out.rows)
    assert out.notes == [
        f"{over} grid point(s) offered more traffic than the link carries; "
        "their energy figures assume the backlog still goes out"]
    assert "backlog" not in sweeps.render_csv(out)



def _outage_cases(shipped_cfg):
    """(config, grid values) pairs covering each branch of the saving cells:
    the gate closed and open, a drop of 1.0, two platforms, no airborne
    server, a ground residual over the utilization ceiling, a residual with
    no ground server to take it, and dropped traffic with no ground server
    to absorb it (no offered total, so only the drops need one)."""
    rng = np.random.default_rng(21)
    seeded = sorted(rng.uniform(0.0, 12_000.0, 12).tolist())
    two = replace(shipped_cfg, scenario=replace(shipped_cfg.scenario,
                                                hap_count=2))
    grounded = _with_scenario(shipped_cfg, hap_servers=0, hap_rates=())
    longer = replace(shipped_cfg, workload=replace(shipped_cfg.workload,
                                                   task_length_instr=4.0e6))
    no_ground = _with_scenario(shipped_cfg, ground_servers=0, ground_rates=())
    idle = replace(no_ground, workload=replace(no_ground.workload,
                                               arrival_rate_total=0.0))
    return [(shipped_cfg, [0.0, 3000.0, 5400.0, 7000.0, 11_000.0] + seeded),
            (two, [0.0, 4000.0, 9000.0]),
            (grounded, [0.0]),
            (longer, [2000.0, 6000.0]),
            (no_ground, [0.0, 8000.0, 20_000.0]),
            (idle, [0.0, 3000.0, 6000.0, 9000.0])]


def _priced(price, sc, cfg, flag):
    """The report ``price`` gives, or the text of its OverloadError."""
    try:
        return price(sc, cfg, with_retransmission=flag)
    except OverloadError as exc:
        return str(exc)


def test_outage_saving_cells_equal_saving_bit_for_bit(shipped_cfg):
    # one evaluation of the chunk prices both policies exactly as two
    # saving() calls, and the one-scenario reference, give them on each
    # row's scenario, error text included; the bounds are the scalar calls'
    spec = sweeps.SweepSpec("arrival_rate", 0.0, 1.0, 1.0, samples=1)
    seen = dict.fromkeys(("closed", "open", "drop 1", "exceeds ceiling",
                          "residual", "absorb"), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = [(cfg, value, row) for cfg, values in _outage_cases(shipped_cfg)
                for (row, _), value in zip(
                    sweeps._outage_rows(cfg, spec, list(enumerate(values))),
                    values)]
        for cfg, value, row in rows:
            ch = cfg.channel
            demand = channel.spectral_demand(ch, cfg.workload, value)
            lb = channel.ccdf_lower(ch, demand)
            assert row[:3] + row[5:6] == [value, lb,
                                          channel.ccdf_upper(ch, demand),
                                          1.0 - lb]
            assert row[3] in (0.0, 1.0)  # one Monte Carlo draw
            try:
                sc = sweeps._offload_scenario(cfg, value)
            except OverloadError as exc:
                reports = [str(exc)] * 2
            else:
                reports = [_priced(offload.saving, sc, cfg, flag)
                           for flag in (True, False)]
                assert reports == [
                    _priced(offload_reference.saving, sc, cfg, flag)
                    for flag in (True, False)], value
            # a policy's error blanks both cells; the reroute's comes last
            errors = [r for r in reports if isinstance(r, str)]
            want = [None, None] if errors else [r.saved_rate for r in reports]
            assert row[6:] == [*want, errors[-1] if errors else None], (
                value, row, reports)
            if errors:
                seen[next(k for k in seen if k in errors[-1])] += 1
            elif row[5] == 1.0:
                seen["drop 1"] += 1
            elif row[6] != row[7]:
                seen["open"] += 1
            else:
                seen["closed"] += 1
    assert all(seen.values()), seen


def test_outage_row_evaluates_the_baseline_once(shipped_cfg, monkeypatch):
    # the sweep's baselines are one array pass, and its drops are the
    # rows' own 1 - ccdf_lb, so no drop probability is evaluated
    calls = {"tdc_total_energy": 0, "drop_probability": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(thermal, "tdc_total_energy")
    counting(channel, "drop_probability")
    spec = sweeps.SweepSpec("arrival_rate", 0.0, 12_000.0, 2000.0, samples=1)
    out = sweeps.run_outage_sweep(shipped_cfg, spec)
    assert any(row[5] > 0.0 for row in out.rows)  # some rows drop traffic
    assert calls == {"tdc_total_energy": 1, "drop_probability": 0}


# --- delay sweep -------------------------------------------------------------

def test_delay_sweep_rows(shipped_cfg):
    # at 20000 task/s one vacation-plus-busy cycle holds ~15000 tasks; 1.6e7
    # tasks give ~1100 cycles, enough for the mean to be near normal
    spec = sweeps.SweepSpec("arrival_rate", 0.0, 20000.0, 4000.0,
                            seed=3, samples=16_000_000)
    out = sweeps.run_delay_sweep(shipped_cfg, spec)
    assert out.header == ["lambda", "analytic_wait", "des_wait", "des_se",
                          "rtt", "total", "regime", "error"]
    first = out.rows[0]
    assert first[0] == 0.0 and first[2] is None and first[3] is None
    assert first[1] > 0.0             # an arrival still waits out a vacation
    waits = [row[1] for row in out.rows]
    assert waits == sorted(waits)
    for row in out.rows[1:]:
        lam, wait, des, se, rtt, total, regime, err = row
        assert err is None
        assert math.isclose(total, wait + rtt, rel_tol=1e-12)
        assert regime in ("transport", "queueing")
        assert abs(des - wait) <= max(3.0 * se, 0.02 * wait), (lam, des, wait)


def test_delay_sweep_single_cycle_leaves_des_cells_empty(shipped_cfg):
    # 200 tasks at 20000 task/s arrive within 10 ms, inside the server's
    # first vacation (100 s on average): one busy period, one cycle, so the
    # simulated mean has no error bar and neither cell is filled
    cfg = replace(shipped_cfg, workload=replace(shipped_cfg.workload,
                                                vacation_rate=0.01))
    spec = sweeps.SweepSpec("arrival_rate", 20000.0, 20000.0, 1.0,
                            seed=0, samples=200)
    out = sweeps.run_delay_sweep(cfg, spec)
    lam, wait, des, se, rtt, total, regime, err = out.rows[0]
    assert des is None and se is None and err is None
    assert wait > 0.0 and total > wait
    assert sweeps.render_csv(out).splitlines()[-1].startswith(
        f"{lam!r},{wait!r},,,")


def test_delay_sweep_over_the_vacation_budget_leaves_des_cells_empty(
        shipped_cfg):
    # at 1e-300 task/s the server would take about 1e302 vacations between
    # ten arrivals: the simulation refuses the run at once, and the row
    # keeps its analytic cells
    spec = sweeps.SweepSpec("arrival_rate", 1e-300, 1e-300, 1.0, samples=10)
    out = sweeps.run_delay_sweep(shipped_cfg, spec)
    lam, wait, des, se, rtt, total, regime, err = out.rows[0]
    assert des is None and se is None and err is None
    assert wait == total == 0.1 and regime == "queueing"


def test_delay_sweep_requires_rate_axis(shipped_cfg):
    with pytest.raises(ConfigError):
        sweeps.run_delay_sweep(shipped_cfg,
                               sweeps.SweepSpec("latitude", 0.0, 10.0, 5.0))


def test_delay_sweep_unstable_rows_error(shipped_cfg, monkeypatch):
    calls = []
    rows = sweeps._DELAY.rows
    monkeypatch.setattr(sweeps, "_DELAY", replace(
        sweeps._DELAY, rows=lambda cfg, spec, points:
        calls.append(points) or rows(cfg, spec, points)))
    spec = sweeps.SweepSpec("arrival_rate", 23000.0, 24000.0, 500.0,
                            samples=2000)
    out = sweeps.run_delay_sweep(shipped_cfg, spec)
    assert out.rows[0][7] is None     # 23000 < capacity 23200
    assert out.rows[1][7] is not None
    assert out.rows[2][7] is not None
    assert not out.all_failed
    # one call answers the whole grid, a failing point included
    assert calls == [list(enumerate(spec.values()))]


# --- every sweep ------------------------------------------------------------

def test_bench_tracer_targets_exist():
    # the benchmark tracer wraps these by name and finds the runners in
    # RUNNERS by identity, so each must stay a module-level function
    with open(os.path.join(REPO_ROOT, "bench", "tracer.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    for module, func in targets:
        assert callable(getattr(importlib.import_module(f"hapdc.{module}"),
                                func, None)), (module, func)
    assert set(sweeps.RUNNERS) == {"fly", "energy", "outage", "delay"}
    for runner in sweeps.RUNNERS.values():
        assert ("sweeps", runner.__name__) in targets
        assert getattr(sweeps, runner.__name__) is runner


# --- rendering ---------------------------------------------------------------

def test_csv_shape_and_quoting(shipped_cfg):
    spec = sweeps.SweepSpec("latitude", 70.0, 90.0, 10.0)
    out = sweeps.run_flying_sweep(
        _with_scenario(shipped_cfg, day_of_year=171.0), spec)
    text = sweeps.render_csv(out)
    assert text.startswith("# tool=hapdc ")
    # every line, manifest included, ends with CRLF
    assert text.count("\n") == text.count("\r\n")
    body = [ln for ln in text.split("\r\n") if ln and not ln.startswith("#")]
    parsed = list(csv.reader(io.StringIO("\r\n".join(body))))
    assert parsed[0] == out.header
    # the polar-night message carries a comma, so the field must be quoted
    assert '"' in text
    assert parsed[1][4].count(",") >= 1
    # empty cells for the failed metrics
    assert parsed[1][1] == ""


def test_csv_manifest_keys(shipped_cfg):
    out = sweeps.run_flying_sweep(shipped_cfg,
                                  sweeps.SweepSpec("day", 1.0, 2.0, 1.0,
                                                   seed=42))
    lines = sweeps.render_csv(out).split("\r\n")
    keys = [ln[2:].split("=", 1)[0] for ln in lines if ln.startswith("# ")]
    assert keys == ["tool", "config", "seed", "axis", "range"]
    manifest = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    assert manifest["seed"] == "42"
    assert manifest["axis"] == "day"
    assert len(manifest["config"]) == 64


def test_json_mirror(shipped_cfg):
    out = sweeps.run_flying_sweep(
        shipped_cfg, sweeps.SweepSpec("latitude", -60.0, 60.0, 60.0))
    data = json.loads(sweeps.render_json(out))
    assert data["columns"] == out.header
    assert data["manifest"] == out.manifest
    assert len(data["rows"]) == 3
    assert data["rows"][0][0] == -60.0
    assert data["rows"][0][4] is None


def test_output_column_selection(shipped_cfg):
    spec = sweeps.SweepSpec("latitude", -60.0, 60.0, 60.0,
                            outputs=("lambda_max",))
    out = sweeps.run_flying_sweep(shipped_cfg, spec)
    assert out.header == ["latitude", "lambda_max", "error"]
    assert len(out.rows[0]) == 3
    with pytest.raises(ConfigError):
        sweeps.run_flying_sweep(
            shipped_cfg,
            sweeps.SweepSpec("latitude", -60.0, 60.0, 60.0,
                             outputs=("no_such_column",)))


def test_cell_rendering():
    assert sweeps._cell(None) == ""
    assert sweeps._cell(True) == "true"
    assert sweeps._cell(3) == "3"
    assert sweeps._cell(0.1) == "0.1"
    assert sweeps._cell("x") == "x"


# --- command line ------------------------------------------------------------

def test_cli_fly_roundtrip(tmp_path, capsys):
    out = tmp_path / "fly.csv"
    argv = ["fly", "--config", SHIPPED_CONFIG, "--axis", "latitude",
            "--range", "-60:60:30", "--out", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first
    assert b"\r\n" in first


def test_cli_workers_do_not_change_bytes(tmp_path):
    base = ["outage", "--config", SHIPPED_CONFIG, "--axis", "arrival_rate",
            "--range", "2000:6000:2000", "--samples", "30000", "--seed", "2"]
    p1 = tmp_path / "w1.csv"
    p4 = tmp_path / "w4.csv"
    assert cli.main(base + ["--out", str(p1), "--workers", "1"]) == 0
    assert cli.main(base + ["--out", str(p4), "--workers", "4"]) == 0
    assert p1.read_bytes() == p4.read_bytes()


def test_cli_stdout_and_json(capsys):
    rc = cli.main(["fly", "--config", SHIPPED_CONFIG, "--axis", "day",
                   "--range", "100:102:1", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["manifest"]["axis"] == "day"
    assert len(data["rows"]) == 3


def test_cli_default_config_used_when_omitted(capsys):
    rc = cli.main(["fly", "--axis", "day", "--range", "100:101:1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("# tool=hapdc ")


def test_cli_malformed_range_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fly", "--axis", "day", "--range", "1:10"])
    assert exc.value.code == 2


def test_cli_unknown_axis_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fly", "--axis", "altitude", "--range", "1:10:1"])
    assert exc.value.code == 2


def test_cli_empty_range_is_usage_error(capsys):
    rc = cli.main(["fly", "--axis", "day", "--range", "10:1:1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_zero_step_is_usage_error(capsys):
    rc = cli.main(["fly", "--axis", "day", "--range", "1:10:0"])
    assert rc == 2


def test_cli_missing_config_is_usage_error(capsys):
    rc = cli.main(["fly", "--config", "/no/such/file.yaml", "--axis", "day",
                   "--range", "1:2:1"])
    assert rc == 2


def test_cli_infeasible_everywhere(tmp_path, capsys):
    out = tmp_path / "polar.csv"
    rc = cli.main(["fly", "--config", SHIPPED_CONFIG, "--axis", "latitude",
                   "--range", "80:90:5", "--out", str(out)])
    assert rc == 4
    assert "feasible" in capsys.readouterr().err
    # the file still lands, all rows carrying their error
    text = out.read_text()
    assert text.count("polar") >= 3


def test_cli_energy_notes_go_to_stderr(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    rc = cli.main(["energy", "--config", SHIPPED_CONFIG, "--axis", "day",
                   "--range", "150:150:1", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "link" in err
    assert "link" not in out.read_text()


def test_cli_validate_passes(capsys):
    rc = cli.main(["validate", "--config", SHIPPED_CONFIG])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert all(ln.startswith("PASS ") for ln in lines[:-1])
    assert lines[-1].endswith("checks passed")


@pytest.mark.parametrize("key, message", [
    ("bandwidth_hz", "error: ChannelConfig: bandwidth_hz must be positive"),
    ("link_distance",
     "error: ChannelConfig: ref_gain and link_distance must be positive"),
])
def test_cli_zero_link_budget_field_is_usage_error(tmp_path, capsys, key,
                                                   message):
    path = tmp_path / "zero.yaml"
    path.write_text(f"channel: {{{key}: 0}}\n")
    rc = cli.main(["fly", "--config", str(path), "--axis", "day",
                   "--range", "1:2:1"])
    assert rc == 2
    assert capsys.readouterr().err.strip() == message


def test_cli_omitted_and_empty_config_share_a_manifest(tmp_path, capsys):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    argv = ["fly", "--axis", "day", "--range", "1:2:1", "--seed", "7"]
    assert cli.main(argv) == 0
    omitted = capsys.readouterr().out
    assert cli.main(argv + ["--config", str(empty)]) == 0
    assert capsys.readouterr().out == omitted


def test_delay_sweep_simulates_at_the_report_service_rate(shipped_cfg,
                                                          monkeypatch):
    seen = []
    real = queueing.simulate_mm1_vacations

    def recording(arrival_rate, service_rate, *args):
        seen.append(service_rate)
        return real(arrival_rate, service_rate, *args)

    monkeypatch.setattr(queueing, "simulate_mm1_vacations", recording)
    spec = sweeps.SweepSpec("arrival_rate", 1000.0, 2000.0, 1000.0,
                            samples=2000)
    sweeps.run_delay_sweep(shipped_cfg, spec)
    want = offload.end_to_end_delay(shipped_cfg, 1000.0).service_rate
    assert seen == [want, want]


def test_cli_import_leaves_pool_and_validate_unloaded():
    # a single-process sweep pays for neither the process pool nor the
    # cross-check module; both load only when used
    probe = ("import sys, hapdc.cli; print(sorted(m for m in "
             "('concurrent.futures', 'multiprocessing', 'hapdc.validate') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


# --- the energy sweep's batched bills ---------------------------------------

def _energy_grids(shipped_cfg):
    """(config, spec) pairs on the four axes: polar rows, a ground
    residual over the ceiling, the reliable-rate gate closed and open, and
    one fleet shape per row on the hap_servers axis."""
    return [
        (shipped_cfg, sweeps.SweepSpec("latitude", -90.0, 90.0, 15.0)),
        (_with_scenario(shipped_cfg, latitude_deg=75.0),
         sweeps.SweepSpec("day", 1.0, 365.0, 73.0)),
        (shipped_cfg, sweeps.SweepSpec("arrival_rate", 0.0, 42_000.0, 3000.0)),
        (shipped_cfg, sweeps.SweepSpec("arrival_rate", 5000.0, 5800.0, 100.0)),
        (_with_scenario(shipped_cfg, hap_count=2),
         sweeps.SweepSpec("hap_servers", 1.0, 40.0, 13.0)),
    ]


def test_energy_cells_equal_saving_per_point(shipped_cfg):
    # each row holds what saving() and the one-scenario reference report
    seen = {"polar": 0, "overload": 0, "closed": 0, "open": 0, "shapes": 0}
    gate = offload._reliable_rate(
        shipped_cfg.channel, shipped_cfg.workload.bits_per_instruction,
        shipped_cfg.workload.task_length_instr)
    for cfg, spec in _energy_grids(shipped_cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = sweeps.run_energy_sweep(cfg, spec)
        shapes = set()
        for row, value in zip(out.rows, spec.values()):
            point = offload_reference.apply_axis(cfg, spec.axis, value)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    sc = offload.allocated_scenario(point)
                    rep = offload.saving(sc, point, with_retransmission=True)
                    assert rep == offload_reference.saving(
                        sc, point, with_retransmission=True)
                    want = [rep.e_tdc_j, rep.e_hybrid_j, rep.saved_rate,
                            rep.retransmissions]
                    error = None
                except sweeps._ROW_ERRORS as exc:
                    want, error = [None] * 4, str(exc)
            assert row == [value, *want, error], (spec.axis, value)
            if error is None:
                shapes.add(sc.hap_servers)
                per_link = math.fsum(sc.hap_rates)
                seen["open" if per_link >= gate else "closed"] += 1
            elif "ground capacity" in error:
                seen["overload"] += 1
            else:
                seen["polar"] += 1
        if spec.axis == "hap_servers":
            seen["shapes"] = len(shapes)
    assert seen["shapes"] > 1 and all(seen.values()), seen


def _count_bills(monkeypatch):
    """Batch sizes of every baseline and split-bill pricing call."""
    sizes = {"tdc_total_energy": [], "split_bills": []}

    def counting(module, name):
        real = getattr(module, name)

        def counted(scenarios, cfg):
            sizes[name].append(len(scenarios))
            return real(scenarios, cfg)

        monkeypatch.setattr(module, name, counted)

    counting(thermal, "tdc_total_energy")
    counting(offload, "split_bills")
    return sizes


def test_energy_bills_priced_once_per_fleet_shape(shipped_cfg, monkeypatch):
    sizes = _count_bills(monkeypatch)
    saving_calls = []
    monkeypatch.setattr(offload, "saving",
                        lambda *args, **kw: saving_calls.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweeps.run_energy_sweep(
            shipped_cfg, sweeps.SweepSpec("day", 1.0, 361.0, 30.0))
        assert sizes == {"tdc_total_energy": [13], "split_bills": [13]}
        sizes["tdc_total_energy"].clear()
        sizes["split_bills"].clear()
        # the two ground-overloaded points never reach the bills
        ramp = sweeps.run_energy_sweep(
            shipped_cfg, sweeps.SweepSpec("arrival_rate", 0.0, 42_000.0,
                                          3000.0))
        assert sum(row[-1] is not None for row in ramp.rows) == 2
        assert sizes == {"tdc_total_energy": [13], "split_bills": [13]}
        sizes["tdc_total_energy"].clear()
        sizes["split_bills"].clear()
        sweeps.run_energy_sweep(
            shipped_cfg, sweeps.SweepSpec("hap_servers", 1.0, 40.0, 3.0))
    assert sizes == {"tdc_total_energy": [1] * 14, "split_bills": [1] * 14}
    assert saving_calls == []


def test_energy_baseline_overload_blanks_only_its_row(shipped_cfg,
                                                      monkeypatch):
    real = thermal.tdc_total_energy
    drops = []

    def overloaded_second(scenarios, cfg):
        bills = real(scenarios, cfg)
        bills[1] = OverloadError("utilization 1.2000 exceeds ceiling 1.0")
        return bills

    monkeypatch.setattr(thermal, "tdc_total_energy", overloaded_second)
    real_drop = channel.drop_probability
    monkeypatch.setattr(channel, "drop_probability",
                        lambda *args: drops.append(args[2].tolist())
                        or real_drop(*args))
    spec = sweeps.SweepSpec("arrival_rate", 8000.0, 10_000.0, 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = sweeps.run_energy_sweep(shipped_cfg, spec)
    assert out.rows[1] == [9000.0, None, None, None, None,
                           "utilization 1.2000 exceeds ceiling 1.0"]
    assert out.rows[0][-1] is None and out.rows[2][-1] is None
    # one drop evaluation for the chunk, without the overloaded row's rate
    assert drops == [[8000.0, 10_000.0]]
    assert out.notes[0].startswith("2 grid point(s)")


def test_energy_gate_and_drops_looked_up_once_per_sweep(shipped_cfg,
                                                        monkeypatch):
    gates, drops = [], []
    real_gate, real_drop = offload.drop_gate, channel.drop_probability
    monkeypatch.setattr(offload, "drop_gate",
                        lambda cfg: gates.append(1) or real_gate(cfg))
    monkeypatch.setattr(channel, "drop_probability",
                        lambda *args: drops.append(len(args[2]))
                        or real_drop(*args))
    cfg = shipped_cfg
    gate = real_gate(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in (sweeps.SweepSpec("day", 1.0, 361.0, 30.0),
                     sweeps.SweepSpec("arrival_rate", 0.0, 42_000.0, 3000.0),
                     sweeps.SweepSpec("hap_servers", 1.0, 40.0, 3.0)):
            gates.clear()
            drops.clear()
            out = sweeps.run_energy_sweep(cfg, spec)
            lossy = 0
            for row, value in zip(out.rows, spec.values()):
                if row[-1] is None:
                    sc = offload.allocated_scenario(
                        offload_reference.apply_axis(cfg, spec.axis, value))
                    lossy += math.fsum(sc.hap_rates) >= gate
            assert gates == [1] and drops == [lossy], spec.axis
        # a sweep that offloads nothing looks nothing up
        gates.clear()
        drops.clear()
        sweeps.run_energy_sweep(
            cfg, sweeps.SweepSpec("arrival_rate", 0.0, 0.0, 1.0))
    assert gates == [] and drops == []


def test_energy_drops_run_the_series_once_per_distinct_shallow_rate(
        shipped_cfg, monkeypatch):
    # the shipped ramp hands the drop 331 links at or above the gate, at
    # 100 distinct rates; the Chernoff bound settles 44 of those, so the
    # series sees 56 thresholds.  The seasonal sweep's 249 links keep 91.
    offload.drop_gate(shipped_cfg)  # the inversion's own series is not counted
    links, thresholds = [], []
    real_drop, real_q = channel.drop_probability, channel.marcum_q
    monkeypatch.setattr(channel, "drop_probability",
                        lambda *args: links.append(len(args[2]))
                        or real_drop(*args))
    monkeypatch.setattr(channel, "marcum_q",
                        lambda m, a, y: thresholds.append(np.size(y))
                        or real_q(m, a, y))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec, want in (
                (sweeps.SweepSpec("arrival_rate", 0.0, 40_000.0, 100.0),
                 ([331], [56])),
                (sweeps.SweepSpec("day", 1.0, 365.0, 1.0), ([249], [91]))):
            links.clear()
            thresholds.clear()
            sweeps.run_energy_sweep(shipped_cfg, spec)
            assert (links, thresholds) == want, spec.axis
    # repeats of one rate below the edge cost the series one threshold
    thresholds.clear()
    channel.drop_probability(shipped_cfg.channel, shipped_cfg.workload,
                             np.full(5, 6000.0))
    assert thresholds == [1]


def test_energy_ramp_derives_lambda_max_once(shipped_cfg, monkeypatch):
    # one site, date and fleet on the arrival axis: one derivation per
    # chunk; a polar site raises at every point
    calls = []
    real = offload.fly_point
    monkeypatch.setattr(offload, "fly_point",
                        lambda *args: calls.append(args[:3]) or real(*args))
    spec = sweeps.SweepSpec("arrival_rate", 0.0, 40_000.0, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweeps.run_energy_sweep(shipped_cfg, spec)
        assert calls == [(40.0, 150.0, 40)]
        calls.clear()
        polar = _with_scenario(shipped_cfg, latitude_deg=80.0,
                               day_of_year=355.0)
        out = sweeps.run_energy_sweep(
            polar, sweeps.SweepSpec("arrival_rate", 0.0, 2000.0, 1000.0))
    assert len(calls) == 3
    errors = [row[-1] for row in out.rows]
    assert errors[0] and errors == [errors[0]] * 3
    with pytest.raises(sweeps._ROW_ERRORS) as exc:
        offload.allocated_scenario(polar)
    assert str(exc.value) == errors[0]


def test_energy_link_rate_error_lands_after_the_bills(shipped_cfg):
    # an SNR so small that the reference rate rounds to 0: every row with
    # platforms fails on its uplink energy, after its own bill errors
    cfg = replace(shipped_cfg,
                  channel=replace(shipped_cfg.channel, avg_rx_snr=1e-300))
    spec = sweeps.SweepSpec("arrival_rate", 0.0, 42_000.0, 6000.0)
    out = sweeps.run_energy_sweep(cfg, spec)
    for row, value in zip(out.rows, spec.values()):
        point = offload_reference.apply_axis(cfg, spec.axis, value)
        with pytest.raises(sweeps._ROW_ERRORS) as exc:
            offload.saving(offload.allocated_scenario(point), point,
                           with_retransmission=True)
        assert row == [value, None, None, None, None, str(exc.value)]
    errors = [row[-1] for row in out.rows]
    assert errors.count("link reference rate is not positive") == 7
    assert "ground capacity" in errors[-1]


def test_energy_pricing_passes_other_warnings_on(shipped_cfg, monkeypatch):
    # the chunk pricing of both the energy and the outage rows reads
    # saturation from the airtime, so a warning of another category
    # reaches the caller and none of the link's escapes
    real_link = channel.link_energy

    def noisy(*args):
        warnings.warn("unrelated", UserWarning)
        return real_link(*args)

    monkeypatch.setattr(channel, "link_energy", noisy)
    for kind, spec in (
            ("energy", sweeps.SweepSpec("day", 150.0, 152.0, 1.0)),
            ("outage", sweeps.SweepSpec("arrival_rate", 0.0, 12_000.0,
                                        2000.0, samples=1))):
        with pytest.warns(UserWarning, match="unrelated") as record:
            out = sweeps.RUNNERS[kind](shipped_cfg, spec)
        assert not [w for w in record
                    if issubclass(w.category, LinkSaturationWarning)], kind
        assert out.notes[0].startswith("3 grid point(s)"), kind
