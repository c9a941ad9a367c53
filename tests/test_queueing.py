"""Vacation queue: closed form against the discrete-event simulation."""

import dataclasses
import math

import numpy as np
import pytest

from hapdc import queueing
from hapdc.errors import NumericsError, StabilityError


def test_residual_time_no_arrivals():
    # empty system: an arrival only ever waits out a residual vacation
    assert queueing.residual_time(0.0, 2.0, 4.0) == 0.25


def test_frozen_closed_form_instance():
    # picked so the numbers come out round: u = 1/2,
    # residual = 1/4 + (1/2)*(3/2) = 1, wait = 1/(1 - 1/2) = 2
    assert queueing.residual_time(1.0, 2.0, 2.0 / 3.0) == 1.0
    assert queueing.mean_wait(1.0, 2.0, 2.0 / 3.0) == 2.0


def test_unstable_raises():
    with pytest.raises(StabilityError):
        queueing.mean_wait(2.0, 2.0, 1.0)
    with pytest.raises(StabilityError):
        queueing.mean_wait(2.5, 2.0, 1.0)
    with pytest.raises(StabilityError):
        queueing.simulate_mm1_vacations(2.0, 2.0, 1.0, 1000,
                                        np.random.default_rng(0))


def test_bad_rates_rejected():
    with pytest.raises(ValueError):
        queueing.mean_wait(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        queueing.mean_wait(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        queueing.residual_time(1.0, 2.0, 0.0)


def test_rare_vacations_recover_plain_queue():
    # with near-instant vacations this is the textbook M/M/1 wait
    lam, mu = 3.0, 5.0
    want = lam / (mu * (mu - lam))
    got = queueing.mean_wait(lam, mu, 1e12)
    assert math.isclose(got, want, rel_tol=1e-6)


def test_wait_monotone_and_diverging():
    mu, nu = 2.0, 5.0
    lams = [0.2, 0.8, 1.4, 1.8, 1.98]
    waits = [queueing.mean_wait(l, mu, nu) for l in lams]
    assert waits == sorted(waits)
    assert waits[-1] > 20.0 * waits[0]


def test_simulation_matches_closed_form():
    mu, nu = 2.0, 1.0
    for u in (0.3, 0.6, 0.8):
        lam = u * mu
        want = queueing.mean_wait(lam, mu, nu)
        sim = queueing.simulate_mm1_vacations(
            lam, mu, nu, 200_000, rng=np.random.default_rng(int(u * 10)))
        assert type(sim.stderr) is float
        tol = max(0.02 * want, 3.0 * sim.stderr)
        assert abs(sim.mean_wait - want) <= tol, (u, sim.mean_wait, want)


def test_simulation_low_load_sees_vacation_tail():
    # nearly every arrival finds the server mid-vacation
    sim = queueing.simulate_mm1_vacations(
        0.005, 1.0, 0.05, 100_000, rng=np.random.default_rng(99))
    assert abs(sim.mean_wait - 1.0 / 0.05) <= 3.0 * sim.stderr


def test_simulation_seed_deterministic():
    a = queueing.simulate_mm1_vacations(1.0, 2.0, 1.0, 5000,
                                        rng=np.random.default_rng(4))
    b = queueing.simulate_mm1_vacations(1.0, 2.0, 1.0, 5000,
                                        rng=np.random.default_rng(4))
    assert a == b


def test_simulation_busy_fraction_tracks_utilization():
    sim = queueing.simulate_mm1_vacations(
        1.2, 2.0, 1.0, 200_000, rng=np.random.default_rng(30))
    assert abs(sim.busy_fraction - 0.6) < 0.01


def _event_loop(arrival_rate, service_rate, vacation_rate, n_tasks, rng):
    """The vacation queue played task by task, drawing as the simulator does.

    Returns the per-task waits, the time the last service ends, and how
    many arrivals found the system empty.
    """
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, n_tasks))
    services = rng.exponential(1.0 / service_rate, n_tasks)
    pool = rng.exponential(1.0 / vacation_rate, 8192)
    used = 0
    waits = np.empty(n_tasks)
    busy_until = 0.0
    empty_arrivals = 0
    for i, a in enumerate(arrivals):
        start = busy_until
        if a >= busy_until:
            empty_arrivals += 1
            while start <= a:
                if used == len(pool):
                    pool = rng.exponential(1.0 / vacation_rate, 8192)
                    used = 0
                start += pool[used]
                used += 1
        waits[i] = start - a
        busy_until = start + services[i]
    return waits, busy_until, empty_arrivals


@pytest.mark.parametrize("lam, mu, nu", [
    (0.1, 1.0, 1.0),        # most tasks find the system empty
    (0.9, 1.0, 0.01),       # long vacations, long busy periods
    (16000.0, 23200.0, 10.0),  # the shipped offload queue
    (0.005, 1.0, 0.05),     # several vacation pools per run
])
def test_simulation_matches_event_loop(lam, mu, nu):
    n = 20_000
    sim = queueing.simulate_mm1_vacations(lam, mu, nu, n,
                                          rng=np.random.default_rng(12))
    waits, end, empty = _event_loop(lam, mu, nu, n, np.random.default_rng(12))
    assert sim.cycles == empty
    # the same draws on the same path; only the summation order differs,
    # and each time carries at most n roundings of the horizon's size
    tol = n * np.finfo(float).eps * end
    assert abs(sim.mean_wait - waits.mean()) <= tol
    assert abs(sim.horizon - end) <= tol


def test_simulation_stderr_matches_replication_spread():
    # one vacation-plus-busy cycle spans about 900 tasks here, more than a
    # 500-task batch of 40 contiguous batch means; the regenerative error
    # bar must still track how far the mean moves between independent runs
    lam, mu, nu = 0.9, 1.0, 0.01
    runs = [queueing.simulate_mm1_vacations(
                lam, mu, nu, 20_000,
                rng=np.random.default_rng(np.random.SeedSequence(0, spawn_key=(k,))))
            for k in range(60)]
    spread = np.std([r.mean_wait for r in runs], ddof=1)
    rms_se = math.sqrt(np.mean([r.stderr ** 2 for r in runs]))
    # about 23 cycles per run bias the ratio estimator low by 10-15%, and
    # 60 runs pin the spread to ~9%; batch means read about 0.45 here
    assert 0.65 <= rms_se / spread <= 1.5, rms_se / spread


def test_simulation_guards():
    with pytest.raises(ValueError):
        queueing.simulate_mm1_vacations(0.0, 1.0, 1.0, 1000,
                                        np.random.default_rng(0))
    with pytest.raises(ValueError):
        queueing.simulate_mm1_vacations(1.0, 2.0, 1.0, 1,
                                        np.random.default_rng(0))
    # a vacation lasting hours gathers all 50 arrivals into one busy
    # period: a single cycle, which leaves no spread for an error bar
    sim = queueing.simulate_mm1_vacations(0.99, 1.0, 1e-4, 50,
                                          rng=np.random.default_rng(1))
    assert sim.cycles == 1
    assert sim.stderr is None
    assert sim.mean_wait > 0.0


def test_simulation_refuses_a_run_over_the_vacation_budget():
    # at 1e-300 task/s the server would draw about 1e302 vacation ends
    # between ten arrivals; the run is refused before it draws any
    with pytest.raises(NumericsError, match="vacation ends"):
        queueing.simulate_mm1_vacations(1e-300, 23200.0, 10.0, 10,
                                        rng=np.random.default_rng(0))
    # 20 tasks at 1e-6 task/s span about 2e7 s, or 2e8 ends at 10 per s
    with pytest.raises(NumericsError, match="vacation ends"):
        queueing.simulate_mm1_vacations(1e-6, 1.0, 10.0, 20,
                                        rng=np.random.default_rng(0))


def _simulate_all_ends(arrival_rate, service_rate, vacation_rate, n_tasks, rng):
    """The vectorised simulation with every vacation end of the run held in
    one array and searched at once; kept as the reference of the pool-by-pool
    search, which must give the same result bit for bit."""
    arrivals = rng.exponential(1.0 / arrival_rate, n_tasks)
    np.cumsum(arrivals, out=arrivals)
    services = rng.exponential(1.0 / service_rate, n_tasks)
    last_service = services[-1]
    work_ahead = np.empty(n_tasks)
    work_ahead[0] = 0.0
    np.cumsum(services[:-1], out=work_ahead[1:])
    total_work = work_ahead[-1] + last_service
    virtual = np.maximum.accumulate(arrivals - work_ahead)
    pools, last = [], 0.0
    while last <= virtual[-1]:
        pool = np.cumsum(rng.exponential(1.0 / vacation_rate, 8192))
        pool += last
        pools.append(pool)
        last = pool[-1]
    vacation_ends = np.concatenate(pools)
    landed = np.concatenate(
        ([0], np.searchsorted(virtual, vacation_ends, side="left")))
    served_by = np.flatnonzero(np.diff(landed, append=n_tasks + 1))
    cycle_starts = landed[served_by]
    inside = cycle_starts < n_tasks
    cycle_starts, served_by = cycle_starts[inside], served_by[inside]
    sizes = np.diff(np.append(cycle_starts, n_tasks))
    starts = np.repeat(vacation_ends[served_by], sizes)
    starts += work_ahead
    horizon = float(starts[-1] + last_service)
    waits = starts - arrivals
    mean = float(waits.mean())
    cycles = len(cycle_starts)
    stderr = None
    if cycles >= 2:
        totals = np.add.reduceat(waits, cycle_starts)
        spread = np.sum((totals - mean * sizes) ** 2) / (cycles * (cycles - 1))
        stderr = math.sqrt(spread) / sizes.mean()
    return queueing.SimulationResult(
        tasks=n_tasks, horizon=horizon, mean_wait=mean, stderr=stderr,
        cycles=cycles, busy_fraction=float(total_work / horizon))


@pytest.mark.parametrize("lam, mu, nu, n", [
    (0.1, 1.0, 1.0, 20_000),        # short vacations: about 10 ends per task
    (16000.0, 23200.0, 10.0, 50_000),  # the delay sweep's regime
    (0.01, 100.0, 1.0, 2_000),      # idle limit: every task finds it empty
    (1.0, 2.0, 1.0, 2),             # the smallest run allowed
])
def test_simulation_matches_all_ends_search(lam, mu, nu, n):
    for seed in range(3):
        got = queueing.simulate_mm1_vacations(
            lam, mu, nu, n, rng=np.random.default_rng(seed))
        want = _simulate_all_ends(lam, mu, nu, n, np.random.default_rng(seed))
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
