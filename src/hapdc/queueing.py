"""Single-server queue with exponential service and multiple server vacations.

The closed form gives the stationary mean wait from the residual-work view;
``simulate_mm1_vacations`` is a from-scratch discrete-event simulation that
plays the vacation discipline literally (the server keeps drawing fresh
vacations while the system is empty) so the two routes stay independent.
Its error bar is regenerative: every arrival that finds the system empty
starts an independent cycle, because the vacation in progress is
exponential and so carries no memory of the past.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, StabilityError

_VACATION_CHUNK = 8192
# most vacation ends one run may draw: 15 times the 9e6 that 1e6 tasks
# draw at arrival rate 0.1 with unit service and vacation rates
_VACATION_BUDGET = 2**27


def utilization(arrival_rate: float, service_rate: float) -> float:
    if service_rate <= 0:
        raise ValueError("service_rate must be positive")
    if arrival_rate < 0:
        raise ValueError("arrival_rate must be non-negative")
    return arrival_rate / service_rate


def residual_time(arrival_rate: float, service_rate: float,
                  vacation_rate: float) -> float:
    """Mean residual work seen at arrival: service in flight plus vacation tail."""
    if vacation_rate <= 0:
        raise ValueError("vacation_rate must be positive")
    u = utilization(arrival_rate, service_rate)
    service_part = arrival_rate / service_rate**2
    vacation_part = (1.0 - u) / vacation_rate
    return service_part + vacation_part


def mean_wait(arrival_rate: float, service_rate: float,
              vacation_rate: float) -> float:
    """Stationary mean queueing delay (arrival to service start), s.

    Raises StabilityError at or beyond utilization 1.
    """
    u = utilization(arrival_rate, service_rate)
    if u >= 1.0:
        raise StabilityError(
            f"queue is unstable: utilization {u:.6g} >= 1 "
            f"(arrival_rate={arrival_rate}, service_rate={service_rate})"
        )
    return residual_time(arrival_rate, service_rate, vacation_rate) / (1.0 - u)


@dataclass(frozen=True)
class SimulationResult:
    """Summary of one simulated run.

    ``stderr`` is the regenerative standard error of ``mean_wait`` and is
    None when the run saw fewer than two cycles (``cycles``), since one
    cycle gives no spread to estimate it from.
    """

    tasks: int
    horizon: float
    mean_wait: float
    stderr: float | None
    cycles: int
    busy_fraction: float


def simulate_mm1_vacations(arrival_rate: float, service_rate: float,
                           vacation_rate: float, n_tasks: int,
                           rng: np.random.Generator) -> SimulationResult:
    """Simulate ``n_tasks`` Poisson arrivals through the vacation queue.

    FIFO order, one server.  Whenever the system empties the server leaves
    on an exponential vacation and, on returning to an empty queue, leaves
    again; a task arriving mid-vacation waits for that vacation to end.
    Waits are measured arrival to service start.

    The run is solved for all tasks at once.  In the virtual time
    ``t - C(t)``, where ``C`` is the service work of the tasks that arrived
    before, the clock stands still through busy periods and the vacations
    run back to back, so their ends form one increasing sequence.  Task
    ``j`` starts at the first vacation end past the running maximum of the
    virtual arrival times (a cumulative-max Lindley recursion), plus the
    work ahead of it.  ``rng`` is drawn in the order arrivals, services,
    then vacations in pools of 8192, and each pool is searched as it is
    drawn, so memory holds one pool of ends, not all of them.  The run
    draws about ``vacation_rate`` times the last virtual arrival time of
    them, which grows as ``n_tasks * vacation_rate / arrival_rate``; a run
    expected to draw more than 2^27 raises NumericsError before drawing
    any.

    The standard error is the regenerative ratio estimator over the
    cycles that start at each arrival to an empty system (the last one is
    cut by the end of the run and counted as it stands).
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if service_rate <= 0 or vacation_rate <= 0:
        raise ValueError("service and vacation rates must be positive")
    if n_tasks < 2:
        raise ValueError("n_tasks must be at least 2")
    u = arrival_rate / service_rate
    if u >= 1.0:
        raise StabilityError(f"cannot simulate an unstable queue (utilization {u:.6g})")

    arrivals = rng.exponential(1.0 / arrival_rate, n_tasks)
    np.cumsum(arrivals, out=arrivals)
    services = rng.exponential(1.0 / service_rate, n_tasks)
    last_service = services[-1]
    work_ahead = np.empty(n_tasks)
    work_ahead[0] = 0.0
    np.cumsum(services[:-1], out=work_ahead[1:])
    total_work = work_ahead[-1] + last_service

    # the services buffer is reused for the virtual arrival times and then
    # their running maximum
    virtual = np.subtract(arrivals, work_ahead, out=services)
    np.maximum.accumulate(virtual, out=virtual)
    ends = vacation_rate * virtual[-1]
    if not ends <= _VACATION_BUDGET:
        raise NumericsError(
            f"the run would draw about {ends:.3g} vacation ends, more than "
            f"the budget of {_VACATION_BUDGET}")
    # a vacation end lands on the first task whose running virtual arrival
    # reaches it.  A task that receives one arrived to an empty system and
    # starts a cycle (as does the first task), served by the vacation end
    # right after the last one to land on it.  The ends are drawn, searched
    # and dropped one pool at a time; only the landing of the last end seen
    # crosses a pool boundary.
    starts_of, served_at = [], []
    landing, last = 0, 0.0
    while last <= virtual[-1]:
        pool = np.cumsum(rng.exponential(1.0 / vacation_rate, _VACATION_CHUNK))
        pool += last
        landed = np.searchsorted(virtual, pool, side="left")
        before = np.concatenate(([landing], landed[:-1]))
        moved = np.flatnonzero(landed != before)
        starts_of.append(before[moved])
        served_at.append(pool[moved])
        landing, last = landed[-1], pool[-1]
    # no landing exceeds n_tasks, so every cycle found starts at a task
    cycle_starts = np.concatenate(starts_of)
    sizes = np.diff(np.append(cycle_starts, n_tasks))
    del services, virtual  # frees one n-task buffer before the starts
    starts = np.repeat(np.concatenate(served_at), sizes)
    starts += work_ahead
    horizon = float(starts[-1] + last_service)

    waits = np.subtract(starts, arrivals, out=work_ahead)
    mean = float(waits.mean())
    cycles = len(cycle_starts)
    stderr = None
    if cycles >= 2:
        totals = np.add.reduceat(waits, cycle_starts)
        spread = np.sum((totals - mean * sizes) ** 2) / (cycles * (cycles - 1))
        stderr = math.sqrt(spread) / float(sizes.mean())

    return SimulationResult(
        tasks=n_tasks,
        horizon=horizon,
        mean_wait=mean,
        stderr=stderr,
        cycles=cycles,
        busy_fraction=float(total_work / horizon),
    )

