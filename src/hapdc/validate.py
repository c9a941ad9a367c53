"""Built-in cross-checks for the ``validate`` CLI command.

Each check recomputes a library quantity by an independent route (adaptive
quadrature, scipy special functions, or brute-force simulation) and
compares.  These are runtime spot checks; the test suite carries the
full-strength versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import aero, channel, queueing, solar, specfun, thermal
from .config import ModelConfig


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_solar(cfg: ModelConfig) -> CheckResult:
    worst = []
    if solar.declination(79.75) != 0.0:
        worst.append("declination(79.75) != 0")
    if solar.declination(171.0) != 0.4093:
        worst.append("declination(171) != 0.4093")
    for d in (1.0, 100.0, 200.0, 300.0):
        if solar.day_fraction(0.0, d) != 0.5:
            worst.append(f"equator day fraction off at day {d:g}")
    ok = not worst
    return CheckResult("solar identities", ok,
                       "; ".join(worst) if worst else "exact")


def _check_propulsion(cfg: ModelConfig, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        v = float(rng.uniform(0.5, 60.0))
        full = aero.propulsion_power(cfg.hap, v)
        reduced = aero.propulsion_power_reduced(cfg.hap, v)
        worst = max(worst, abs(full - reduced) / max(full, 1.0))
    return CheckResult("propulsion power duality", worst <= 1e-12,
                       f"max rel diff {worst:.3e}")


def _check_thermal(cfg: ModelConfig, rng: np.random.Generator) -> CheckResult:
    from scipy.integrate import quad

    worst = 0.0
    for _ in range(10):
        loads = [(cfg.server,
                  float(rng.uniform(0.0, 0.9))
                  * cfg.server.service_rate_ips
                  / cfg.workload.task_length_instr)
                 for _ in range(int(rng.integers(1, 5)))]
        window = (0.0, float(rng.uniform(500.0, 20000.0)))
        closed = thermal.cooling_energy(loads, cfg.cooling,
                                        cfg.workload.task_length_instr, window)
        numeric, _ = quad(
            lambda t: thermal.cooling_power(loads, cfg.cooling,
                                            cfg.workload.task_length_instr, t),
            window[0], window[1], limit=300)
        worst = max(worst, abs(closed - numeric) / max(abs(numeric), 1.0))
    return CheckResult("cooling energy closed form vs quadrature",
                       worst <= 1e-8, f"max rel diff {worst:.3e}")


def _marcum_quadrature(m: int, a: float, y: float) -> float:
    """Q_m(a, y) by quadrature of the noncentral chi density from y to
    max(y, a, sqrt(a^2 + 2m)) + 40.  Only an infinite y, or one so large
    that adding 40 leaves it as it is, lies past that limit: Q is 0
    there, its limit, and the density is not evaluated."""
    from scipy.integrate import quad
    from scipy.special import ive

    def density(x):
        return (x * (x / a) ** (m - 1) * math.exp(-0.5 * (x - a) ** 2)
                * ive(m - 1, a * x))

    hi = max(y, a, math.sqrt(a * a + 2.0 * m)) + 40.0
    if y >= hi:
        return 0.0
    return quad(density, y, hi, limit=500, epsabs=1e-12, epsrel=1e-12)[0]


def _check_marcum(cfg: ModelConfig, rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(30):
        m = int(rng.integers(1, 17))
        a = float(rng.uniform(0.1, 8.0))
        y = float(rng.uniform(0.0, 12.0))
        worst = max(worst, abs(specfun.marcum_q(m, a, y)
                               - _marcum_quadrature(m, a, y)))
    return CheckResult("marcum q vs quadrature", worst <= 1e-8,
                       f"max abs diff {worst:.3e}")


def _check_queue(cfg: ModelConfig, rng: np.random.Generator) -> CheckResult:
    lam, mu, nu = 1.0, 2.0, 10.0
    sim = queueing.simulate_mm1_vacations(lam, mu, nu, 200_000, rng)
    target = queueing.mean_wait(lam, mu, nu)
    diff = abs(sim.mean_wait - target)
    return CheckResult(
        "queue simulation vs closed form", diff <= 4.0 * sim.stderr,
        f"sim {sim.mean_wait:.4f} vs {target:.4f} (se {sim.stderr:.4f})")


def _check_outage(cfg: ModelConfig, rng: np.random.Generator) -> CheckResult:
    ch = cfg.channel
    demands = np.linspace(2.0, 9.0, 8)
    prob, se = channel.empirical_ccdf(ch, demands, samples=20_000, rng=rng)
    bad = []
    for d, p, e in zip(demands, prob, se):
        lb = channel.ccdf_lower(ch, float(d))
        ub = channel.ccdf_upper(ch, float(d))
        if not (lb - 3.0 * e <= p <= ub + 3.0 * e):
            bad.append(f"demand {d:.2f}: {lb:.4f} !<= {p:.4f} !<= {ub:.4f}")
    return CheckResult("outage bounds sandwich monte carlo", not bad,
                       "; ".join(bad) if bad else "all points inside")


def run_validation(cfg: ModelConfig, seed: int = 0) -> list[CheckResult]:
    """Run every self-check with deterministic seeding."""
    def rng(tag: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))

    return [
        _check_solar(cfg),
        _check_propulsion(cfg, rng(1)),
        _check_thermal(cfg, rng(2)),
        _check_marcum(cfg, rng(3)),
        _check_queue(cfg, rng(4)),
        _check_outage(cfg, rng(5)),
    ]
