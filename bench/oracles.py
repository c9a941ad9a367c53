"""Row-level oracle checks on the sweep CSVs, independent of hapdc.

The checks read the config YAML themselves and use scipy for the one
quantity that needs an independent evaluation (the drop probability, a
noncentral chi-square CDF), so a defect in the library's own special
functions cannot hide behind its own arithmetic.

A row whose ``error`` cell is filled is an answer the model itself reports
as infeasible (a ground overload, an unstable queue); it is counted apart
and never as a failed row.
"""

from __future__ import annotations

import csv
import io
import math

from scipy.special import chndtr

BINDINGS = ("harvest", "high-load", "payload")
# Tolerances fixed from the quantities' own accuracy, not from the outputs:
SAVED_RATE_RTOL = 1e-9    # saved_rate is one division away from the energies
DROP_RTOL = 1e-6          # the library promises ~1e-12 relative accuracy
MC_BAND_SE = 3.0          # Monte Carlo estimate vs. the analytic bound band
DES_Z_MAX = 4.0           # simulated vs. closed-form mean wait

# The checks that flag rows on the unmodified code: the two known defects of
# the outage bounds, and the two statistical checks of sampled estimates.
# A row failing any other check is a regression; it makes the run incorrect.
KNOWN_FAILURES = {
    "outage": frozenset({"bounds_inverted", "drop_rate_vs_scipy",
                         "mc_outside_bounds"}),
    "delay": frozenset({"des_z_score"}),
}

_NOISE_DBM_PER_HZ = -174.0  # thermal noise density at 290 K


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows of a sweep CSV, skipping the ``#`` manifest lines."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(body)))
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


def _num(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def drop_probability(raw_cfg: dict, arrival_rate: float) -> float:
    """Drop probability 1 - Q_m(a, y) of the outage lower bound, by scipy.

    The lower bound is Q_m(a, y) with m = tx*rx, a^2 = 2*K*m and
    y^2 = 2*(1+K)/snr * (2^demand - 1); its complement is the noncentral
    chi-square CDF chndtr(y^2, 2m, a^2).
    """
    ch, wl = raw_cfg["channel"], raw_cfg["workload"]
    if ch.get("demand_mapping") == "identity":
        demand = arrival_rate
    else:
        bits_per_task = wl["task_length_instr"] * wl["bits_per_instruction"]
        demand = arrival_rate * bits_per_task / ch["bandwidth_hz"]
    if demand <= 0.0:
        return 0.0
    m = ch["tx_antennas"] * ch["rx_antennas"]
    k = ch["rician_factor"]
    noise = ch.get("noise_power") or (
        10.0 ** ((_NOISE_DBM_PER_HZ - 30.0) / 10.0) * ch["bandwidth_hz"])
    snr = ch.get("avg_rx_snr") or (
        ch["tx_power"] * ch["ref_gain"] / (ch["link_distance"] ** 2 * noise))
    y2 = 2.0 * (1.0 + k) / snr * math.expm1(demand * math.log(2.0))
    return float(chndtr(y2, 2.0 * m, 2.0 * k * m))


def check_fly(row: dict, raw_cfg: dict) -> list[str]:
    failed = []
    if row["binding"] not in BINDINGS:
        failed.append("binding")
    if not _num(row["lambda_max"]) <= _num(row["threshold"]):
        failed.append("lambda_max_over_threshold")
    return failed


def check_energy(row: dict, raw_cfg: dict) -> list[str]:
    failed = []
    e_tdc, e_hybrid = _num(row["e_tdc"]), _num(row["e_hybrid"])
    if not (e_tdc > 0.0 and e_hybrid > 0.0):
        failed.append("energy_not_positive")
    elif not math.isclose(_num(row["saved_rate"]), 1.0 - e_hybrid / e_tdc,
                          rel_tol=SAVED_RATE_RTOL, abs_tol=1e-15):
        failed.append("saved_rate_identity")
    if _num(row["n_retx"]) < 0:
        failed.append("n_retx_negative")
    return failed


def check_outage(row: dict, raw_cfg: dict) -> list[str]:
    failed = []
    lb, ub = _num(row["ccdf_lb"]), _num(row["ccdf_ub"])
    mc, se = _num(row["ccdf_mc"]), _num(row["ccdf_mc_se"])
    if lb > ub:
        failed.append("bounds_inverted")
    if not (min(lb, ub) - MC_BAND_SE * se <= mc <= max(lb, ub) + MC_BAND_SE * se):
        failed.append("mc_outside_bounds")
    want = drop_probability(raw_cfg, _num(row["lambda"]))
    if not math.isclose(_num(row["drop_rate"]), want, rel_tol=DROP_RTOL):
        failed.append("drop_rate_vs_scipy")
    return failed


def check_delay(row: dict, raw_cfg: dict) -> list[str]:
    if row["des_wait"] == "":
        return []  # no arrivals, nothing simulated
    z = (_num(row["des_wait"]) - _num(row["analytic_wait"])) / _num(row["des_se"])
    return [] if abs(z) <= DES_Z_MAX else ["des_z_score"]


CHECKS = {"fly": check_fly, "energy": check_energy,
          "outage": check_outage, "delay": check_delay}


def check_row(kind: str, row: dict, raw_cfg: dict) -> list[str]:
    """Names of the checks ``row`` fails; ``malformed`` if it cannot be read."""
    try:
        return CHECKS[kind](row, raw_cfg)
    except (KeyError, ValueError, ZeroDivisionError):
        return ["malformed"]


def check_csv(kind: str, text: str, raw_cfg: dict) -> dict:
    """Verdict of every row of one sweep CSV.

    Returns the row count, the failed and infeasible row counts, and how
    many rows each named check flagged.
    """
    _, rows = parse_csv(text)
    verdict = {"rows": len(rows), "failed": 0, "infeasible": 0, "by_check": {}}
    for row in rows:
        if row.get("error"):
            verdict["infeasible"] += 1
            continue
        flagged = check_row(kind, row, raw_cfg)
        for name in flagged:
            verdict["by_check"][name] = verdict["by_check"].get(name, 0) + 1
        verdict["failed"] += bool(flagged)
    return verdict


def unexpected_checks(kind: str, verdict: dict) -> list[str]:
    """Checks in ``verdict`` that flagged rows but are not known to fail."""
    return sorted(set(verdict["by_check"]) - KNOWN_FAILURES.get(kind, frozenset()))
