"""Smoke tests of the benchmark's own pieces, on tiny grids.

Run from the repository root:  python3 bench/smoke.py

The file is not named ``test_*.py`` so that the repository's pytest run
does not collect it.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import yaml  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = [("fly", "day", "1:3:1", None),
        ("energy", "arrival_rate", "0:4000:2000", None),
        ("outage", "arrival_rate", "0:6000:3000", 2000),
        ("delay", "arrival_rate", "1000:2000:1000", 2000)]


def raw_config() -> dict:
    with open(os.path.join(ROOT, run.CONFIG), encoding="utf-8") as fh:
        return yaml.safe_load(fh)


class TracerTest(unittest.TestCase):
    def test_install_wraps_every_binding_and_restore_puts_back(self):
        import hapdc.cli
        from hapdc import channel, config, specfun, sweeps

        before = {
            "specfun.marcum_q": specfun.marcum_q,
            "channel.marcum_q": channel.marcum_q,
            "cli.load_config": hapdc.cli.load_config,
            "cli.render_csv": hapdc.cli.render_csv,
            "RUNNERS[energy]": sweeps.RUNNERS["energy"],
        }
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(channel.marcum_q, before["channel.marcum_q"])
            self.assertIs(channel.marcum_q, specfun.marcum_q)
            self.assertIsNot(sweeps.RUNNERS["energy"], before["RUNNERS[energy]"])
            self.assertIsNot(hapdc.cli.load_config, before["cli.load_config"])
            channel.ccdf_lower(config.ChannelConfig(), 2.0)
        finally:
            t.restore()
        after = {
            "specfun.marcum_q": specfun.marcum_q,
            "channel.marcum_q": channel.marcum_q,
            "cli.load_config": hapdc.cli.load_config,
            "cli.render_csv": hapdc.cli.render_csv,
            "RUNNERS[energy]": sweeps.RUNNERS["energy"],
        }
        for key, original in before.items():
            self.assertIs(after[key], original, key)
        summary = tracer.summarize(t.dump())
        self.assertEqual(summary["channel.ccdf_lower.calls"], 1)
        self.assertEqual(summary["specfun.marcum_q.calls"], 1)
        self.assertLessEqual(summary["channel.ccdf_lower.self_s"],
                             summary["channel.ccdf_lower.total_s"])

    def test_self_time_subtracts_direct_children(self):
        trace = {"names": ["a", "b", "c"], "parents": [-1, 0, 1],
                 "starts": [0.0, 1.0, 2.0], "ends": [10.0, 5.0, 3.0],
                 "counters": {}}
        s = tracer.summarize(trace)
        self.assertEqual((s["a.self_s"], s["b.self_s"], s["c.self_s"]),
                         (6.0, 3.0, 1.0))
        self.assertEqual(s["a.total_s"], 10.0)


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.raw = raw_config()

    def assertVerdict(self, kind, good, bad):
        self.assertEqual(oracles.check_row(kind, good, self.raw), [])
        for field, value in bad.items():
            row = dict(good, **{field: value})
            self.assertNotEqual(oracles.check_row(kind, row, self.raw), [],
                                f"{field}={value}")

    def test_fly(self):
        good = {"binding": "harvest", "lambda_max": "46.4", "threshold": "580.0"}
        self.assertVerdict("fly", good,
                           {"binding": "wind", "lambda_max": "600.0"})

    def test_energy(self):
        good = {"e_tdc": "100.0", "e_hybrid": "90.0", "saved_rate": "0.1",
                "n_retx": "0"}
        self.assertVerdict("energy", good,
                           {"saved_rate": "0.2", "e_hybrid": "-1.0",
                            "e_tdc": "nan", "n_retx": "-1"})

    def test_outage(self):
        lam = 8000.0
        drop = oracles.drop_probability(self.raw, lam)
        self.assertTrue(0.0 < drop < 1.0)
        lb = 1.0 - drop
        good = {"lambda": repr(lam), "ccdf_lb": repr(lb), "ccdf_ub": repr(lb + 0.01),
                "ccdf_mc": repr(lb + 0.005), "ccdf_mc_se": "0.001",
                "drop_rate": repr(drop)}
        self.assertVerdict("outage", good,
                           {"ccdf_ub": repr(lb - 0.01), "ccdf_mc": repr(lb - 0.5),
                            "drop_rate": repr(drop * 1.001)})

    def test_delay(self):
        good = {"analytic_wait": "0.1", "des_wait": "0.102", "des_se": "0.01"}
        self.assertVerdict("delay", good, {"des_wait": "0.2"})

    def test_error_rows_are_infeasible_not_failed(self):
        text = ("# seed=0\r\nday,lambda_max,threshold,binding,error\r\n"
                "1.0,46.4,580.0,harvest,\r\n2.0,,,,polar night\r\n"
                "3.0,46.4,580.0,bogus,\r\n")
        verdict = oracles.check_csv("fly", text, self.raw)
        self.assertEqual((verdict["rows"], verdict["failed"], verdict["infeasible"]),
                         (3, 1, 1))
        self.assertEqual(oracles.unexpected_checks("fly", verdict), ["binding"])

    def test_only_known_defects_are_tolerated(self):
        known = {"rows": 2, "failed": 2, "infeasible": 0,
                 "by_check": {"bounds_inverted": 1, "drop_rate_vs_scipy": 2}}
        self.assertEqual(oracles.unexpected_checks("outage", known), [])
        known["by_check"]["malformed"] = 1
        self.assertEqual(oracles.unexpected_checks("outage", known), ["malformed"])
        self.assertEqual(oracles.unexpected_checks(
            "energy", {"by_check": {"des_z_score": 1}}), ["des_z_score"])


class MetricNameTest(unittest.TestCase):
    def test_names(self):
        for name in ("wall_s", "specfun.marcum_q.calls", "a-b.c_1"):
            self.assertEqual(run.check_metric_name(name), name)
        for name in ("wall s", "rate/s", "", "_x", "x" * 65, "é"):
            with self.assertRaises(ValueError, msg=name):
                run.check_metric_name(name)

    def test_declared_names_are_legal(self):
        import json
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        for spec in declared["end_to_end"] + declared["per_layer"]:
            run.check_metric_name(spec["name"])


class SessionTest(unittest.TestCase):
    """The harness end to end on tiny grids: children, digests, oracles."""

    def test_tiny_workload_traced_and_untraced(self):
        cwd = os.getcwd()
        os.chdir(ROOT)
        os.makedirs(run.WORK_ROOT, exist_ok=True)
        work = tempfile.mkdtemp(prefix="smoke-", dir=run.WORK_ROOT)
        run.WORKLOADS["tiny"] = TINY
        try:
            session = run.Session("tiny", 3, work)
            plain = session.run_workload(trace=False)
            traced = session.run_workload(trace=True)
        finally:
            del run.WORKLOADS["tiny"]
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(run.WORK_ROOT)
            except OSError:
                pass
            os.chdir(cwd)
        self.assertEqual(session.errors, [])
        self.assertTrue(session.deterministic)
        self.assertEqual((session.attempted, session.failed_calls), (8, 0))
        self.assertEqual(session.rows, 2 * (3 + 3 + 3 + 2))
        self.assertTrue(math.isfinite(plain["wall_s"]) and plain["setup_s"] > 0)
        summary = tracer.summarize(traced["trace"])
        self.assertEqual(summary["sweeps.rows"], 11)
        self.assertEqual(summary["queueing.simulate_mm1_vacations.tasks"], 4000)
        self.assertEqual(summary["config.load_config.calls"], 5)


if __name__ == "__main__":
    unittest.main()
