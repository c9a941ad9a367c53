"""Benchmark of the hapdc CLI sweeps on the shipped study config.

Usage (from the repository root):

    python3 bench/run.py --workload seasonal --seed 7 --seconds 30 --trace 0

Each timed repetition is a fresh interpreter (``bench/child.py``) that
imports hapdc, loads ``configs/default.yaml`` and then calls the public CLI
entry ``hapdc.cli.main`` once per sweep of the workload, one sweep at a time,
with ``--workers 1`` and the benchmark seed as ``--seed``.  Fresh processes
keep the library's process caches (``offload._reliable_rate``) cold, as they
are for a CLI user.  Repetitions run ``MIN_REPS`` times and then while the
next one is expected to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  The last stdout line is the
result object; the line before it is a JSON record of the environment, the
CSV digests and the oracle verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import yaml

import oracles
import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join("configs", "default.yaml")
REQUIRED = ("BENCHMARK.json", CONFIG, os.path.join("src", "hapdc", "cli.py"))
WORK_ROOT = ".bench_work"
BLAS_THREADS = "1"
MIN_REPS = 3          # the slowest workload still gets three repetitions
SETUP_SAMPLES = 21    # set-up is short and noisy: take the fastest of many
DEADLINE_S = 170.0    # the whole run must end well inside three minutes
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Each workload is a list of (command, axis, range, samples) CLI sweeps.
# seasonal: one Marcum CCDF per day, reliable-rate cache hit after the first.
# load-ramp: every arrival rate misses the reliable-rate cache and runs the
#   bisection; the top of the range overloads the ground fleet.
# stochastic: the only Monte Carlo and discrete-event simulation traffic.
WORKLOADS = {
    "seasonal": [("fly", "day", "1:365:1", None),
                 ("energy", "day", "1:365:1", None)],
    "load-ramp": [("energy", "arrival_rate", "0:40000:100", None)],
    "stochastic": [("outage", "arrival_rate", "0:12000:100", 100_000),
                   ("delay", "arrival_rate", "0:22000:1000", 100_000)],
}


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise ValueError."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def grid_size(sweep_range: str) -> int:
    start, stop, step = (float(p) for p in sweep_range.split(":"))
    return int((stop - start) / step + 1e-9) + 1


def cli_argv(sweep, seed: int, out_path: str) -> list[str]:
    command, axis, sweep_range, samples = sweep
    argv = [command, "--config", CONFIG, "--axis", axis, "--range", sweep_range,
            "--seed", str(seed), "--workers", "1", "--out", out_path]
    if samples is not None:
        argv += ["--samples", str(samples)]
    return argv


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def git_commit() -> str:
    """HEAD commit of the working directory, or "unknown" outside a git checkout."""
    # the ceiling keeps git from searching the directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Session:
    """Spawns benchmark children and checks what they write."""

    def __init__(self, workload: str, seed: int, work: str):
        self.sweeps = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        with open(CONFIG, encoding="utf-8") as fh:
            self.raw_cfg = yaml.safe_load(fh)
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.children = 0
        self.digests = [set() for _ in self.sweeps]
        self.verdicts: dict[str, dict] = {}
        self.errors: list[str] = []
        self.attempted = self.failed_calls = 0
        self.rows = self.failed_rows = 0

    def spawn(self, calls: list[list[str]], trace: bool) -> dict | None:
        """Run one child; its result dict, or None when it did not finish."""
        self.children += 1
        result_path = os.path.join(self.work, f"child-{self.children}.json")
        spec = {"config": CONFIG, "calls": calls, "trace": trace,
                "result": result_path}
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "child.py"),
                 json.dumps(spec)],
                env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            self.errors.append("child timed out")
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            self.errors.append(f"child exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
        result["setup_s"] = result["ready"] - spawned
        return result

    def run_workload(self, trace: bool) -> dict | None:
        """One repetition of the workload; tallies its calls and rows."""
        out_dir = os.path.join(self.work, f"out-{self.children + 1}")
        os.mkdir(out_dir)
        paths = [os.path.join(out_dir, f"{i}.csv") for i in range(len(self.sweeps))]
        calls = [cli_argv(s, self.seed, p) for s, p in zip(self.sweeps, paths)]
        result = self.spawn(calls, trace)
        for i, (sweep, path) in enumerate(zip(self.sweeps, paths)):
            self.attempted += 1
            if (result is None or result["calls"][i]["rc"] != 0
                    or not os.path.exists(path)):
                # every row of a call that crashed or exited non-zero fails
                self.failed_calls += 1
                if result is not None:
                    self.errors.append(f"{sweep[0]} call: {result['calls'][i]}")
                self.rows += grid_size(sweep[2])
                self.failed_rows += grid_size(sweep[2])
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            self.digests[i].add(digest)
            if digest not in self.verdicts:
                self.verdicts[digest] = oracles.check_csv(
                    sweep[0], data.decode("utf-8"), self.raw_cfg)
                unexpected = oracles.unexpected_checks(sweep[0],
                                                       self.verdicts[digest])
                if unexpected:
                    self.errors.append(f"{sweep[0]} rows fail the checks "
                                       f"{', '.join(unexpected)}")
            self.rows += self.verdicts[digest]["rows"]
            self.failed_rows += self.verdicts[digest]["failed"]
        shutil.rmtree(out_dir)
        return result

    def record(self) -> dict:
        """Digests and verdicts per sweep, for the run record."""
        return {
            " ".join(s[:3]): [{"sha256": d, **self.verdicts.get(d, {})}
                              for d in sorted(digests)]
            for s, digests in zip(self.sweeps, self.digests)
        }

    def repeat(self, seconds: float, step, minimum: int) -> list:
        """Results of ``step()``, called ``minimum`` times and then while the
        next step is expected to end within ``seconds``; a step that would
        overrun the deadline is not begun."""
        out, longest = [], 0.0
        start = time.monotonic()
        while True:
            began = time.monotonic()
            if len(out) >= minimum and began - start + longest > seconds:
                break
            if out and began + longest > self.deadline:
                break
            out.append(step())
            longest = max(longest, time.monotonic() - began)
        return out

    @property
    def deterministic(self) -> bool:
        return all(len(d) <= 1 for d in self.digests)


def end_to_end(session: Session, seconds: float):
    # Times are the fastest repetition's.  Other tenants of a shared host only
    # ever slow a repetition down, in bursts of seconds to minutes; the fastest
    # cold run is the estimate they disturb least (see README).
    runs = session.repeat(seconds, lambda: session.run_workload(trace=False),
                          MIN_REPS)
    done = [r for r in runs if r is not None]
    setups = [r["setup_s"] for r in done]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < session.deadline:
        extra = session.spawn([], trace=False)
        if extra is None:
            break
        setups.append(extra["setup_s"])
    metrics = {
        "wall_s": min(r["wall_s"] for r in done) if done else None,
        "setup_s": min(setups) if setups else None,
        "oracle_pass_share": 1.0 - session.failed_rows / session.rows,
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done)
                        if done else None),
    }
    samples = {"wall_s": [r["wall_s"] for r in done], "setup_s": setups}
    return metrics, samples


def per_layer(session: Session, seconds: float):
    pairs = session.repeat(seconds, lambda: (session.run_workload(trace=False),
                                             session.run_workload(trace=True)), 1)
    done_plain = [p for p, _ in pairs if p is not None]
    done_traced = [t for _, t in pairs if t is not None]

    metrics: dict[str, float] = {}
    for short, func in tracer.TARGETS:
        for stat in ("calls", "self_s", "total_s", "raised"):
            metrics[f"{short}.{func}.{stat}"] = 0
    for counter in tracer.COUNTERS:
        metrics[counter] = 0
    summaries = [tracer.summarize(r["trace"]) for r in done_traced]
    for key in {k for s in summaries for k in s}:
        metrics[key] = statistics.median(s.get(key, 0) for s in summaries)

    saving_calls = metrics["offload.saving.calls"]
    metrics["offload.reliable_rate_miss_ratio"] = (
        metrics["channel.max_reliable_rate.calls"] / saving_calls
        if saving_calls else 0.0)
    tasks = metrics["queueing.simulate_mm1_vacations.tasks"]
    metrics["queueing.simulate_mm1_vacations.ns_per_task"] = (
        1e9 * metrics["queueing.simulate_mm1_vacations.self_s"] / tasks
        if tasks else 0.0)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in done_traced)
        - statistics.median(r["wall_s"] for r in done_plain)
        if done_plain and done_traced else None)
    samples = {"wall_s": [r["wall_s"] for r in done_plain],
               "traced_wall_s": [r["wall_s"] for r in done_traced]}
    return metrics, samples


def report(declared: list[dict], values: dict) -> dict:
    """Every declared metric with its unit; a metric not measured is an error."""
    out = {}
    for spec in declared:
        name = check_metric_name(spec["name"])
        value = values[name]
        if value is None:
            raise RuntimeError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        session = Session(args.workload, args.seed, work)
        session.spawn([], trace=False)  # compiles bytecode; not measured
        measure = per_layer if args.trace else end_to_end
        values, samples = measure(session, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    if not session.deterministic:
        session.errors.append("CSV bytes differ between runs with one seed")
    correct = not session.errors
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed), "sweeps": session.record(),
        "samples": samples, "rows": session.rows,
        "failed_rows": session.failed_rows, "errors": session.errors,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed_calls,
                      "metrics": report(declared, values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
