"""Every function in ``src`` is entered by some byte-corpus command, save a
named allow-list.

The corpus commands run in a child process under ``sys.setprofile`` and
``threading.setprofile``, with hapdc imported after the profile starts, so
import-time calls and the sampled sweeps' threads count.  The functions
never entered must be exactly ``UNREACHED``: a new function no command
enters fails the test, and so does a listed one that a command now
reaches, which then leaves the list.
"""

import json
import os
import subprocess
import sys
import types

import hapdc

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.abspath(hapdc.__file__))

UNREACHED = {
    # named by the benchmark's tracer (bench/tracer.py TARGETS), which
    # wraps them by name; they wait for the benchmark to read counters
    "channel.channel_rate", "channel.max_reliable_rate",
    "channel.sample_channel", "channel.transmission_energy",
    "offload.allocate_rates", "offload.fly_point",
    "offload.hybrid_total_energy", "offload.saving",
    "solar.harvested_power", "thermal.grouped_cooling_energy",
    # helpers that only those tracer targets call
    "channel.warn_if_saturated", "offload.Fleets.of",
    "offload.Savings.report", "thermal.EnergyBreakdown.from_parts",
    "config.Scenario.window_length",
    # formats an interval for refusal messages; no corpus command is refused
    # by a bound
    "config.Interval.__str__",
}

_SCAN = f"""
import json, os, sys, threading
import numpy, yaml  # imported before the profile: only hapdc's calls count
sys.path.insert(0, {TESTS!r})
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

threading.setprofile(profile)
sys.setprofile(profile)
import byte_corpus
for _ in byte_corpus.outputs():
    pass
sys.setprofile(None)
threading.setprofile(None)
print(json.dumps(sorted({{(os.path.basename(code.co_filename),
                           code.co_firstlineno) for code in entered}})))
"""


def _functions() -> dict:
    """(file name, first line) of every named function and method defined
    in ``src``, nested ones included: its module-qualified name."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            codes = [compile(fh.read(), path, "exec")]
        while codes:
            for code in codes.pop().co_consts:
                if not isinstance(code, types.CodeType):
                    continue
                codes.append(code)
                # lambdas, comprehensions and class bodies are not functions
                if not code.co_name.startswith("<") and code.co_flags & 1:
                    found[(name, code.co_firstlineno)] = (
                        f"{name[:-3]}.{code.co_qualname}")
    return found


def test_every_function_a_command_leaves_unentered_is_listed():
    proc = subprocess.run([sys.executable, "-c", _SCAN], capture_output=True,
                          text=True, timeout=300, check=True)
    entered = {tuple(key) for key in json.loads(proc.stdout)}
    unreached = {name for key, name in _functions().items()
                 if key not in entered}
    assert sorted(unreached - UNREACHED) == [], "new, never entered"
    assert sorted(UNREACHED - unreached) == [], "listed, now entered"
