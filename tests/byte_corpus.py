"""The byte-identity corpus: a fixed list of command lines and the sha256
of what each writes and returns.

``test_byte_corpus.py`` runs every command in-process through
``hapdc.cli.main`` and compares its stdout, stderr and exit code with the
digests in ``byte_corpus.json``.  A fourth digest, ``data``, is taken of
stdout with the config hash masked (the CSV ``# config=`` line and the
JSON manifest's ``"config"`` value), so a change to the config's surface
that keeps every number shows as ``stdout`` moving while ``data`` holds.
The digests depend on numpy's random streams and on float formatting, so
the file also records the Python and numpy versions it was written under.

Run this file to rewrite the corpus after a change that moves output
bytes on purpose:

    python tests/byte_corpus.py

Before it writes, it prints each entry and stream (``stdout``, ``data``,
``stderr``, ``exit``) whose digest differs from the file it replaces, and
each entry added or removed, so the rewrite shows what moved.  It is not
collected by pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_CONFIG = os.path.join(REPO_ROOT, "configs", "default.yaml")
CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "byte_corpus.json")
SEED = "7"
# An inline (latitude, day, speed) wind table, so the wind, and with it the
# propulsion bill, changes from row to row along the day axis.
WIND_TABLE = ("[[40.0, 1.0, 35.0], [40.0, 91.0, 18.0], [40.0, 182.0, 9.5], "
              "[40.0, 274.0, 27.0], [60.0, 182.0, 41.0]]")

# The shipped sweeps: (command, axis, range).  Outage and delay take the
# default 1e5 samples.
SWEEPS = [
    ("fly", "day", "1:365:1"),
    ("fly", "latitude", "-60:60:5"),
    ("fly", "hap_servers", "1:40:3"),
    ("energy", "day", "1:365:1"),
    ("energy", "arrival_rate", "0:40000:100"),
    ("energy", "latitude", "-60:60:5"),
    ("energy", "hap_servers", "1:40:3"),
    ("outage", "arrival_rate", "0:12000:100"),
    ("delay", "arrival_rate", "0:22000:1000"),
]

# Per-link rates at the shipped link's reliable-rate gate, 5361.783167347312
# task/s: the float below it, the gate itself, and the two floats above it,
# which lie inside the bisection's final bracket (it spans 4096 ulps).  The
# step is one ulp (2^-40) there, so every grid value is exact.
GATE_RANGE = "5361.783167347311:5361.783167347314:9.094947017729282e-13"

STREAMS = ("stdout", "data", "stderr", "exit")
# The manifest's config hash, in a CSV comment line or a JSON value.
CONFIG_HASH = re.compile(r'(# config=|"config": ")[0-9a-f]{64}')


def commands() -> dict[str, list[str]]:
    """Every corpus entry's name and its argv; ``{no_ground}`` stands for
    the path of the shipped config without ground servers, ``{windy}`` for
    the shipped config with two platforms and the wind table
    ``WIND_TABLE``."""
    runs = {}
    for command, axis, grid in SWEEPS:
        argv = [command, "--config", SHIPPED_CONFIG, "--axis", axis,
                "--range", grid, "--seed", SEED]
        for fmt in ("csv", "json"):
            runs[f"{command} {axis} {grid} {fmt}"] = argv + ["--format", fmt]
        if command in ("energy", "outage") and axis == "arrival_rate":
            runs[f"{command} {axis} {grid} workers 3"] = argv + [
                "--workers", "3"]
    runs["validate"] = ["validate", "--config", SHIPPED_CONFIG,
                        "--seed", SEED]
    runs["outage no ground servers"] = [
        "outage", "--config", "{no_ground}", "--axis", "arrival_rate",
        "--range", "0:20000:2000", "--samples", "2000", "--seed", SEED]
    runs["energy day wind table two platforms"] = [
        "energy", "--config", "{windy}", "--axis", "day",
        "--range", "1:365:30", "--seed", SEED]
    runs["fly day wind table two platforms"] = [
        "fly", "--config", "{windy}", "--axis", "day",
        "--range", "1:365:30", "--seed", SEED]
    runs["energy latitude wind table two platforms"] = [
        "energy", "--config", "{windy}", "--axis", "latitude",
        "--range", "-60:60:5", "--seed", SEED]
    runs["outage wind table two platforms"] = [
        "outage", "--config", "{windy}", "--axis", "arrival_rate",
        "--range", "0:12000:500", "--samples", "2000", "--seed", SEED]
    runs["energy arrival_rate at the reliable-rate gate"] = [
        "energy", "--config", SHIPPED_CONFIG, "--axis", "arrival_rate",
        "--range", GATE_RANGE, "--seed", SEED]
    runs["outage arrival_rate at the reliable-rate gate"] = [
        "outage", "--config", SHIPPED_CONFIG, "--axis", "arrival_rate",
        "--range", GATE_RANGE, "--samples", "2000", "--seed", SEED]
    return runs


def environment() -> dict[str, str]:
    """What the digests depend on besides the program."""
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of ``hapdc.cli.main(argv)``."""
    from hapdc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def outputs():
    """(name, stdout, stderr, exit code) of every corpus command."""
    with tempfile.TemporaryDirectory() as tmp:
        # the shipped config with no ground server
        no_ground = os.path.join(tmp, "no_ground.yaml")
        with open(SHIPPED_CONFIG, encoding="utf-8") as fh:
            text = fh.read()
        with open(no_ground, "w", encoding="utf-8") as fh:
            fh.write(text.replace("ground_servers: 40", "ground_servers: 0"))
        # two platforms under a wind that varies by site and date
        windy = os.path.join(tmp, "windy.yaml")
        with open(windy, "w", encoding="utf-8") as fh:
            fh.write(text.replace("hap_count: 1", "hap_count: 2").replace(
                "wind:\n", f"wind:\n  table: {WIND_TABLE}\n"))
        paths = {"{no_ground}": no_ground, "{windy}": windy}
        for name, argv in commands().items():
            argv = [paths.get(a, a) for a in argv]
            yield (name, *run(argv))


def digest(stdout: str, stderr: str, code: int) -> dict:
    data = CONFIG_HASH.sub(r"\1<config>", stdout)
    return {"stdout": _sha(stdout), "data": _sha(data), "stderr": _sha(stderr),
            "exit": code}


def changes(old: dict, new: dict) -> list[str]:
    """``name: stream`` for each digest that differs between two corpora's
    entries (a stream only one of them records is not compared), then
    ``added: name`` and ``removed: name`` for each entry only one of them
    holds."""
    moved = [f"{name}: {key}" for name in sorted(old.keys() & new.keys())
             for key in STREAMS
             if key in old[name] and key in new[name]
             and old[name][key] != new[name][key]]
    return (moved + [f"added: {name}" for name in sorted(new.keys() - old)]
            + [f"removed: {name}" for name in sorted(old.keys() - new)])


def main() -> int:
    entries = {name: digest(*streams) for name, *streams in outputs()}
    old = {}
    if os.path.exists(CORPUS):
        with open(CORPUS, encoding="utf-8") as fh:
            old = json.load(fh)["entries"]
    report = changes(old, entries)
    print("\n".join(report) if report else "no digest changed")
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "entries": entries}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.exit(main())
