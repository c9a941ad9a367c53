"""Command line front end.

Exit codes: 0 success, 2 usage or config problem, 3 numerical failure,
4 sweep infeasible at every grid point.
"""

from __future__ import annotations

import argparse
import functools
import sys

from ._version import __version__
from .config import ModelConfig, build_config, load_config
from .errors import ConfigError, LinkRateError, NumericsError
from .sweeps import AXES, RUNNERS, SweepSpec, render_csv, render_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4

_SWEEP_COMMANDS = {
    "fly": "admissible offload rate and binding limit along an axis",
    "energy": "baseline vs. split-system energy along an axis",
    "outage": "offload-link outage bounds over the arrival rate",
    "delay": "end-to-end offload delay over the arrival rate",
}


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"range must look like start:stop:step, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from None


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, as numpy's generators take."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; nothing mutates it."""
    parser = argparse.ArgumentParser(
        prog="hapdc",
        description="Energy and delay model of a stratospheric platform "
                    "offloading work from a ground data center.")
    parser.add_argument("--version", action="version",
                        version=f"hapdc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--config", help="YAML model configuration")
    sweep.add_argument("--axis", required=True, choices=AXES,
                       help="scenario knob the sweep walks")
    sweep.add_argument("--range", required=True, type=_parse_range,
                       metavar="START:STOP:STEP", dest="sweep_range",
                       help="inclusive grid, e.g. 1:365:3")
    sweep.add_argument("--seed", type=_seed, default=0,
                       help="base seed for all random draws")
    sweep.add_argument("--samples", type=int, default=100_000,
                       help="Monte Carlo draws per outage sweep; "
                            "simulated tasks per delay grid point")
    # ignored: sampled sweeps take one thread per CPU of the affinity mask
    sweep.add_argument("--workers", type=int, default=1,
                       help=argparse.SUPPRESS)
    sweep.add_argument("--out", default="-",
                       help="output path, '-' for stdout")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    for name, help_text in _SWEEP_COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[sweep])

    v = sub.add_parser("validate", help="run built-in cross-checks")
    v.add_argument("--config", help="YAML model configuration")
    v.add_argument("--seed", type=_seed, default=0)
    return parser


def _load(config_path: str | None) -> ModelConfig:
    """The validated config at ``config_path``, or the defaults: the shipped
    study, which an empty file yields too (same model, same manifest hash)."""
    return load_config(config_path) if config_path else build_config({})


def _run_validate(args) -> int:
    # imported here: a sweep never pays for the cross-check module
    from .validate import run_validation

    cfg = _load(args.config)
    results = run_validation(cfg, seed=args.seed)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{tag} {r.name}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


def _run_sweep(args) -> int:
    cfg = _load(args.config)
    start, stop, step = args.sweep_range
    spec = SweepSpec(axis=args.axis, start=start, stop=stop, step=step,
                     seed=args.seed, samples=args.samples)
    result = RUNNERS[args.command](cfg, spec)
    text = render_csv(result) if args.format == "csv" else render_json(result)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    for note in result.notes:
        print(note, file=sys.stderr)
    if result.all_failed:
        print("no grid point was feasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _normalize(argv: list[str]) -> list[str]:
    """Join ``--range`` with its value so a negative start parses as a value."""
    out, it = [], iter(argv)
    for arg in it:
        value = next(it, None) if arg == "--range" else None
        out.append(arg if value is None else f"--range={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize(list(argv)))
    try:
        if args.command == "validate":
            return _run_validate(args)
        return _run_sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError, LinkRateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
