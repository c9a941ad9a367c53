"""One cold benchmark process: set up hapdc, run a workload's CLI calls.

Usage: python3 bench/child.py SPEC_JSON

The JSON argument names the config, the CLI argument lists to run in order, whether
to trace, and the file the result goes to.  An empty call list measures
set-up alone.  The parent process times set-up from the moment it spawned
this interpreter to ``ready`` below, on the shared monotonic clock.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(spec_json: str) -> int:
    spec = json.loads(spec_json)

    import hapdc.cli
    from hapdc import config

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    config.load_config(spec["config"])
    ready = time.monotonic()

    outcomes = []
    start = time.perf_counter()
    for argv in spec["calls"]:
        try:
            outcomes.append({"rc": hapdc.cli.main(argv)})
        except SystemExit as exc:
            outcomes.append({"rc": exc.code, "error": "SystemExit"})
        except Exception as exc:  # a crashing call is a measured outcome
            outcomes.append({"rc": None, "error": f"{type(exc).__name__}: {exc}"})
    wall = time.perf_counter() - start

    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": outcomes,
    }
    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.dump()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
