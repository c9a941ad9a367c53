"""In-memory span tracer that wraps hapdc's public layer functions.

The tracer lives in the benchmark, not in the library: it replaces each
traced function with a wrapper in every ``hapdc`` namespace that holds it
(``from .specfun import marcum_q`` binds a second name in ``channel``, and
``cli`` reaches the sweep runners through the ``RUNNERS`` dict), so calls
made through a module attribute, a module global or a dict entry are all
caught.  ``restore()`` puts every original object back.

Spans are kept in parallel lists (name, parent index, start, end) and
written out only when the traced process ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (defining module, function) pairs; the span name is "<module>.<function>".
TARGETS = (
    ("specfun", "marcum_q"),
    ("channel", "ccdf_lower"),
    ("channel", "ccdf_upper"),
    ("channel", "drop_probability"),
    ("channel", "max_reliable_rate"),
    ("channel", "sample_channel"),
    ("channel", "channel_rate"),
    ("channel", "transmission_energy"),
    ("offload", "saving"),
    ("offload", "allocate_rates"),
    ("offload", "hybrid_total_energy"),
    ("offload", "fly_point"),
    ("offload", "end_to_end_delay"),
    ("thermal", "tdc_total_energy"),
    ("thermal", "grouped_cooling_energy"),
    ("solar", "harvested_power"),
    ("aero", "propulsion_power_reduced"),
    ("queueing", "simulate_mm1_vacations"),
    ("sweeps", "run_flying_sweep"),
    ("sweeps", "run_energy_sweep"),
    ("sweeps", "run_outage_sweep"),
    ("sweeps", "run_delay_sweep"),
    ("sweeps", "render_csv"),
    ("config", "load_config"),
)

COUNTERS = ("channel.sample_channel.draws", "queueing.simulate_mm1_vacations.tasks",
            "sweeps.rows", "sweeps.error_rows")

_SWEEP_RUNNERS = {f"sweeps.run_{kind}_sweep"
                  for kind in ("flying", "energy", "outage", "delay")}


def _count_work(counters: Counter, name: str, args, kwargs, result) -> None:
    """Numeric counters taken at the layer boundary, beside the span."""
    if name == "channel.sample_channel":
        counters["channel.sample_channel.draws"] += int(
            kwargs.get("count", args[1] if len(args) > 1 else 0))
    elif name == "queueing.simulate_mm1_vacations":
        counters["queueing.simulate_mm1_vacations.tasks"] += int(
            kwargs.get("n_tasks", args[3] if len(args) > 3 else 0))
    elif name in _SWEEP_RUNNERS:
        counters["sweeps.rows"] += len(result.rows)
        counters["sweeps.error_rows"] += sum(
            1 for row in result.rows if row[-1] is not None)


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, parents, starts, ends = (self.names, self.parents,
                                        self.starts, self.ends)
        stack, counters = self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                counters[name + ".raised"] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            _count_work(counters, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``hapdc`` namespace holding it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "hapdc"
                                         or key.startswith("hapdc."))]
        for short, func in TARGETS:
            original = getattr(sys.modules[f"hapdc.{short}"], func)
            wrapper = self._wrap(f"{short}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self._patches.append((value, key, original))
                                value[key] = wrapper

    def restore(self) -> None:
        """Put back every object ``install`` replaced."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def dump(self) -> dict:
        """Spans (columnar, with parent links) and counters as plain JSON."""
        return {"names": self.names, "parents": self.parents,
                "starts": self.starts, "ends": self.ends,
                "counters": dict(self.counters)}


def summarize(trace: dict) -> dict[str, float]:
    """Per-name ``calls``, ``total_s`` and ``self_s`` from a dumped trace.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the traced process runs one
    call at a time on one thread.
    """
    names, parents = trace["names"], trace["parents"]
    durations = [e - s for s, e in zip(trace["starts"], trace["ends"])]
    child_time = [0.0] * len(names)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[idx]
    out: dict[str, float] = {}
    for idx, name in enumerate(names):
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".total_s"] = out.get(name + ".total_s", 0.0) + durations[idx]
        out[name + ".self_s"] = (out.get(name + ".self_s", 0.0)
                                 + durations[idx] - child_time[idx])
    out.update(trace["counters"])
    return out
