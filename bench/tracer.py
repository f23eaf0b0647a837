"""Per-layer call counts and self times for the wptoolbox modules.

The tracer wraps the listed public functions, classes and methods in place.
A function is replaced under every ``wptoolbox.*`` module attribute bound
to the same object, so calls through ``from .x import y`` names are counted
too.  Classes are traced through ``__init__`` (one call per construction)
and methods on their class, which keeps ``isinstance`` checks intact.

A call's self time is its duration minus the time of the traced calls made
inside it; calls made with no traced call on the stack are top-level and
also add to ``total_s``.  The library is single-threaded and has no queues,
so a layer has no wait time to report.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "qcore": ("apply_unitary", "PureState", "DensityMatrix", "measure_distribution", "mix"),
    "optics": ("ElementUnitary", "interferometer_circuit", "Circuit.propagate",
               "Circuit.matrix", "network_matrix"),
    "toolbox": ("prepare_input", "wave_state", "particle_state", "output_state",
                "mixed_output", "detection_probabilities"),
    "entangle": ("two_photon_output", "coincidence_closed_forms", "coincidence_probabilities",
                 "mixture_coincidence_probabilities", "concurrence", "wootters_concurrence",
                 "ghz_output", "ghz_sector_probabilities"),
    "hardware": ("build_hardware_layout", "hardware_output", "equivalence_check",
                 "equivalence_scan"),
    "shots": ("sample_counts", "noisy_single_probabilities", "noisy_coincidence_probabilities",
              "estimate_witness"),
    "cli": ("main",),
}

#: entries the benchmark itself calls, which therefore report ``total_s``
TOP_LEVEL = (
    "cli.main", "toolbox.detection_probabilities", "entangle.coincidence_probabilities",
    "entangle.concurrence", "hardware.equivalence_scan", "shots.sample_counts",
    "shots.estimate_witness", "entangle.ghz_sector_probabilities",
)

LABELS = tuple(f"{mod}.{name}" for mod, names in LAYERS.items() for name in names)


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric the traced run reports."""
    units = {}
    for label in LABELS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
    for label in TOP_LEVEL:
        units[f"{label}.total_s"] = "s"
    units.update({
        "cli.out_bytes": "B",
        "trace.wall_s": "s",
        "untraced.wall_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


class Tracer:
    """Counts calls and accumulates self/total time per traced label."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        # one accumulator of child time per active traced call
        self._stack: list[float] = []

    def _wrap(self, label: str, fn):
        clock, stack = time.perf_counter, self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[label] += 1
                self_s[label] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    total_s[label] += dt

        return traced

    def install(self) -> None:
        """Patch every listed entry of the already imported wptoolbox."""
        modules = [m for name, m in sys.modules.items()
                   if name == "wptoolbox" or name.startswith("wptoolbox.")]
        for mod_name, names in LAYERS.items():
            module = importlib.import_module(f"wptoolbox.{mod_name}")
            for name in names:
                label = f"{mod_name}.{name}"
                owner, _, attr = name.rpartition(".")
                if owner:
                    cls = getattr(module, owner)
                    setattr(cls, attr, self._wrap(label, getattr(cls, attr)))
                    continue
                obj = getattr(module, attr)
                if isinstance(obj, type):
                    obj.__init__ = self._wrap(label, obj.__init__)
                    continue
                wrapped = self._wrap(label, obj)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, key, wrapped)

    def report(self) -> dict:
        return {
            "calls": {k: self.calls[k] for k in LABELS},
            "self_s": {k: self.self_s[k] for k in LABELS},
            "total_s": {k: self.total_s[k] for k in TOP_LEVEL},
        }
