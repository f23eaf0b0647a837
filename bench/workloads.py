"""Seeded operation streams for the benchmark's three workloads.

Each workload is an endless stream of operations drawn from ``--seed``.
Operations come in shuffled decks.  What sets an operation's cost (its
command, sweep length, swept parameter, beta choice, output format, photon
number) comes from a layout sequence that is the same for every seed, so
the k-th deck of every run holds the same mix of costs; the seed picks the
order within each deck, the angles, sweep ranges, shot counts and sampling
seeds.  Without the fixed layout, which operation gets which length moves
the per-operation percentiles by several per cent from seed to seed.

An operation is a dict: CLI operations carry ``argv`` plus the expected
per-row settings (radians) the oracle needs, library calls carry ``call``,
a zero-argument function returning a plain value.
"""
from __future__ import annotations

import math

import numpy as np

import oracle

# `wptoolbox verify` is not a workload: one call takes about 3.5 s, so a run
# holds a handful of calls, and their percentiles move by more than 10 %
# between runs of the same code even after speed calibration
WORKLOADS = ("sweep-single", "sweep-entangled", "interactive")

#: operations after the warm-up that traced passes and fingerprints cover
FIXED_OPS = {"sweep-single": 48, "sweep-entangled": 48, "interactive": 800}
SMOKE_FIXED_OPS = 1

_FLAGS = {
    "alpha": "--alpha-deg", "phi1": "--phi1-deg", "phi2": "--phi2-deg",
    "phi1_prime": "--phi1p-deg", "phi2_prime": "--phi2p-deg",
    "beta": "--beta-deg", "beta_prime": "--betap-deg",
    "visibility": "--visibility", "dephase": "--dephase",
}
_ANGLES = ("alpha", "phi1", "phi2", "phi1_prime", "phi2_prime", "beta", "beta_prime")

#: seed of the layout sequence shared by all runs
LAYOUT_SEED = 20170214


def _u(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _sizes(rng, n: int, lo: int, hi: int) -> list[int]:
    """n sweep lengths evenly spaced over [lo, hi], in random order.

    Every deck gets the same lengths, so its total work does not depend on
    the seed; ``rng`` is the layout sequence, which picks the order.
    """
    return [int(x) for x in rng.permutation(np.linspace(lo, hi, n).round())]


def _settings(rng, noisy: bool) -> dict:
    """Random degrees for every angle flag; noise knobs when ``noisy``."""
    s = {"alpha": _u(rng, 0, 90), "phi1": _u(rng, 0, 360), "phi2": _u(rng, 0, 360),
         "phi1_prime": _u(rng, 0, 360), "phi2_prime": _u(rng, 0, 360),
         "beta": 22.5, "beta_prime": 22.5}
    if noisy:
        s.update(visibility=_u(rng, 0.5, 0.95), dephase=_u(rng, 0.0, 0.5))
    return s


def _sweep_range(rng, param: str) -> tuple[float, float]:
    if param == "alpha":
        return _u(rng, 0, 20), _u(rng, 70, 90)
    if param == "beta":
        return (0.0 if rng.random() < 0.5 else _u(rng, 0, 10)), _u(rng, 30, 45)
    return _u(rng, 0, 90), _u(rng, 270, 360)


def cli_op(rng, command: str, settings: dict, sweep=None, shots: int = 0,
           fmt: str = "csv", photons: int | None = None) -> dict:
    """A ``cli.main`` operation and the settings each of its rows must carry."""
    argv = [command]
    for key, value in settings.items():
        argv += [_FLAGS[key], repr(value)]
    fixed = {k: float(np.radians(v)) if k in _ANGLES else v for k, v in settings.items()}
    rows = [fixed]
    if sweep is not None:
        param, start, stop, steps = sweep
        argv += ["--sweep", param, "--start", repr(start), "--stop", repr(stop),
                 "--steps", str(steps)]
        values = np.linspace(start, stop, steps)
        if param in _ANGLES:
            values = np.radians(values)
        rows = [{**fixed, param: float(x)} for x in values]
    if photons is not None:
        argv += ["--photons", str(photons)]
    if shots:
        argv += ["--shots", str(shots), "--seed", str(int(rng.integers(0, 2**31)))]
    argv += ["--format", fmt]
    return {"command": command, "argv": argv, "rows": rows, "shots": shots, "fmt": fmt,
            "photons": photons, "points": 1 if photons else len(rows)}


def _shots(rng) -> int:
    return int(rng.integers(1000, 100_001))


def _sweep_single(rng, layout, smoke: bool):
    # every deck holds each command x swept parameter x shots x noise once
    deck = [(c, p, s, n) for c in ("single-sweep", "witness-coherence")
            for p in ("alpha", "phi1", "phi2", "beta") for s in (0, 1) for n in (0, 1)]
    lo, hi = (2, 5) if smoke else (20, 200)
    while True:
        lengths = _sizes(layout, len(deck), lo, hi)
        betas = layout.choice([22.5, 0.0], len(deck))
        fmts = layout.choice(["csv", "json"], len(deck))
        ops = []
        for j in rng.permutation(len(deck)):
            command, param, shots, noisy = deck[j]
            settings = _settings(rng, noisy)
            if param != "beta":
                settings["beta"] = float(betas[j])
            ops.append(cli_op(rng, command, settings,
                              (param, *_sweep_range(rng, param), lengths[j]),
                              _shots(rng) if shots else 0, str(fmts[j])))
        yield ops


def _sweep_entangled(rng, layout, smoke: bool):
    # every deck holds ghz at n = 1..8 and each pair command x shots x noise
    # twice, so the median falls among the sweeps, not between ghz sizes
    photons = range(1, 5) if smoke else range(1, 9)
    sweeps = [(c, None, s, n) for c in ("two-photon", "witness-entanglement")
              for s in (0, 1) for n in (0, 1)]
    deck = [("ghz", n, 0, 0) for n in photons] + 2 * sweeps
    lo, hi = (2, 3) if smoke else (5, 40)
    while True:
        lengths = [0] * len(photons) + _sizes(layout, 2 * len(sweeps), lo, hi)
        betas = layout.choice([22.5, 0.0], (len(deck), 2))
        params = layout.choice(["alpha", "phi1", "phi1_prime", "phi2"], len(deck))
        fmts = layout.choice(["csv", "json"], len(deck))
        ops = []
        for j in rng.permutation(len(deck)):
            command, n, shots, noisy = deck[j]
            settings = _settings(rng, noisy)
            fmt = str(fmts[j])
            if command == "ghz":
                settings["beta"] = 0.0
                ops.append(cli_op(rng, command, settings, fmt=fmt, photons=n))
                continue
            settings["beta"], settings["beta_prime"] = (float(b) for b in betas[j])
            param = str(params[j])
            sweep = (param, *_sweep_range(rng, param), lengths[j])
            ops.append(cli_op(rng, command, settings, sweep, _shots(rng) if shots else 0, fmt))
        yield ops


def _interactive(rng, layout, wp):
    # deck shares put the median inside the ghz calls and the 90th
    # percentile inside the hardware calls, not on a boundary between kinds
    deck = ("sample_estimate", "detection_split", "detection_off", "detection_any",
            *(("ghz_sector_probabilities",) * 4), "coincidence_probabilities",
            "concurrence", "equivalence_scan", "equivalence_scan")
    while True:
        photons = iter(rng.permutation(range(1, 5)))
        witness = str(layout.choice(["coherence", "entanglement"]))
        yield [_library_call(rng, deck[j], wp, photons, witness)
               for j in rng.permutation(len(deck))]


def _library_call(rng, kind: str, wp, photons, witness: str) -> dict:
    v = {"alpha": _u(rng, 0, math.pi / 2), "phi1": _u(rng, 0, 2 * math.pi),
         "phi2": _u(rng, 0, 2 * math.pi), "phi1_prime": _u(rng, 0, 2 * math.pi),
         "phi2_prime": _u(rng, 0, 2 * math.pi), "beta": math.pi / 8, "beta_prime": math.pi / 8}
    phases = wp.ToolboxPhases(v["phi1"], v["phi2"])
    pair = wp.TwoPhotonSettings(v["alpha"], phases, wp.ToolboxPhases(v["phi1_prime"],
                                                                     v["phi2_prime"]))
    spec = {"kind": kind, "settings": v, "points": 1}
    if kind.startswith("detection"):
        v["beta"] = {"detection_split": math.pi / 8, "detection_off": 0.0,
                     "detection_any": _u(rng, 0, math.pi / 4)}[kind]
        spec["kind"] = "detection_probabilities"
        spec["call"] = lambda: wp.detection_probabilities(v["alpha"], phases, v["beta"]).as_array()
    elif kind == "coincidence_probabilities":
        spec["call"] = lambda: wp.coincidence_probabilities(pair).matrix.copy()
    elif kind == "concurrence":
        spec["call"] = lambda: wp.concurrence(pair)
    elif kind == "equivalence_scan":
        spec["call"] = lambda: wp.equivalence_scan([(v["alpha"], v["phi1"], v["phi2"])])
    elif kind == "ghz_sector_probabilities":
        spec["photons"] = n = int(next(photons))
        v["beta"] = 0.0
        spec["call"] = lambda: wp.ghz_sector_probabilities(n, v["alpha"], phases)
    else:
        dist = (oracle.pair_table(v) if witness == "entanglement"
                else oracle.single_probabilities(v))
        shots, seed = _shots(rng), int(rng.integers(0, 2**31))

        def call():
            counts = wp.sample_counts(dist, shots, seed)
            estimate = wp.estimate_witness(counts, witness)
            return counts.counts.copy(), (estimate.value, estimate.error)

        spec.update(call=call, witness=witness, distribution=dist, shots=shots, points=2)
    return spec


def _decks(name: str, seed: int, smoke: bool, wp):
    """Endless sequence of decks, each a list of operations."""
    rng, layout = np.random.default_rng(seed), np.random.default_rng(LAYOUT_SEED)
    if name == "interactive":
        return _interactive(rng, layout, wp)
    return {"sweep-single": _sweep_single,
            "sweep-entangled": _sweep_entangled}[name](rng, layout, smoke)


def stream(name: str, seed: int, smoke: bool, wp):
    """Endless operation stream of workload ``name`` for ``seed``.

    The first operation is the warm-up.  It is the same for every seed, so
    set-up time does not depend on which operation a seed happens to draw
    first.  The last operation of every deck after it carries
    ``deck_end``, so that a timed run can end on a whole deck.
    """
    yield next(_decks(name, LAYOUT_SEED, smoke, wp))[0]
    for deck in _decks(name, seed, smoke, wp):
        deck[-1]["deck_end"] = True
        yield from deck
