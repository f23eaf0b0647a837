"""Interleaved in-process timing of one workload's operations, parent against change.

Two copies of ``wptoolbox`` run in one interpreter: the ``src`` next to this
script, and a baseline copied from ``--base`` under another package name
(``--aa`` copies this checkout's own ``src`` instead, an A/A control that
should read no difference).  Both draw the same operations from the stream
of ``--workload`` in ``bench/workloads.py`` at ``--seed``, one operation at a
time, so drift of the machine's speed falls on both sides alike: library
calls for ``interactive`` (the default), ``cli.main`` table commands for
``sweep-single`` and ``sweep-entangled``.  A command writes to a fresh
output target, and it is read back and removed outside the timed call, as
``bench/worker.py`` does; both sides write the same path in turn.  The first
call of a pair runs on colder caches, so which side runs first alternates
within each operation kind.  Every pair of results (for a command: exit
code, stdout and output file) must be equal bit for bit.

Usage::

    python3 tools/percall.py --base OLD/src --calls 6000 --runs 3
    python3 tools/percall.py --base OLD/src --workload sweep-single --calls 600 --runs 2
    python3 tools/percall.py --aa --calls 6000

Run ``r`` draws from seed ``--seed + r``.  Per run it prints, for the
baseline and the change, points/s (the workload's points over the summed
call times), the p50 and p90 call time, each operation kind's median and
paired difference (see :func:`report`), and the share of pairs the change
won.  Nothing under ``bench/`` is changed; its modules are only imported.

The ``--aa`` control is not flat for every kind: on a 2-core Xeon VM it
read ``equivalence_scan`` 5-9% faster on the change side in four runs
(-6.1%, -8.6%, -7.5%, -7.1%), though both sides run the same code and the
alternation of which side runs first does not cancel it.  Importing the
baseline's package first, not the change's, leaves the bias in place: its
paired difference read -15.2, -14.0 and -13.1 us with the order swapped,
against -10.8, -13.8 and -13.7 us as written (3 runs of 4000 calls each).
So that row cannot resolve a change below about 9%, or about 15 us on a
one-point scan; the other kinds read within 2-3%.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: name of the baseline's copy of the package
BASE_NAME = "wptoolbox_base"


def _bits(value):
    """A hashable fingerprint of a call result: arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return tuple((k, _bits(v)) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return float(value).hex()
    return value


def _load(src: Path, tmp: Path):
    """The change's package and the baseline's, copied into ``tmp`` as ``BASE_NAME``."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    shutil.copytree(src / "wptoolbox", tmp / BASE_NAME,
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    change = importlib.import_module("wptoolbox")
    base = importlib.import_module(BASE_NAME)
    for package in (change, base):
        importlib.import_module(package.__name__ + ".cli")
    if not Path(change.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"wptoolbox imported from {change.__file__}, not this checkout")
    return base, change


def _percentile(xs: list[float], q: float) -> float:
    return float(np.percentile(xs, q))


def _cli(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one ``cli.main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return main(argv), out.getvalue()


def _read_back(path: Path, raw: tuple[int, str]) -> tuple[int, str, bytes]:
    """``raw`` and the bytes of the command's output file, which is then removed."""
    data = path.read_bytes() if raw[0] == 0 else b""
    path.unlink(missing_ok=True)
    return (*raw, data)


def _ops(workload: str, seed: int, wp, out: Path):
    """The stream's operations on package ``wp``, each with a ``call`` and a
    ``collect`` run on its result outside the timed call."""
    import workloads

    for op in workloads.stream(workload, seed, False, wp):
        if "argv" in op:
            path = out / f"out.{op['fmt']}"
            op = {**op, "kind": op["command"],
                  "call": functools.partial(_cli, wp.cli.main, op["argv"] + ["--out", str(path)]),
                  "collect": functools.partial(_read_back, path)}
        yield op


def _result(op: dict, raw):
    """What a pair compares: a command's exit code, stdout and output file, or
    a library call's return value."""
    return op["collect"](raw) if "collect" in op else raw


def run(base, change, workload: str, calls: int, seed: int, out: Path) -> dict:
    """``calls`` operations on each side, alternating which side runs first;
    the stream's warm-up operation runs untimed on both."""
    pairs = zip(*(_ops(workload, seed, wp, out) for wp in (base, change)))
    for op in next(pairs):
        _result(op, op["call"]())
    times, kinds, firsts, points, won, seen = ([], []), [], [], 0, 0, Counter()
    clock = time.perf_counter_ns
    gc.collect()
    for k, pair in zip(range(calls), pairs):
        results, spent = [None, None], [0, 0]
        # the first call of a pair runs on colder caches: alternate per kind
        first = seen[pair[0]["kind"]] % 2
        seen[pair[0]["kind"]] += 1
        for side in (first, 1 - first):
            call = pair[side]["call"]
            t0 = clock()
            raw = call()
            spent[side] = clock() - t0
            results[side] = _result(pair[side], raw)
        if _bits(results[0]) != _bits(results[1]):
            raise SystemExit(f"call {k} ({pair[0]['kind']}): results differ")
        for side in (0, 1):
            times[side].append(spent[side] * 1e-9)
        kinds.append(pair[0]["kind"])
        firsts.append(first)
        points += pair[0]["points"]
        won += spent[1] < spent[0]
    return {"times": times, "kinds": kinds, "firsts": firsts, "points": points, "won": won}


def report(result: dict, label: str) -> None:
    """One run's table: points/s, p50 and p90 of both sides, and per kind the median
    call time of each side and the paired difference, change - base.

    A pair's first call runs on colder caches (by up to 90 us on a 2-core Xeon
    VM), so the paired difference is the mean of two medians, one over the pairs
    each side ran first; a kind whose calls vary in cost (sample_estimate's two
    witnesses) needs it."""
    times, kinds, calls = result["times"], result["kinds"], len(result["kinds"])
    rows = [("points/s", *(result["points"] / sum(t) for t in times), None),
            ("p50 ms", *(1e3 * _percentile(t, 50) for t in times), None),
            ("p90 ms", *(1e3 * _percentile(t, 90) for t in times), None)]
    for kind in sorted(set(kinds)):
        old, new = ([t for t, k in zip(side, kinds) if k == kind] for side in times)
        diffs = [[b - a for a, b, k, f in zip(*times, kinds, result["firsts"])
                  if k == kind and f == first] for first in (0, 1)]
        paired = 1e6 * statistics.mean(statistics.median(d) for d in diffs)
        rows.append((f"{kind} us", 1e6 * statistics.median(old), 1e6 * statistics.median(new),
                     paired))
    print(f"{label}: {calls} calls per side, the change won {result['won']} of {calls} pairs")
    print(f"  {'':30} {'base':>10} {'change':>10} {'change':>8} {'paired us':>10}")
    for name, old, new, paired in rows:
        diff = "" if paired is None else f"{paired:+10.2f}"
        print(f"  {name:30} {old:10.4g} {new:10.4g} {100 * (new / old - 1):+7.1f}% {diff}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--base", metavar="SRC", help="src directory of the baseline checkout")
    which.add_argument("--aa", action="store_true",
                       help="time this checkout against a copy of itself")
    parser.add_argument("--workload", choices=("interactive", "sweep-single", "sweep-entangled"),
                        default="interactive")
    parser.add_argument("--calls", type=int, default=6000, help="timed calls per side and run")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    src = ROOT / "src" if args.aa else Path(args.base).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        base, change = _load(src, Path(tmp))
        for r in range(args.runs):
            result = run(base, change, args.workload, args.calls, args.seed + r, Path(tmp))
            report(result, f"{args.workload} run {r + 1} (seed {args.seed + r})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
