"""Benchmark of wptoolbox: three seeded closed-loop workloads, checked by an oracle.

    python3 bench/run.py --workload sweep-single --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one table each
    python3 bench/run.py --smoke                   # a few operations per workload

Each workload runs in fresh interpreters (``worker.py``) as a closed loop
with one client and no threads; the library only ever sees the generated
argv or settings.  With ``--trace 0`` the run reports the end-to-end metrics
named in BENCHMARK.json, with every time scaled to one reference machine
speed by the calibration kernel of ``speed.py`` (the raw times are on the
``report`` line); with ``--trace 1`` it runs a fixed list of
operations twice untraced and twice traced, asserts that both traced passes
count the same calls and that every pass produces the same output
fingerprint, and reports the per-layer metrics.  The last stdout line is
the JSON result; the lines before it are a readable table and a ``report``
line with provenance, fingerprints and sample counts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from tracer import LABELS, LAYERS, TOP_LEVEL, metric_units  # noqa: E402
from workloads import FIXED_OPS, SMOKE_FIXED_OPS, WORKLOADS  # noqa: E402

#: fresh interpreters timed from start to the end of the warm-up operation
SETUP_SAMPLES = 5
#: a run gives up (and prints no result) after this many seconds
RUN_LIMIT_S = 170.0

E2E_UNITS = {"setup_s": "s", "points_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB"}
POINT_NAMES = {"sweep-single": "rows", "sweep-entangled": "rows", "interactive": "calls"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, mode: str, ops: int, deadline: float,
          seconds: float = 0.0, smoke: bool = False) -> dict:
    """Run ``worker.py`` once and return its JSON, plus its ``setup_s``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--ops", str(ops), "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker timed out") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} worker failed:\n{proc.stderr[-3000:]}")
    data = json.loads(lines[-1])
    data["setup_s"] = data["ready"] - start
    return data


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timings(setups: list[float], points: int, lat: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "points_per_s": points / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": _quantile(lat, 90) * 1e3,
    }


def measure(workload: str, seed: int, seconds: float, smoke: bool = False) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics at reference speed, and the report."""
    deadline = time.monotonic() + RUN_LIMIT_S
    samples = 1 if smoke else SETUP_SAMPLES
    setups = [spawn(workload, seed, "setup", 0, deadline, smoke=smoke)["setup_s"]
              for _ in range(samples - 1)]
    fixed = SMOKE_FIXED_OPS if smoke else FIXED_OPS[workload]
    main = spawn(workload, seed, "timed", fixed, deadline, seconds, smoke)
    setups.append(main["setup_s"])
    kernel_s = statistics.median(main["kernel_s"])
    scaled_setups = [s * speed.REF_KERNEL_S / kernel_s for s in setups]
    lat = main["latencies"]
    metrics = _timings(scaled_setups, main["points"], speed.normalise(lat, main["kernel_s"]))
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    report = {
        "workload": workload, "trace": 0, "ops": len(lat), "setup_samples": len(setups),
        "points": main["points"], "point_unit": POINT_NAMES[workload],
        "measured_s": sum(lat), "raw": _timings(setups, main["points"], lat),
        "kernel_s_median": kernel_s,
        "ref_kernel_s": speed.REF_KERNEL_S,
        "attempted": main["attempted"], "failed": main["failed"],
        "failed_frac": main["failed"] / main["attempted"], "errors": main["errors"],
        "fingerprint": main["fingerprint"], "fingerprint_ops": main["fingerprint_ops"],
        "oracle_self_checked": main["self_checked"], "numpy": main["numpy"],
    }
    return metrics, report


def measure_traced(workload: str, seed: int, smoke: bool = False) -> tuple[dict, dict]:
    """Untraced, traced, traced, untraced passes over the same fixed operations.

    The mirrored order cancels a linear drift of machine speed out of the
    tracing overhead.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    ops = SMOKE_FIXED_OPS if smoke else FIXED_OPS[workload]
    passes = [spawn(workload, seed, mode, ops, deadline, smoke=smoke)
              for mode in ("pass", "traced", "traced", "pass")]
    base, traced = passes[::3], passes[1:3]
    first = traced[0]["trace"]
    walls = [sum(t["latencies"]) for t in traced]
    untraced_wall = statistics.mean(sum(p["latencies"]) for p in base)

    problems = []
    if first["calls"] != traced[1]["trace"]["calls"]:
        problems.append("call counts differ between the two traced passes")
    prints = {p["fingerprint"] for p in passes}
    if len(prints) != 1:
        problems.append("output fingerprints differ between passes")
    for t in traced:
        self_s = t["trace"]["self_s"]
        for module in LAYERS:
            total = sum(v for k, v in self_s.items() if k.startswith(module + "."))
            if total > sum(t["latencies"]):
                problems.append(f"{module} self time {total:.6f} s exceeds the pass time")

    metrics = {}
    for label in LABELS:
        metrics[f"{label}.calls"] = first["calls"][label]
        metrics[f"{label}.self_s"] = first["self_s"][label]
    for label in TOP_LEVEL:
        metrics[f"{label}.total_s"] = first["total_s"][label]
    metrics.update({
        "cli.out_bytes": traced[0]["out_bytes"],
        "trace.wall_s": walls[0],
        "untraced.wall_s": untraced_wall,
        "trace.overhead_pct": (statistics.mean(walls) / untraced_wall - 1.0) * 100.0,
    })
    report = {
        "workload": workload, "trace": 1, "ops": ops, "passes": len(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]][:5],
        "problems": problems, "fingerprint": passes[0]["fingerprint"],
        "fingerprint_ops": passes[0]["fingerprint_ops"], "traced_walls_s": walls,
        "oracle_self_checked": passes[0]["self_checked"], "numpy": passes[0]["numpy"],
    }
    report["failed_frac"] = report["failed"] / report["attempted"]
    return metrics, report


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, load_start: tuple[float, ...]) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "argv": sys.argv,
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def result(metrics: dict, report: dict) -> dict:
    units = metric_units() if report["trace"] else E2E_UNITS
    return {
        "correct": report["failed"] == 0 and not report.get("problems"),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def print_table(metrics: dict, report: dict) -> None:
    w, n = report["workload"], report["ops"]
    print(f"{w}: {report['attempted']} operations attempted, {report['failed']} failed"
          f" (failed_frac {report['failed_frac']:g})")
    for e in report["errors"] + report.get("problems", []):
        print(f"  ! {e}")
    if report["trace"]:
        top = sorted(LABELS, key=lambda k: -metrics[f"{k}.self_s"])[:12]
        for label in top:
            print(f"  {label + '.self_s':52s} {metrics[label + '.self_s']:10.4f} s"
                  f"   {metrics[label + '.calls']} calls")
        print(f"  {'trace.overhead_pct':52s} {metrics['trace.overhead_pct']:10.2f} %"
              f"   traced {metrics['trace.wall_s']:.3f} s vs untraced"
              f" {metrics['untraced.wall_s']:.3f} s over {n} operations")
        return
    notes = {
        "setup_s": f"median of {report['setup_samples']} fresh interpreters",
        "points_per_s": f"{report['points']} {report['point_unit']} in"
                        f" {report['measured_s']:.2f} s",
        "op_p50_ms": f"{n} operations",
        "op_p90_ms": f"{n} operations",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    raw = report["raw"]
    print(f"  {'':14s} {'reference':>14s} {'':4s}  {'raw':>10s}   (kernel"
          f" {report['kernel_s_median'] * 1e3:.3f} ms, reference"
          f" {report['ref_kernel_s'] * 1e3:.3f} ms)")
    for name, unit in E2E_UNITS.items():
        raw_text = f"{raw[name]:10.4f}" if name in raw else f"{'':10s}"
        print(f"  {name:14s} {metrics[name]:14.4f} {unit:4s}  {raw_text}   {notes[name]}")
    print(f"  {'failed_frac':14s} {report['failed_frac']:14.4f}       "
          f"{report['failed']} of {report['attempted']}")


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    load_start = os.getloadavg()
    if trace:
        metrics, report = measure_traced(workload, seed, smoke)
    else:
        metrics, report = measure(workload, seed, seconds, smoke)
    report["provenance"] = provenance(seed, load_start)
    print_table(metrics, report)
    print("report " + json.dumps(report))
    out = result(metrics, report)
    print(json.dumps(out))
    return out


def smoke() -> int:
    """A few operations of every workload, traced and untraced, checked
    against the names and units BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run_one(workload, 1, 0.2, trace, smoke=True)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metric names or units differ")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: not correct")
            if not all(math.isfinite(v["value"]) for v in out["metrics"].values()):
                problems.append(f"{workload} trace={trace}: non-finite metric")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured seconds of the untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few operations per workload; checks BENCHMARK.json names")
    args = parser.parse_args()

    if not (ROOT / "src" / "wptoolbox" / "__init__.py").is_file():
        print(f"error: no wptoolbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            run_one(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
