"""One workload in one fresh interpreter, as a closed loop with one client.

``run.py`` starts this script; it is not meant to be run by hand.  It
imports wptoolbox from the checkout's ``src``, runs the stream's first
operation as the warm-up and stamps ``time.monotonic()`` (the same clock in
every process), then, by ``--mode``:

* ``setup``  stops there;
* ``timed``  runs operations until ``--seconds`` have passed, then on to
  the end of the current deck, so every run measures whole decks;
* ``pass``   runs the next ``--ops`` operations;
* ``traced`` does the same under the per-layer tracer.

Every output is checked by the oracle outside the timed region.  In
``timed`` mode the worker also times the calibration kernel of ``speed.py``
after every operation, outside the timed region.  The last stdout line is
one JSON object with the measurements.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import wptoolbox
    import wptoolbox.cli  # noqa: F401  (binds wptoolbox.cli)

    if not Path(wptoolbox.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"wptoolbox imported from {wptoolbox.__file__}, not the checkout")
    return wptoolbox


def _plain(value):
    """JSON-ready copy of a call result (floats keep every digit)."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(x) for x in value]
    if isinstance(value, dict):
        return {k: _plain(x) for k, x in value.items()}
    return value


def _read_table(data: bytes, fmt: str):
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(data.decode())))
        header = lines[0] if lines else []
        rows = [dict(zip(header, line)) for line in lines[1:]]
    else:
        rows = json.loads(data)
        header = list(rows[0]) if rows else []
    for row in rows:
        for col, value in row.items():
            if col == "crossed":
                row[col] = int(value)
            elif col != "sector":
                row[col] = float(value)
    return header, rows


class Runner:
    """Executes operations and turns their outputs into checkable values."""

    def __init__(self, wp, workdir: Path) -> None:
        self.wp = wp
        self.workdir = workdir
        self.out_bytes = 0

    def execute(self, op: dict):
        """The timed part: one ``cli.main`` call or one library call."""
        if "call" in op:
            return op["call"]()
        argv = op["argv"] + ["--out", str(self.workdir / f"out.{op['fmt']}")]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.wp.cli.main(argv)
        return code, buf.getvalue()

    def collect(self, op: dict, raw) -> tuple[object, bytes]:
        """Output as the oracle reads it, and the bytes it is fingerprinted by."""
        if "call" in op:
            return raw, json.dumps(_plain(raw)).encode()
        code, stdout = raw
        result = {"code": code, "stdout": stdout}
        body = b""
        if code == 0:
            path = self.workdir / f"out.{op['fmt']}"
            body = path.read_bytes()
            path.unlink()
            result["table"] = _read_table(body, op["fmt"])
        self.out_bytes += len(stdout.encode()) + len(body)
        # the "wrote <path>" line names a per-process directory
        kept = "".join(line for line in stdout.splitlines(keepends=True)
                       if not line.startswith("wrote "))
        return result, kept.encode() + body


def attempt(runner: Runner, op: dict):
    """Run one operation; returns (raw output, error text or None, seconds)."""
    t0 = time.perf_counter()
    try:
        raw, error = runner.execute(op), None
    except Exception:  # an operation that raised is a failed operation
        raw, error = None, traceback.format_exc(limit=3)
    return raw, error, time.perf_counter() - t0


class Recorder:
    """Per-operation outcomes, oracle verdicts and the output fingerprint."""

    def __init__(self, fingerprint_ops: int) -> None:
        self.latencies: list[float] = []
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.self_checked: set[str] = set()
        self.digest = hashlib.sha256()
        self.fingerprint_ops = fingerprint_ops
        self.fingerprinted = 0

    def record(self, runner: Runner, oracle, op: dict, raw, error: str | None,
               dt: float | None) -> None:
        """Check one attempted operation; ``dt`` is None for the warm-up."""
        self.attempted += 1
        if dt is not None:
            self.latencies.append(dt)
        if error:
            self._fail(op, error)
            return
        try:
            output, data = runner.collect(op, raw)
            errors = oracle.check(op, output)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            # a missing, malformed or mistyped output is a wrong output
            self._fail(op, f"unreadable output: {exc!r}")
            return
        if self.fingerprinted < self.fingerprint_ops:
            self.digest.update(hashlib.sha256(data).digest())
            self.fingerprinted += 1
        if errors:
            self._fail(op, "; ".join(errors[:3]))
            return
        kind = op.get("command") or op["kind"]
        if kind not in self.self_checked:
            self.self_checked.add(kind)
            if not oracle.check(op, oracle.perturbed(op, output)):
                self._fail(op, f"oracle accepted a perturbed {kind} output")
                return
        if dt is not None:
            self.points += op["points"]

    def _fail(self, op: dict, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            name = " ".join(op["argv"]) if "argv" in op else op["kind"]
            self.errors.append(f"{name[:120]}: {message[:400]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "pass", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, required=True,
                        help="operations to run (pass, traced) or to fingerprint (timed)")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    wp = _import_library()
    import numpy
    import oracle
    import speed
    import workloads
    from tracer import Tracer

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.stream(args.workload, args.seed, args.smoke, wp)
        runner = Runner(wp, workdir)
        warmup = next(ops)
        raw, error, _ = attempt(runner, warmup)
        ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0

        rec = Recorder(fingerprint_ops=1 + args.ops)
        rec.record(runner, oracle, warmup, raw, error, None)
        tracer = Tracer() if args.mode == "traced" else None
        if tracer:
            tracer.install()
        deadline = time.monotonic() + args.seconds

        deck_done = False

        def more() -> bool:
            if args.mode == "timed":
                return not deck_done or time.monotonic() < deadline
            return len(rec.latencies) < args.ops

        kernels = []
        while more():
            op = next(ops)
            deck_done = op.get("deck_end", False)
            rec.record(runner, oracle, op, *attempt(runner, op))
            if args.mode == "timed":
                kernels.append(speed.kernel_seconds(speed.runs_after(rec.latencies[-1])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "ready": ready,
        "latencies": rec.latencies,
        "kernel_s": kernels,
        "points": rec.points,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
        "fingerprint": rec.digest.hexdigest(),
        "fingerprint_ops": rec.fingerprinted,
        "self_checked": sorted(rec.self_checked),
        "out_bytes": runner.out_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "trace": tracer.report() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
