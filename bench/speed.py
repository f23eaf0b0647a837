"""Machine-speed calibration of the benchmark's timings.

A small shared VM changes speed by 10-40 % from one run to the next, so raw
times of the same code spread more between runs than the changes the
benchmark is meant to resolve.  The slowdown hits the library's Python and
numpy code and a fixed kernel of the same kind alike, as long as the kernel
is timed every few hundred milliseconds; operations that take seconds each
cannot be calibrated this way.  The worker therefore times a kernel right
after every operation, outside the timed region: a pure-Python loop plus
the oracle's small dense-matrix products, nothing of wptoolbox, so a change
to the library cannot change the kernel.  ``normalise`` scales each
operation's time by ``REF_KERNEL_S`` over the median kernel time around that
operation, which reports every time at one fixed machine speed: the speed at
which the kernel takes ``REF_KERNEL_S``.  Set-up times are scaled by the
median kernel time of the timed run that follows them.  The raw times stay
on the ``report`` line.
"""
from __future__ import annotations

import statistics
import time

import oracle

#: a kernel time within the 0.9-1.5 ms the kernel took on the machine the
#: benchmark was written on (2 vCPU Xeon VM, Python 3.11, numpy 2.4); times
#: are reported at this kernel speed
REF_KERNEL_S = 1.2e-3
#: kernel samples taken on either side of an operation that scale its time
WINDOW = 2

_SETTING = {"alpha": 0.7, "phi1": 1.1, "phi2": 2.0, "phi1_prime": 0.4, "phi2_prime": 2.9,
            "beta": 0.39, "beta_prime": 0.39, "visibility": 0.9, "dephase": 0.1}


def _kernel() -> None:
    s = 0
    for i in range(3000):
        s += i * i
    for _ in range(3):
        oracle.single_probabilities(_SETTING)
        oracle.pair_table(_SETTING)


def kernel_seconds(runs: int) -> float:
    """Median time of ``runs`` kernel runs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def runs_after(op_seconds: float) -> int:
    """Kernel runs after an operation: one per 50 ms of it, 1 to 9."""
    return max(1, min(9, 1 + int(op_seconds / 0.05)))


def normalise(latencies: list[float], kernels: list[float]) -> list[float]:
    """Each latency at reference speed, scaled by the kernel median around it."""
    out = []
    for i, dt in enumerate(latencies):
        near = kernels[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(dt * REF_KERNEL_S / statistics.median(near))
    return out
