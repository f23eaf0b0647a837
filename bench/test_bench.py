"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import speed  # noqa: E402

RT2 = math.sqrt(2.0)


def _setting(**kw) -> dict:
    v = {"alpha": math.pi / 4, "phi1": 0.0, "phi2": 0.0, "beta": math.pi / 8,
         "phi1_prime": 0.0, "phi2_prime": 0.0, "beta_prime": math.pi / 8}
    v.update(kw)
    return v


def test_oracle_matches_documented_single_photon_values():
    p = oracle.single_probabilities(_setting())
    want = [(3 + 2 * RT2) / 8, (3 - 2 * RT2) / 8, 1 / 8, 1 / 8]
    assert np.allclose(p, want, rtol=0, atol=1e-15)


def test_oracle_mixers_off_separates_histories():
    a = 0.3
    p = oracle.single_probabilities(_setting(alpha=a, beta=0.0, phi1=0.0))
    assert np.allclose(p, [math.cos(a) ** 2, math.sin(a) ** 2 / 2, 0.0,
                           math.sin(a) ** 2 / 2], rtol=0, atol=1e-15)


def test_oracle_pair_table_and_noise():
    table = oracle.pair_table(_setting())
    assert abs(table[0, 0] - 9 / 32) < 1e-15 and abs(table[1, 1] - 9 / 32) < 1e-15
    assert abs(table[1, 1] - table[1, 0] - 0.25) < 1e-15
    dephased = oracle.pair_table(_setting(dephase=1.0))
    assert abs(dephased[1, 1] - dephased[1, 0]) < 1e-15


def _single_sweep_output(shots: int = 0):
    v = _setting(alpha=0.7, phi1=1.1, phi2=2.0)
    p = oracle.single_probabilities(v)
    row = {"alpha": v["alpha"], "phi1": v["phi1"], "phi2": v["phi2"], "beta": v["beta"]}
    row.update({f"p{i + 1}": float(x) for i, x in enumerate(p)})
    if shots:
        counts = np.random.default_rng(0).multinomial(shots, p)
        row.update({f"c{i + 1}": float(c) for i, c in enumerate(counts)})
        row.update({f"e{i + 1}": math.sqrt(c) if c else 1.0 for i, c in enumerate(counts)})
    spec = {"command": "single-sweep", "rows": [v], "shots": shots}
    output = {"code": 0, "stdout": "", "table": (oracle.expected_header("single-sweep", shots),
                                                  [row])}
    return spec, output


def test_oracle_accepts_correct_and_flags_perturbed_tables():
    for shots in (0, 5000):
        spec, output = _single_sweep_output(shots)
        assert oracle.check(spec, output) == []
        assert oracle.check(spec, oracle.perturbed(spec, output))


def test_oracle_flags_counts_that_do_not_sum_to_shots():
    spec, output = _single_sweep_output(5000)
    output["table"][1][0]["c1"] += 1
    assert any("sum" in e for e in oracle.check(spec, output))


def test_normalise_scales_each_time_by_the_kernel_around_it():
    ref = speed.REF_KERNEL_S
    # a machine running at half speed throughout reports half its raw times
    assert speed.normalise([0.2, 0.4], [2 * ref, 2 * ref]) == [0.1, 0.2]
    # a slow stretch only rescales the operations next to it
    kernels = [ref] * 10 + [2 * ref] * 10
    scaled = speed.normalise([1.0] * 20, kernels)
    assert scaled[:8] == [1.0] * 8 and scaled[-8:] == [0.5] * 8


def test_smoke_run_matches_benchmark_declaration():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


def test_fails_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    command = json.loads((HERE.parent / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [command[0] if command[0] != "python3" else sys.executable, *command[1:],
         "--workload", "interactive", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
