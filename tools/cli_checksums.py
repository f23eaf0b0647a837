"""sha256 manifest of the fixed-seed CLI outputs, to show a change keeps every byte.

Runs a fixed set of ``wptoolbox`` commands (sweeps with shots and noise,
``beta`` sweeps with and without ``--mixed``, both witnesses, ``two-photon``
tables and sweeps with and without noise, sweeps with the mixers off
``pi/8``, JSON tables with counts and witness columns, swept
``visibility`` and ``dephase`` with shots, tables whose every column holds
one value, ``--mixed`` pair witnesses with and without shots, both noise
knobs at once on each one-photon table and the pair witness, the analytic
``--mixed`` pair table, ``ghz`` at 1 to 8 photons) plus
``verify`` at four grid sizes, and hashes every output file and every
command's stdout; each of these runs must exit 0 and write nothing to
stderr, so a stray warning fails the check.  It hashes the exit code and
stderr of a fixed list of invalid invocations (see :data:`ERRORS`, among them
each ``ghz`` refusal: a sweep, ``--mixed``, noise, ``--photons 9`` and
``--beta-deg 22.5``; each must exit 2 and write no file) and the ``--help``
text of the top level and of each subcommand at 80 columns.  It also hashes the bits of library
outputs at fixed random settings (see :data:`LIBRARY_POINTS`), one entry per function, so a
change to a propagation route that no CLI file shows is pinned too: multi-point
``equivalence_scan`` grids (see :data:`SCAN_GRIDS`), noisy
single and pair engine rows at those settings, ``ghz_output`` amplitudes at
1 to 8 photons and ``ghz_sector_probabilities`` at 5 to 8 (see
:data:`GHZ_POINTS`), batched ``ghz_output`` at 6 to 8 (see
:data:`GHZ_BATCH_ROWS`), the routes that read each photon's
wave and particle histories (``vh_variant_output``, ``concurrence``,
``coherence``, ``sector_projection``, ``mixed_output``), the states
``wave_state``, ``particle_state``, ``output_state`` and
``two_photon_output`` and the matrices of ``mixture_two_photon_output``,
some settings as batches (see :data:`STATE_BATCH_ROWS`), the first three at
settings whose outputs hold signed zeros (see :data:`SPECIAL_SETTINGS`), one setting at
a time of ``detection_probabilities``, ``noisy_single_probabilities``,
``coincidence_probabilities`` and ``ghz_sector_probabilities`` (1 to 4 photons) on that
grid, and the shot sampler's counts on fixed tables (see :data:`SAMPLER_TABLES`).
Usage::

    python3 tools/cli_checksums.py --src OLD/src --write old.sha256
    python3 tools/cli_checksums.py --check old.sha256

``--src`` picks the checkout whose ``wptoolbox`` is imported (default: the
``src`` next to this script).  ``--check`` exits 1 when any hash differs.
Hashes depend on the platform's libm and BLAS, so compare manifests made
on one machine only.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

#: (output file name, argv); every file is written by exactly one command
COMMANDS = [
    ("single_noise.csv", ["single-sweep", "--alpha-deg", "33", "--phi2-deg", "71",
                          "--visibility", "0.8", "--dephase", "0.3",
                          "--shots", "5000", "--seed", "7"]),
    ("single_off.json", ["single-sweep", "--alpha-deg", "60", "--phi2-deg", "15",
                         "--beta-deg", "0", "--format", "json"]),
    ("single_beta.csv", ["single-sweep", "--alpha-deg", "40", "--phi1-deg", "100",
                         "--phi2-deg", "50", "--sweep", "beta", "--start", "0",
                         "--stop", "45", "--steps", "31"]),
    ("single_beta_shots.csv", ["single-sweep", "--alpha-deg", "40", "--phi1-deg", "100",
                               "--phi2-deg", "50", "--sweep", "beta", "--start", "0",
                               "--stop", "45", "--steps", "31",
                               "--shots", "2000", "--seed", "11"]),
    ("single_mixed.csv", ["single-sweep", "--mixed", "--alpha-deg", "35",
                          "--phi2-deg", "20", "--shots", "3000"]),
    ("coherence.csv", ["witness-coherence"]),
    ("coherence_shots.csv", ["witness-coherence", "--shots", "4000", "--seed", "3"]),
    ("pair.json", ["two-photon", "--format", "json"]),
    ("pair_noise.csv", ["two-photon", "--shots", "3000", "--dephase", "0.4",
                        "--seed", "5"]),
    ("pair_sweep.csv", ["two-photon", "--sweep", "phi1", "--start", "0",
                        "--stop", "360", "--steps", "9"]),
    ("pair_mixed.csv", ["two-photon", "--mixed", "--shots", "2000"]),
    # half-degree steps: the mixture weights are squared as x * x; a square
    # that rounds like pow (np.float_power, a scalar x ** 2) changes the last
    # digit of some of these rows
    ("pair_alpha_noise.csv", ["two-photon", "--phi1-deg", "290", "--phi2-deg", "42",
                              "--phi1p-deg", "180", "--phi2p-deg", "95",
                              "--sweep", "alpha", "--start", "0", "--stop", "90",
                              "--steps", "181", "--beta-deg", "22.5", "--betap-deg", "0",
                              "--visibility", "0.6", "--dephase", "0.2"]),
    ("pair_beta.csv", ["two-photon", "--alpha-deg", "30", "--phi1-deg", "80",
                       "--phi2-deg", "40", "--sweep", "beta", "--start", "0",
                       "--stop", "45", "--steps", "17"]),
    ("entanglement.csv", ["witness-entanglement"]),
    ("entanglement_shots.csv", ["witness-entanglement", "--shots", "5000",
                                "--seed", "9"]),
    ("entanglement_noise.csv", ["witness-entanglement", "--visibility", "0.7",
                                "--shots", "4000"]),
    ("ghz1.csv", ["ghz", "--photons", "1"]),
    ("ghz6.json", ["ghz", "--photons", "6", "--alpha-deg", "30",
                   "--phi1-deg", "70", "--format", "json"]),
    ("ghz8.csv", ["ghz", "--photons", "8"]),
    *((f"ghz{n}_tilted.csv", ["ghz", "--photons", str(n), "--alpha-deg", "20",
                              "--phi1-deg", "130", "--phi2-deg", "250"])
      for n in (2, 3, 4, 5, 7)),
    ("single_mixed_beta.csv", ["single-sweep", "--mixed", "--sweep", "beta", "--start", "0",
                               "--stop", "45", "--steps", "31"]),
    # both mixers off pi/8: rows whose probabilities only the beta-general
    # closed forms check
    ("pair_offsplit_sweep.csv", ["two-photon", "--beta-deg", "10", "--betap-deg", "35",
                                 "--sweep", "phi1", "--start", "0", "--stop", "360",
                                 "--steps", "25"]),
    ("coherence_offsplit.csv", ["witness-coherence", "--beta-deg", "10"]),
    # JSON tables with counts, errors and witness columns
    ("single_shots.json", ["single-sweep", "--alpha-deg", "52", "--phi2-deg", "140",
                           "--visibility", "0.85", "--shots", "6000", "--seed", "21",
                           "--format", "json"]),
    ("coherence_shots.json", ["witness-coherence", "--dephase", "0.25", "--shots", "3500",
                              "--seed", "4", "--format", "json"]),
    ("pair_shots.json", ["two-photon", "--sweep", "phi1_prime", "--start", "10",
                         "--stop", "300", "--steps", "7", "--shots", "2500",
                         "--seed", "13", "--format", "json"]),
    ("entanglement_shots.json", ["witness-entanglement", "--visibility", "0.9",
                                 "--shots", "4500", "--seed", "17", "--format", "json"]),
    # swept noise knobs: one fringe scale per row
    ("single_visibility_shots.csv", ["single-sweep", "--alpha-deg", "38", "--phi1-deg", "65",
                                     "--sweep", "visibility", "--start", "0.1",
                                     "--stop", "1", "--steps", "19", "--shots", "3000",
                                     "--seed", "23"]),
    ("entanglement_dephase_shots.csv", ["witness-entanglement", "--phi1-deg", "40",
                                        "--sweep", "dephase", "--start", "0", "--stop", "0.9",
                                        "--steps", "13", "--shots", "2000", "--seed", "29"]),
    ("coherence_mixed.json", ["witness-coherence", "--mixed", "--shots", "1500",
                              "--format", "json"]),
    # tables whose every column holds one value, one of them a -0 column
    ("single_mixed_visibility.json", ["single-sweep", "--mixed", "--sweep", "visibility",
                                      "--start", "0.2", "--stop", "1", "--steps", "5",
                                      "--format", "json"]),
    ("coherence_mixed_dephase.csv", ["witness-coherence", "--mixed", "--phi1-deg", "-0",
                                     "--sweep", "dephase", "--start", "0", "--stop", "0.8",
                                     "--steps", "5"]),
    # the table runner's remaining branches: --mixed without and with shots on
    # the pair witness, both noise knobs at once, and the analytic pair mixture
    ("entanglement_mixed.csv", ["witness-entanglement", "--mixed"]),
    ("entanglement_mixed_shots.csv", ["witness-entanglement", "--mixed", "--shots", "3000",
                                      "--seed", "8"]),
    ("entanglement_visibility_dephase.csv", ["witness-entanglement", "--visibility", "0.8",
                                             "--dephase", "0.1"]),
    ("coherence_dephase.csv", ["witness-coherence", "--dephase", "0.3"]),
    ("single_visibility_dephase.csv", ["single-sweep", "--visibility", "0.7",
                                       "--dephase", "0.1"]),
    ("pair_mixed_analytic.csv", ["two-photon", "--mixed"]),
]

#: ``verify`` runs, stdout only: the default hardware grid, one point, 250 and
#: 2000; the hardware line is the only output whose bits come from two
#: propagations, so it is pinned at a large grid too
VERIFY = [
    ("verify", ["verify"]),
    ("verify_points1", ["verify", "--points", "1", "--seed", "1"]),
    ("verify_points250", ["verify", "--points", "250", "--seed", "7"]),
    ("verify_points2000", ["verify", "--points", "2000", "--seed", "3"]),
]

#: (entry, argv) of invalid invocations; each must exit 2 and write no file
ERRORS = [
    ("error_shots", ["single-sweep", "--shots", "-5"]),
    ("error_visibility", ["single-sweep", "--visibility", "1.5"]),
    ("error_dephase", ["single-sweep", "--dephase", "-0.2"]),
    ("error_sweep_bounds", ["single-sweep", "--sweep", "alpha"]),
    ("error_sweep_start", ["single-sweep", "--sweep", "alpha", "--start", "nan",
                           "--stop", "90"]),
    ("error_steps", ["single-sweep", "--sweep", "alpha", "--start", "0", "--stop", "90",
                     "--steps", "1"]),
    ("error_swept_visibility", ["witness-coherence", "--sweep", "visibility", "--start", "0.5",
                                "--stop", "1.5", "--steps", "3"]),
    ("error_swept_dephase", ["witness-entanglement", "--sweep", "dephase", "--start", "-0.5",
                             "--stop", "0.5", "--steps", "3", "--mixed"]),
    ("error_ghz_sweep", ["ghz", "--sweep", "phi1", "--start", "0", "--stop", "360"]),
    ("error_ghz_mixed", ["ghz", "--mixed"]),
    ("error_ghz_noise", ["ghz", "--visibility", "0.5"]),
    ("error_ghz_photons", ["ghz", "--photons", "9"]),
    ("error_points", ["verify", "--points", "0"]),
    ("error_seed", ["two-photon", "--seed", "-1"]),
    ("error_verify_seed", ["verify", "--seed", "-1"]),
    ("error_phi2_nan", ["two-photon", "--phi2-deg", "nan"]),
    ("error_shots_overflow", ["single-sweep", "--shots", "99999999999999999999"]),
    ("error_steps_overflow", ["single-sweep", "--sweep", "alpha", "--start", "0", "--stop", "90",
                              "--steps", "99999999999999999999"]),
    ("error_points_overflow", ["verify", "--points", "99999999999999999999"]),
    ("error_ghz_beta", ["ghz", "--beta-deg", "22.5"]),
]

#: argv prefixes whose ``--help`` text is pinned, at COLUMNS=80
HELP = [[], ["single-sweep"], ["witness-coherence"], ["two-photon"],
        ["witness-entanglement"], ["ghz"], ["verify"]]


#: settings per library entry; each draws alpha, phi1, phi2 and a beta of
#: 0, pi/8 or uniform in [0, pi/4) (compared with ``strict=False``)
LIBRARY_POINTS = 200

#: settings per photon number of the ``ghz_output`` entry, drawn like those above, and
#: of the ``ghz_sector_probabilities_5to8`` entry (beta 0)
GHZ_POINTS = LIBRARY_POINTS // 8

#: rows of the one batch per photon number of the ``ghz_output_batched_6to8`` entry
GHZ_BATCH_ROWS = 5

#: rows of every third setting of the five state entries, which run as one batch
STATE_BATCH_ROWS = 5

#: (alphas, phis, betas) of the ``single_states_special`` entry: ``wave_state``,
#: ``particle_state`` and ``output_state`` (both arm phases phi) at each setting of
#: the grid, then as one batch of it; their outputs hold signed zeros
SPECIAL_SETTINGS = ((0.0, math.pi / 2), (0.0, -0.0, math.pi, -math.pi, 2 * math.pi),
                    (0.0, -0.0, math.pi / 8, math.pi / 4, math.pi / 2))

#: (visibility, dephase_wp) of the ``noisy_single_special`` entry: a noisy row and the
#: classical mixture
SPECIAL_MODELS = ((0.8, 0.3), (1.0, 1.0))

#: grids of the ``equivalence_scan_grid`` entry: 1 to 12 points each, at both
#: validated betas, then one grid at drawn betas compared with ``strict=False``
SCAN_GRIDS = 40

#: (entry, table shape, shots, seed) of each sampled table; ``sample_counts``
#: is also pinned, at LIBRARY_POINTS one-row draws
SAMPLER_TABLES = [
    ("sample_rows_110x4", (110, 4), 50_000, 91),
    ("sample_rows_22x4x4", (22, 4, 4), 5_000, 12345),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def library_checksums() -> dict[str, str]:
    """Name -> sha256 of the hex bits of each library function's outputs."""
    import numpy as np

    from wptoolbox.entangle import (MAX_PHOTONS, TwoPhotonSettings,
                                    coincidence_probabilities, concurrence, ghz_output,
                                    ghz_sector_probabilities, mixture_two_photon_output,
                                    sector_projection, two_photon_batch, two_photon_output,
                                    vh_variant_output)
    from wptoolbox.hardware import VALIDATED_BETAS, build_hardware_layout, equivalence_scan
    from wptoolbox.optics import interferometer_circuit, network_matrix
    from wptoolbox.shots import NoiseModel, noisy_single_probabilities, sample_counts, sample_rows
    from wptoolbox.toolbox import (ToolboxPhases, coherence, detection_probabilities,
                                   mixed_output, output_state, particle_state,
                                   single_photon_batch, wave_state)

    rng = np.random.default_rng(20240601)
    bits: dict[str, list[str]] = {}
    points = []
    for _ in range(LIBRARY_POINTS):
        alpha = rng.uniform(0, np.pi / 2)
        phi1, phi2, phi1p, phi2p = rng.uniform(0, 2 * np.pi, 4)
        kind, uniform = rng.integers(3), rng.uniform(0, np.pi / 4)
        beta = (0.0, np.pi / 8, uniform)[kind]
        points.append((alpha, phi1, phi2, phi1p, phi2p, beta))
        phases = ToolboxPhases(phi1, phi2)
        pair = TwoPhotonSettings(alpha, phases, ToolboxPhases(phi1p, phi2p), beta, np.pi / 8)
        ghz_n = int(rng.integers(1, 5))
        values = {
            "equivalence_scan": equivalence_scan([(alpha, phi1, phi2)], (beta,),
                                                 strict=kind < 2),
            "network_matrix": network_matrix(phi1, phi2, beta),
            "circuit_matrix": interferometer_circuit(phi1, phi2, beta).matrix(),
            "hardware_matrix": build_hardware_layout(phases, beta).matrix(),
            "detection_probabilities": detection_probabilities(alpha, phases, beta).as_array(),
            "coincidence_probabilities": coincidence_probabilities(pair).matrix,
            "ghz_sector_probabilities": list(
                ghz_sector_probabilities(ghz_n, alpha, phases).values()),
        }
        for name, value in values.items():
            bits.setdefault(name, []).append(np.asarray(value).tobytes().hex())
    # noisy engine rows: the settings above as one batch per engine, each
    # row at fringe scale 0 or uniform in [0, 1), from a stream of its own
    noise = np.random.default_rng(20240603)
    scale = np.where(noise.integers(2, size=LIBRARY_POINTS) == 0, 0.0,
                     noise.uniform(0, 1, LIBRARY_POINTS))
    alpha, phi1, phi2, phi1p, phi2p, beta = np.array(points).T
    noisy = {
        "noisy_single_photon_batch": single_photon_batch(alpha, phi1, phi2, beta, scale),
        "noisy_two_photon_batch": two_photon_batch(alpha, phi1, phi2, phi1p, phi2p, beta,
                                                   np.pi / 8, scale),
    }
    for name, batch in noisy.items():
        bits[name] = [row.tobytes().hex() for row in batch.probabilities]
    ghz = np.random.default_rng(20240604)
    bits["ghz_output"] = []
    for n in range(1, MAX_PHOTONS + 1):
        for _ in range(GHZ_POINTS):
            alpha, phi1, phi2 = ghz.uniform(0, np.pi / 2), *ghz.uniform(0, 2 * np.pi, 2)
            beta = (0.0, np.pi / 8, ghz.uniform(0, np.pi / 4))[ghz.integers(3)]
            state = ghz_output(n, alpha, ToolboxPhases(phi1, phi2), beta)
            bits["ghz_output"].append(state.amplitudes.tobytes().hex())
    # history sectors at 5 to 8 photons, the sizes whose products run along
    # the prefix (the entry above draws 1 to 4), at tilted phases
    sectors = np.random.default_rng(20240606)
    bits["ghz_sector_probabilities_5to8"] = []
    for n in range(5, MAX_PHOTONS + 1):
        for _ in range(GHZ_POINTS):
            alpha, phi1, phi2 = sectors.uniform(0, np.pi / 2), *sectors.uniform(0, 2 * np.pi, 2)
            probs = list(ghz_sector_probabilities(n, alpha, ToolboxPhases(phi1, phi2)).values())
            bits["ghz_sector_probabilities_5to8"].append(np.array(probs).tobytes().hex())
    # batched n-photon outputs, every row at its own setting, at the sizes
    # whose products run along the prefix and, at 8, fuse their last steps
    batched = np.random.default_rng(20240607)
    bits["ghz_output_batched_6to8"] = []
    for n in range(6, MAX_PHOTONS + 1):
        alpha = batched.uniform(0, np.pi / 2, GHZ_BATCH_ROWS)
        phi1, phi2 = batched.uniform(0, 2 * np.pi, (2, GHZ_BATCH_ROWS))
        beta = np.choose(batched.integers(3, size=GHZ_BATCH_ROWS),
                         [0.0, np.pi / 8, batched.uniform(0, np.pi / 4, GHZ_BATCH_ROWS)])
        state = ghz_output(n, alpha, ToolboxPhases(phi1, phi2), beta)
        bits["ghz_output_batched_6to8"] += [row.tobytes().hex() for row in state.amplitudes]
    # the per-photon history routes, both mixers drawn like beta above
    histories = np.random.default_rng(20240605)
    for _ in range(LIBRARY_POINTS):
        alpha = histories.uniform(0, np.pi / 2)
        phi1, phi2, phi1p, phi2p = histories.uniform(0, 2 * np.pi, 4)
        beta, betap = ((0.0, np.pi / 8, histories.uniform(0, np.pi / 4))[histories.integers(3)]
                       for _ in range(2))
        phases = ToolboxPhases(phi1, phi2)
        pair = TwoPhotonSettings(alpha, phases, ToolboxPhases(phi1p, phi2p), beta, betap)
        values = {
            "vh_variant_output": vh_variant_output(pair).amplitudes,
            "concurrence": [concurrence(pair), concurrence(pair, mixed=True)],
            "coherence": [coherence(alpha, phases, beta), coherence(alpha, phases, beta, True)],
            "sector_projection": sector_projection(two_photon_output(pair), pair),
            "mixed_output": mixed_output(alpha, phases, beta).matrix,
        }
        for name, value in values.items():
            bits.setdefault(name, []).append(np.asarray(value).tobytes().hex())
    # the public states and the pair mixture, both mixers drawn like beta above
    states = np.random.default_rng(20240608)
    for k in range(LIBRARY_POINTS):
        size = STATE_BATCH_ROWS if k % 3 == 0 else None
        alpha = states.uniform(0, np.pi / 2, size)
        phi1, phi2, phi1p, phi2p = (states.uniform(0, 2 * np.pi, size) for _ in range(4))
        beta, betap = (np.choose(states.integers(3, size=size),
                                 [0.0, np.pi / 8, states.uniform(0, np.pi / 4, size)])
                       for _ in range(2))
        phases = ToolboxPhases(phi1, phi2)
        pair = TwoPhotonSettings(alpha, phases, ToolboxPhases(phi1p, phi2p), beta, betap)
        values = {
            "wave_state": wave_state(phi1, beta).amplitudes,
            "particle_state": particle_state(phi2, beta).amplitudes,
            "output_state": output_state(alpha, phases, beta).amplitudes,
            "two_photon_output": two_photon_output(pair).amplitudes,
            "mixture_two_photon_output": mixture_two_photon_output(pair).matrix,
        }
        for name, value in values.items():
            bits.setdefault(name, []).append(np.asarray(value).tobytes().hex())
    # the single-photon states at special settings, one at a time, then as one batch
    grid = np.meshgrid(*SPECIAL_SETTINGS, indexing="ij")
    bits["single_states_special"] = [
        np.asarray(value).tobytes().hex()
        for alpha, phi, beta in [*zip(*(np.ravel(x).tolist() for x in grid)), grid]
        for value in (wave_state(phi, beta).amplitudes, particle_state(phi, beta).amplitudes,
                      output_state(alpha, ToolboxPhases(phi, phi), beta).amplitudes)]
    # one-setting engine entries on the same grid, whose rows hold signed zeros too:
    # each photon of a pair at its own phases, the sector table at the mixers off
    bits.update(detection_special=[], noisy_single_special=[], coincidence_special=[],
                ghz_sector_special=[])
    for alpha, phi, beta in zip(*(np.ravel(x).tolist() for x in grid)):
        phases = ToolboxPhases(phi, phi)
        pair = TwoPhotonSettings(alpha, phases, ToolboxPhases(-phi, phi), beta, beta)
        bits["detection_special"].append(
            detection_probabilities(alpha, phases, beta).as_array().tobytes().hex())
        bits["noisy_single_special"] += [
            noisy_single_probabilities(alpha, phases, beta, NoiseModel(*knobs)).as_array()
            .tobytes().hex() for knobs in SPECIAL_MODELS]
        bits["coincidence_special"].append(
            coincidence_probabilities(pair).matrix.tobytes().hex())
        if beta == 0.0:  # the only mixer angle the sector table takes, -0.0 too
            bits["ghz_sector_special"] += [
                np.array(list(ghz_sector_probabilities(n, alpha, phases, beta).values()))
                .tobytes().hex() for n in range(1, 5)]
    # multi-point scans; the entry above scans one point at one beta
    scans = np.random.default_rng(20240609)
    bits["equivalence_scan_grid"] = []
    for k in range(SCAN_GRIDS + 1):
        n = int(scans.integers(1, 13))
        grid = np.column_stack([scans.uniform(0, np.pi / 2, n),
                                scans.uniform(0, 2 * np.pi, (n, 2))])
        betas = VALIDATED_BETAS if k < SCAN_GRIDS else scans.uniform(0, np.pi / 4, 3)
        deviation = equivalence_scan(grid, betas, strict=k < SCAN_GRIDS)
        bits["equivalence_scan_grid"].append(np.float64(deviation).tobytes().hex())
    # the sampler on fixed tables, independent of the engine's bits
    tables = np.random.default_rng(20240602)
    for name, shape, shots, seed in SAMPLER_TABLES:
        dists = tables.dirichlet(np.full(int(np.prod(shape[1:])), 0.7), shape[0])
        bits[name] = [sample_rows(dists.reshape(shape), shots, seed).tobytes().hex()]
    bits["sample_counts"] = [
        sample_counts(tables.dirichlet(np.ones((4, 16)[k % 2])), 1000 + k, seed=k).counts
        .tobytes().hex() for k in range(LIBRARY_POINTS)]
    return {f"library:{name}": _digest("\n".join(b).encode()) for name, b in bits.items()}


def _run(main, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``; an argparse exit counts too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def checksums(main) -> dict[str, str]:
    """Name -> sha256 of every output file, stdout, error path and help text,
    ``main`` being ``cli.main``."""
    sums = {}
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative --out paths keep "wrote <path>" stable
        os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
        try:
            for name, argv in COMMANDS + VERIFY:
                writes = argv[0] != "verify"
                code, stdout, stderr = _run(main, argv + ["--out", name] if writes else argv)
                if code != 0 or stderr:
                    raise SystemExit(f"{name}: exit code {code}, stderr {stderr!r}")
                sums[f"{name}.stdout"] = _digest(stdout.encode())
                if writes:
                    sums[name] = _digest(Path(name).read_bytes())
            for name, argv in ERRORS:
                out = [] if argv[0] == "verify" else ["--out", name]
                code, _, stderr = _run(main, argv + out)
                if code != 2 or os.path.exists(name):
                    raise SystemExit(f"{name}: exit code {code}, or a file was written")
                sums[name] = _digest(f"{code}\n{stderr}".encode())
            for argv in HELP:
                code, stdout, _ = _run(main, argv + ["--help"])
                if code != 0:
                    raise SystemExit(f"{argv} --help: exit code {code}")
                sums[f"help:{' '.join(argv) or 'wptoolbox'}"] = _digest(stdout.encode())
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
    return sums


def _read_manifest(path: str) -> dict[str, str]:
    entries = (line.split() for line in Path(path).read_text().splitlines() if line)
    return {name: digest for digest, name in entries}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the wptoolbox package to run")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="MANIFEST", help="write the manifest here")
    mode.add_argument("--check", metavar="MANIFEST", help="compare against this manifest")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    from wptoolbox.cli import main as cli_main

    sums = checksums(cli_main) | library_checksums()
    if args.write:
        Path(args.write).write_text("".join(f"{d}  {n}\n" for n, d in sums.items()))
        print(f"wrote {len(sums)} checksums to {args.write}")
        return 0
    expected = _read_manifest(args.check)
    differing = sorted(n for n in expected.keys() | sums.keys()
                       if expected.get(n) != sums.get(n))
    for name in differing:
        print(f"DIFFERS  {name}")
    print(f"{len(sums) - len(differing)} of {len(sums)} checksums identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
