"""Command-line runner emitting CSV/JSON tables of simulated statistics.

Angles are taken in degrees on the command line (flag names say so) and
written to the output files in radians.  With ``--shots 0`` every command
is analytic and seed-independent; with ``--shots N`` each row additionally
carries multinomial counts and Poissonian errors: a table draws all rows,
in row order, from one ``default_rng(seed)`` stream, and its row 0 equals
``sample_counts`` at that seed.  Numeric columns are printed with 17
significant digits so a fixed seed reproduces files byte-for-byte.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments/spec.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .entangle import (
    _PAIR_NAMES,
    TwoPhotonSettings,
    coincidence_closed_forms,
    entanglement_witness,
    ghz_sector_probabilities,
    two_photon_batch,
)
from .hardware import equivalence_scan
from .optics import interferometer_circuit
from .shots import (
    NoiseModel,
    count_errors,
    noisy_coincidence_probabilities,
    noisy_single_probabilities,
    sample_rows,
    witness_rows,
)
from .toolbox import (
    _SINGLE_NAMES,
    BETA_SPLIT,
    ToolboxPhases,
    detection_closed_forms,
    prepare_input,
    single_photon_batch,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SPEC = 2

OUTDIR_ENV = "WPTOOLBOX_OUTDIR"

#: sweepable parameters; angles are entered in degrees, unit knobs as-is
ANGLE_PARAMS = ("alpha", "phi1", "phi1_prime", "phi2", "phi2_prime", "beta")
UNIT_PARAMS = ("visibility", "dephase")
SWEEP_PARAMS = ANGLE_PARAMS + UNIT_PARAMS

_DEFAULT_SWEEPS = {
    "single-sweep": ("phi1", 0.0, 360.0, 25),
    "witness-coherence": ("alpha", 0.0, 90.0, 13),
    "witness-entanglement": ("phi1", 0.0, 360.0, 25),
}


class SpecError(Exception):
    """Invalid sweep/command specification (maps to exit code 2)."""


@dataclass
class SweepSpec:
    """One command run: swept parameter (or None), fixed values, output."""

    command: str
    param: str | None
    start: float
    stop: float
    steps: int
    fixed: dict[str, float]
    shots: int
    seed: int
    mixed: bool
    fmt: str
    out: str | None

    def columns(self) -> dict[str, np.ndarray]:
        """Every setting as a column of one value per row (radians / unit scale).

        A swept noise knob is range-checked here, with the message of
        :class:`~wptoolbox.shots.NoiseModel`.
        """
        rows = 1 if self.param is None else self.steps
        columns = {key: np.full(rows, v) for key, v in self.fixed.items()}
        if self.param is not None:
            values = np.linspace(self.start, self.stop, self.steps)
            if self.param in ANGLE_PARAMS:
                values = np.radians(values)
            elif (outside := ~((0.0 <= values) & (values <= 1.0))).any():
                name = "dephase_wp" if self.param == "dephase" else self.param
                raise ValueError(f"{name} must lie in [0, 1], got {float(values[outside][0])}")
            columns[self.param] = values
        return columns


#: the degree flag of each angle setting
_ANGLE_FLAGS = {
    "alpha": "alpha-deg", "phi1": "phi1-deg", "phi2": "phi2-deg", "phi1_prime": "phi1p-deg",
    "phi2_prime": "phi2p-deg", "beta": "beta-deg", "beta_prime": "betap-deg",
}


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    if args.beta_deg is None:
        # the n-photon table is defined for switched-off mixers
        args.beta_deg = 0.0 if args.command == "ghz" else 22.5
    fixed = {}
    for key, flag in _ANGLE_FLAGS.items():
        degrees = getattr(args, flag.replace("-", "_"))
        if not np.isfinite(degrees):
            raise SpecError(f"--{flag} must be finite")
        fixed[key] = np.radians(degrees)
    fixed.update(visibility=args.visibility, dephase=args.dephase)
    if args.shots < 0:
        raise SpecError("--shots must be >= 0")
    for knob in ("visibility", "dephase"):
        if not 0.0 <= fixed[knob] <= 1.0:
            raise SpecError(f"--{knob} must lie in [0, 1]")

    param, start, stop, steps = None, 0.0, 0.0, 0
    if args.sweep is not None:
        if args.start is None or args.stop is None:
            raise SpecError("--sweep needs explicit --start and --stop")
        for flag in ("start", "stop"):
            if not np.isfinite(getattr(args, flag)):
                raise SpecError(f"--{flag} must be finite")
        param, start, stop, steps = args.sweep, args.start, args.stop, args.steps
    elif args.command in _DEFAULT_SWEEPS:
        param, start, stop, steps = _DEFAULT_SWEEPS[args.command]
    if param is not None and steps < 2:
        raise SpecError("sweeps need --steps >= 2")
    return SweepSpec(
        command=args.command,
        param=param,
        start=start,
        stop=stop,
        steps=steps,
        fixed=fixed,
        shots=args.shots,
        seed=args.seed,
        mixed=args.mixed,
        fmt=args.format,
        out=args.out,
    )


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _output_path(spec: SweepSpec) -> str:
    if spec.out is not None:
        return spec.out
    base = spec.command.replace("-", "_") + ("." + spec.fmt)
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), base)


def _write_table(fh, fmt: str, header: list[str], columns: list) -> None:
    """Write the columns as CSV or JSON rows, one ``%``-template per row.

    The bytes are those of ``csv.writer`` (``%.17g`` floats, ``%d``
    integers, ``\r\n`` line ends; string cells hold no delimiter or quote,
    so none is quoted) or of ``json.dump(rows, indent=2)`` plus a newline.
    """
    cells, values = [], []
    for col in map(np.asarray, columns):
        kind, col_values = col.dtype.kind, col.tolist()
        if kind == "U":
            cell = "%s"
            if fmt == "json":
                col_values = [encode_basestring_ascii(v) for v in col_values]
        elif kind in "iu":
            cell = "%d"
        elif fmt == "csv":
            cell = "%.17g"
        elif np.isfinite(col).all():
            cell = "%r"
        else:  # json's NaN and Infinity
            cell, col_values = "%s", [json.dumps(v) for v in col_values]
        cells.append(cell)
        values.append(col_values)
    if fmt == "csv":
        template = ",".join(cells) + "\r\n"
        fh.write(",".join(header) + "\r\n" + "".join(map(template.__mod__, zip(*values))))
        return
    keys = (encode_basestring_ascii(col).replace("%", "%%") for col in header)
    template = "  {\n" + ",\n".join(f"    {k}: {c}" for k, c in zip(keys, cells)) + "\n  }"
    rows = ",\n".join(map(template.__mod__, zip(*values)))
    fh.write(f"[\n{rows}\n]\n" if rows else "[]\n")


def _emit(spec: SweepSpec, header: list[str], columns: list) -> str:
    """Write the table ``header``/``columns`` as CSV or JSON; returns the path written.

    The table goes to a temporary file next to the target, which replaces
    the target only once complete, so a failed write leaves any previous
    file untouched.
    """
    path = _output_path(spec)
    base = os.path.join(os.path.dirname(path), "." + os.path.basename(path))
    tmp = f"{base}.{os.urandom(4).hex()}.tmp"
    try:
        # csv ends its lines with \r\n itself; json relies on text-mode translation
        with open(tmp, "x", newline="" if spec.fmt == "csv" else None) as fh:
            _write_table(fh, spec.fmt, header, columns)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only when the write or the rename failed
            os.unlink(tmp)
    return path


def _distributions(spec: SweepSpec, settings: dict[str, np.ndarray], pair: bool) -> np.ndarray:
    """Detector probabilities (or coincidence tables, for a ``pair``) of every
    row, from one engine call, honoring --mixed/noise."""
    if spec.mixed:
        # the classical mixture carries no fringe, so noise leaves it alone
        scales = np.zeros_like(settings["visibility"])
    else:
        scales = (1.0 - settings["dephase"]) * settings["visibility"]
    engine, keys = ((two_photon_batch, _PAIR_NAMES) if pair
                    else (single_photon_batch, _SINGLE_NAMES))
    return engine(*(settings[key] for key in keys), scales).probabilities


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_single_sweep(spec: SweepSpec) -> int:
    settings = spec.columns()
    probs = _distributions(spec, settings, pair=False)
    header = ["alpha", "phi1", "phi2", "beta", "p1", "p2", "p3", "p4"]
    columns = [*(settings[key] for key in _SINGLE_NAMES), *probs.T]
    if spec.shots > 0:
        counts = sample_rows(probs, spec.shots, spec.seed)
        header += [f"c{i}" for i in range(1, 5)] + [f"e{i}" for i in range(1, 5)]
        columns += [*counts.T, *count_errors(counts).T]
    print(f"wrote {_emit(spec, header, columns)}")
    return EXIT_OK


def cmd_witness_coherence(spec: SweepSpec) -> int:
    settings = spec.columns()
    probs = _distributions(spec, settings, pair=False)
    header = ["alpha", "phi1", "wc"]
    columns = [settings["alpha"], settings["phi1"]]
    if spec.shots > 0:
        header.append("wc_err")
        columns += witness_rows(sample_rows(probs, spec.shots, spec.seed), spec.shots,
                                "coherence")
    else:
        columns.append(np.abs(probs[:, 0] - probs[:, 1]))
    print(f"wrote {_emit(spec, header, columns)}")
    return EXIT_OK


_PAIR_COLUMNS = [f"p_{a}{b}p" for a in range(1, 5) for b in range(1, 5)]


def cmd_two_photon(spec: SweepSpec) -> int:
    if spec.param is None:
        # default grid: the four fringe corners at both validated mixers
        corners = itertools.product((0.0, BETA_SPLIT), (0.0, np.pi), (0.0, np.pi))
        beta, phi1, phi1p = np.array(list(corners)).T
        settings = {key: np.full(len(beta), v) for key, v in spec.fixed.items()}
        settings.update(phi1=phi1, phi1_prime=phi1p, beta=beta, beta_prime=beta)
    else:
        settings = spec.columns()
    tables = _distributions(spec, settings, pair=True).reshape(-1, 16)
    header = ["phi1", "phi1p", "beta", "betap"] + _PAIR_COLUMNS
    columns = [settings[key] for key in ("phi1", "phi1_prime", "beta", "beta_prime")]
    columns += list(tables.T)
    if spec.shots > 0:
        counts = sample_rows(tables, spec.shots, spec.seed)
        header += [c.replace("p_", "c_") for c in _PAIR_COLUMNS]
        header += [c.replace("p_", "e_") for c in _PAIR_COLUMNS]
        columns += [*counts.T, *count_errors(counts).T]
    print(f"wrote {_emit(spec, header, columns)}")
    return EXIT_OK


def cmd_witness_entanglement(spec: SweepSpec) -> int:
    settings = spec.columns()
    tables = _distributions(spec, settings, pair=True)
    header = ["phi1", "p_22p", "p_21p", "we"]
    if spec.shots > 0:
        counts = sample_rows(tables, spec.shots, spec.seed)
        header.append("we_err")
        columns = [settings["phi1"], counts[:, 1, 1] / spec.shots,
                   counts[:, 1, 0] / spec.shots,
                   *witness_rows(counts, spec.shots, "entanglement")]
    else:
        p22, p21 = tables[:, 1, 1], tables[:, 1, 0]
        columns = [settings["phi1"], p22, p21, p22 - p21]
    print(f"wrote {_emit(spec, header, columns)}")
    return EXIT_OK


def cmd_ghz(spec: SweepSpec, photons: int) -> int:
    if spec.param is not None:
        raise SpecError("the n-photon table does not support sweeps")
    v = spec.fixed
    if spec.mixed or (1.0 - v["dephase"]) * v["visibility"] != 1.0:
        raise SpecError("the n-photon table supports neither --mixed nor noise")
    sectors = ghz_sector_probabilities(
        photons, v["alpha"], ToolboxPhases(v["phi1"], v["phi2"]), beta=v["beta"]
    )
    crossed = [int(len(set(pattern)) > 1) for pattern in sectors]
    path = _emit(spec, ["sector", "probability", "crossed"],
                 [list(sectors), list(sectors.values()), crossed])
    # a running sum in table order, which the printed digits have always come from
    crossed_mass = sum(p for p, c in zip(sectors.values(), crossed) if c)
    print(f"crossed-sector mass: {float(crossed_mass):.17g}")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_detection() -> float:
    phis = np.linspace(0.0, 2 * np.pi, 9)
    grid = itertools.product((0.0, BETA_SPLIT), np.linspace(0.0, np.pi / 2, 7), phis, phis)
    beta, alpha, phi1, phi2 = np.array(list(grid)).T
    born = interferometer_circuit(phi1, phi2, beta).propagate(prepare_input(alpha))
    closed = detection_closed_forms(alpha, ToolboxPhases(phi1, phi2), beta)
    return float(np.max(np.abs(closed - born.probabilities())))


def _verify_two_photon() -> float:
    phis = np.linspace(0.0, 2 * np.pi, 5)
    mixers = ((BETA_SPLIT, BETA_SPLIT), (0.0, 0.0), (0.0, BETA_SPLIT), (BETA_SPLIT, 0.0))
    grid = itertools.product(mixers, (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2), phis, phis,
                             (0.0, 1.1), (0.0, 2.3))
    beta, betap, alpha, phi1, phi1p, phi2, phi2p = np.array(
        [(*mixer, *rest) for mixer, *rest in grid]
    ).T
    table = two_photon_batch(alpha, phi1, phi2, phi1p, phi2p, beta, betap).probabilities
    closed = coincidence_closed_forms(
        alpha, ToolboxPhases(phi1, phi2), ToolboxPhases(phi1p, phi2p), beta, betap
    )
    return float(np.max(np.abs(closed - table)))


def _verify_hardware(points: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    # drawn row by row, so a seed gives the points of one draw per (alpha, phi1, phi2)
    grid = rng.uniform(0.0, (np.pi / 2, 2 * np.pi, 2 * np.pi), size=(points, 3))
    return equivalence_scan(grid)


def _verify_ghz() -> float:
    sectors = ghz_sector_probabilities(
        3, np.pi / 4, ToolboxPhases(np.pi / 2, 0.0), beta=0.0
    )
    worst = abs(sectors["www"] - 0.5)
    worst = max(worst, abs(sectors["ppp"] - 0.5))
    crossed = sum(v for key, v in sectors.items() if len(set(key)) > 1)
    return max(worst, crossed)


def _verify_noise() -> float:
    s = TwoPhotonSettings()
    scaled = entanglement_witness(
        noisy_coincidence_probabilities(s, NoiseModel(visibility=0.9))
    )
    worst = abs(scaled - 0.9 * 0.25)
    dephased = entanglement_witness(
        noisy_coincidence_probabilities(s, NoiseModel(dephase_wp=1.0))
    )
    worst = max(worst, abs(dephased))
    probs = noisy_single_probabilities(
        np.pi / 4, ToolboxPhases(0.0, 0.0), model=NoiseModel(dephase_wp=1.0)
    )
    return max(worst, abs(probs.p1 - probs.p2))


def cmd_verify(points: int, seed: int) -> int:
    if points < 1:
        raise SpecError(f"--points must be >= 1, got {points}")
    checks = [
        ("single-photon closed forms vs propagation", _verify_detection, 1e-10),
        ("two-photon closed forms vs propagation", _verify_two_photon, 1e-10),
        ("hardware equivalence", lambda: _verify_hardware(points, seed), 1e-10),
        ("n-photon history sectors", _verify_ghz, 1e-10),
        ("noise-model witness scaling", _verify_noise, 1e-10),
    ]
    failed = False
    for name, fn, tol in checks:
        dev = fn()
        ok = dev < tol
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: max deviation {dev:.3e} (tol {tol:g})")
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptoolbox",
        description="Simulated single- and two-photon interferometer statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    angles = common.add_argument_group("settings (degrees)")
    angles.add_argument("--alpha-deg", type=float, default=45.0,
                        help="input superposition angle (default 45)")
    angles.add_argument("--phi1-deg", type=float, default=0.0,
                        help="closed-arm phase (default 0)")
    angles.add_argument("--phi2-deg", type=float, default=0.0,
                        help="open-arm phase (default 0)")
    angles.add_argument("--phi1p-deg", type=float, default=0.0,
                        help="closed-arm phase, photon B (default 0)")
    angles.add_argument("--phi2p-deg", type=float, default=0.0,
                        help="open-arm phase, photon B (default 0)")
    angles.add_argument("--beta-deg", type=float, default=None,
                        help="detection mixer angle (default 22.5; 0 = mixers off; "
                             "the ghz command defaults to 0)")
    angles.add_argument("--betap-deg", type=float, default=22.5,
                        help="detection mixer angle, photon B (default 22.5)")
    sampling = common.add_argument_group("sampling and noise")
    sampling.add_argument("--shots", type=int, default=0,
                          help="counts per row; 0 = analytic only (default)")
    sampling.add_argument("--seed", type=int, default=12345,
                          help="RNG seed; a table draws all rows, in row order, from one"
                               " default_rng(seed) stream (default 12345)")
    sampling.add_argument("--visibility", type=float, default=1.0,
                          help="fringe-contrast factor in [0, 1] (default 1)")
    sampling.add_argument("--dephase", type=float, default=0.0,
                          help="wave/particle dephasing in [0, 1] (default 0)")
    sampling.add_argument("--mixed", action="store_true",
                          help="use the classical wave/particle mixture")
    sweep = common.add_argument_group("sweeping")
    sweep.add_argument("--sweep", choices=SWEEP_PARAMS, default=None,
                       help="parameter to sweep (angles in degrees)")
    sweep.add_argument("--start", type=float, default=None,
                       help="sweep start (degrees for angle parameters)")
    sweep.add_argument("--stop", type=float, default=None,
                       help="sweep stop (degrees for angle parameters)")
    sweep.add_argument("--steps", type=int, default=25,
                       help="sweep length (default 25; must be >= 2)")
    output = common.add_argument_group("output")
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None,
                        help=f"output path (default: command name in ${OUTDIR_ENV} or .)")

    sub.add_parser(
        "single-sweep", parents=[common],
        help="four detector probabilities (default: phi1 sweep, 25 points)",
    )
    sub.add_parser(
        "witness-coherence", parents=[common],
        help="|P1 - P2| witness (default: alpha sweep, 13 points)",
    )
    sub.add_parser(
        "two-photon", parents=[common],
        help="4x4 coincidence tables (default: fringe corners at both mixers)",
    )
    sub.add_parser(
        "witness-entanglement", parents=[common],
        help="P22' - P21' witness (default: phi1 sweep at phi1' = 0)",
    )
    ghz = sub.add_parser(
        "ghz", parents=[common],
        help="n-photon history-sector table (mixers off)",
    )
    ghz.add_argument("--photons", type=int, default=3,
                     help="number of photons, 1..8 (default 3)")
    verify = sub.add_parser(
        "verify", help="run the built-in consistency grids and report deviations"
    )
    verify.add_argument("--points", type=int, default=100,
                        help="random points for the hardware grid (default 100)")
    verify.add_argument("--seed", type=int, default=12345)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise SpecError("--seed must be >= 0")
        if args.command == "verify":
            return cmd_verify(args.points, args.seed)
        spec = _spec_from_args(args)
        if args.command == "single-sweep":
            return cmd_single_sweep(spec)
        if args.command == "witness-coherence":
            return cmd_witness_coherence(spec)
        if args.command == "two-photon":
            return cmd_two_photon(spec)
        if args.command == "witness-entanglement":
            return cmd_witness_entanglement(spec)
        if args.command == "ghz":
            return cmd_ghz(spec, args.photons)
        raise SpecError(f"unknown command {args.command!r}")
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
