"""Command-line runner emitting CSV/JSON tables of simulated statistics.

Angles are taken in degrees on the command line (flag names say so) and
written to the output files in radians.  With ``--shots 0`` every command
is analytic and seed-independent; with ``--shots N`` each row additionally
carries multinomial counts and Poissonian errors: a table draws all rows,
in row order, from one ``default_rng(seed)`` stream, and its row 0 equals
``sample_counts`` at that seed.  Numeric columns are printed with 17
significant digits so a fixed seed reproduces files byte-for-byte.

The four table commands share one runner, :func:`_run_table`: it builds the
settings columns, makes one engine call, one draw with ``--shots`` and one
write; each command adds only its column builder, which turns the settings,
distributions and counts into the file's header and columns.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments/spec.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np

from .entangle import (
    _PAIR_NAMES,
    MAX_PHOTONS,
    TwoPhotonSettings,
    coincidence_closed_forms,
    entanglement_witness,
    ghz_sector_probabilities,
    two_photon_batch,
)
from .hardware import equivalence_scan
from .optics import interferometer_circuit
from .shots import (
    MAX_SHOTS,
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

#: most rows of a sweep (--steps) or of the hardware grid (--points): one pair table
#: of this many rows (two_photon_batch) peaks at about 142 MiB of traced memory
MAX_ROWS = 100_000

#: sweepable parameters; angles are entered in degrees, unit knobs as-is
ANGLE_PARAMS = ("alpha", "phi1", "phi1_prime", "phi2", "phi2_prime", "beta")
UNIT_PARAMS = ("visibility", "dephase")
SWEEP_PARAMS = ANGLE_PARAMS + UNIT_PARAMS

_DEFAULT_SWEEPS = {
    "single-sweep": ("phi1", 0.0, 360.0, 25),
    "witness-coherence": ("alpha", 0.0, 90.0, 13),
    "witness-entanglement": ("phi1", 0.0, 360.0, 25),
}


#: the degree flag, default and help of each angle setting, in help order
_ANGLE_FLAGS = {
    "alpha": ("alpha-deg", 45.0, "input superposition angle (default 45)"),
    "phi1": ("phi1-deg", 0.0, "closed-arm phase (default 0)"),
    "phi2": ("phi2-deg", 0.0, "open-arm phase (default 0)"),
    "phi1_prime": ("phi1p-deg", 0.0, "closed-arm phase, photon B (default 0)"),
    "phi2_prime": ("phi2p-deg", 0.0, "open-arm phase, photon B (default 0)"),
    "beta": ("beta-deg", None, "detection mixer angle (default 22.5; 0 = mixers off; "
             "the ghz command defaults to 0)"),
    "beta_prime": ("betap-deg", 22.5, "detection mixer angle, photon B (default 22.5)"),
}


def _check_args(args: argparse.Namespace) -> None:
    """Reject invalid input, naming its flag; set the default mixer and sweep on ``args``."""
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    if args.command == "verify":
        if args.points < 1:
            raise ValueError(f"--points must be >= 1, got {args.points}")
        if args.points > MAX_ROWS:
            raise ValueError(f"--points must be <= {MAX_ROWS}, got {args.points}")
        return
    if args.beta_deg is None:
        # the n-photon table is defined for switched-off mixers
        args.beta_deg = 0.0 if args.command == "ghz" else 22.5
    for flag, _, _ in _ANGLE_FLAGS.values():
        if not math.isfinite(getattr(args, flag.replace("-", "_"))):
            raise ValueError(f"--{flag} must be finite")
    if args.shots < 0:
        raise ValueError("--shots must be >= 0")
    if args.shots > MAX_SHOTS:
        raise ValueError(f"--shots must be <= {MAX_SHOTS}")
    for knob in ("visibility", "dephase"):
        if not 0.0 <= getattr(args, knob) <= 1.0:
            raise ValueError(f"--{knob} must lie in [0, 1]")

    if args.sweep is not None:
        if args.start is None or args.stop is None:
            raise ValueError("--sweep needs explicit --start and --stop")
        for flag in ("start", "stop"):
            if not math.isfinite(getattr(args, flag)):
                raise ValueError(f"--{flag} must be finite")
        if args.sweep.endswith("_prime") and args.command in ("single-sweep", "witness-coherence"):
            sweepable = ", ".join(p for p in SWEEP_PARAMS if not p.endswith("_prime"))
            raise ValueError(f"{args.command} has one photon: --sweep takes {sweepable}")
        args.steps = 25 if args.steps is None else args.steps
    elif given := [flag for flag in ("start", "stop", "steps") if getattr(args, flag) is not None]:
        raise ValueError(f"--{given[0]} needs --sweep")
    elif args.command in _DEFAULT_SWEEPS:
        args.sweep, args.start, args.stop, args.steps = _DEFAULT_SWEEPS[args.command]
    if args.sweep is not None and args.steps < 2:
        raise ValueError("sweeps need --steps >= 2")
    if args.sweep is not None and args.steps > MAX_ROWS:
        raise ValueError(f"--steps must be <= {MAX_ROWS}, got {args.steps}")

    if args.command == "ghz":
        if not 1 <= args.photons <= MAX_PHOTONS:
            raise ValueError(f"--photons must lie in [1, {MAX_PHOTONS}], got {args.photons}")
        if args.sweep is not None:
            raise ValueError("the n-photon table does not support sweeps")
        if args.beta_deg != 0.0:
            raise ValueError(f"--beta-deg must be 0 for the n-photon table, got {args.beta_deg}")
        if args.mixed or NoiseModel(args.visibility, args.dephase).fringe_scale != 1.0:
            raise ValueError("the n-photon table supports neither --mixed nor noise")
        if args.shots > 0:
            raise ValueError("the n-photon table is analytic and takes no --shots")


def _columns(args: argparse.Namespace) -> dict[str, np.ndarray]:
    """Every setting as a column of one value per row (radians / unit scale)."""
    rows = 1 if args.sweep is None else args.steps
    columns = {key: np.full(rows, np.radians(getattr(args, flag.replace("-", "_"))))
               for key, (flag, _, _) in _ANGLE_FLAGS.items()}
    columns.update(visibility=np.full(rows, args.visibility),
                   dephase=np.full(rows, args.dephase))
    if args.sweep is not None:
        values = np.linspace(args.start, args.stop, args.steps)
        columns[args.sweep] = np.radians(values) if args.sweep in ANGLE_PARAMS else values
    return columns


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _output_path(args: argparse.Namespace) -> str:
    if args.out is not None:
        return args.out
    base = args.command.replace("-", "_") + ("." + args.format)
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), base)


def _write_table(fh, fmt: str, header: list[str], columns: list) -> None:
    """Write the columns as CSV or JSON rows, one ``%``-template per row.

    The bytes are those of ``csv.writer`` (``%.17g`` floats, ``%d``
    integers, ``\r\n`` line ends; string cells hold no delimiter or quote,
    so none is quoted) or of ``json.dump(rows, indent=2)`` plus a newline.
    A column that holds one value (the same bits, so one sign of zero) is
    formatted once, into the template.
    """
    cells, values, rows = [], [], 0
    columns = [np.asarray(col) for col in columns]
    # JSON spells a non-finite float apart: one test over every float column at once
    floats = [col for col in columns if col.dtype.kind not in "Uiu"] if fmt == "json" else []
    finite = iter(np.isfinite(floats).all(axis=-1) if floats else ())
    for col in columns:
        kind, col_values, rows = col.dtype.kind, col.tolist(), len(col)
        if kind == "U":
            cell = "%s"
            if fmt == "json":
                col_values = [encode_basestring_ascii(v) for v in col_values]
        elif kind in "iu":
            cell = "%d"
        elif fmt == "csv":
            cell = "%.17g"
        elif next(finite):
            cell = "%r"
        else:  # json's NaN and Infinity
            cell, col_values = "%s", [json.dumps(v) for v in col_values]
        if _constant(col, col_values):
            cells.append((cell % col_values[0]).replace("%", "%%"))
        else:
            cells.append(cell)
            values.append(col_values)
    if fmt == "csv":
        template = ",".join(cells) + "\r\n"
    else:
        keys = (encode_basestring_ascii(col).replace("%", "%%") for col in header)
        template = "  {\n" + ",\n".join(f"    {k}: {c}" for k, c in zip(keys, cells)) + "\n  }"
    lines = map(template.__mod__, zip(*values)) if values else [template % ()] * rows
    if fmt == "csv":
        fh.write(",".join(header) + "\r\n" + "".join(lines))
        return
    body = ",\n".join(lines)
    fh.write(f"[\n{body}\n]\n" if body else "[]\n")


def _constant(col: np.ndarray, values: list) -> bool:
    """True when every value of ``col`` has the bits of its first: equal ``values``,
    counted at C speed, and for a float zero one sign."""
    if not values or values.count(values[0]) < len(values):
        return False
    return (values[0] != 0 or col.dtype.kind != "f"
            or np.count_nonzero(np.signbit(col)) in (0, len(values)))


def _emit(args: argparse.Namespace, header: list[str], columns: list) -> str:
    """Write the table ``header``/``columns`` as CSV or JSON; returns the path written.

    The table goes to a temporary file next to the target, which replaces
    the target only once complete, so a failed write leaves any previous
    file untouched.
    """
    path = _output_path(args)
    base = os.path.join(os.path.dirname(path), "." + os.path.basename(path))
    tmp = f"{base}.{os.urandom(4).hex()}.tmp"
    try:
        # csv ends its lines with \r\n itself; json relies on text-mode translation
        with open(tmp, "x", newline="" if args.format == "csv" else None) as fh:
            _write_table(fh, args.format, header, columns)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only when the write or the rename failed
            os.unlink(tmp)
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _run_table(pair: bool, columns_of, args: argparse.Namespace) -> int:
    """The pipeline of every table command: the settings, one engine call (the pair
    engine for a ``pair``) honoring --mixed/noise, one draw with --shots, one write.
    ``columns_of(settings, dists, counts, shots)`` gives the file's header and
    columns; ``counts`` is None without --shots."""
    settings = _columns(args)
    if args.sweep is None:  # two-photon, the one table without a default sweep
        # default grid: the four fringe corners at both validated mixers
        corners = itertools.product((0.0, BETA_SPLIT), (0.0, np.pi), (0.0, np.pi))
        beta, phi1, phi1p = np.array(list(corners)).T
        settings = {key: np.repeat(col, len(beta)) for key, col in settings.items()}
        settings.update(phi1=phi1, phi1_prime=phi1p, beta=beta, beta_prime=beta)
    model = NoiseModel(settings["visibility"], settings["dephase"])
    # the classical mixture carries no fringe, so noise leaves it alone
    scales = np.zeros_like(settings["visibility"]) if args.mixed else model.fringe_scale
    engine, keys = ((two_photon_batch, _PAIR_NAMES) if pair
                    else (single_photon_batch, _SINGLE_NAMES))
    dists = engine(*(settings[key] for key in keys), scales).probabilities
    counts = sample_rows(dists, args.shots, args.seed) if args.shots > 0 else None
    print(f"wrote {_emit(args, *columns_of(settings, dists, counts, args.shots))}")
    return EXIT_OK


def _outcome_columns(keys: tuple[str, ...], outcomes):
    """The column builder of a table of whole distributions: the settings ``keys``
    (``_prime`` written ``p``), ``p<outcome>``, and with counts ``c<outcome>`` and
    ``e<outcome>``, for each of the ``outcomes`` in table order."""
    def columns_of(settings, dists, counts, shots):
        header = [key.replace("_prime", "p") for key in keys] + [f"p{o}" for o in outcomes]
        columns = [settings[key] for key in keys] + list(dists.reshape(len(dists), -1).T)
        if counts is not None:
            counts = counts.reshape(len(counts), -1)
            header += [f"{kind}{o}" for kind in "ce" for o in outcomes]
            columns += [*counts.T, *count_errors(counts).T]
        return header, columns
    return columns_of


_single_columns = _outcome_columns(_SINGLE_NAMES, "1234")
_pair_columns = _outcome_columns(("phi1", "phi1_prime", "beta", "beta_prime"),
                                 [f"_{a}{b}p" for a in range(1, 5) for b in range(1, 5)])


def _coherence_columns(settings: dict[str, np.ndarray], probs: np.ndarray,
                       counts: np.ndarray | None, shots: int) -> tuple[list[str], list]:
    columns = [settings["alpha"], settings["phi1"]]
    if counts is None:
        return ["alpha", "phi1", "wc"], columns + [np.abs(probs[:, 0] - probs[:, 1])]
    return ["alpha", "phi1", "wc", "wc_err"], [*columns, *witness_rows(counts, shots, "coherence")]


def _entanglement_columns(settings: dict[str, np.ndarray], tables: np.ndarray,
                          counts: np.ndarray | None, shots: int) -> tuple[list[str], list]:
    if counts is None:
        p22, p21 = tables[:, 1, 1], tables[:, 1, 0]
        return ["phi1", "p_22p", "p_21p", "we"], [settings["phi1"], p22, p21, p22 - p21]
    return ["phi1", "p_22p", "p_21p", "we", "we_err"], [
        settings["phi1"], counts[:, 1, 1] / shots, counts[:, 1, 0] / shots,
        *witness_rows(counts, shots, "entanglement")]


def cmd_ghz(args: argparse.Namespace) -> int:
    v = {key: col[0] for key, col in _columns(args).items()}
    sectors = ghz_sector_probabilities(
        args.photons, v["alpha"], ToolboxPhases(v["phi1"], v["phi2"]), beta=v["beta"]
    )
    crossed = [int(len(set(pattern)) > 1) for pattern in sectors]
    path = _emit(args, ["sector", "probability", "crossed"],
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
    sectors = ghz_sector_probabilities(3, np.pi / 4, ToolboxPhases(np.pi / 2, 0.0), beta=0.0)
    expected = {"www": 0.5, "ppp": 0.5}  # every crossed sector 0
    return max(abs(p - expected.get(key, 0.0)) for key, p in sectors.items())


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


def cmd_verify(args: argparse.Namespace) -> int:
    checks = [
        ("single-photon closed forms vs propagation", _verify_detection, 1e-10),
        ("two-photon closed forms vs propagation", _verify_two_photon, 1e-10),
        ("hardware equivalence", lambda: _verify_hardware(args.points, args.seed), 1e-10),
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


#: each subcommand's function and help, in help order
_COMMANDS = {
    "single-sweep": (functools.partial(_run_table, False, _single_columns),
                     "four detector probabilities (default: phi1 sweep, 25 points)"),
    "witness-coherence": (functools.partial(_run_table, False, _coherence_columns),
                          "|P1 - P2| witness (default: alpha sweep, 13 points)"),
    "two-photon": (functools.partial(_run_table, True, _pair_columns),
                   "4x4 coincidence tables (default: fringe corners at both mixers)"),
    "witness-entanglement": (functools.partial(_run_table, True, _entanglement_columns),
                             "P22' - P21' witness (default: phi1 sweep at phi1' = 0)"),
    "ghz": (cmd_ghz, "n-photon history-sector table (mixers off)"),
    "verify": (cmd_verify, "run the built-in consistency grids and report deviations"),
}


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
    for flag, default, text in _ANGLE_FLAGS.values():
        angles.add_argument(f"--{flag}", type=float, default=default, help=text)
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
    sweep.add_argument("--steps", type=int, default=None,
                       help="sweep length (default 25; must be >= 2)")
    output = common.add_argument_group("output")
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None,
                        help=f"output path (default: command name in ${OUTDIR_ENV} or .)")

    for name, (_, text) in _COMMANDS.items():
        sub.add_parser(name, parents=[] if name == "verify" else [common], help=text)
    sub.choices["ghz"].add_argument("--photons", type=int, default=3,
                                    help="number of photons, 1..8 (default 3)")
    verify = sub.choices["verify"]
    verify.add_argument("--points", type=int, default=100,
                        help="random points for the hardware grid (default 100)")
    verify.add_argument("--seed", type=int, default=12345)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process."""
    return build_parser()


@functools.cache
def _flag_table(command: str) -> tuple[dict[str, argparse.Action], dict[str, object]]:
    """The option strings of ``command`` that store one value or switch one on, and
    the subcommand's defaults, both read from its parser in :func:`_parser`."""
    (commands,) = _parser()._subparsers._group_actions
    sub = commands.choices[command]
    flags = {option: action for option, action in sub._option_string_actions.items()
             if type(action) is argparse._StoreTrueAction
             or type(action) is argparse._StoreAction and action.nargs is None}
    return flags, vars(sub.parse_args([]))


def _read_flags(argv: list[str]) -> argparse.Namespace | None:
    """``argv`` read through :func:`_flag_table`: a subcommand, then exact ``--flag
    value`` pairs and switches, typed and checked against their choices as the full
    parse does.  Anything else gives None: a value that starts with ``-``, an
    abbreviation or ``--flag=value``, ``-h`` or ``--``, a missing, mistyped or
    unlisted value, an unknown flag or a stray positional."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags, defaults = _flag_table(argv[0])
    values = dict(defaults, command=argv[0])
    tokens = iter(argv[1:])
    for token in tokens:
        action = flags.get(token)
        if action is None:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(tokens, "-")  # a missing value reads as an option
        if value.startswith("-"):
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``argv`` as :func:`_parser` parses it: read by :func:`_read_flags` when it can,
    else parsed in full, so help, errors and abbreviations are argparse's own."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read_flags(argv)
    return _parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    with warnings.catch_warnings():
        # every warning of the command, as one line without the file and line that raised it
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            _check_args(args)
            return _COMMANDS[args.command][0](args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SPEC
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
