"""Independent correctness oracle for the benchmark's operations.

Nothing here imports wptoolbox.  Expected values come from dense transfer
matrices multiplied out of the textbook elements (polarizing splitter,
Hadamard splitters, phases, detection mixers); the library's closed forms
are never used.  Each ``check_*`` function returns a list of error strings,
so an empty list means the output matched.
"""
from __future__ import annotations

import copy
import math

import numpy as np

#: written probabilities must match the oracle to this absolute tolerance
TOL = 1e-12
#: sampled counts may sit this many standard deviations (plus a few counts)
#: from their expectation before they are called wrong
Z_MAX = 7.0

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_PBS = np.zeros((4, 2))
_PBS[0, 0] = _PBS[1, 1] = 1.0


def _on_modes(u2: np.ndarray, i: int, j: int) -> np.ndarray:
    m = np.eye(4, dtype=np.complex128)
    m[np.ix_([i, j], [i, j])] = u2
    return m


def _mixer(beta: float) -> np.ndarray:
    # beta = 0 means the mixers are absent (identity), not the beta -> 0 limit
    if beta == 0.0:
        return np.eye(2)
    c, s = math.cos(2 * beta), math.sin(2 * beta)
    return np.array([[c, s], [s, -c]])


def transfer(phi1: float, phi2: float, beta: float) -> np.ndarray:
    """4x2 network matrix: paths 1..4 by input polarizations V, H."""
    phases = np.diag([1.0, 1.0, np.exp(1j * phi1), np.exp(1j * phi2)])
    splitters = _on_modes(_H, 1, 3) @ _on_modes(_H, 0, 2)
    m = _mixer(beta)
    mixers = _on_modes(m, 2, 3) @ _on_modes(m, 0, 1)
    return mixers @ _on_modes(_H, 0, 2) @ phases @ splitters @ _PBS


def _fringe_scale(v: dict) -> float:
    return (1.0 - v.get("dephase", 0.0)) * v.get("visibility", 1.0)


def single_probabilities(v: dict) -> np.ndarray:
    """P1..P4 for one setting, with noise interpolating to the mixture."""
    t = transfer(v["phi1"], v["phi2"], v["beta"])
    c, s = math.cos(v["alpha"]), math.sin(v["alpha"])
    ideal = np.abs(t @ [c, s]) ** 2
    base = c**2 * np.abs(t[:, 0]) ** 2 + s**2 * np.abs(t[:, 1]) ** 2
    return base + _fringe_scale(v) * (ideal - base)


def pair_table(v: dict) -> np.ndarray:
    """4x4 coincidence table (rows photon A) for cos|VV'> + sin|HH'>."""
    t2 = np.kron(
        transfer(v["phi1"], v["phi2"], v["beta"]),
        transfer(v["phi1_prime"], v["phi2_prime"], v["beta_prime"]),
    )
    c, s = math.cos(v["alpha"]), math.sin(v["alpha"])
    ideal = np.abs(t2 @ [c, 0.0, 0.0, s]) ** 2
    base = c**2 * np.abs(t2[:, 0]) ** 2 + s**2 * np.abs(t2[:, 3]) ** 2
    return (base + _fringe_scale(v) * (ideal - base)).reshape(4, 4)


def ghz_sectors(n: int, alpha: float) -> dict[str, float]:
    """History sectors at mixers off: all-wave cos^2, all-particle sin^2."""
    out = {}
    for k in range(2**n):
        key = "".join("wp"[(k >> (n - 1 - i)) & 1] for i in range(n))
        out[key] = 0.0
    out["w" * n] = math.cos(alpha) ** 2
    out["p" * n] = math.sin(alpha) ** 2
    return out


# ---------------------------------------------------------------------------
# helpers shared by the checks
# ---------------------------------------------------------------------------

def _close(name: str, got, want, tol: float = TOL) -> list[str]:
    dev = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
    return [] if dev <= tol else [f"{name}: deviation {dev:.3e} > {tol:g}"]


def _integral(name: str, x: float) -> list[str]:
    return [] if abs(x - round(x)) <= 1e-8 else [f"{name}: {x!r} is not a count"]


def _plausible(name: str, count: float, shots: int, p: float) -> list[str]:
    p = min(max(p, 0.0), 1.0)
    sigma = math.sqrt(shots * p * (1.0 - p))
    if abs(count - shots * p) <= Z_MAX * sigma + 3:
        return []
    return [f"{name}: {count} counts implausible for p={p:.6g} at {shots} shots"]


def _counts(name: str, counts: np.ndarray, shots: int, probs: np.ndarray,
            errs: np.ndarray | None = None) -> list[str]:
    """Counts are whole, sum to ``shots``, fit ``probs``; errors are sqrt(n)."""
    errors = []
    for c in counts:
        errors += _integral(name, c)
    if np.any(counts < 0) or int(round(counts.sum())) != shots:
        errors.append(f"{name}: counts sum to {counts.sum()}, not {shots}")
    if errs is not None:
        expected_err = np.where(counts == 0, 1.0, np.sqrt(counts))
        errors += _close(f"{name} errors", errs, expected_err)
    for c, p in zip(counts, probs):
        errors += _plausible(name, c, shots, p)
    return errors


# ---------------------------------------------------------------------------
# CLI output checks; ``table`` is (header, rows) with rows as dicts
# ---------------------------------------------------------------------------

def expected_header(command: str, shots: int) -> list[str]:
    """Column schema each subcommand documents."""
    pair = [f"p_{a}{b}p" for a in range(1, 5) for b in range(1, 5)]
    if command == "single-sweep":
        cols = ["alpha", "phi1", "phi2", "beta", "p1", "p2", "p3", "p4"]
        if shots:
            cols += [f"c{i}" for i in range(1, 5)] + [f"e{i}" for i in range(1, 5)]
    elif command == "witness-coherence":
        cols = ["alpha", "phi1", "wc"] + (["wc_err"] if shots else [])
    elif command == "two-photon":
        cols = ["phi1", "phi1p", "beta", "betap"] + pair
        if shots:
            cols += [c.replace("p_", "c_") for c in pair]
            cols += [c.replace("p_", "e_") for c in pair]
    elif command == "witness-entanglement":
        cols = ["phi1", "p_22p", "p_21p", "we"] + (["we_err"] if shots else [])
    else:
        cols = ["sector", "probability", "crossed"]
    return cols


_ROW_PARAMS = {
    "single-sweep": {"alpha": "alpha", "phi1": "phi1", "phi2": "phi2", "beta": "beta"},
    "witness-coherence": {"alpha": "alpha", "phi1": "phi1"},
    "two-photon": {"phi1": "phi1", "phi1p": "phi1_prime", "beta": "beta",
                   "betap": "beta_prime"},
    "witness-entanglement": {"phi1": "phi1"},
}


def _check_row(command: str, row: dict, v: dict, shots: int) -> list[str]:
    errors = []
    for col, key in _ROW_PARAMS[command].items():
        errors += _close(col, row[col], v[key])
    if command in ("single-sweep", "witness-coherence"):
        p = single_probabilities(v)
        if command == "single-sweep":
            errors += _close("p1..p4", [row[f"p{i}"] for i in range(1, 5)], p)
            if shots:
                errors += _counts(
                    "c1..c4", np.array([row[f"c{i}"] for i in range(1, 5)], float), shots, p,
                    np.array([row[f"e{i}"] for i in range(1, 5)], float),
                )
        elif not shots:
            errors += _close("wc", row["wc"], abs(p[0] - p[1]))
        else:
            # wc = |n1 - n2| / N and wc_err = sqrt(n1 + n2) / N (zero -> 1)
            diff = row["wc"] * shots
            errors += _integral("wc", diff)
            errors += _integral("wc_err", (row["wc_err"] * shots) ** 2)
            var = shots * ((p[0] + p[1]) - (p[0] - p[1]) ** 2)
            if abs(diff - shots * abs(p[0] - p[1])) > Z_MAX * math.sqrt(max(var, 0)) + 3:
                errors.append(f"wc: {row['wc']} implausible for |P1-P2|={abs(p[0] - p[1])}")
        return errors

    table = pair_table(v)
    if command == "two-photon":
        got = [row[f"p_{a}{b}p"] for a in range(1, 5) for b in range(1, 5)]
        errors += _close("p table", got, table.reshape(-1))
        if shots:
            cells = [f"{a}{b}p" for a in range(1, 5) for b in range(1, 5)]
            errors += _counts(
                "c table", np.array([row[f"c_{k}"] for k in cells], float), shots,
                table.reshape(-1), np.array([row[f"e_{k}"] for k in cells], float),
            )
    elif not shots:
        errors += _close("p_22p", row["p_22p"], table[1, 1])
        errors += _close("p_21p", row["p_21p"], table[1, 0])
        errors += _close("we", row["we"], table[1, 1] - table[1, 0])
    else:
        errors += _close("we", row["we"], row["p_22p"] - row["p_21p"])
        errors += _integral("p_22p", row["p_22p"] * shots)
        errors += _integral("p_21p", row["p_21p"] * shots)
        errors += _integral("we_err", (row["we_err"] * shots) ** 2)
        errors += _plausible("p_22p", row["p_22p"] * shots, shots, table[1, 1])
        errors += _plausible("p_21p", row["p_21p"] * shots, shots, table[1, 0])
    return errors


def check_cli(spec: dict, result: dict) -> list[str]:
    """Check one ``cli.main`` call against its generated spec.

    ``result`` holds ``code`` (exit code), ``stdout`` and, for table
    commands, ``table`` = (header, rows).
    """
    command = spec["command"]
    if result["code"] != 0:
        return [f"{command}: exit code {result['code']}"]
    header, rows = result["table"]
    shots = spec.get("shots", 0)
    if header != expected_header(command, shots):
        return [f"{command}: header {header!r}"]
    if command == "ghz":
        want = ghz_sectors(spec["photons"], spec["rows"][0]["alpha"])
        got = {row["sector"]: row for row in rows}
        if list(got) != list(want):
            return [f"ghz: sectors {list(got)!r}"]
        errors = []
        for key, p in want.items():
            errors += _close(f"ghz {key}", got[key]["probability"], p)
            if got[key]["crossed"] != int(len(set(key)) > 1):
                errors.append(f"ghz {key}: crossed flag {got[key]['crossed']!r}")
        mass = [line for line in result["stdout"].splitlines()
                if line.startswith("crossed-sector mass:")]
        if len(mass) != 1:
            errors.append("ghz: no crossed-sector mass line")
        else:
            errors += _close("crossed mass", float(mass[0].split(":")[1]), 0.0)
        return errors

    if len(rows) != len(spec["rows"]):
        return [f"{command}: {len(rows)} rows written, {len(spec['rows'])} expected"]
    errors = []
    for k, (row, v) in enumerate(zip(rows, spec["rows"])):
        errors += [f"row {k}: {e}" for e in _check_row(command, row, v, shots)]
    return errors


# ---------------------------------------------------------------------------
# library-call checks
# ---------------------------------------------------------------------------

def check_call(spec: dict, value) -> list[str]:
    """Check one interactive library call; ``value`` is its plain result."""
    kind, v = spec["kind"], spec["settings"]
    if kind == "detection_probabilities":
        return _close(kind, value, single_probabilities(v))
    if kind == "coincidence_probabilities":
        return _close(kind, value, pair_table(v))
    if kind == "concurrence":
        return _close(kind, value, abs(math.sin(2 * v["alpha"])), 1e-10)
    if kind == "equivalence_scan":
        ok = 0.0 <= value < 1e-10
        return [] if ok else [f"{kind}: hardware deviation {value!r}"]
    if kind == "ghz_sector_probabilities":
        want = ghz_sectors(spec["photons"], v["alpha"])
        if list(value) != list(want):
            return [f"{kind}: sectors {list(value)!r}"]
        return _close(kind, list(value.values()), list(want.values()))
    if kind == "sample_estimate":
        counts, (est, err) = value
        shots = spec["shots"]
        flat = np.asarray(counts, float).reshape(-1)
        probs = spec["distribution"].reshape(-1)
        errors = _counts(kind, flat, shots, probs)
        c = np.asarray(counts, float)
        if spec["witness"] == "entanglement":
            a, b = c[1, 1], c[1, 0]
            want = (a - b) / shots
        else:
            a, b = c[0], c[1]
            want = abs(a - b) / shots
        errors += _close(f"{kind} value", est, want)
        ea = 1.0 if a == 0 else math.sqrt(a)
        eb = 1.0 if b == 0 else math.sqrt(b)
        errors += _close(f"{kind} error", err, math.hypot(ea, eb) / shots)
        return errors
    return [f"unknown interactive kind {kind!r}"]


# ---------------------------------------------------------------------------
# self-check: a perturbed output must be flagged
# ---------------------------------------------------------------------------

def perturbed(spec: dict, output):
    """A copy of a correct output with one checked value moved by 1e-9."""
    out = copy.deepcopy(output)
    if "command" not in spec:
        if spec["kind"] == "sample_estimate":
            counts, (est, err) = out
            return counts, (est + 1e-9, err)
        if isinstance(out, dict):
            first = next(iter(out))
            out[first] += 1e-9
            return out
        if isinstance(out, np.ndarray):
            out.reshape(-1)[0] += 1e-9
            return out
        return out + 1e-9
    header, rows = out["table"]
    col = next(c for c in header if c not in ("sector", "alpha", "phi1", "phi1p", "phi2",
                                               "beta", "betap"))
    rows[0][col] += 1e-9
    return out


def check(spec: dict, output) -> list[str]:
    return check_cli(spec, output) if "command" in spec else check_call(spec, output)
