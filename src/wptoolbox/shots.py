"""Finite-shot count simulation, Poissonian errors, and noise models.

Sampling uses ``numpy.random.default_rng`` (PCG64) with an explicit 64-bit
seed, so any count table (and any CSV made from it) is reproducible byte for
byte from (table values, shots, seed), whatever the table's memory layout.

The noise model has two knobs.  ``dephase_wp`` interpolates the pure output
toward the classical wave/particle mixture with the same weights (the state
a source slower than the photon coherence time would deliver).  ``visibility``
multiplies the surviving interference terms, modeling plain fringe-contrast
loss.  Both act on distributions as

    noisy = baseline + (1 - dephase_wp) * visibility * (ideal - baseline)

where the baseline is the mixture statistics; the mean parts of every
detector signal are untouched.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .entangle import CoincidenceTable, TwoPhotonSettings, _pair_table
from .qcore import ByValue, _trusted, check_distribution
from .toolbox import BETA_SPLIT, SingleProbabilities, ToolboxPhases, _single_row

Distribution = Union[SingleProbabilities, CoincidenceTable, np.ndarray]
#: the fields of :class:`NoiseModel`, in the order its errors name them
_KNOBS = ("visibility", "dephase_wp")
#: the most shots one draw takes: numpy's multinomial counts in int64
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True, eq=False)
class NoiseModel(ByValue):
    """Fringe-contrast and dephasing imperfections, both in [0, 1]: numbers, kept as
    floats, or arrays of one value per row, kept as read-only copies (a number beside
    an array is broadcast to it).  An error names the first bad value.  Models compare
    and hash by their values."""

    visibility: float = 1.0
    dephase_wp: float = 0.0

    def __post_init__(self) -> None:
        knobs = (self.visibility, self.dephase_wp)
        try:  # one copy of both knobs, checked in one pass
            both = np.array(knobs, dtype=float)
        except ValueError:  # knobs of two shapes, such as a number and an array
            both = np.array(np.broadcast_arrays(*knobs), dtype=float)
        inside = (0.0 <= both) & (both <= 1.0)  # NaN is outside
        if np.count_nonzero(inside) < both.size:
            i = int(np.argmin(inside))  # the first bad value, visibility's first
            name = _KNOBS[2 * i // both.size]
            raise ValueError(f"{name} must lie in [0, 1], got {both.flat[i]}")
        if both.ndim == 1:  # two numbers, kept as floats
            values = both.tolist()
        else:
            both.flags.writeable = False
            values = list(both)
        for name, value in zip(_KNOBS, values):
            object.__setattr__(self, name, value)

    @property
    def fringe_scale(self) -> float:
        return (1.0 - self.dephase_wp) * self.visibility


@dataclass(frozen=True, eq=False)
class CountTable(ByValue):
    """Multinomial detector counts; shape (4,), or (4, 4) or flat (16,) for
    coincidences, whole numbers summing to ``total_shots``, an integer of at least 1,
    drawn at ``seed``, an integer of at least 0.  Tables compare and hash by their
    counts' shape and values, shots and seed."""

    counts: np.ndarray
    total_shots: int
    seed: int

    def __post_init__(self) -> None:
        given = np.asarray(self.counts)
        with np.errstate(invalid="ignore"):  # a non-finite count is no whole number below
            c = given.astype(np.int64)
        _check_outcomes(c)
        if (c != given).any():
            raise ValueError(f"counts must be whole numbers, got {given[c != given][0]}")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        _check_shots("a count table", "total_shots", self.total_shots)
        _check_seed(self.seed)
        if c.sum() != self.total_shots:
            raise ValueError(
                f"counts sum to {c.sum()}, declared total is {self.total_shots}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    def frequencies(self) -> np.ndarray:
        return self.counts / self.total_shots


def _check_shots(what: str, name: str, value) -> None:
    """Raise unless the shot count ``value`` is a Python or numpy integer of at least
    1, naming it: a float would be truncated or divided by as given."""
    try:
        fewer = operator.index(value) < 1
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None
    if fewer:
        raise ValueError(f"{what} needs at least one shot, got {name}={value}")


def _check_seed(seed) -> None:
    """Raise unless ``seed`` is a Python or numpy integer of at least 0, naming it."""
    try:
        negative = operator.index(seed) < 0
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if negative:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _check_outcomes(counts: np.ndarray) -> None:
    if counts.shape not in ((4,), (4, 4), (16,)):
        raise ValueError(f"expected 4 or 16 outcomes, got {counts.size} in shape"
                         f" {counts.shape}; the shapes are (4,), (4, 4) and (16,)")


class WitnessEstimate(NamedTuple):
    value: float
    error: float


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_rows(dists, n_shots: int, seed: int) -> np.ndarray:
    """Multinomial draws of ``n_shots`` events for every row of ``dists``.

    ``dists`` holds one distribution per leading index, shape ``(rows, 4)``
    or ``(rows, 4, 4)`` with at least one row, and ``n_shots`` is an integer
    in [1, :data:`MAX_SHOTS`] and ``seed`` an integer of at least 0, else
    ``ValueError``; the counts come back in that shape as int64.  Every row
    is checked before any draw
    (:func:`~wptoolbox.qcore.check_distribution`), an error names the first
    bad row, and round-off negatives are drawn as zero.  A table
    draws all rows, in row order, from one ``default_rng(seed)`` stream, so
    equal (table values, shots, seed) give equal counts in any memory
    layout; row 0 equals :func:`sample_counts` of that row at that seed.
    """
    _check_shots("sampling", "n_shots", n_shots)
    if n_shots > MAX_SHOTS:
        raise ValueError(f"at most {MAX_SHOTS} shots can be drawn, got {n_shots}")
    _check_seed(seed)
    p = np.asarray(dists, dtype=float)
    flat = np.ascontiguousarray(_rows(p))  # a row's sum rounds by layout
    check_distribution(flat, "probabilities", axis=1)
    pvals = np.maximum(flat, 0.0)  # a round-off negative is drawn as zero
    pvals /= pvals.sum(axis=1, keepdims=True)
    # one row as a vector: the same draw, without the 2-D call's overhead
    counts = np.random.default_rng(seed).multinomial(
        int(n_shots), pvals[0] if len(pvals) == 1 else pvals)
    return counts.reshape(p.shape)


def sample_counts(dist: Distribution, n_shots: int, seed: int) -> CountTable:
    """Multinomial draw of ``n_shots`` detection events from a distribution of shape
    (4,), (4, 4) or (16,), which the counts keep: one row of :func:`sample_rows`,
    deterministic for a fixed (distribution, shots, seed) triple."""
    if isinstance(dist, SingleProbabilities):
        dist = dist.as_array()
    elif isinstance(dist, CoincidenceTable):
        dist = dist.matrix
    dist = np.asarray(dist, dtype=float)
    _check_outcomes(dist)
    row = dist.reshape((1, 4) if dist.size == 4 else (1, 4, 4))
    counts = sample_rows(row, n_shots, seed).reshape(dist.shape)
    # sample_rows drew them: int64, non-negative, summing to n_shots, held by nothing else
    return _trusted(CountTable, counts=counts, total_shots=int(n_shots), seed=int(seed))


def count_errors(counts: np.ndarray) -> np.ndarray:
    """Per-outcome counting error sqrt(n), with n = 0 mapped to 1."""
    return np.sqrt(np.maximum(counts, 1))


def poisson_error(table: CountTable) -> np.ndarray:
    """:func:`count_errors` of the table's counts."""
    return count_errors(table.counts)


def estimate_probabilities(table: CountTable) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies with their propagated Poissonian errors."""
    return table.frequencies(), poisson_error(table) / table.total_shots


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def noisy_single_probabilities(
    alpha: float,
    phases: ToolboxPhases = ToolboxPhases(),
    beta: float = BETA_SPLIT,
    model: NoiseModel = NoiseModel(),
) -> SingleProbabilities:
    """Noisy detector signal via explicit interpolation to the mixture.

    One setting of :func:`~wptoolbox.toolbox.single_photon_batch` at the
    model's fringe scale; a model of array knobs is a batch.
    """
    return _single_row("noisy_single_probabilities", alpha, phases, beta, model.fringe_scale)


def noisy_coincidence_probabilities(
    settings: TwoPhotonSettings, model: NoiseModel
) -> CoincidenceTable:
    """Coincidence table with fringe terms reduced by the noise model.

    One setting of :func:`~wptoolbox.entangle.two_photon_batch` at the
    model's fringe scale; a model of array knobs is a batch.
    """
    return _pair_table("noisy_coincidence_probabilities", settings, model.fringe_scale)


# ---------------------------------------------------------------------------
# witness estimation
# ---------------------------------------------------------------------------

#: each witness's table, outcome count and flat indices of its two entering counts
_WITNESS_CELLS = {"coherence": ("4-outcome counts", 4, 0, 1),
                  "entanglement": ("4x4 coincidence counts", 16, 5, 4)}


def witness_rows(counts, n_shots: int, witness: str) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in witness and its Poisson error for every row of ``counts``.

    ``counts`` holds one count table of ``n_shots`` events per leading index:
    ``(rows, 4)`` for ``witness='coherence'``, which reads |n1 - n2| / N, or
    ``(rows, 4, 4)`` for ``witness='entanglement'``, which reads
    (n_22' - n_21') / N.  The error is sqrt(n_a + n_b) / N: the two entering
    counts are treated as independent Poisson variables (zero counts
    contribute their unit-error convention of :func:`count_errors`).  Any
    other shape, no row, or ``n_shots`` not an integer >= 1 raises ``ValueError``.
    """
    return _witness(_rows(np.asarray(counts)).T, n_shots, witness)


def _rows(table: np.ndarray) -> np.ndarray:
    """``table`` as ``(rows, outcomes)``; raises unless its shape is ``(rows, 4)`` or
    ``(rows, 4, 4)`` with at least one row."""
    if table.shape[1:] not in ((4,), (4, 4)) or not len(table):
        raise ValueError("expected a table of shape (rows, 4) or (rows, 4, 4) with at"
                         f" least one row, got shape {table.shape}")
    return table.reshape(len(table), -1)


def _witness(cells, n_shots: int, witness: str) -> tuple:
    """The one witness formula: ``cells[k]`` holds count k, of every row as a
    column or of one table as a number, and so does each result."""
    _check_shots("witness estimation", "n_shots", n_shots)
    if witness not in _WITNESS_CELLS:
        raise ValueError(f"unknown witness {witness!r}")
    table, size, a, b = _WITNESS_CELLS[witness]
    if len(cells) != size:
        raise ValueError(f"{witness} witness needs {table}")
    # an integer difference: equal to the float one, as counts stay below 2**53
    diff = cells[a] - cells[b]
    errors = count_errors(cells)
    value = (abs(diff) if witness == "coherence" else diff) / n_shots
    return value, np.hypot(errors[a], errors[b]) / n_shots


def estimate_witness(table: CountTable, witness: str) -> WitnessEstimate:
    """Plug-in witness estimate with quadrature-propagated Poisson error: the
    formula of :func:`witness_rows` on one table, whose counts are numbers.

    The coherence estimate is biased upward near zero: ``|n1 - n2|`` folds
    the counting noise of ``n1 - n2`` onto one side, so where ``P1 = P2``
    (the classical mixture) it reads about ``sqrt(2/pi) * sqrt(n1 + n2) / N``
    instead of 0, which is ``sqrt(2/pi)`` times the reported error.
    """
    value, error = _witness(table.counts.reshape(-1), table.total_shots, witness)
    return WitnessEstimate(float(value), float(error))
