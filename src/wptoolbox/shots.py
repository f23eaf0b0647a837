"""Finite-shot count simulation, Poissonian errors, and noise models.

Sampling uses ``numpy.random.default_rng`` (PCG64) with an explicit 64-bit
seed, so any count table — and therefore any CSV produced downstream — is
reproducible byte-for-byte from (distribution, shots, seed).

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

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .entangle import CoincidenceTable, TwoPhotonSettings, _pair_batch
from .toolbox import (
    BETA_SPLIT,
    SingleProbabilities,
    ToolboxPhases,
    single_photon_batch,
)

Distribution = Union[SingleProbabilities, CoincidenceTable, np.ndarray]


@dataclass(frozen=True)
class NoiseModel:
    """Fringe-contrast and dephasing imperfections, both in [0, 1]."""

    visibility: float = 1.0
    dephase_wp: float = 0.0

    def __post_init__(self) -> None:
        for field_name in ("visibility", "dephase_wp"):
            v = float(getattr(self, field_name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{field_name} must lie in [0, 1], got {v}")
            object.__setattr__(self, field_name, v)

    @property
    def fringe_scale(self) -> float:
        return (1.0 - self.dephase_wp) * self.visibility


@dataclass(frozen=True)
class CountTable:
    """Multinomial detector counts; shape (4,) or (4, 4) for coincidences."""

    counts: np.ndarray
    total_shots: int
    seed: int

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64).copy()
        if c.size not in (4, 16):
            raise ValueError(f"expected 4 or 16 outcomes, got {c.size}")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        if c.sum() != self.total_shots:
            raise ValueError(
                f"counts sum to {c.sum()}, declared total is {self.total_shots}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    def frequencies(self) -> np.ndarray:
        return self.counts / self.total_shots


class WitnessEstimate(NamedTuple):
    value: float
    error: float


def _as_probability_array(dist: Distribution) -> np.ndarray:
    if isinstance(dist, SingleProbabilities):
        p = dist.as_array()
    elif isinstance(dist, CoincidenceTable):
        p = dist.matrix
    else:
        p = np.asarray(dist, dtype=float)
    if not np.min(p) >= -1e-12:  # NaN fails too
        raise ValueError("distribution has a negative or NaN probability")
    if not abs(p.sum() - 1.0) <= 1e-9:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")
    return p


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_counts(dist: Distribution, n_shots: int, seed: int) -> CountTable:
    """Multinomial draw of ``n_shots`` detection events.

    Deterministic for a fixed (distribution, shots, seed) triple.
    """
    if n_shots < 1:
        raise ValueError("need at least one shot")
    p = _as_probability_array(dist)
    flat = np.clip(p.reshape(-1), 0.0, None)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(int(n_shots), flat / flat.sum()).reshape(p.shape)
    return CountTable(counts, int(n_shots), int(seed))


def poisson_error(table: CountTable) -> np.ndarray:
    """Per-outcome counting error sqrt(n), with n = 0 mapped to 1."""
    err = np.sqrt(table.counts.astype(float))
    return np.where(table.counts == 0, 1.0, err)


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
    model's fringe scale.
    """
    return single_photon_batch(
        alpha, phases.phi1, phases.phi2, beta, model.fringe_scale
    ).single()


def noisy_coincidence_probabilities(
    settings: TwoPhotonSettings, model: NoiseModel
) -> CoincidenceTable:
    """Coincidence table with fringe terms reduced by the noise model.

    One setting of :func:`~wptoolbox.entangle.two_photon_batch` at the
    model's fringe scale.
    """
    return CoincidenceTable(_pair_batch(settings, model.fringe_scale).probabilities)


# ---------------------------------------------------------------------------
# witness estimation
# ---------------------------------------------------------------------------

def estimate_witness(table: CountTable, witness: str) -> WitnessEstimate:
    """Plug-in witness estimate with quadrature-propagated Poisson error.

    ``witness='coherence'`` reads |n1 - n2| / N from 4-outcome counts;
    ``witness='entanglement'`` reads (n_22' - n_21') / N from coincidence
    counts.  The error is sqrt(n_a + n_b) / N: the two entering counts are
    treated as independent Poisson variables (zero counts contribute their
    unit-error convention).

    The coherence estimate is biased upward near zero: ``|n1 - n2|`` folds
    the counting noise of ``n1 - n2`` onto one side, so where ``P1 = P2``
    (the classical mixture) it reads about ``sqrt(2/pi) * sqrt(n1 + n2) / N``
    instead of 0, which is ``sqrt(2/pi)`` times the reported error.
    """
    if table.total_shots < 1:
        raise ValueError("witness estimation needs at least one shot")
    n = table.total_shots
    errs = poisson_error(table)
    if witness == "coherence":
        if table.counts.size != 4:
            raise ValueError("coherence witness needs 4-outcome counts")
        c = table.counts.reshape(-1)
        e = errs.reshape(-1)
        value = abs(float(c[0]) - float(c[1])) / n
        error = float(np.hypot(e[0], e[1])) / n
    elif witness == "entanglement":
        if table.counts.size != 16:
            raise ValueError("entanglement witness needs 4x4 coincidence counts")
        c = table.counts.reshape(4, 4)
        e = errs.reshape(4, 4)
        value = (float(c[1, 1]) - float(c[1, 0])) / n
        error = float(np.hypot(e[1, 1], e[1, 0])) / n
    else:
        raise ValueError(f"unknown witness {witness!r}")
    return WitnessEstimate(value, error)
