"""Two-photon and n-photon statistics for paired interferometer networks.

Photon A and photon B (primed labels) each traverse their own copy of the
four-path network.  Feeding the polarization-entangled pair
``cos(alpha)|VV'> + sin(alpha)|HH'>`` produces the path-entangled output
``cos(alpha)|w>|w'> + sin(alpha)|p>|p'>``: the wave/particle character of
the two photons is perfectly correlated, and the degree of entanglement is
steered by the same angle ``alpha`` that steers single-photon coherence.

As in :mod:`wptoolbox.toolbox`, every state is checked on every call by the
engine :func:`wptoolbox.toolbox._history_batch`: each photon's closed-form
histories against its network transfer matrix, and the assembled state
against them on a product probe.  The n-photon sector table contracts one
photon's two routes instead (:func:`ghz_sector_probabilities`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .qcore import (
    ATOL,
    EIGEN_ATOL,
    ByValue,
    DensityMatrix,
    PureState,
    _trusted,
    broadcast_values,
    check_distribution,
)
from .toolbox import (
    BETA_SPLIT,
    ToolboxPhases,
    _PHOTON,
    _agreeing,
    _alpha_source,
    _check_alpha,
    _check_entries,
    _check_settings,
    _Histories,
    _history_batch,
    _history_weights,
    _in_sector,
    _n_photon_basis,
    _one_setting,
    _photon_routes,
    _product,
    _single_settings,
)

MAX_PHOTONS = 8
#: the 2**n history patterns of n photons, 'w' or 'p' per photon, photon 0 first
_SECTOR_KEYS = {n: tuple(map("".join, itertools.product("wp", repeat=n)))
                for n in range(1, MAX_PHOTONS + 1)}


#: detectors (1, 2) and (3, 4) of each photon share one block of a 2x2 array
_DETECTOR_BLOCKS = np.ix_((0, 0, 1, 1), (0, 0, 1, 1))
_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_PAULI_Y, _PAULI_Y)

#: the settings of a pair, in the argument order of :func:`two_photon_batch`
_PAIR_NAMES = ("alpha", "phi1", "phi2", "phi1_prime", "phi2_prime", "beta", "beta_prime")
#: each photon's phi1, phi2 and beta among them
_PAIR_PHOTONS = (("phi1", "phi2", "beta"), ("phi1_prime", "phi2_prime", "beta_prime"))


@dataclass(frozen=True)
class TwoPhotonSettings:
    """Source angle plus the per-photon network settings."""

    alpha: float = np.pi / 4
    phases_a: ToolboxPhases = field(default_factory=ToolboxPhases)
    phases_b: ToolboxPhases = field(default_factory=ToolboxPhases)
    beta_a: float = BETA_SPLIT
    beta_b: float = BETA_SPLIT


@dataclass(frozen=True, eq=False)
class CoincidenceTable(ByValue):
    """4x4 joint detector probabilities; rows = photon A, columns = photon B.
    Tables compare and hash by their matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float).copy()
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 table, got {m.shape}")
        check_distribution(m, "coincidence probabilities", axis=(-2, -1))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def prob(self, det_a: int, det_b: int) -> float:
        """Joint probability for detectors ``det_a`` and ``det_b``, integers from 1 to 4."""
        if not (_one_to(det_a, 4) and _one_to(det_b, 4)):
            raise ValueError("detector indices must be integers from 1 to 4")
        return float(self.matrix[det_a - 1, det_b - 1])

    def marginal_a(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def _pair_values(s: TwoPhotonSettings, *scale) -> list:
    """The settings ``s``, then any fringe ``scale``, as broadcast values in the
    argument order of :func:`two_photon_batch`."""
    return broadcast_values(s.alpha, s.phases_a.phi1, s.phases_a.phi2, s.phases_b.phi1,
                            s.phases_b.phi2, s.beta_a, s.beta_b, *scale)


def _pair_settings(s: TwoPhotonSettings) -> dict:
    """The settings ``s`` by name, as broadcast values."""
    return dict(zip(_PAIR_NAMES, _pair_values(s)))


def _entangled(settings: dict) -> _Histories:
    """The pair ``cos(alpha)|VV'> + sin(alpha)|HH'>`` through the engine."""
    return _alpha_source(settings, _PAIR_PHOTONS, "pair state")


class PairBatch(NamedTuple):
    """Cross-checked two-photon statistics, one row per setting.

    ``amplitudes`` are the closed-form pair states over (path of A, path of
    B), shape ``(..., 16)``; ``probabilities`` the coincidence tables, shape
    ``(..., 4, 4)``, with photon A's detectors along the rows.
    """

    amplitudes: np.ndarray
    probabilities: np.ndarray


def two_photon_batch(
    alpha,
    phi1,
    phi2,
    phi1_prime,
    phi2_prime,
    beta=BETA_SPLIT,
    beta_prime=BETA_SPLIT,
    fringe_scale=1.0,
) -> PairBatch:
    """Evaluate and cross-check a batch of two-photon settings in one call.

    The arguments are numbers or arrays that broadcast to one batch shape;
    unprimed settings belong to photon A, primed ones to photon B.  Every
    row is checked by :func:`~wptoolbox.toolbox._history_batch` at
    ``CROSSCHECK_ATOL``, at any mixer angles: each photon's closed-form wave
    and particle states against its batched network matrix, the closed form
    ``cos(alpha)|w w'> + sin(alpha)|p p'>`` against them on a product probe,
    and the Born table, which is the result, against
    :func:`coincidence_closed_forms`.  A mismatch raises ``RuntimeError``
    naming the first failing row and its settings; every table must then be
    a probability distribution (:func:`~wptoolbox.qcore.check_distribution`).
    An empty batch raises ``ValueError``.

    ``fringe_scale`` (``(1 - dephase) * visibility`` of a noise model, 0 for
    the classical mixture) moves every row whose scale is not 1 toward the
    mixture baseline: ``baseline + scale * (ideal - baseline)``; such a scale
    must lie in [0, 1], or ``ValueError`` names its first row.  The baseline
    of those rows is checked against the mean part of the closed forms.
    """
    alpha, phi1, phi2, phi1p, phi2p, beta, betap, scale = broadcast_values(
        alpha, phi1, phi2, phi1_prime, phi2_prime, beta, beta_prime, fringe_scale
    )
    settings = dict(zip(_PAIR_NAMES, (alpha, phi1, phi2, phi1p, phi2p, beta, betap)))
    histories = _entangled(settings)

    amps = histories.amplitudes
    # the closed form shares the engine's cos, sin of alpha
    forms = _coincidence_forms(alpha, histories.coeffs, phi1, phi2, phi1p, phi2p, beta, betap)
    probs = histories.born(forms, "coincidence table", scale)
    probs = check_distribution(probs.reshape(forms[0].shape), "coincidence probabilities",
                               axis=(-2, -1))
    return PairBatch(amps, probs)


def _pair_table(what: str, s: TwoPhotonSettings, scale) -> CoincidenceTable:
    """One setting of :func:`two_photon_batch` at fringe ``scale``, as a table; a
    batch, in ``s`` or in ``scale``, is refused first."""
    values = _pair_values(s, scale)
    _one_setting(what, values)
    # one table that two_photon_batch has just made and checked (check_distribution)
    return _trusted(CoincidenceTable, matrix=two_photon_batch(*values).probabilities)


def two_photon_output(s: TwoPhotonSettings) -> PureState:
    """Joint path state ``cos(alpha)|w w'> + sin(alpha)|p p'>``.

    The state of :func:`two_photon_batch`'s source: each photon's histories
    are checked against its network transfer matrix, and the state against
    them on a product probe, on every call.  No coincidence table is
    evaluated.  Batched
    settings give a batched state.
    """
    return _entangled(_pair_settings(s)).state()


def mixture_two_photon_output(s: TwoPhotonSettings) -> DensityMatrix:
    """Classical mixture ``cos^2 |ww'><ww'| + sin^2 |pp'><pp'|``, from the
    cross-checked pair source's terms."""
    return _entangled(_pair_settings(s)).mixture()


# ---------------------------------------------------------------------------
# coincidence statistics
# ---------------------------------------------------------------------------

def coincidence_closed_forms(
    alpha,
    phases_a: ToolboxPhases,
    phases_b: ToolboxPhases,
    beta_a=BETA_SPLIT,
    beta_b=BETA_SPLIT,
) -> np.ndarray:
    """The sixteen coincidence expressions as a 4x4 array, at any mixer angles.

    With each photon's detector weights ``|w|^2, |p|^2`` (primed for photon
    B), the table is

        cos^2(a) |w|^2 (x) |w'|^2 + sin^2(a) |p|^2 (x) |p'|^2 + g (m (x) m') trig

    where ``g = sin(2a) sin(4 beta_a) sin(4 beta_b) / 8``, ``m = (ch, -ch, sh,
    -sh)`` holds ``cos, sin`` of ``phi1/2``, and ``trig`` has the 2x2 blocks
    ``[[cos s, -sin(phi2' - s)], [-sin(phi2 - s), -cos(phi2 + phi2' - s)]]``
    in the nonlocal phase ``s = (phi1 + phi1')/2``.  The mean part factorizes
    over the photons; the fringe survives in neither photon's own counts.
    Settings may be arrays of one broadcast shape ``S``; the result then has
    shape ``S + (4, 4)``.  An empty batch or a non-finite setting raises
    ``ValueError``, naming the first one and its row.
    """
    values = broadcast_values(
        alpha, phases_a.phi1, phases_a.phi2, phases_b.phi1, phases_b.phi2, beta_a, beta_b
    )
    _check_settings("coincidence_closed_forms", _PAIR_NAMES, values)
    a, phi1, phi2, phi1p, phi2p, beta, betap = values
    return np.add(*_coincidence_forms(a, (np.cos(a), np.sin(a)), phi1, phi2, phi1p, phi2p,
                                      beta, betap))


def _coincidence_forms(a, coeffs, phi1, phi2, phi1p, phi2p, beta, betap) -> tuple:
    """:func:`coincidence_closed_forms` at float64 settings of one shape, given
    ``coeffs = (cos a, sin a)``, which the pair engine's source already holds, as
    the mean part, the mixture's, and the fringe ``g (m (x) m') trig``, whose sum is
    the table.

    Each photon's ``cos, sin(phi1/2)`` are evaluated here: the engine holds them
    stacked over the photons, and splitting them costs what it would save."""
    ch, sh = np.cos(phi1 / 2), np.sin(phi1 / 2)
    chp, shp = np.cos(phi1p / 2), np.sin(phi1p / 2)
    waves, particles = _history_weights(ch, sh, np.cos(4 * beta))
    waves_p, particles_p = _history_weights(chp, shp, np.cos(4 * betap))
    ca, sa = coeffs
    g = np.sin(2 * a) * np.sin(4 * beta) * np.sin(4 * betap) / 8
    sigma = (phi1 + phi1p) / 2
    blocks = np.array([
        [np.cos(sigma), -np.sin(phi2p - sigma)],
        [-np.sin(phi2 - sigma), -np.cos(phi2 + phi2p - sigma)],
    ])
    trig = blocks[_DETECTOR_BLOCKS]
    m = g * np.array([ch, -ch, sh, -sh])
    mp = np.array([chp, -chp, shp, -shp])
    # detector axes lead until the end: every product runs on whole rows
    mean = (ca * ca * waves)[:, None] * waves_p + (sa * sa * particles)[:, None] * particles_p
    axes = (*range(2, mean.ndim), 0, 1)
    return mean.transpose(axes), (m[:, None] * mp * trig).transpose(axes)


def coincidence_probabilities(s: TwoPhotonSettings) -> CoincidenceTable:
    """Joint detector table from the engine's checked pair state.

    One setting of :func:`two_photon_batch`: the table is verified against
    :func:`coincidence_closed_forms` at any mixer angles.
    """
    return _pair_table("coincidence_probabilities", s, 1.0)


def mixture_coincidence_probabilities(s: TwoPhotonSettings) -> CoincidenceTable:
    """Joint table for the classical wave/particle mixture.

    One setting of :func:`two_photon_batch` at fringe scale 0.
    """
    return _pair_table("mixture_coincidence_probabilities", s, 0.0)


def entanglement_witness(table: CoincidenceTable) -> float:
    """Fringe witness ``P(2,2') - P(2,1')``.

    For the entangled pair with balanced mixers this equals
    ``sin(2 alpha) cos(phi1/2) cos(phi1'/2) cos((phi1 + phi1')/2) / 4``,
    which survives even though each photon's own counts show no fringe;
    for the classical mixture it vanishes identically.
    """
    return table.prob(2, 2) - table.prob(2, 1)


# ---------------------------------------------------------------------------
# concurrence
# ---------------------------------------------------------------------------

def sector_projection(
    state: PureState | DensityMatrix, s: TwoPhotonSettings
) -> np.ndarray:
    """Express a pair state as a 4x4 two-qubit density matrix.

    The qubit basis per photon is {wave, particle} at that photon's own
    settings.  Raises if the state has weight outside this sector, since a
    two-qubit description would then be lossy.  ``state`` must be one state
    over the pair's path basis (``two_photon_output(s).basis``), and ``s``
    one setting; anything else raises ``ValueError`` before any evaluation.
    """
    batch = state.amplitudes.shape[:-1] if isinstance(state, PureState) else state.matrix.shape[:-2]
    if batch:
        raise ValueError(f"sector_projection needs one state, got a batch of shape {batch}")
    if state.basis != _n_photon_basis(2):
        raise ValueError(f"sector_projection needs a state over the pair's path basis, got"
                         f" {state.basis!r}")
    settings = _pair_settings(s)
    _one_setting("sector_projection", settings.values())
    return _in_sector(state, _entangled(settings).sector())


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix (spin-flip form).

    Uses the Hermitian formulation sqrt(rho) * flipped * sqrt(rho), whose
    eigenvalues are obtained with full symmetric-solver accuracy; the
    non-Hermitian product rho * flipped loses several digits on rank-one
    states.  ``rho`` must be a density matrix, within the tolerances of
    :class:`~wptoolbox.qcore.DensityMatrix`: finite, Hermitian within
    ``ATOL``, of trace 1 within 1e-9, and with no eigenvalue below
    ``-EIGEN_ATOL``; else ``ValueError`` names the failed condition.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise ValueError("two-qubit density matrix must be 4x4")
    if not np.isfinite(rho).all():
        raise ValueError("two-qubit density matrix must be finite")
    if np.abs(rho - rho.conj().T).max() > ATOL:
        raise ValueError(f"two-qubit density matrix must be Hermitian within {ATOL:g}")
    trace = rho.trace().real
    if abs(trace - 1.0) > 1e-9:
        raise ValueError(f"two-qubit density matrix must have trace 1, got {float(trace)}")
    return _spin_flip_concurrence(rho)


def _spin_flip_concurrence(rho: np.ndarray) -> float:
    """:func:`wootters_concurrence` of a 4x4 complex ``rho`` that is finite, Hermitian to
    rounding and of trace 1, as the engine's sector matrices are: made from checked
    histories, with the trace checked by :func:`~wptoolbox.toolbox._in_sector`.  An
    eigenvalue below ``-EIGEN_ATOL`` still raises ``ValueError``."""
    flipped = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    d, v = np.linalg.eigh(rho)
    if d[0] < -EIGEN_ATOL:
        raise ValueError(f"two-qubit density matrix has an eigenvalue {d[0]:.3e} below"
                         f" -{EIGEN_ATOL:g}")
    root = (v * np.sqrt(np.clip(d, 0.0, None))) @ v.conj().T
    eigs = np.linalg.eigvalsh(root @ flipped @ root)
    # the square root would blow machine noise around zero up to ~1e-8
    eigs[eigs < 1e-13] = 0.0
    lam = np.sqrt(eigs)
    return float(max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4]))


def concurrence(s: TwoPhotonSettings, mixed: bool = False) -> float:
    """Concurrence of the pair output (``|sin 2 alpha|``) or its mixture (0).

    The spin-flip value is verified at 1e-10: for the pure output against the
    direct pure-state formula ``2 |c_ww c_pp - c_wp c_pw|``, for the mixture
    against its closed form 0; a mismatch raises ``RuntimeError``.  The engine's
    own sector matrix skips the input checks that :func:`wootters_concurrence`
    makes of a foreign matrix, all but the eigenvalue refusal.
    """
    settings = _pair_settings(s)
    _one_setting("concurrence", settings.values())
    histories = _entangled(settings)
    basis = histories.sector()
    if mixed:
        value = _spin_flip_concurrence(_in_sector(histories.mixture(), basis))
        return _agreeing("spin-flip concurrence", value, 0.0, "mixture's closed form")
    state = histories.state()
    value = _spin_flip_concurrence(_in_sector(state, basis))
    coeffs = basis.conj().T @ state.amplitudes
    direct = 2 * abs(coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2])
    return _agreeing("spin-flip concurrence", value, direct, "pure-state formula")


# ---------------------------------------------------------------------------
# variant pair and n-photon extension
# ---------------------------------------------------------------------------

def vh_variant_output(s: TwoPhotonSettings) -> PureState:
    """Output for the anti-correlated source ``(|VH'> + |HV'>)/sqrt(2)``.

    The photons end up in opposite histories: ``(|w p'> + |p w'>)/sqrt(2)``,
    a maximally entangled sector state regardless of the phases.  ``alpha``
    in ``s`` is ignored.
    """
    settings = _pair_settings(s)
    del settings["alpha"]
    c = np.sqrt(0.5)
    return _history_batch((c, c), ((0, 1), (1, 0)), _PAIR_PHOTONS, "variant pair state",
                          settings).state()


def ghz_output(
    n: int,
    alpha: float,
    phases: ToolboxPhases = ToolboxPhases(),
    beta: float = BETA_SPLIT,
) -> PureState:
    """n-photon output ``cos(alpha)|w>^n + sin(alpha)|p>^n`` (n <= 8).

    All photons share one set of phases and one mixer angle.  Each photon's
    row of the engine's photon array holds that setting's wave and particle
    histories, verified against the network transfer matrix, and the
    assembled state is verified against them on a product probe: no
    ``4**n`` propagation runs.
    """
    _check_photon_number(n)
    settings = _single_settings(alpha, phases, beta)
    return _alpha_source(settings, (_PHOTON,) * n, "n-photon state").state()


def _one_to(k, high: int) -> bool:
    """True for an integer ``k`` (not a bool) from 1 to ``high``."""
    return isinstance(k, Integral) and not isinstance(k, bool) and 1 <= k <= high


def _check_photon_number(n) -> None:
    if not _one_to(n, MAX_PHOTONS):
        raise ValueError(f"photon number must be an integer in [1, {MAX_PHOTONS}]")


def ghz_sector_probabilities(
    n: int,
    alpha: float,
    phases: ToolboxPhases = ToolboxPhases(),
    beta: float = 0.0,
) -> dict[str, float]:
    """History-pattern probabilities ('w'/'p' per photon) with mixers off.

    Only ``beta = 0`` keeps the wave history on detector pair {1, 3} and the
    particle history on {2, 4}, so only there does a detector pattern map to
    a history pattern.  Returns all 2^n patterns; for the shared-angle
    source every mixed pattern has probability zero.  The result is one
    dict, so batched settings raise ``ValueError``, before anything is
    evaluated.

    No n-photon state is built: with one photon's histories ``h_t`` and their
    Gram matrices ``G_x[t, t'] = sum_{d in x} conj(h_t(d)) h_t'(d)`` over the
    detectors of letter x, ``P(s) = sum_{t,t'} c_t c_t' prod_k G_{s_k}[t, t']``,
    contracted from the closed-form and from the propagated histories alike, which
    :func:`~wptoolbox.toolbox._photon_routes` compared; the two tables must agree.
    The product over the photons is :func:`~wptoolbox.toolbox._product` of the one
    Gram pair, repeated over n photon rows, letters in place of paths.
    """
    settings = _single_settings(alpha, phases, beta)
    if not settings["beta"].shape and settings["beta"] != 0.0:  # a batch is refused below
        raise ValueError("history patterns are only detector-resolvable with mixers off (beta=0)")
    _check_photon_number(n)
    _one_setting("ghz_sector_probabilities", settings.values())
    a = _check_alpha(settings["alpha"])
    routes = np.array(_photon_routes(*map(settings.get, _PHOTON), settings, "photon history"))
    # (route, history, path); path 2 * pair + letter: paths 1, 3 read 'w' and 2, 4 read 'p'
    pairs = (routes.conj()[:, :, None] * routes[:, None]).reshape(2, 4, 2, 2)
    gram = pairs[..., 0, :] + pairs[..., 1, :]  # (route, (t, t'), letter)
    table = _product(gram[:, :, None, None, :].repeat(n, axis=2), (0,) * n)  # n photon rows
    c = np.array([np.cos(a), np.sin(a)])
    sectors = (table * (c[:, None] * c).reshape(4, 1)).sum(axis=1).real
    _check_entries("n-photon sector table", np.abs(sectors[0] - sectors[1]).tolist(), settings)
    return dict(zip(_SECTOR_KEYS[n], sectors[0].tolist()))
