"""Single-photon preparation, detection statistics, and coherence measures.

The input qubit ``cos(alpha)|V> + sin(alpha)|H>`` is pushed through the
four-path network of :mod:`wptoolbox.optics`.  Its output always decomposes
as ``cos(alpha)|wave> + sin(alpha)|particle>`` over two orthonormal path
states: the *wave* component has traversed the closed interferometer (its
detection probabilities oscillate in ``phi1``), while the *particle*
component took the open arm and carries no ``phi1`` dependence on its own.

Every probability in this module is computed twice: from closed-form
expressions and from the element-by-element circuit, whose transfer matrix
each photon's closed-form histories are checked against, entry by entry; a
projection on a fixed product probe checks how the histories are assembled.
A disagreement beyond ``CROSSCHECK_ATOL`` raises, so a regression in either
route cannot go unnoticed.  :func:`single_photon_batch` does both
for a whole sweep of settings in one call; the single-setting functions are
its N=1 case, and refuse a batch before evaluating it (:func:`_one_setting`).
That case runs on Python numbers, with the bits of a batch row: numpy keeps
the trigonometric and exponential functions and the Born squares, whose
numbers would round apart (:func:`_one_photon`).
It is the one-photon case of :func:`_history_batch`, the engine behind the
pair and n-photon sources of :mod:`wptoolbox.entangle`.  Every photon
setting is evaluated and checked in one place, :func:`_photon_routes`.
"""
from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from functools import cache
from itertools import chain
from operator import mul, sub
from typing import NamedTuple

import numpy as np

from .optics import PATHS, POLS, _first_non_finite, _network_matrix
from .qcore import (
    DensityMatrix,
    ModeBasis,
    PureState,
    _projector,
    _trusted,
    as_values,
    broadcast_values,
    check_distribution,
    mix,
    product_basis,
    stack_last,
)

#: mixer angle that erases which-polarization information on a balanced footing
BETA_SPLIT = np.pi / 8
#: mixer angle 0 means the detection-stage mixers are absent
BETA_DIRECT = 0.0

#: closed form and propagation must agree to this absolute tolerance
CROSSCHECK_ATOL = 1e-12

_RT2 = np.sqrt(2.0)
#: the factor of numpy's complex division by ``sqrt 2`` (:func:`_particle_amplitudes`)
_INV_RT2 = float(1.0 / _RT2)
_POL_BASIS = ModeBasis(POLS)
#: one photon's settings, in the argument order of :func:`single_photon_batch`
_SINGLE_NAMES = ("alpha", "phi1", "phi2", "beta")
#: the names of one photon's phi1, phi2 and beta among them
_PHOTON = _SINGLE_NAMES[1:]
#: the files of this package; an alpha warning points at the first frame outside them
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
#: a later term's last product step on a prefix this long or longer is fused with its
#: scale and its sum (:func:`_add_term`)
_LONG_PREFIX = 1024


@dataclass(frozen=True)
class ToolboxPhases:
    """Arm phases: ``phi1`` in the recombined arm, ``phi2`` in the open arm."""

    phi1: float = 0.0
    phi2: float = 0.0


@dataclass(frozen=True)
class SingleProbabilities:
    """Four detector probabilities and their mean/oscillating decomposition.

    ``p1 = pc + ic``, ``p2 = pc - ic``, ``p3 = ps + is_``, ``p4 = ps - is_``;
    ``ic`` and ``is_`` are the cross terms between the wave and particle
    components and vanish for their classical mixture.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    pc: float
    ps: float
    ic: float
    is_: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3, self.p4])


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------

def prepare_input(alpha) -> PureState:
    """Polarization qubit ``cos(alpha)|V> + sin(alpha)|H>``.

    Any finite ``alpha`` is accepted.  Outside ``[0, pi/2]`` one of the
    amplitudes is negative, which flips the sign of the interference terms;
    that is physically meaningful but usually not what a scan intends, so a
    warning is emitted rather than silently folding the angle.  An array of
    angles gives a batched state.
    """
    return PureState(_POL_BASIS, _input_amplitudes(alpha))


def _input_amplitudes(alpha) -> np.ndarray:
    """The amplitudes of :func:`prepare_input`, a fresh C-ordered array."""
    a = _check_alpha(alpha)
    return np.array(stack_last([np.cos(a), np.sin(a)]), dtype=np.complex128, order="C")


def _check_alpha(alpha):
    """``alpha`` as values; raises unless finite, warns outside ``[0, pi/2]``.

    The warning points at the first frame outside this package, so at the
    caller's line whichever public function was called.
    """
    a = as_values(alpha)
    inside = (0.0 <= a) & (a <= np.pi / 2)
    if not (inside.all() if a.shape else inside):  # a number's all() costs a reduction
        if not np.isfinite(a).all():
            raise ValueError("alpha must be finite")
        level, frame = 1, sys._getframe()
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"alpha={a[~inside][0]:.6g} lies outside [0, pi/2]; amplitude signs"
            " will flip the interference terms",
            stacklevel=level,
        )
    return a


def wave_state(phi1, beta=BETA_SPLIT) -> PureState:
    """Network output for a pure-V input (the closed-interferometer history).

    Absent mixers (``beta = 0``) and the ``beta -> 0`` limit of the coupled
    form agree on this state: both pass the recombined pair (1, 3) through.
    Checked against the V column of the transfer matrix on every call, the
    open-arm phase, which it never reaches, at 0 (:func:`_photon_routes`).
    Arrays of settings give a batched state.
    """
    return _history_state(0, broadcast_values(phi1, 0.0, beta), "wave state")


def particle_state(phi2, beta=BETA_SPLIT) -> PureState:
    """Network output for a pure-H input (the open-arm history).

    Checked against the H column of the transfer matrix on every call, the
    recombined-arm phase, which it never reaches, at 0 (:func:`_photon_routes`).
    Arrays of settings give a batched state.
    """
    return _history_state(1, broadcast_values(0.0, phi2, beta), "particle state")


def _history_state(h: int, values: list, what: str) -> PureState:
    """History ``h`` (0 wave, 1 particle) of one photon at broadcast ``values`` of
    ``phi1, phi2, beta``: its closed form, once checked (:func:`_photon_routes`)."""
    history = np.asarray(_photon_routes(*values, dict(zip(_PHOTON, values)), what)[0])[..., h, :]
    # the closed history the check has compared, so finite
    return _trusted(PureState, basis=_n_photon_basis(1), amplitudes=np.ascontiguousarray(history))


def _photon_factors(phi1, beta) -> tuple:
    """``cos, sin`` of ``phi1/2`` and of ``2 beta``, which a photon's wave and particle
    amplitudes share: Python numbers at one setting."""
    h, t = phi1 / 2, 2 * beta
    factors = np.cos(h), np.sin(h), np.cos(t), np.sin(t)
    return factors if factors[0].shape else tuple(map(float, factors))


def _wave_amplitudes(phi1, beta, factors):
    """The amplitudes of :func:`wave_state`, unchecked, ``S + (4,)``, at float64
    values, from their :func:`_photon_factors`, which hold all that ``beta`` gives;
    at one setting a list of Python complex numbers.  Only the engines' shared
    evaluation (:func:`_photon_routes`) calls it."""
    cos_h, sin_h, c, s = factors
    g = np.exp(0.5j * phi1)
    parts = [c * cos_h, s * cos_h, -1j * c * sin_h, -1j * s * sin_h]
    if not g.shape:  # each product has a factor with a zero part: it rounds as an array's
        g = complex(g)
        return [g * v for v in parts]
    return g[..., None] * stack_last(parts)


def _particle_amplitudes(phi2, beta, factors):
    """The amplitudes of :func:`particle_state`, unchecked, ``S + (4,)``, at float64
    values, from the :func:`_photon_factors` of ``beta``; at one setting a list of
    Python complex numbers, divided by ``sqrt 2`` as numpy divides.
    Only the engines' shared evaluation (:func:`_photon_routes`) calls it."""
    c, s = factors[2:]
    e2 = np.exp(1j * phi2)
    # absent mixers pass the open-arm pair (2, 4) straight through; the
    # beta -> 0 limit of the coupled form would flip its sign
    lower = -c
    if isinstance(lower, np.ndarray):
        lower = np.where(beta == 0.0, 1.0, lower)
    elif beta == 0.0:
        lower = 1.0
    if not e2.shape:
        e2 = complex(e2)
        # z / sqrt 2 as numpy divides a complex by a real, Smith's rule with a ratio of
        # 0 times the reciprocal, signed zeros too; Python's / divides instead
        return [complex((z.real + z.imag * 0.0) * _INV_RT2, (z.imag - z.real * 0.0) * _INV_RT2)
                for z in (s, lower, s * e2, lower * e2)]
    return stack_last([s, lower, s * e2, lower * e2]) / _RT2


def mixed_output(
    alpha, phases: ToolboxPhases = ToolboxPhases(), beta=BETA_SPLIT
) -> DensityMatrix:
    """Classical wave/particle mixture with the same weights as the pure output.

    This is the state obtained by deleting the coherence between the two
    histories: ``cos^2(alpha) |w><w| + sin^2(alpha) |p><p|``, from the
    cross-checked engine.  Array settings give a batch of density matrices.
    """
    return _single_photon(_single_settings(alpha, phases, beta)).mixture()


# ---------------------------------------------------------------------------
# the source-term engine
# ---------------------------------------------------------------------------

def _photon_basis(k: int) -> ModeBasis:
    """Path basis of photon k, its labels primed k times."""
    return ModeBasis(tuple(path + "'" * k for path in PATHS))


@cache
def _n_photon_basis(n: int) -> ModeBasis:
    """Path basis of n photons, photon k's labels primed k times, as nested
    :func:`product_basis` calls, which keep the n factors and no ``4**n``
    labels; one photon keeps its plain basis.  Cached per n, which the
    sources hold to at most ``entangle.MAX_PHOTONS``."""
    if n == 1:
        return _photon_basis(0)
    return product_basis(_n_photon_basis(n - 1), _photon_basis(n - 1))


class _Histories(NamedTuple):
    """The checked output ``S + (4**n,)`` of :func:`_history_batch`, its source
    terms (coefficients and patterns), the checked histories ``S + (n, 2, 4)`` of
    its n photons, photon k's (wave, particle) in row k, and the caller's settings
    by name, which a failed check names.  The terms themselves are not kept: the
    noise baseline (:meth:`fringe_scaled`) needs only the histories' real weights,
    and :meth:`mixture` rebuilds them."""

    amplitudes: np.ndarray
    coeffs: tuple
    patterns: tuple
    histories: np.ndarray
    settings: dict

    def state(self) -> PureState:
        """The checked amplitudes as a state over the path basis of the photon count
        (:func:`_n_photon_basis`), C-ordered.  The engine's own output, finite once
        its cross-check passed: frozen, copied only when a batch is not C-ordered."""
        basis = _n_photon_basis(self.histories.shape[-3])
        # amplitudes the cross-check (_check) has compared, so finite
        return _trusted(PureState, basis=basis, amplitudes=np.ascontiguousarray(self.amplitudes))

    def mixture(self) -> DensityMatrix:
        """``sum_t c_t^2 |term_t><term_t|`` over the basis of :meth:`state`, each term
        ``(x)_k history_{t,k}`` rebuilt by :func:`_product`; only this matrix needs them."""
        basis = _n_photon_basis(self.histories.shape[-3])
        return mix((PureState(basis, _product(self.histories, p)), c * c)
                   for c, p in zip(self.coeffs, self.patterns))

    def born(self, forms: tuple, what: str, scale) -> np.ndarray:
        """The amplitudes' Born probabilities, checked row by row against ``mean + fringe``
        of the closed ``forms``, two arrays of their size, one row per setting
        (:func:`_check`, naming ``what``), then :meth:`fringe_scaled` with ``mean``.  One
        photon's forms at one setting are lists of Python numbers
        (:func:`_detection_forms`), and so is the result: the squares are numpy's, as
        ``np.abs`` rounds apart from ``abs``, the comparison and the scaling run on their
        numbers."""
        mean, fringe = forms
        born = np.abs(self.amplitudes) ** 2
        if type(mean) is list:
            born = born.tolist()
            _check_entries(what, [abs(m + f - b) for m, f, b in zip(mean, fringe, born)],
                           self.settings)
        else:
            _check(what, np.abs((mean + fringe).reshape(born.shape) - born), self.settings)
        return self.fringe_scaled(born, mean, scale)

    def fringe_scaled(self, probs: np.ndarray, mean: np.ndarray, scale) -> np.ndarray:
        """Rows of ``probs``, ``S + (d,)``, whose scale is not 1 become ``baseline +
        scale * (probs - baseline)``; a scale outside [0, 1] raises, naming its first
        row.  The baseline ``sum_t c_t^2 (x)_k |history_{t,k}|^2`` is the diagonal of
        :meth:`mixture` with neither the matrix nor its ``4**n`` complex terms: as
        ``|(x)_k h|^2 = (x)_k |h|^2``, each term is a :func:`_product` of its photons'
        real history weights, from histories already checked entry by entry.  Its
        second route is the closed form's ``mean``, of the same size: on every row
        whose scale is not 1 the two must agree (:func:`_check`, naming the row and
        its settings).  The weights ``c_t^2`` and the baseline's rows must be
        distributions too.  One photon's ``probs`` and ``mean`` at one setting are
        lists of Python numbers (:meth:`born`), and so is the result: the weights
        ``|h|^2`` are numpy's products, the baseline and the scaling their numbers'."""
        noisy = scale != 1.0
        if not (noisy.any() if scale.shape else noisy):  # a number's any() costs a reduction
            return probs
        inside = (0.0 <= scale) & (scale <= 1.0)  # NaN is outside
        if np.count_nonzero(inside) < inside.size:
            i = int(np.argmin(inside))
            raise ValueError(f"fringe_scale must lie in [0, 1], got {scale.flat[i]} at row {i}")
        weights = check_distribution([c * c for c in self.coeffs], "mixture weights")
        squared = (self.histories * self.histories.conj()).real
        if type(probs) is list:
            rows = squared[0].tolist()
            terms = [(w, rows[h]) for w, (h,) in zip(weights.tolist(), self.patterns)]
            baseline = [sum(w * row[j] for w, row in terms) for j in range(len(probs))]
            _check_entries("mixture baseline", [abs(m - b) for m, b in zip(mean, baseline)],
                           self.settings)
            check_distribution(baseline, "mixture baseline")
            scale = float(scale)
            return [b + scale * (p - b) for p, b in zip(probs, baseline)]
        baseline = sum(w[..., None] * _product(squared, p) for w, p in zip(weights, self.patterns))
        dev = np.abs(mean.reshape(baseline.shape) - baseline)
        _check("mixture baseline", np.where(noisy[..., None], dev, 0.0), self.settings)
        check_distribution(baseline, "mixture baseline", axis=-1)
        return np.where(noisy[..., None], baseline + scale[..., None] * (probs - baseline), probs)

    def sector(self) -> np.ndarray:
        """The wave/particle sector of an unbatched output, ``(4**n, 2**n)``, C-ordered:
        column j is the product over the photons of the history pattern j, in binary,
        photon 0 most significant.  Raises unless each photon's two histories are
        orthogonal.  One :func:`_product` forms every column, of each photon's (path,
        history) table as one row of 8; the history axes then move last."""
        for w, p in self.histories:
            overlap = np.vdot(w, p)
            if abs(overlap) > 1e-12:
                raise RuntimeError(f"wave/particle basis not orthogonal: {abs(overlap):.3e}")
        n = len(self.histories)
        tables = self.histories.swapaxes(-1, -2).reshape(n, 1, 8)
        axes = (*range(0, 2 * n, 2), *range(1, 2 * n, 2))  # the paths, then the histories
        return _product(tables, (0,) * n).reshape((4, 2) * n).transpose(axes).reshape(4**n, -1)


def _history_batch(coeffs, patterns, photons, what, settings) -> _Histories:
    """Output of the source ``sum_t coeffs[t] |patterns[t]>``, checked both ways.

    The caller's ``settings``, by name and broadcast to one batch shape
    ``S``, are the only settings; ``photons[k]`` names photon k's ``phi1``,
    ``phi2`` and ``beta`` among them, and its histories are row k of
    ``S + (n, 2, 4)``, the one form in which the output, its check and
    :class:`_Histories` hold them.  At one setting (``S = ()``) each distinct
    photon setting, by name, is evaluated once, its histories as Python numbers
    (:func:`_photon_routes`): the pair evaluates two photons, ``ghz_output`` its
    shared setting once.  One photon then runs the rest on those numbers too
    (:func:`_one_photon`); n > 1 photons' histories are stacked into the array and
    assembled by numpy, as a batch is, since a product of two complex numbers
    rounds apart in numbers and arrays.  A batch evaluates one photon's
    settings as given, and n > 1 photons' stacked along a last axis, even when
    every photon names the same setting.  The distinct patterns
    hold 0 (V) or 1 (H) per photon; V leaves as the photon's wave history and
    H as its particle history, so the closed form is
    ``sum_t c_t (x)_k history_{t,k}``.  Two comparisons check it, row by row,
    each in a :func:`_check` naming ``what``.  First each photon's closed-form
    histories must match the V and H columns of its transfer matrix, entry by
    entry (:func:`_photon_routes`, which also refuses an empty batch).  Then
    the assembled output, contracted axis by axis with the product probe
    ``x_1 (x) ... (x) x_n`` of :func:`_probe`, must match
    ``sum_t c_t prod_k <x_k|history_{t,k}>`` from those histories.
    Coefficients of one shape broadcast to ``S``.  Each term is scaled in
    place and summed, not kept: the noise baseline needs only each photon's
    history weights (:meth:`_Histories.fringe_scaled`).  Once a term's last product
    step has a prefix of ``_LONG_PREFIX`` amplitudes or more (n >= 6), a
    later term's last step is fused with its scale and its sum
    (:func:`_add_term`), so the call holds one ``4**n`` array, the output,
    plus buffers of a fraction of it.
    """
    n, shape = len(photons), next(iter(settings.values())).shape
    if shape:
        values = ((settings[name] for name in photons[0]) if n == 1
                  else (stack_last([settings[name] for name in names]) for names in zip(*photons)))
        histories = _photon_routes(*values, settings, what)[0].reshape(shape + (n, 2, 4))
    else:  # one setting: each distinct photon setting once, on its numbers
        closed = {names: _photon_routes(*map(settings.get, names), settings, what)[0]
                  for names in dict.fromkeys(photons)}
        if n == 1:
            return _one_photon(coeffs, patterns, closed[photons[0]], what, settings)
        histories = np.array([closed[names] for names in photons])
    amps = None
    for c, pattern in zip(coeffs, patterns):
        if amps is not None and 4 ** (n - 1) >= _LONG_PREFIX:
            _add_term(amps, c, histories, pattern)
            continue
        term = _product(histories, pattern)
        # one photon's term is a view of its stored history: scale a copy
        term = c[..., None] * term if n == 1 else np.multiply(term, c[..., None], out=term)
        amps = term if amps is None else np.add(amps, term, out=amps)
    del term  # summed into amps: free it before the projection allocates

    probe, backward, index, _ = _probe(patterns)
    dense = amps
    for x in backward:  # vecdot never wakes threaded BLAS
        dense = np.vecdot(x, dense.reshape(shape + (-1, 4)))
    projections = np.vecdot(probe, histories).reshape(shape + (-1,))
    factored = np.vecdot(stack_last(coeffs), projections[..., index].prod(-1))
    _check(what, np.abs(dense - factored[..., None]), settings)  # dense is S + (1,)
    return _Histories(amps, tuple(coeffs), patterns, histories, settings)


def _photon_routes(phi1, phi2, beta, settings: dict, what: str) -> tuple:
    """Photon settings ``phi1, phi2, beta``, float64 values of one shape ``R``, by both
    routes, each evaluated once: ``(closed, propagated)``, the closed-form wave and
    particle histories, ``R + (2, 4)``, and the V and H columns of :func:`network_matrix`
    in that layout, once they agree entry by entry (:func:`_check`, naming ``what``).  At
    one setting both are nested lists of Python complex numbers, compared number by
    number (:func:`_check_entries`), on which the one-setting engine runs: the closed
    histories come as numbers from numpy's trigonometric and exponential values, each
    product with a factor whose real or imaginary part is zero, so they keep a batch
    row's bits, and the network's columns are :func:`~wptoolbox.optics._network_matrix`'s
    numbers (its slot check and images, :func:`~wptoolbox.optics._network_images`).  An
    empty batch raises first; a failed slot check names the first non-finite entry of
    the caller's ``settings`` and its row (:func:`~wptoolbox.optics._check_slots`)."""
    if not phi1.size:
        raise ValueError(f"evaluating the {what} needs at least one setting, got an empty batch")
    factors = _photon_factors(phi1, beta)
    waves = _wave_amplitudes(phi1, beta, factors)
    particles = _particle_amplitudes(phi2, beta, factors)
    mats = _network_matrix(phi1, phi2, beta, settings)
    if not phi1.shape:
        closed, propagated = [waves, particles], mats.T.tolist()
        _check_entries(what, map(abs, map(sub, chain(*closed), chain(*propagated))), settings)
        return closed, propagated
    closed = np.concatenate((waves, particles), axis=-1).reshape(waves.shape[:-1] + (2, 4))
    propagated = mats.swapaxes(-1, -2)
    _check(what, np.abs(closed - propagated), settings)
    return closed, propagated


def _one_photon(coeffs, patterns, rows: list, what: str, settings: dict) -> _Histories:
    """:func:`_history_batch` of one photon at one setting, on the Python numbers of its
    checked histories ``rows`` (wave, particle): the output ``sum_t c_t rows[h_t]``
    (:func:`_sum_terms`) and the probe check, its projection on the probe row ``x``
    against ``sum_t c_t <x|rows[h_t]>`` (:func:`_check_entries`).  The output and the
    histories come back as the arrays of :class:`_Histories`."""
    terms = [(float(c), rows[h]) for c, (h,) in zip(coeffs, patterns)]
    amps = _sum_terms(terms)
    x = _probe(patterns)[3][0]
    factored = sum([c * sum(map(mul, x, row)) for c, row in terms])
    _check_entries(what, (abs(sum(map(mul, x, amps)) - factored),), settings)
    return _Histories(np.array(amps), tuple(coeffs), patterns, np.array([rows]), settings)


def _sum_terms(terms: list) -> list:
    """``sum_t c_t row_t`` over one setting's ``terms``, pairs of a real ``c_t`` and a row
    of Python complex numbers, entry by entry in the order of the batch's scaled and
    summed terms.  A complex times a real rounds alike in numbers and arrays."""
    (c, row), *rest = terms
    amps = [c * v for v in row]
    for c, row in rest:
        amps = [a + c * v for a, v in zip(amps, row)]
    return amps


@cache
def _probe(patterns: tuple) -> tuple[np.ndarray, tuple, np.ndarray, list]:
    """The assembly check of :func:`_history_batch` for the source ``patterns``: the
    probe ``x_1 (x) ... (x) x_n`` as its rows, ``(n, 1, 4)``, which project each
    photon's two histories ``S + (n, 2, 4)`` on its own row, the same rows from ``x_n``
    back, which contract an output's axes from the last, the flat index, ``(T, n)``,
    ``2k + h`` of each term's factor ``<x_k|history_{t,k}>`` among the projections
    ``S + (n, 2)``, and the conjugated rows as lists of Python numbers, which the
    one-setting photon contracts (:func:`_one_photon`).

    Photon k's row ``x_k`` holds the phases ``exp(2 pi i frac(pi (4k + j + 1)**2))``.
    The squares keep each row from being a multiple of another, as the rows of a
    linear phase would be, so a swapped photon order shows.  Every entry has modulus
    1, so an error of one amplitude moves the projection by its full size at any n
    (unit-norm rows would shrink it by ``2**-n``).  An error spread over a term moves
    it in proportion to the term's projection, which a fixed probe can make small."""
    n = len(patterns[0])
    phases = np.arange(1, 4 * n + 1).reshape(n, 1, 4) ** 2 * np.pi % 1
    index = np.array([[2 * k + h for k, h in enumerate(p)] for p in patterns])
    probe = np.exp(2j * np.pi * phases)
    probe.flags.writeable = index.flags.writeable = False  # shared by every call
    return probe, tuple(probe[::-1, 0]), index, probe[:, 0].conj().tolist()


def _product(histories: np.ndarray, pattern) -> np.ndarray:
    """``(x)_k histories[..., k, pattern[k], :]`` of the photon array ``S + (n, H, d)``,
    shape ``S + (d**n,)``, photon 0 most significant: a fresh array, or for one photon
    a view of its row.  Each photon's step is one broadcast product, the prefix first.
    Every n-photon product is formed here: the engine's terms, the baseline's weights,
    the sector basis and the n-photon sector table's Gram products."""
    state = histories[..., 0, pattern[0], :]
    for k, h in enumerate(pattern[1:], 1):
        b = histories[..., k, h, :]
        state = (state[..., :, None] * b[..., None, :]).reshape(b.shape[:-1] + (-1,))
    return state


def _add_term(amps: np.ndarray, c, histories: np.ndarray, pattern) -> None:
    """``amps += c * _product(histories, pattern)`` without the product: its last
    step is fused with the scale and the sum, one column of ``amps`` at a time.
    Each element sees the unfused multiplies and add in their order, so the bits
    are those of the unfused route."""
    prefix = _product(histories, pattern[:-1])
    b = histories[..., len(pattern) - 1, pattern[-1], :]
    cols, tmp = amps.reshape(prefix.shape + (4,)), np.empty_like(prefix)
    for j in range(4):
        np.multiply(prefix, b[..., j, None], out=tmp)
        tmp *= c[..., None]
        cols[..., j] += tmp


def _alpha_source(settings: dict, photons: tuple, what: str) -> _Histories:
    """``cos(alpha)|V..V> + sin(alpha)|H..H>`` over ``photons`` through the engine,
    at broadcast ``settings``, once ``alpha`` passed :func:`_check_alpha`."""
    a, n = _check_alpha(settings["alpha"]), len(photons)
    return _history_batch((np.cos(a), np.sin(a)), ((0,) * n, (1,) * n), photons, what, settings)


def _single_photon(settings: dict) -> _Histories:
    """``cos(alpha)|V> + sin(alpha)|H>`` through the engine at broadcast ``settings``."""
    return _alpha_source(settings, (_PHOTON,), "output")


def _single_settings(alpha, phases: ToolboxPhases, beta) -> dict:
    """One photon's settings by name, as broadcast values."""
    values = broadcast_values(alpha, phases.phi1, phases.phi2, beta)
    return dict(zip(_SINGLE_NAMES, values))


def _history_weights(ch, sh, c4) -> tuple:
    """One photon's detector weights ``|w|^2, |p|^2``, detector axis first
    (``(4,) + S``), from ``ch, sh = cos, sin(phi1/2)`` and ``c4 = cos(4 beta)`` of
    one shape ``S``; from Python numbers, two tuples of four numbers.

    With ``c^2 = cos^2(2 beta) = (1 + c4)/2`` and ``s^2 = 1 - c^2`` they are
    ``(c^2 ch^2, s^2 ch^2, c^2 sh^2, s^2 sh^2)`` and ``(s^2, c^2, s^2, c^2)/2``;
    at ``pi/8`` both squares are exactly 0.5.  The sign flip of
    :func:`particle_state` at ``beta = 0`` drops out of every probability.
    Squares are products ``x * x``, so a single setting and a batch row
    round alike.
    """
    c2 = (1 + c4) / 2
    s2 = 1 - c2
    ch2, sh2 = ch * ch, sh * sh
    waves, particles = (c2 * ch2, s2 * ch2, c2 * sh2, s2 * sh2), (s2, c2, s2, c2)
    if type(c2) is float:
        return waves, tuple(p / 2 for p in particles)
    return np.array(waves), np.array(particles) / 2


def detection_closed_forms(
    alpha, phases: ToolboxPhases = ToolboxPhases(), beta=BETA_SPLIT
) -> np.ndarray:
    """Closed-form detector probabilities P1..P4 at any mixer angle.

    With ``x = sin(2 alpha) sin(4 beta) / (2 sqrt 2)``:

        P1,2 = cos^2(a) |w|^2 + sin^2(a) |p|^2 +- x cos^2(phi1/2)
        P3,4 = cos^2(a) |w|^2 + sin^2(a) |p|^2 +- x sin(phi1/2) sin(phi1/2 - phi2)

    where ``|w|^2`` and ``|p|^2`` are the detector weights of the wave and
    particle histories.  Settings may be arrays of one broadcast shape
    ``S``; the result has shape ``S + (4,)``.  An empty batch or a non-finite
    setting raises ``ValueError`` (:func:`_check_settings`).
    """
    values = broadcast_values(alpha, phases.phi1, phases.phi2, beta)
    _check_settings("detection_closed_forms", _SINGLE_NAMES, values)
    a, phi1, phi2, beta = values
    return np.add(*_detection_forms(a, (np.cos(a), np.sin(a)), phi1, phi2, beta))


def _check_settings(what: str, names: tuple, values: list) -> None:
    """Raise ``ValueError`` unless the broadcast ``values``, named ``names``, hold at
    least one setting and every one is finite, as the engine entries require; the
    error names the first non-finite setting and its row."""
    if not values[0].size:
        raise ValueError(f"{what} needs at least one setting, got an empty batch")
    found = _first_non_finite(dict(zip(names, values)))
    if found:
        raise ValueError("{} needs finite settings, got {}={!r} at row {}".format(what, *found))


def _detection_forms(a, coeffs, phi1, phi2, beta) -> tuple:
    """:func:`detection_closed_forms` at float64 settings of one shape, given
    ``coeffs = (cos a, sin a)``, which the engine's source already holds, as the mean
    part ``cos^2(a) |w|^2 + sin^2(a) |p|^2``, the mixture's, and the fringe, whose sum
    is the table.  ``cos, sin(phi1/2)`` are evaluated here, as
    :func:`~wptoolbox.entangle._coincidence_forms` does: the engine keeps its photon
    array only.  At one setting both are lists of Python numbers, every value past the
    trigonometric functions a real product or sum, which numbers and arrays round
    alike; a batch gives arrays ``S + (4,)``."""
    h, b4 = phi1 / 2, 4 * beta
    values = (np.cos(h), np.sin(h), np.cos(b4), np.sin(2 * a) * np.sin(b4) / (2 * _RT2),
              np.sin(h - phi2), *coeffs)
    one = not values[0].shape
    ch, sh, c4, x, sin_d, ca, sa = map(float, values) if one else values
    waves, particles = _history_weights(ch, sh, c4)
    ic = x * (ch * ch)
    is_ = x * sh * sin_d
    if one:
        cc, ss = ca * ca, sa * sa
        return [cc * w + ss * p for w, p in zip(waves, particles)], [ic, -ic, is_, -is_]
    mean = ca * ca * waves + sa * sa * particles
    axes = (*range(1, mean.ndim), 0)
    return mean.transpose(axes), np.array([ic, -ic, is_, -is_]).transpose(axes)


class SingleBatch(NamedTuple):
    """Cross-checked single-photon statistics, one row per setting.

    ``amplitudes`` are the closed-form output states and ``probabilities``
    the detector probabilities P1..P4, both of shape ``(..., 4)``; an entry
    of one setting splits its one row (:func:`_single_row`).
    """

    amplitudes: np.ndarray
    probabilities: np.ndarray


def single_photon_batch(
    alpha, phi1, phi2, beta=BETA_SPLIT, fringe_scale=1.0
) -> SingleBatch:
    """Evaluate and cross-check a batch of single-photon settings in one call.

    The arguments are numbers or arrays that broadcast to one batch shape.
    Every row is checked by :func:`_history_batch` at ``CROSSCHECK_ATOL``:
    the closed-form wave and particle histories against the batched network
    matrix, the output against them on a product probe, and the Born
    probabilities, which are the result, against
    :func:`detection_closed_forms`, on every row at any ``beta``.  A
    mismatch raises ``RuntimeError`` naming the first failing row and its
    settings; an empty batch raises ``ValueError``.

    ``fringe_scale`` (``(1 - dephase) * visibility`` of a noise model, 0 for
    the classical mixture) moves every row whose scale is not 1 toward the
    mixture baseline: ``baseline + scale * (ideal - baseline)``; such a scale
    must lie in [0, 1], or ``ValueError`` names its first row.  The baseline
    of those rows is checked against the mean part of the closed forms.
    """
    *values, scale = broadcast_values(alpha, phi1, phi2, beta, fringe_scale)
    histories, probs = _single_born(values, scale)
    return SingleBatch(histories.amplitudes, np.asarray(probs))


def _single_born(values: list, scale) -> tuple:
    """The one-photon source at broadcast ``values`` of ``alpha, phi1, phi2, beta`` through
    the engine, and its Born table at fringe ``scale``, checked against the closed forms
    (:meth:`_Histories.born`): an array ``S + (4,)``, at one setting a list of numbers."""
    histories = _single_photon(dict(zip(_SINGLE_NAMES, values)))
    # the closed form shares the engine's cos, sin of alpha
    forms = _detection_forms(values[0], histories.coeffs, *values[1:])
    return histories, histories.born(forms, "probabilities", scale)


def _check(what: str, dev: np.ndarray, settings: dict[str, np.ndarray]) -> None:
    """Raise when a row of ``dev`` exceeds the tolerance or is NaN.

    ``settings`` maps each setting's name to its values, all of the batch
    shape; ``dev`` has that shape plus any trailing axes, over which a row's
    worst deviation is taken.  Rows are counted in flat order over the batch
    axes, and the error names the first failing row and its settings.
    """
    if dev.max() <= CROSSCHECK_ATOL:
        return
    rows = next(iter(settings.values())).size
    worst = dev.reshape(rows, -1).max(axis=-1)
    i = int(np.flatnonzero(~(worst <= CROSSCHECK_ATOL))[0])
    values = ", ".join(f"{name}={float(x.reshape(-1)[i])!r}" for name, x in settings.items())
    raise RuntimeError(
        f"closed-form {what} disagrees with propagation by {worst[i]:.3e} at"
        f" row {i} ({values})"
    )


def _check_entries(what: str, devs, settings: dict) -> None:
    """:func:`_check` of one setting's deviations ``devs``, Python numbers: all within the
    tolerance passes with no array, NaN failing; else :func:`_check` raises its error,
    naming row 0 and the settings."""
    devs = list(devs)
    if not all(map(CROSSCHECK_ATOL.__ge__, devs)):
        _check(what, np.array(devs), settings)


# ---------------------------------------------------------------------------
# single settings
# ---------------------------------------------------------------------------

def _one_setting(what: str, values) -> None:
    """Raise unless ``values``, broadcast to one shape, hold one setting: an entry
    that returns one result refuses a batch before anything is evaluated."""
    shape = next(iter(values)).shape  # every value's
    if shape:
        raise ValueError(f"{what} needs one setting, got a batch of shape {shape}")


def _single_row(what: str, alpha, phases: ToolboxPhases, beta, scale) -> SingleProbabilities:
    """One setting of :func:`single_photon_batch` at fringe ``scale``, with the pair
    split; a batch, in the settings or in ``scale``, is refused first."""
    *values, scale = broadcast_values(alpha, phases.phi1, phases.phi2, beta, scale)
    _one_setting(what, values)
    p1, p2, p3, p4 = _single_born(values, scale)[1]
    return SingleProbabilities(p1, p2, p3, p4,
                               (p1 + p2) / 2, (p3 + p4) / 2, (p1 - p2) / 2, (p3 - p4) / 2)


def output_state(
    alpha: float, phases: ToolboxPhases = ToolboxPhases(), beta: float = BETA_SPLIT
) -> PureState:
    """Full network output ``cos(alpha)|wave> + sin(alpha)|particle>``.

    The state of :func:`single_photon_batch`'s source: the closed form is
    cross-checked on every call, its histories against the element-by-element
    transfer matrix and their sum on a product probe; a mismatch raises
    ``RuntimeError``.  No Born table is evaluated.  Arrays of
    settings give a batched state.
    """
    return _single_photon(_single_settings(alpha, phases, beta)).state()


def detection_probabilities(
    alpha: float, phases: ToolboxPhases = ToolboxPhases(), beta: float = BETA_SPLIT
) -> SingleProbabilities:
    """Detector probabilities P1..P4 with their mean/oscillating split.

    The Born probabilities of the cross-checked output state, verified
    against the closed forms of :func:`detection_closed_forms` at every
    mixer angle.  ``pc, ps`` and ``ic, is_`` are the half-sums and
    half-differences of the detector pairs.  This is one setting of
    :func:`single_photon_batch`; a batch raises ``ValueError``.
    """
    return _single_row("detection_probabilities", alpha, phases, beta, 1.0)


def coherence_witness(probs: SingleProbabilities) -> float:
    """Detector-level coherence witness ``|P1 - P2|`` (= 2|ic|)."""
    return abs(probs.p1 - probs.p2)


def _in_sector(state: PureState | DensityMatrix, basis: np.ndarray) -> np.ndarray:
    """``state`` in the sector ``basis``; raises if weight lies outside it."""
    rho = _projector(state.amplitudes) if isinstance(state, PureState) else state.matrix
    sector = basis.conj().T @ rho @ basis
    if abs(np.trace(sector).real - 1.0) > 1e-10:
        raise ValueError("state is not expressible in the wave/particle sector")
    return sector


def _agreeing(what: str, value: float, closed: float, form: str) -> float:
    """``value`` once it lies within 1e-10 of ``closed``, named ``form``; else raise
    ``RuntimeError`` naming ``what`` and both values."""
    if abs(value - closed) > 1e-10:
        raise RuntimeError(f"{what} {value:.12f} disagrees with the {form} {closed:.12f}")
    return value


def coherence(
    alpha: float,
    phases: ToolboxPhases = ToolboxPhases(),
    beta: float = BETA_SPLIT,
    mixed: bool = False,
) -> float:
    """l1 coherence of the output in the {wave, particle} basis.

    The output (pure superposition, or its classical mixture when
    ``mixed=True``) is projected onto the two-dimensional subspace spanned
    by the wave and particle states and the off-diagonal magnitudes of that
    2x2 matrix are summed.  The sum is verified against its closed form,
    ``|sin(2 alpha)|`` for the pure output and zero for the mixture, at 1e-10;
    a mismatch raises ``RuntimeError``.
    """
    settings = _single_settings(alpha, phases, beta)
    _one_setting("coherence", settings.values())
    histories = _single_photon(settings)
    state = histories.mixture() if mixed else histories.state()
    sector = _in_sector(state, histories.sector())
    value = float(abs(sector[0, 1]) + abs(sector[1, 0]))
    closed = 0.0 if mixed else float(abs(np.sin(2 * settings["alpha"])))
    return _agreeing("l1 coherence", value, closed, "closed form")
