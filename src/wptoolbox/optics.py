"""Optical elements and interferometer circuits on labeled modes.

The network realized by :func:`interferometer_circuit` is a two-arm
Mach-Zehnder with a polarization-controlled splitter stage:

* a polarizing splitter sends V onto path 1 and H onto path 2,
* path 1 enters a balanced interferometer over paths (1, 3) with phase
  ``phi1`` in arm 3, closed by a second balanced splitter,
* path 2 is split once onto paths (2, 4) with phase ``phi2`` in arm 4 and
  is never recombined,
* a final pair of mixers couples (1, 2) and (3, 4) in front of the four
  detectors; their angle ``beta`` selects between keeping the two
  polarization histories separate (``beta = 0``, mixers absent) and
  erasing them on a balanced footing (``beta = pi/8``).

Phases and mixer angles may be arrays: the setting-dependent elements then
hold one matrix per setting, and one circuit propagates a whole batch.

Every circuit runs through the one step runner
:func:`wptoolbox.qcore.run_steps`.  The network is compiled once by
:func:`compile_chain`: each element's mode positions are resolved in
advance and the fixed run PBS, BS1, BS2 is fused into one checked 4x2
block.  The phases and mixers are built, and checked as one stack, per call;
:func:`network_matrix` builds and checks them entry by entry instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .qcore import (
    ATOL,
    Label,
    ModeBasis,
    PureState,
    Step,
    _trusted,
    as_values,
    broadcast_values,
    is_isometry,
    route,
    run_steps,
    stack_last,
)

POLS: tuple[str, str] = ("V", "H")
PATHS: tuple[str, str, str, str] = ("1", "2", "3", "4")

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
#: the entries of the identity, which stands in for an absent mixer
_IDENTITY_ENTRIES = (np.float64(1.0), np.float64(0.0), np.float64(0.0), np.float64(1.0))
#: the network's slot Gram entries ``|e1|^2, |e2|^2, (M^H M)_00, _11, _01`` of isometries
_GRAM_IDENTITY = (1.0, 1.0, 1.0, 1.0, 0.0)
#: the 0 that np.matvec starts each sum from, as a 0-d array: arrays add it fastest
_ZERO = np.zeros((), dtype=np.complex128)


@dataclass(frozen=True)
class ElementUnitary:
    """A named isometry acting on an explicit subset of modes.

    ``matrix`` has shape ``(len(modes_out), len(modes_in))``, or carries
    leading batch axes with one matrix per setting, which circuits run
    setting by setting.  It is checked once, here, and frozen; circuits
    apply it without checking it again.
    """

    name: str
    modes_in: tuple[Label, ...]
    modes_out: tuple[Label, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        # C order keeps a stack on the BLAS kernels of a single matrix, so
        # a batch row rounds exactly like the same setting on its own
        m = np.array(self.matrix, dtype=np.complex128, order="C")
        if m.shape[-2:] != (len(self.modes_out), len(self.modes_in)):
            raise ValueError(
                f"{self.name}: matrix shape {m.shape} does not match modes"
            )
        _checked(self.name, m)
        vars(self).update(matrix=m, modes_in=tuple(self.modes_in), modes_out=tuple(self.modes_out))

    @property
    def changes_basis(self) -> bool:
        return self.modes_out != self.modes_in


def _checked(name: str, matrix: np.ndarray, **settings) -> np.ndarray:
    """``matrix``, frozen, after :func:`~wptoolbox.qcore.is_isometry` passed on it; a
    failure names the first non-finite of the ``settings`` it was built from and its row."""
    if not is_isometry(matrix):
        raise _not_an_isometry(name, settings)
    matrix.flags.writeable = False
    return matrix


def _not_an_isometry(name: str, settings: dict) -> ValueError:
    """The error of a failed isometry check of ``name``, naming the first non-finite
    of the ``settings`` its matrices were built from and its row."""
    found = _first_non_finite(settings)
    where = "; {}={!r} at row {}".format(*found) if found else ""
    return ValueError(f"{name}: matrix is not an isometry{where}")


def _first_non_finite(settings: dict) -> tuple[str, float, int] | None:
    """Name, value and flat row of the first non-finite entry of ``settings``
    (broadcast together, searched name by name), or ``None``."""
    for key, value in zip(settings, np.broadcast_arrays(*settings.values())):
        rows = np.flatnonzero(~np.isfinite(value))
        if rows.size:
            return key, float(value.flat[rows[0]]), int(rows[0])
    return None


# ---------------------------------------------------------------------------
# element factories
# ---------------------------------------------------------------------------

def polarizing_bs(
    pol_labels: tuple[str, str] = POLS,
    path_labels: tuple[str, str, str, str] = PATHS,
) -> ElementUnitary:
    """Polarizing splitter: first polarization to path 1, second to path 2.

    This is the basis-changing element that converts a polarization qubit
    into a path-encoded state over four (initially half-empty) paths.
    """
    m = np.zeros((4, 2))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    return ElementUnitary("PBS", tuple(pol_labels), tuple(path_labels), m)


def balanced_bs(mode_a: Label, mode_b: Label, name: str = "BS") -> ElementUnitary:
    """50/50 splitter in the real Hadamard convention [[1, 1], [1, -1]]/sqrt(2)."""
    return ElementUnitary(name, (mode_a, mode_b), (mode_a, mode_b), _HADAMARD)


def mirror_matrix(theta) -> np.ndarray:
    """Rotated mirror [[cos 2t, sin 2t], [sin 2t, -cos 2t]] at angle ``theta``, a
    float64 value (:func:`~wptoolbox.qcore.as_values`).

    This is both the detection-stage mixer and the Jones matrix of a
    half-wave plate.  An array of angles gives a stack, shape ``(..., 2, 2)``.
    """
    return stack_last(_mirror_entries(theta)).reshape(np.shape(theta) + (2, 2))


def _mirror_entries(theta) -> tuple:
    """The entries ``m00, m01, m10, m11`` of :func:`mirror_matrix`, each of the shape
    of ``theta``."""
    t = 2 * theta
    c, s = np.cos(t), np.sin(t)
    return c, s, s, -c


def _mixer_entries(beta) -> tuple:
    """The entries ``m00, m01, m10, m11`` of the mixer of :func:`output_mixer` at
    float64 values ``beta``, each of their shape: the rotated mirror, or the identity
    where ``beta == 0`` (``-0.0`` included), the one place that holds that rule."""
    absent = beta == 0.0
    if not beta.shape and absent:
        return _IDENTITY_ENTRIES
    entries = _mirror_entries(beta)
    if beta.shape and absent.any():
        c, s, _, m11 = entries  # fresh arrays, so the identity goes in in place
        for m, x in ((c, 1.0), (s, 0.0), (m11, 1.0)):
            m[absent] = x
    return entries


def _mixer_matrix(beta) -> np.ndarray:
    """The mixer of :func:`output_mixer`, or a stack of them for an array of angles,
    at float64 values ``beta``, from :func:`_mixer_entries`."""
    return stack_last(_mixer_entries(beta)).reshape(beta.shape + (2, 2))


def _slot_matrices(name: str, phi1, phi2, beta, plate,
                   settings: dict | None = None) -> tuple[np.ndarray, tuple]:
    """The slot matrices of either compiled chain (two arm phases, one plate on
    two mode pairs), checked as one stack.

    ``diag(e^{i phi1}, e^{i phi2})``, an isometry exactly when both phases
    are, and ``plate(beta)`` go into one ``S + (2, 2, 2)`` stack, ``S`` the
    shape of the settings, float64 values of one shape
    (:func:`~wptoolbox.qcore.broadcast_values`), for one ``is_isometry``
    call.  A failed check names the first non-finite of the caller's
    ``settings`` by name, or of ``phi1, phi2, beta`` without them.  Returns the
    checked stack and, as its read-only views, the 1x1 phase stacks and the
    plate stack twice.  An empty batch raises ``ValueError``.
    """
    if not beta.size:
        raise ValueError(f"{name} need at least one setting, got an empty batch")
    stack = np.zeros(beta.shape + (2, 2, 2), dtype=np.complex128)
    stack[..., 0, 0, 0] = np.exp(1j * phi1)
    stack[..., 0, 1, 1] = np.exp(1j * phi2)
    stack[..., 1, :, :] = plate(beta)
    _checked(name, stack, **(settings or {"phi1": phi1, "phi2": phi2, "beta": beta}))
    mixer = stack[..., 1, :, :]
    return stack, (stack[..., 0, :1, :1], stack[..., 0, 1:, 1:], mixer, mixer)


def phase_shifter(mode: Label, phi, name: str | None = None) -> ElementUnitary:
    """Single-mode phase e^{i phi}; an array of phases gives a batched element."""
    phase = np.exp(1j * as_values(phi))[..., None, None]
    return ElementUnitary(name or f"phase({mode})", (mode,), (mode,), phase)


def output_mixer(mode_a: Label, mode_b: Label, beta) -> ElementUnitary:
    """Detection-stage mixer with coupling angle ``beta`` (a number or an array).

    ``beta = 0`` means the element is physically absent, so the identity is
    used (note: *not* the beta -> 0 limit of the coupled form, whose lower
    output picks up a sign).  For ``beta != 0`` the mixer is the rotated
    mirror form [[cos 2b, sin 2b], [sin 2b, -cos 2b]], which is balanced at
    ``beta = pi/8``.
    """
    modes = (mode_a, mode_b)
    return ElementUnitary(f"mixer({mode_a},{mode_b})", modes, modes,
                          _mixer_matrix(as_values(beta)))


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Circuit:
    """Ordered sequence of elements between two labeled bases.

    Every run goes through :func:`~wptoolbox.qcore.run_steps` on steps
    routed once per circuit, one per element; a circuit made by
    :meth:`Chain.circuit` runs its chain's fused steps instead.
    """

    input_basis: ModeBasis
    output_basis: ModeBasis
    elements: tuple[ElementUnitary, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))

    def propagate(self, state: PureState) -> PureState:
        """Run ``state`` through every element in order.

        A batched state runs through batched elements setting by setting; the
        batch shapes broadcast, so one state may run through a batch of them.
        The result is the runner's fresh array, frozen in place, not copied.
        """
        amps = _propagated(state.amplitudes.copy(), self._steps_from(state.basis))
        # the runner's fresh C-ordered result, which passed its finite scan
        return _trusted(PureState, basis=self.output_basis, amplitudes=amps)

    def matrix(self) -> np.ndarray:
        """Full transfer matrix (output dim x input dim), columns = basis images.

        A batched circuit gives one per setting, ``S + (out, in)``.
        """
        shape = np.broadcast_shapes(*(el.matrix.shape[:-2] for el in self.elements))
        return _transfer_matrix(self._steps, self.input_basis.dimension, shape)

    def _steps_from(self, basis: ModeBasis) -> tuple[Step, ...]:
        """The routed steps, once ``basis`` is checked to be the input basis."""
        if basis != self.input_basis:
            raise ValueError("state basis does not match circuit input basis")
        return self._steps

    @cached_property
    def _steps(self) -> tuple[Step, ...]:
        """The elements' checked matrices, routed once.

        Only the routing is checked here: every element finds its modes in
        the current basis, and the chain ends in the declared output basis.
        """
        steps, basis = _routed_steps(self.input_basis, self.elements)
        if basis != self.output_basis:
            raise ValueError("circuit did not land in its declared output basis")
        return tuple(steps)


def _propagated(amps: np.ndarray, steps) -> np.ndarray:
    """``amps`` run through routed ``steps``; raises unless the result is finite."""
    amps = run_steps(amps, steps)
    # isometries keep the norm, but a finite input's norm may overflow
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    return amps


def _transfer_matrix(steps, dim: int, shape: tuple = ()) -> np.ndarray:
    """Transfer matrices ``shape + (out, in)`` of routed ``steps`` on ``dim`` input
    modes: one pass of the identity, its columns along a leading axis, which the
    runner broadcasts to the steps' batch ``shape`` once a step has it."""
    block = np.eye(dim, dtype=np.complex128).reshape((dim,) + (1,) * len(shape) + (dim,))
    images = run_steps(block, steps)
    return images.transpose(*range(1, images.ndim), 0)


def _routed_steps(basis: ModeBasis, elements) -> tuple[list[Step], ModeBasis]:
    """One step per element from ``basis`` on, and the basis they end in."""
    steps = []
    for el in elements:
        at, replaces, basis = route(basis, el.modes_in, el.modes_out)
        steps.append(Step(el.matrix, at, replaces))
    return steps, basis


@dataclass(frozen=True)
class Chain:
    """An element chain compiled once: routed, with its fixed runs fused.

    ``items`` are the fixed elements and, as ``(name, modes)`` pairs, the
    slots of the per-setting elements, which act in place on those modes.
    ``steps`` follow the items, with every run of two or more fixed
    elements fused into one dense block over the whole basis.  ``slots``
    hold, per slot in order, the position of its step among ``steps`` and
    of its pair among ``items``, so a call fills the slots by index.
    """

    input_basis: ModeBasis
    output_basis: ModeBasis
    items: tuple
    steps: tuple[Step, ...]
    slots: tuple[tuple[int, int], ...]

    def steps_with(self, *matrices: np.ndarray) -> tuple[Step, ...]:
        """The steps with one checked matrix, or stack, per slot, in order."""
        steps = list(self.steps)
        for (k, _), m in zip(self.slots, matrices, strict=True):
            steps[k] = Step(m, steps[k].at, False)
        return tuple(steps)

    def circuit(self, *matrices: np.ndarray) -> Circuit:
        """The chain as a circuit with one checked, frozen matrix, or stack, per slot.

        It lists every element, a slot's under its name and around its matrix
        as given, and runs on the fused steps."""
        steps, listed = self.steps_with(*matrices), list(self.items)
        for (_, i), m in zip(self.slots, matrices):
            name, modes = listed[i]  # in place, around m, which passed _checked as a stack
            listed[i] = _trusted(ElementUnitary, name=name, modes_in=modes, modes_out=modes,
                                 matrix=m)
        # compile_chain routed the steps and checked the routing; the circuit caches them
        return _trusted(Circuit, input_basis=self.input_basis, output_basis=self.output_basis,
                        elements=tuple(listed), _steps=steps)


def compile_chain(input_basis: ModeBasis, items) -> Chain:
    """Route ``items`` once and fuse each run of fixed elements (see :class:`Chain`).

    A fused block is the product of its members' checked matrices, and is
    itself checked by ``is_isometry`` once, here.
    """
    basis, steps, slots, run = input_basis, [], [], []
    for i, item in enumerate((*items, None)):  # None closes the last run
        if isinstance(item, ElementUnitary):
            run.append(item)
            continue
        if run:
            members, after = _routed_steps(basis, run)
            if len(members) > 1:
                block = _transfer_matrix(members, basis.dimension)
                block = _checked("*".join(el.name for el in run), np.ascontiguousarray(block))
                members = [Step(block, slice(0, basis.dimension), True)]
            steps += members
            basis, run = after, []
        if item is not None:
            at, _, basis = route(basis, item[1], item[1])
            slots.append((len(steps), i))
            steps.append(Step(None, at, False))
    return Chain(input_basis, basis, tuple(items), tuple(steps), tuple(slots))


@cache
def _fixed_stages() -> Chain:
    """The network's chain, built, fused and validated once.

    Its fixed elements are the polarizing splitter and the balanced
    splitters BS1, BS2 (fused into one 4x2 block) and BS3; its slots are
    the two arm phases and the two mixers.
    """
    p1, p2, p3, p4 = PATHS
    items = (
        polarizing_bs(),
        balanced_bs(p1, p3, name="BS1"),
        balanced_bs(p2, p4, name="BS2"),
        ("phase1", (p3,)),
        ("phase2", (p4,)),
        balanced_bs(p1, p3, name="BS3"),
        (f"mixer({p1},{p2})", (p1, p2)),
        (f"mixer({p3},{p4})", (p3, p4)),
    )
    return compile_chain(ModeBasis(POLS), items)


def interferometer_circuit(phi1: float, phi2: float, beta: float) -> Circuit:
    """The full polarization-to-four-paths network described in the module docstring.

    Args:
        phi1: phase in the recombined arm (path 3).
        phi2: phase in the open arm (path 4).
        beta: detection-stage mixer angle; 0 disables the mixers.

    ``phi1``, ``phi2`` and ``beta`` may be arrays of one broadcast shape (else
    ``ValueError``), one setting per entry.  The phases and the mixer are
    checked as one stack, and both mixers share one matrix.
    """
    _, slots = _slot_matrices("arm phases and mixer", *broadcast_values(phi1, phi2, beta),
                              _mixer_matrix)
    return _fixed_stages().circuit(*slots)


def network_matrix(phi1, phi2, beta) -> np.ndarray:
    """Transfer matrix of :func:`interferometer_circuit` (paths x polarizations).

    Settings of broadcast shape ``S`` give a stack of shape ``S + (4, 2)``, without
    building elements or a slot stack: :func:`_network_matrix` runs both input columns
    entry by entry, on numbers at one setting and on arrays of shape ``S`` for a batch,
    after the slot check of the circuit's stack, written on the entries.  Bits equal
    :meth:`Circuit.matrix`'s.  A failed slot check names the first non-finite of
    ``phi1, phi2, beta`` and its row; the photon engine calls :func:`_network_matrix`,
    which names its caller's settings.
    """
    return _network_matrix(*broadcast_values(phi1, phi2, beta))


def _network_matrix(phi1, phi2, beta, settings: dict | None = None) -> np.ndarray:
    """:func:`network_matrix` at float64 values of one shape ``S``, entry by entry.

    The slots are ``e^{i phi1}``, ``e^{i phi2}`` and the mixer's
    :func:`_mixer_entries`, checked by :func:`_check_slots`, and both input columns
    run through them in :func:`_network_images`.  At one setting the slots are Python
    complex numbers, which do the arithmetic of numpy scalars at a fraction of the
    cost, and each column runs on its own; a batch gives the slots a last axis, on
    which the two columns run side by side.  The images go into one ``np.array``.
    An empty batch raises ``ValueError`` first.
    """
    if not beta.size:
        raise ValueError("arm phases and mixer need at least one setting, got an empty batch")
    slots = (np.exp(1j * phi1), np.exp(1j * phi2), *_mixer_entries(beta))
    if not beta.shape:
        slots = tuple(map(complex, slots))
    _check_slots(slots, settings or {"phi1": phi1, "phi2": phi2, "beta": beta})
    columns, stacked, bs3 = _network_entries()
    if not beta.shape:
        return np.array([_network_images(x, slots, bs3, 0) for x in columns]).T
    slots = [v[..., None] for v in slots]
    images = np.array(_network_images(stacked, slots, bs3, _ZERO))  # (4,) + S + (2,)
    return images.transpose(*range(1, beta.ndim + 1), 0, -1)


def _network_images(x: tuple, slots, bs3: tuple, zero) -> tuple:
    """Paths 1..4 of the input columns ``x`` after the fused PBS·BS1·BS2 block: through
    the phases on paths 3 and 4, BS3 on paths (1, 3) and the mixer on (1, 2) and
    (3, 4).  Each step forms the products and sums of ``np.matvec``, ``(0 + m00 x0) +
    m01 x1`` for ``m`` on ``(x0, x1)``, ``zero`` being that 0, with every entry of
    the fixed matrices, zeros included, so signed zeros match too.  Every product
    has a factor with zero imaginary part, which numbers and arrays round alike."""
    e1, e2, m00, m01, m10, m11 = slots
    (b00, b01), (b10, b11) = bs3
    x1, x2, x3, x4 = x
    x3, x4 = x3 * e1, x4 * e2
    x1, x3 = zero + b00 * x1 + b01 * x3, zero + b10 * x1 + b11 * x3
    return (zero + m00 * x1 + m01 * x2, zero + m10 * x1 + m11 * x2,
            zero + m00 * x3 + m01 * x4, zero + m10 * x3 + m11 * x4)


def _check_slots(slots: tuple, settings: dict) -> None:
    """Raise unless the network's slots, ``diag(e1, e2)`` and the mixer, given as the
    entries ``slots = (e1, e2, m00, m01, m10, m11)``, are isometries by the rule of
    :func:`~wptoolbox.qcore.is_isometry`, ``max|M^H M - I| <= ATOL``, written on the
    entries: the Gram entries ``|e1|^2, |e2|^2`` and the mixer's two diagonal and one
    off-diagonal entry, against the identity's ``1, 1, 1, 1, 0``.  NaN fails.  The
    error is the slot stack's (:func:`_not_an_isometry`), naming the first non-finite
    of ``settings``."""
    e1, e2, m00, m01, m10, m11 = slots
    c00, c01, c10, c11 = m00.conjugate(), m01.conjugate(), m10.conjugate(), m11.conjugate()
    gram = ((e1.conjugate() * e1).real, (e2.conjugate() * e2).real,
            (c00 * m00 + c10 * m10).real, (c01 * m01 + c11 * m11).real, c00 * m01 + c10 * m11)
    if type(e1) is complex:  # one setting
        ok = all(abs(g - i) <= ATOL for g, i in zip(gram, _GRAM_IDENTITY))
    else:  # the Gram entries along a last axis
        ok = np.abs(np.array(gram).T - _GRAM_IDENTITY).max() <= ATOL
    if not ok:
        raise _not_an_isometry("arm phases and mixer", settings)


@cache
def _network_entries() -> tuple:
    """The fixed entries :func:`_network_matrix` runs through: the fused block's V and
    H columns over paths 1..4 as Python numbers, the same as four read-only arrays of
    path k's (V, H) entries, and BS3's rows."""
    head, _, _, bs3, _, _ = _fixed_stages().steps
    stacked = tuple(head.matrix.copy())
    for row in stacked:
        row.flags.writeable = False
    return tuple(map(tuple, head.matrix.T.tolist())), stacked, bs3.matrix.tolist()
