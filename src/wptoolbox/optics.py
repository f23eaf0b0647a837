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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import Label, ModeBasis, PureState, _apply, as_values, is_isometry, stack_last

POLS: tuple[str, str] = ("V", "H")
PATHS: tuple[str, str, str, str] = ("1", "2", "3", "4")

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
_IDENTITY2 = np.eye(2)


@dataclass(frozen=True)
class ElementUnitary:
    """A named isometry acting on an explicit subset of modes.

    ``matrix`` has shape ``(len(modes_out), len(modes_in))``, or carries
    leading batch axes with one matrix per setting.  It is checked once,
    here, and frozen; circuits built from elements apply it without
    checking it again.
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
        if not is_isometry(m):
            raise ValueError(f"{self.name}: matrix is not an isometry")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "modes_in", tuple(self.modes_in))
        object.__setattr__(self, "modes_out", tuple(self.modes_out))

    @property
    def changes_basis(self) -> bool:
        return self.modes_out != self.modes_in

    def relabeled(self, name: str, modes: tuple[Label, ...]) -> "ElementUnitary":
        """The same, already checked, matrix acting on ``modes`` instead.

        Only the mode count is checked; the matrix is shared, not copied.
        """
        if self.changes_basis or len(modes) != len(self.modes_in):
            raise ValueError(f"{self.name}: cannot move onto {len(modes)} modes")
        el = object.__new__(ElementUnitary)
        for attr, value in (("name", name), ("modes_in", tuple(modes)),
                            ("modes_out", tuple(modes)), ("matrix", self.matrix)):
            object.__setattr__(el, attr, value)
        return el


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
    """Rotated mirror [[cos 2t, sin 2t], [sin 2t, -cos 2t]] at angle ``theta``.

    This is both the detection-stage mixer and the Jones matrix of a
    half-wave plate.  An array of angles gives a stack, shape ``(..., 2, 2)``.
    """
    t = 2 * as_values(theta)
    c, s = np.cos(t), np.sin(t)
    return stack_last([c, s, s, -c]).reshape(c.shape + (2, 2))


def phase_shifter(mode: Label, phi, name: str | None = None) -> ElementUnitary:
    """Single-mode phase e^{i phi}; an array of phases gives a batched element."""
    m = np.exp(1j * as_values(phi))[..., None, None]
    return ElementUnitary(name or f"phase({mode})", (mode,), (mode,), m)


def output_mixer(mode_a: Label, mode_b: Label, beta) -> ElementUnitary:
    """Detection-stage mixer with coupling angle ``beta`` (a number or an array).

    ``beta = 0`` means the element is physically absent, so the identity is
    used (note: *not* the beta -> 0 limit of the coupled form, whose lower
    output picks up a sign).  For ``beta != 0`` the mixer is the rotated
    mirror form [[cos 2b, sin 2b], [sin 2b, -cos 2b]], which is balanced at
    ``beta = pi/8``.
    """
    m = mirror_matrix(beta)
    m[as_values(beta) == 0.0] = _IDENTITY2  # a 0-d mask selects the one matrix
    return ElementUnitary(f"mixer({mode_a},{mode_b})", (mode_a, mode_b), (mode_a, mode_b), m)


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Circuit:
    """Ordered sequence of elements between two labeled bases."""

    input_basis: ModeBasis
    output_basis: ModeBasis
    elements: tuple[ElementUnitary, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))

    def propagate(self, state: PureState) -> PureState:
        """Run ``state`` through every element in order.

        A batched state runs through batched elements setting by setting; the
        batch shapes must agree.
        """
        if state.basis.labels != self.input_basis.labels:
            raise ValueError("state basis does not match circuit input basis")
        return PureState(self.output_basis, self._run(state.amplitudes.copy()))

    def matrix(self) -> np.ndarray:
        """Full transfer matrix (output dim x input dim), columns = basis images.

        Defined for a circuit of unbatched elements only.
        """
        if any(el.matrix.ndim > 2 for el in self.elements):
            raise ValueError("matrix() needs a circuit of unbatched elements")
        return self._run(np.eye(self.input_basis.dimension, dtype=np.complex128)).T

    def _run(self, amps: np.ndarray) -> np.ndarray:
        """Apply the chain to ``amps``, whose last axis follows the input basis.

        ``amps`` is updated in place.  The elements' matrices were checked
        when the elements were built, so only the routing is checked here.
        """
        basis = self.input_basis
        for el in self.elements:
            amps, basis = _apply(amps, basis, el.matrix, el.modes_in, el.modes_out)
        if basis.labels != self.output_basis.labels:
            raise ValueError("circuit did not land in its declared output basis")
        return amps


@lru_cache(maxsize=8)
def _fixed_stages(
    pol_labels: tuple[str, str], path_labels: tuple[str, str, str, str]
) -> tuple:
    """Setting-independent parts of the network, built and validated once.

    Returns the two bases, the polarizing splitter and the three balanced
    splitters BS1, BS2, BS3.
    """
    p1, p2, p3, p4 = path_labels
    return (
        ModeBasis(pol_labels),
        ModeBasis(path_labels),
        polarizing_bs(pol_labels, path_labels),
        balanced_bs(p1, p3, name="BS1"),
        balanced_bs(p2, p4, name="BS2"),
        balanced_bs(p1, p3, name="BS3"),
    )


def interferometer_circuit(
    phi1: float,
    phi2: float,
    beta: float,
    pol_labels: tuple[str, str] = POLS,
    path_labels: tuple[str, str, str, str] = PATHS,
) -> Circuit:
    """The full polarization-to-four-paths network described in the module docstring.

    Args:
        phi1: phase in the recombined arm (path 3).
        phi2: phase in the open arm (path 4).
        beta: detection-stage mixer angle; 0 disables the mixers.
        pol_labels: labels of the two input polarization modes.
        path_labels: labels of the four output paths.

    ``phi1``, ``phi2`` and ``beta`` may be arrays of one shape, which gives a
    batched circuit with one setting per entry.  Both mixers share one
    checked matrix.
    """
    pol_basis, path_basis, pbs, bs1, bs2, bs3 = _fixed_stages(
        tuple(pol_labels), tuple(path_labels)
    )
    p1, p2, p3, p4 = path_labels
    mixer = output_mixer(p1, p2, beta)
    elements = (
        pbs,
        bs1,
        bs2,
        phase_shifter(p3, phi1, name="phase1"),
        phase_shifter(p4, phi2, name="phase2"),
        bs3,
        mixer,
        mixer.relabeled(f"mixer({p3},{p4})", (p3, p4)),
    )
    return Circuit(pol_basis, path_basis, elements)


def network_matrix(phi1, phi2, beta) -> np.ndarray:
    """Transfer matrix of :func:`interferometer_circuit` (paths x polarizations).

    Settings of broadcast shape ``S`` give a stack of shape ``S + (4, 2)``:
    both polarization basis vectors run through one batched circuit as a
    ``(2,) + S + (2,)`` block.
    """
    shape = np.broadcast(phi1, phi2, beta).shape
    block = np.empty((2,) + shape + (2,), dtype=np.complex128)
    block[...] = np.eye(2).reshape((2,) + (1,) * len(shape) + (2,))
    images = interferometer_circuit(phi1, phi2, beta)._run(block)
    return images.transpose(*range(1, images.ndim), 0)  # basis vectors last
