"""Physical realization of the network on polarization x spatial-mode rails.

The bench encodes the four conceptual paths in two degrees of freedom of a
single beam: polarization (V/H) and up to four parallel spatial modes
(slots 0..3) created by birefringent beam displacers.  Half-wave plates act
on the polarization rails of individual slots, liquid-crystal cells apply
the two arm phases, and the final plate pair at angle ``beta`` plays the
role of the detection-stage mixers.

Element chain (slot 0 is the input):

    BD1   walk V by +1 slot           (split the input polarizations)
    HWP1  45 deg   @ slot 0           (make both beams V... then H mixing)
    HWP2  22.5 deg @ slots 0, 1       (both inner splitters at once)
    LC1   phi1 on the V rail @ slot 1
    LC2   phi2 on the H rail @ slot 0
    HWP3  22.5 deg @ slot 1           (closing splitter of the upper pair)
    BD2   walk H by +2 slots
    HWP4  45 deg   @ slot 0
    HWP5  0 deg    @ slot 1
    HWP6  0 deg    @ slot 2
    HWP7  45 deg   @ slot 3
    BD3   walk H by +1 slot
    HWP8  beta     @ slots 1, 3       (detection mixers)

after which the four detectors sit behind a polarizing separation of
slots 1 and 3: detector 1 = (V, 1), 2 = (H, 1), 3 = (V, 3), 4 = (H, 3).
Output amplitudes may differ from the conceptual network by mode-local
signs (e.g. the 0-deg plates flip their H rail), so equivalence is asserted
on detection distributions, which is all the counting hardware can see.

As in :mod:`wptoolbox.optics`, the arm phases and ``beta`` may be arrays of
one shape: the LC cells and ``beta`` plates then hold one checked matrix per
setting and one layout propagates the whole batch, or gives its transfer
matrices.  Only :func:`describe` needs a layout of one setting.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache

import numpy as np

from .optics import (
    Chain,
    Circuit,
    ElementUnitary,
    _fixed_stages as _network_stages,
    _mixer_matrix,
    _propagated,
    _slot_matrices,
    compile_chain,
    mirror_matrix,
)
from .qcore import ModeBasis, as_values, broadcast_values
from .toolbox import _POL_BASIS, BETA_SPLIT, ToolboxPhases, _input_amplitudes, _one_setting

N_SLOTS = 4

#: default fixed plate angles HWP1..HWP7 (radians; 45, 22.5, 22.5, 45, 0, 0, 45 deg)
DEFAULT_HWP_ANGLES = (
    np.pi / 4, np.pi / 8, np.pi / 8, np.pi / 4, 0.0, 0.0, np.pi / 4
)

#: settings of the final plate validated against the conceptual network
VALIDATED_BETAS = (0.0, BETA_SPLIT)


def _mode(pol: str, slot: int) -> str:
    return f"{pol}{slot}"


RAIL_BASIS = ModeBasis(
    tuple(_mode(pol, slot) for pol in ("V", "H") for slot in range(N_SLOTS))
)

DETECTOR_PORTS = (_mode("V", 1), _mode("H", 1), _mode("V", 3), _mode("H", 3))
_INPUT_INDEX = np.array([RAIL_BASIS.index(_mode(pol, 0)) for pol in ("V", "H")])
_VALIDATED = np.array(VALIDATED_BETAS)


@lru_cache(maxsize=8)
def _port_index(ports: tuple[str, ...]) -> np.ndarray:
    """Read-only positions of the detector ``ports`` in ``RAIL_BASIS``."""
    index = np.array([RAIL_BASIS.index(m) for m in ports])
    index.flags.writeable = False
    return index


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def hwp_jones(theta, modes: tuple[str, str] = ("V", "H"), name: str = "HWP") -> ElementUnitary:
    """Half-wave plate at angle ``theta``: [[cos 2t, sin 2t], [sin 2t, -cos 2t]].

    ``theta = 0`` is diag(1, -1); 22.5 deg gives the balanced splitter;
    45 deg swaps the polarizations.  An array of angles gives a batched plate.
    """
    return ElementUnitary(name, tuple(modes), tuple(modes), mirror_matrix(as_values(theta)))


def beam_displacer(
    spatial_map: Mapping[str, str], name: str = "BD"
) -> ElementUnitary:
    """Permutation element walking one polarization across slots.

    ``spatial_map`` lists the moved modes as ``{source: target}``; unmapped
    modes stay put.  The mapped sources and targets must coincide as sets
    (light is routed, never created or destroyed), and the map must be
    injective.
    """
    sources = list(spatial_map.keys())
    targets = list(spatial_map.values())
    if len(set(targets)) != len(targets):
        raise ValueError(f"{name}: spatial map routes two modes to one target")
    if set(sources) != set(targets):
        raise ValueError(
            f"{name}: spatial map must permute a fixed set of modes"
            " (sources and targets differ)"
        )
    for label in sources:
        if label not in RAIL_BASIS:
            raise KeyError(f"{name}: unknown mode {label!r}")
    m = np.zeros((len(sources), len(sources)))
    for j, src in enumerate(sources):
        m[sources.index(spatial_map[src]), j] = 1.0
    return ElementUnitary(name, tuple(sources), tuple(sources), m)


def _rail_walk(pol: str, distance: int, name: str) -> ElementUnitary:
    """Cyclic walk of one polarization rail by ``distance`` slots.

    The cyclic closure only exists to keep the element unitary; the layout
    never puts light into a slot that would wrap.
    """
    mapping = {
        _mode(pol, s): _mode(pol, (s + distance) % N_SLOTS) for s in range(N_SLOTS)
    }
    return beam_displacer(mapping, name=name)


def _plate(k: int, theta, slot: int) -> ElementUnitary:
    return hwp_jones(theta, (_mode("V", slot), _mode("H", slot)), name=f"HWP{k}@{slot}")


@lru_cache(maxsize=8)
def _fixed_stages(hwp_angles: tuple[float, ...]) -> Chain:
    """The layout's chain, built, fused and validated once per angle set.

    The displacers and plates HWP1..HWP7 run before and after the phase
    cells; each run is fused into one 8x8 block.  The slots are LC1, LC2
    and the two ``beta`` plates.
    """
    a1, a2, a3, a4, a5, a6, a7 = hwp_angles
    items = (
        _rail_walk("V", +1, "BD1"),
        _plate(1, a1, 0),
        _plate(2, a2, 0),
        _plate(2, a2, 1),
        ("LC1", (_mode("V", 1),)),
        ("LC2", (_mode("H", 0),)),
        _plate(3, a3, 1),
        _rail_walk("H", +2, "BD2"),
        _plate(4, a4, 0),
        _plate(5, a5, 1),
        _plate(6, a6, 2),
        _plate(7, a7, 3),
        _rail_walk("H", +1, "BD3"),
        ("HWP8@1", (_mode("V", 1), _mode("H", 1))),
        ("HWP8@3", (_mode("V", 3), _mode("H", 3))),
    )
    return compile_chain(RAIL_BASIS, items)


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardwareLayout:
    """Ordered element chain over the polarization x slot basis."""

    circuit: Circuit
    detector_ports: tuple[str, str, str, str]
    hwp_angles: tuple  # HWP1..HWP7 plus beta (a number or the batch's array), radians
    lc_phases: tuple  # (phi1, phi2), numbers or the batch's arrays

    @property
    def beta(self):
        return self.hwp_angles[-1]

    def matrix(self) -> np.ndarray:
        return self.circuit.matrix()


def build_hardware_layout(
    phases: ToolboxPhases,
    beta,
    hwp_angles: Sequence[float] = DEFAULT_HWP_ANGLES,
) -> HardwareLayout:
    """Assemble the displacer/wave-plate chain for the given settings.

    ``phases.phi1``, ``phases.phi2`` and ``beta`` may be arrays of one
    broadcast shape, one setting per entry, checked as one stack.
    ``hwp_angles`` are the seven fixed plate angles in radians; overriding
    them builds a *different* instrument (useful for sensitivity studies),
    so only the defaults are expected to match the conceptual network.
    """
    angles = hwp_angles if hwp_angles is DEFAULT_HWP_ANGLES else tuple(map(float, hwp_angles))
    phi1, phi2, beta = broadcast_values(phases.phi1, phases.phi2, beta)
    _, slots = _slot_matrices("LC cells and beta plates", phi1, phi2, beta, mirror_matrix)
    if len(angles) != len(DEFAULT_HWP_ANGLES):
        raise ValueError(f"build_hardware_layout needs {len(DEFAULT_HWP_ANGLES)} hwp_angles,"
                         f" got {len(angles)}")
    circuit = _fixed_stages(angles).circuit(*slots)
    return HardwareLayout(circuit, DETECTOR_PORTS, (*angles, beta), (phi1, phi2))


def hardware_output(layout: HardwareLayout, alpha) -> np.ndarray:
    """Four detector probabilities for the input qubit at angle ``alpha``.

    ``alpha`` broadcasts against the layout's batch shape ``S``, giving
    ``S + (4,)``.  Raises if, on any row, light ends up outside the four
    detector ports, which would mean the chain misroutes it.
    """
    return _detector_probabilities(_input_amplitudes(alpha),
                                   layout.circuit._steps_from(RAIL_BASIS), layout.detector_ports)


def _detector_probabilities(pol_in: np.ndarray, steps, ports) -> np.ndarray:
    """:func:`hardware_output` for input amplitudes ``pol_in`` on a layout's routed
    ``steps``; an empty batch of them raises ``ValueError``."""
    if not pol_in.size:
        raise ValueError("the detector probabilities need at least one alpha, got none")
    amps = np.zeros(pol_in.shape[:-1] + (RAIL_BASIS.dimension,), dtype=np.complex128)
    amps[..., _INPUT_INDEX] = pol_in
    probs = np.abs(_propagated(amps, steps)) ** 2
    ports = probs[..., _port_index(ports)]
    leak = (probs.sum(axis=-1) - ports.sum(axis=-1)).max()
    if not leak <= 1e-12:  # written so that NaN fails too
        raise RuntimeError(f"{leak:.3e} of the light missed the detector ports")
    return ports


def describe(layout: HardwareLayout) -> str:
    """Listing of a one-setting layout: element order, plate angles (deg), phases (rad).

    A batched layout raises ``ValueError``.
    """
    _one_setting("describe", broadcast_values(layout.beta, *layout.lc_phases))
    lines = ["element chain:"]
    for el in layout.circuit.elements:
        lines.append(f"  {el.name}  on {', '.join(map(str, el.modes_in))}")
    angles = ", ".join(f"{np.degrees(a):g}" for a in layout.hwp_angles[:-1])
    lines.append(f"plate angles HWP1..HWP7 [deg]: {angles}")
    lines.append(f"mixing plate beta [deg]: {np.degrees(layout.beta):g}")
    lines.append(
        "arm phases (phi1, phi2) [rad]: "
        f"{layout.lc_phases[0]:.10g}, {layout.lc_phases[1]:.10g}"
    )
    lines.append(
        "detectors 1..4 <- ports " + ", ".join(layout.detector_ports)
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def equivalence_check(
    conceptual: Circuit,
    layout: HardwareLayout,
    alphas: Iterable[float],
    strict: bool = True,
) -> float:
    """Max distribution deviation between the two representations.

    Both circuits must be built for the same phases and ``beta``; the input
    qubit angles ``alphas`` broadcast against their batch shape and run
    through both in one batch.  With ``strict`` every beta of the layout
    must be one of the validated settings (0 or pi/8, to 1e-15).
    """
    # an array of alphas is taken as it is; any other iterable is listed first
    alphas = as_values(alphas if isinstance(alphas, np.ndarray) and alphas.ndim else list(alphas))
    return _deviation(conceptual._steps_from(_POL_BASIS), layout.circuit._steps_from(RAIL_BASIS),
                      layout.detector_ports, layout.beta, alphas, strict)


def _deviation(conceptual, hardware, ports, beta, alphas, strict: bool) -> float:
    """:func:`equivalence_check` on routed ``conceptual`` and ``hardware`` steps at ``beta``."""
    beta = np.ravel(beta)
    # an absolute tolerance only; NaN is not <= it, so it fails too
    bad = ~(np.abs(beta[:, None] - _VALIDATED) <= 1e-15).any(axis=-1)
    if strict and bad.any():
        raise ValueError(
            f"beta={beta[bad][0]:.6g} is not a validated setting; "
            "pass strict=False to compare anyway"
        )
    pol_in = _input_amplitudes(alphas)
    hw_dist = _detector_probabilities(pol_in, hardware, ports)  # refuses an empty batch first
    conceptual_dist = np.abs(_propagated(pol_in.copy(), conceptual)) ** 2
    return float(np.abs(conceptual_dist - hw_dist).max())


def equivalence_scan(
    points: Iterable[tuple[float, float, float]],
    betas: Iterable[float] = VALIDATED_BETAS,
    strict: bool = True,
) -> float:
    """Max deviation over (alpha, phi1, phi2) points at each ``beta``.

    The points x betas grid is one batch through both compiled chains' steps:
    the per-setting matrices are built and checked on every call, the fixed
    blocks once per compile, so the comparison covers construction as well as
    propagation.  No points, no betas, points not of shape ``(n, 3)`` or betas
    not of shape ``(n,)`` raise, naming the shape, or the count of ragged entries.
    """
    grid = _scan_values(points, "(alpha, phi1, phi2) points", "points")
    betas = _scan_values(betas, "betas of shape (n,)", "betas")
    if grid.size == 0 or betas.size == 0:
        raise ValueError(f"equivalence_scan needs at least one point and one beta,"
                         f" got {len(np.atleast_1d(grid))} points and {betas.size} betas")
    if grid.shape[1:] != (3,):
        raise ValueError(f"equivalence_scan needs (alpha, phi1, phi2) points,"
                         f" got shape {grid.shape}")
    if betas.ndim != 1:
        raise ValueError(f"equivalence_scan needs betas of shape (n,), got shape {betas.shape}")
    # row p * len(betas) + b holds point p at betas[b]
    alpha, phi1, phi2 = np.repeat(grid.T, betas.size, axis=-1)
    beta = np.tile(betas, len(grid))
    _, slots = _slot_matrices("arm phases and mixer", phi1, phi2, beta, _mixer_matrix)
    conceptual = _network_stages().steps_with(*slots)
    _, slots = _slot_matrices("LC cells and beta plates", phi1, phi2, beta, mirror_matrix)
    hardware = _fixed_stages(DEFAULT_HWP_ANGLES).steps_with(*slots)
    return _deviation(conceptual, hardware, DETECTOR_PORTS, beta, alpha, strict)


def _scan_values(values, needs: str, name: str) -> np.ndarray:
    """An argument of :func:`equivalence_scan` as float64 values: an iterable is listed
    first, a number taken as it is; ragged entries raise, naming what the scan ``needs``."""
    values = list(values) if np.iterable(values) else values
    try:
        return as_values(values)
    except ValueError as err:
        if "inhomogeneous" not in str(err):  # numpy's word for entries of unequal shapes
            raise
        raise ValueError(
            f"equivalence_scan needs {needs}, got {len(values)} ragged {name}") from None
