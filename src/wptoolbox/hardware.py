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
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache

import numpy as np

from .optics import Circuit, ElementUnitary, interferometer_circuit, mirror_matrix
from .qcore import ModeBasis, PureState
from .toolbox import BETA_SPLIT, ToolboxPhases, prepare_input

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


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def hwp_jones(
    theta: float, modes: tuple[str, str] = ("V", "H"), name: str = "HWP"
) -> ElementUnitary:
    """Half-wave plate at angle ``theta``: [[cos 2t, sin 2t], [sin 2t, -cos 2t]].

    ``theta = 0`` is diag(1, -1); 22.5 deg gives the balanced splitter;
    45 deg swaps the polarizations.
    """
    return ElementUnitary(name, tuple(modes), tuple(modes), mirror_matrix(float(theta)))


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


def _lc_phase(pol: str, slot: int, phi: float, name: str) -> ElementUnitary:
    m = np.array([[np.exp(1j * float(phi))]])
    return ElementUnitary(name, (_mode(pol, slot),), (_mode(pol, slot),), m)


def _plate(k: int, theta: float, slot: int) -> ElementUnitary:
    return hwp_jones(theta, (_mode("V", slot), _mode("H", slot)), name=f"HWP{k}@{slot}")


@lru_cache(maxsize=8)
def _fixed_stages(
    hwp_angles: tuple[float, ...],
) -> tuple[tuple[ElementUnitary, ...], tuple[ElementUnitary, ...]]:
    """Displacers and plates HWP1..HWP7, built and validated once per angle set.

    Returns the elements before the phase cells and those between the phase
    cells and the ``beta`` plates.
    """
    a1, a2, a3, a4, a5, a6, a7 = hwp_angles
    before_phases = (
        _rail_walk("V", +1, "BD1"),
        _plate(1, a1, 0),
        _plate(2, a2, 0),
        _plate(2, a2, 1),
    )
    after_phases = (
        _plate(3, a3, 1),
        _rail_walk("H", +2, "BD2"),
        _plate(4, a4, 0),
        _plate(5, a5, 1),
        _plate(6, a6, 2),
        _plate(7, a7, 3),
        _rail_walk("H", +1, "BD3"),
    )
    return before_phases, after_phases


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HardwareLayout:
    """Ordered element chain over the polarization x slot basis."""

    circuit: Circuit
    detector_ports: tuple[str, str, str, str]
    hwp_angles: tuple[float, ...]  # HWP1..HWP7 plus beta, radians
    lc_phases: tuple[float, float]

    @property
    def beta(self) -> float:
        return self.hwp_angles[-1]

    def matrix(self) -> np.ndarray:
        return self.circuit.matrix()


def build_hardware_layout(
    phases: ToolboxPhases,
    beta: float,
    hwp_angles: Sequence[float] = DEFAULT_HWP_ANGLES,
) -> HardwareLayout:
    """Assemble the displacer/wave-plate chain for the given settings.

    ``hwp_angles`` are the seven fixed plate angles in radians; overriding
    them builds a *different* instrument (useful for sensitivity studies),
    so only the defaults are expected to match the conceptual network.
    """
    angles = tuple(float(x) for x in hwp_angles)
    phi1, phi2 = float(phases.phi1), float(phases.phi2)
    before_phases, after_phases = _fixed_stages(angles)
    elements = (
        *before_phases,
        _lc_phase("V", 1, phi1, "LC1"),
        _lc_phase("H", 0, phi2, "LC2"),
        *after_phases,
        _plate(8, float(beta), 1),
        _plate(8, float(beta), 3),
    )
    circuit = Circuit(RAIL_BASIS, RAIL_BASIS, elements)
    return HardwareLayout(
        circuit=circuit,
        detector_ports=DETECTOR_PORTS,
        hwp_angles=(*angles, float(beta)),
        lc_phases=(phi1, phi2),
    )


def hardware_output(layout: HardwareLayout, alpha: float) -> np.ndarray:
    """Four detector probabilities for the input qubit at angle ``alpha``.

    Raises if any probability ends up outside the four detector ports,
    which would mean the chain misroutes light.
    """
    amps = np.zeros(RAIL_BASIS.dimension, dtype=np.complex128)
    pol_in = prepare_input(alpha)
    amps[RAIL_BASIS.index(_mode("V", 0))] = pol_in.amplitude("V")
    amps[RAIL_BASIS.index(_mode("H", 0))] = pol_in.amplitude("H")
    out = layout.circuit.propagate(PureState(RAIL_BASIS, amps))
    port_idx = [RAIL_BASIS.index(m) for m in layout.detector_ports]
    probs = out.probabilities()
    leak = probs.sum() - probs[port_idx].sum()
    if leak > 1e-12:
        raise RuntimeError(f"{leak:.3e} of the light missed the detector ports")
    return probs[port_idx]


def describe(layout: HardwareLayout) -> str:
    """Human-readable listing: element order, plate angles (deg), phases (rad)."""
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
    qubit angle runs over ``alphas``.  With ``strict`` the layout's beta
    must be one of the validated settings (0 or pi/8).
    """
    if strict and not any(
        np.isclose(layout.beta, b, atol=1e-15) for b in VALIDATED_BETAS
    ):
        raise ValueError(
            f"beta={layout.beta:.6g} is not a validated setting; "
            "pass strict=False to compare anyway"
        )
    worst = 0.0
    for alpha in alphas:
        conceptual_dist = conceptual.propagate(prepare_input(alpha)).probabilities()
        hw_dist = hardware_output(layout, alpha)
        worst = max(worst, float(np.max(np.abs(conceptual_dist - hw_dist))))
    return worst


def equivalence_scan(
    points: Iterable[tuple[float, float, float]],
    betas: Iterable[float] = VALIDATED_BETAS,
    strict: bool = True,
) -> float:
    """Max deviation over (alpha, phi1, phi2) points at each ``beta``.

    Builds the conceptual circuit and the hardware layout afresh for every
    phase setting, so the comparison covers construction as well as
    propagation.
    """
    betas = tuple(betas)
    worst = 0.0
    for alpha, phi1, phi2 in points:
        for beta in betas:
            conceptual = interferometer_circuit(phi1, phi2, beta)
            layout = build_hardware_layout(ToolboxPhases(phi1, phi2), beta)
            worst = max(
                worst, equivalence_check(conceptual, layout, (alpha,), strict=strict)
            )
    return worst
