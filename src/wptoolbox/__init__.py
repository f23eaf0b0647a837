"""Polarization-encoded wave/particle interferometry toolbox.

A small simulator for a four-path interferometer in which a photon's
"wave" and "particle" behaviours are placed in superposition, together
with its two-photon (entangled) and n-photon extensions, an equivalent
birefringent hardware layout, Monte Carlo counting statistics, and a
CSV/JSON command-line front end.
"""

from types import ModuleType as _ModuleType

from .entangle import (
    CoincidenceTable, PairBatch, TwoPhotonSettings, coincidence_closed_forms,
    coincidence_probabilities, concurrence, entanglement_witness, ghz_output,
    ghz_sector_probabilities, mixture_coincidence_probabilities, mixture_two_photon_output,
    sector_projection, two_photon_batch, two_photon_output, vh_variant_output,
    wootters_concurrence,
)
from .hardware import (
    DEFAULT_HWP_ANGLES, VALIDATED_BETAS, HardwareLayout, beam_displacer, build_hardware_layout,
    describe, equivalence_check, equivalence_scan, hardware_output, hwp_jones,
)
from .optics import (
    PATHS, POLS, Circuit, ElementUnitary, balanced_bs, interferometer_circuit, network_matrix,
    output_mixer, phase_shifter, polarizing_bs,
)
from .qcore import (
    DensityMatrix, ModeBasis, PureState, apply_unitary, measure_distribution, mix,
    partial_trace, product_basis, pure_density,
)
from .shots import (
    CountTable, NoiseModel, WitnessEstimate, count_errors, estimate_probabilities,
    estimate_witness, noisy_coincidence_probabilities, noisy_single_probabilities,
    poisson_error, sample_counts, sample_rows, witness_rows,
)
from .toolbox import (
    BETA_DIRECT, BETA_SPLIT, SingleBatch, SingleProbabilities, ToolboxPhases, coherence,
    coherence_witness, detection_closed_forms, detection_probabilities, mixed_output,
    output_state, particle_state, prepare_input, single_photon_batch, wave_state,
)

__version__ = "0.1.0"

#: every name imported above, each written once: the submodules are not public names
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
