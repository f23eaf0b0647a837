"""Tests for the displacer/wave-plate realization and its equivalence."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptoolbox import hardware, optics, qcore
from wptoolbox.hardware import (
    DEFAULT_HWP_ANGLES,
    DETECTOR_PORTS,
    VALIDATED_BETAS,
    HardwareLayout,
    beam_displacer,
    build_hardware_layout,
    describe,
    equivalence_check,
    equivalence_scan,
    hardware_output,
    hwp_jones,
    _fixed_stages,
)
from wptoolbox.optics import interferometer_circuit, network_matrix
from wptoolbox.toolbox import BETA_SPLIT, ToolboxPhases, detection_probabilities

RT2 = np.sqrt(2.0)


class TestWavePlate:
    def test_zero_angle_is_rail_signs(self):
        np.testing.assert_allclose(hwp_jones(0.0).matrix, [[1, 0], [0, -1]])

    def test_quarter_turn_swaps_rails(self):
        m = hwp_jones(np.pi / 4).matrix
        np.testing.assert_allclose(m, [[0, 1], [1, 0]], atol=1e-15)

    def test_eighth_turn_balances(self):
        m = hwp_jones(np.pi / 8).matrix
        np.testing.assert_allclose(m[:, 0], [1 / RT2, 1 / RT2], atol=1e-15)
        np.testing.assert_allclose(m[:, 1], [1 / RT2, -1 / RT2], atol=1e-15)

    def test_involutive(self):
        rng = np.random.default_rng(31)
        for theta in rng.uniform(0, np.pi, size=10):
            m = hwp_jones(theta).matrix
            np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-14)


class TestBeamDisplacer:
    def test_rejects_two_to_one(self):
        with pytest.raises(ValueError, match="two modes to one"):
            beam_displacer({"V0": "V1", "V2": "V1"})

    def test_rejects_open_ended_routing(self):
        with pytest.raises(ValueError, match="sources and targets"):
            beam_displacer({"V0": "V1"})

    def test_rejects_unknown_modes(self):
        with pytest.raises(KeyError, match="unknown mode"):
            beam_displacer({"V9": "V9"})

    def test_inverse_composes_to_identity(self):
        fwd = {"H0": "H2", "H2": "H0", "H1": "H3", "H3": "H1"}
        el = beam_displacer(fwd)
        np.testing.assert_allclose(el.matrix @ el.matrix, np.eye(4), atol=1e-15)

    def test_random_subset_permutations_unitary(self):
        rng = np.random.default_rng(32)
        modes = ["V0", "V1", "V2", "V3", "H0", "H1", "H2", "H3"]
        for _ in range(20):
            k = rng.integers(2, 9)
            subset = list(rng.choice(modes, size=k, replace=False))
            perm = list(rng.permutation(subset))
            el = beam_displacer(dict(zip(subset, perm)))
            np.testing.assert_allclose(
                el.matrix.conj().T @ el.matrix, np.eye(k), atol=1e-15
            )


class TestLayout:
    def test_default_plate_angles(self):
        layout = build_hardware_layout(ToolboxPhases(0.3, 0.8), BETA_SPLIT)
        np.testing.assert_allclose(
            np.degrees(layout.hwp_angles[:-1]), [45, 22.5, 22.5, 45, 0, 0, 45]
        )
        assert layout.beta == BETA_SPLIT
        assert layout.lc_phases == (0.3, 0.8)
        assert layout.detector_ports == DETECTOR_PORTS

    def test_composed_matrix_unitary(self):
        for beta in (0.0, BETA_SPLIT, 0.4):
            layout = build_hardware_layout(ToolboxPhases(1.0, 2.0), beta)
            m = layout.matrix()
            np.testing.assert_allclose(
                m.conj().T @ m, np.eye(8), atol=1e-12
            )

    def test_misrouted_light_is_caught(self):
        # a 0-deg plate where the last swap should be parks light outside
        # the detector ports
        angles = list(DEFAULT_HWP_ANGLES)
        angles[6] = 0.0  # HWP7
        layout = build_hardware_layout(ToolboxPhases(2.0, 0.0), 0.0, angles)
        with pytest.raises(RuntimeError, match="missed the detector ports"):
            hardware_output(layout, 0.0)

    def test_describe_lists_the_instrument(self):
        layout = build_hardware_layout(ToolboxPhases(0.5, 1.5), BETA_SPLIT)
        text = describe(layout)
        assert "BD1" in text and "BD3" in text
        assert "45, 22.5, 22.5, 45, 0, 0, 45" in text
        assert "22.5" in text.splitlines()[-4]  # beta in degrees
        assert "0.5, 1.5" in text
        assert "V1, H1, V3, H3" in text

    def test_describe_rejects_a_batched_layout(self):
        layout = build_hardware_layout(ToolboxPhases(np.array([0.1, 0.2]), 0.3), 0.0)
        with pytest.raises(ValueError, match="one setting, got a batch of shape \\(2,\\)"):
            describe(layout)

    @pytest.mark.parametrize("beta, phases", [
        (BETA_SPLIT, (0.5, 1.5)), ([0.0, BETA_SPLIT], (0.5, 1.5)),
        (BETA_SPLIT, (np.array([0.5, 0.6]), 1.5)),
    ], ids=["float", "list", "array_phase"])
    def test_describe_reads_a_hand_built_layout(self, beta, phases):
        # a layout built by hand may hold a Python float or a list as its beta,
        # and arm phases of a batch beside a beta of one setting
        built = build_hardware_layout(ToolboxPhases(0.5, 1.5), BETA_SPLIT)
        layout = HardwareLayout(built.circuit, built.detector_ports,
                                (*built.hwp_angles[:-1], beta), phases)
        if np.shape(beta) or np.shape(phases[0]):
            with pytest.raises(ValueError, match=r"^describe needs one setting, got a batch"
                                                 r" of shape \(2,\)$"):
                describe(layout)
        else:
            assert describe(layout) == describe(built)


class TestEquivalence:
    def test_wave_limit_point(self):
        # alpha = 0, phi1 = 0: everything exits on the first detector pair
        layout = build_hardware_layout(ToolboxPhases(0.0, 0.0), BETA_SPLIT)
        probs = hardware_output(layout, 0.0)
        np.testing.assert_allclose(probs, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_particle_limit_flat(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            phases = ToolboxPhases(*rng.uniform(0, 2 * np.pi, size=2))
            layout = build_hardware_layout(phases, BETA_SPLIT)
            np.testing.assert_allclose(
                hardware_output(layout, np.pi / 2), 0.25, atol=1e-12
            )

    def test_matches_closed_forms(self):
        phases = ToolboxPhases(1.1, 2.6)
        layout = build_hardware_layout(phases, BETA_SPLIT)
        for alpha in (0.0, 0.4, np.pi / 4, 1.2):
            expected = detection_probabilities(alpha, phases).as_array()
            np.testing.assert_allclose(
                hardware_output(layout, alpha), expected, atol=1e-12
            )

    def test_strict_rejects_unvalidated_beta(self):
        phases = ToolboxPhases(0.2, 0.9)
        layout = build_hardware_layout(phases, 0.3)
        conceptual = interferometer_circuit(0.2, 0.9, 0.3)
        with pytest.raises(ValueError, match="not a validated setting"):
            equivalence_check(conceptual, layout, [0.5])
        # the representations agree there anyway once forced
        dev = equivalence_check(conceptual, layout, [0.5], strict=False)
        assert dev < 1e-12

    def test_input_outside_range_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert equivalence_scan([(-0.1, 1.0, 2.0)]) < 1e-12
        assert [w.category for w in caught] == [UserWarning]
        assert "alpha=-0.1" in str(caught[0].message)

    def test_scan_random_grid(self):
        rng = np.random.default_rng(34)
        points = [
            (rng.uniform(0, np.pi / 2), *rng.uniform(0, 2 * np.pi, size=2))
            for _ in range(25)
        ]
        assert equivalence_scan(points) < 1e-12


class TestHardwareLayoutType:
    def test_is_frozen(self):
        layout = build_hardware_layout(ToolboxPhases(), 0.0)
        with pytest.raises(AttributeError):
            layout.lc_phases = (1.0, 1.0)
        assert isinstance(layout, HardwareLayout)


def random_batch(seed, n=20):
    """``n`` random settings, mixers alternating between pi/8 and 0."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0, np.pi / 2, n)
    phi1, phi2 = rng.uniform(0, 2 * np.pi, (2, n))
    beta = np.where(np.arange(n) % 2, 0.0, BETA_SPLIT)
    return alpha, phi1, phi2, beta


class TestBatchedRoute:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_row_equals_single_setting(self, data):
        n = data.draw(st.integers(1, 8), label="n")

        def column(strategy):
            return np.array(data.draw(st.lists(strategy, min_size=n, max_size=n)))
        alpha = column(st.floats(0.0, np.pi / 2))
        phi1, phi2 = column(st.floats(-7.0, 7.0)), column(st.floats(-7.0, 7.0))
        beta = column(st.sampled_from([0.0, BETA_SPLIT]) | st.floats(-1.0, 1.0))
        probs = hardware_output(build_hardware_layout(ToolboxPhases(phi1, phi2), beta), alpha)
        assert probs.shape == (n, 4)
        k = data.draw(st.integers(0, n - 1), label="k")
        layout = build_hardware_layout(ToolboxPhases(phi1[k], phi2[k]), beta[k])
        assert probs[k].tobytes() == hardware_output(layout, alpha[k]).tobytes()

    @pytest.mark.parametrize("alpha", [0.3, [0.3], [[0.3], [0.5]], [0.3, 0.4, 0.5]])
    def test_a_smaller_alpha_batch_broadcasts_to_the_layout(self, alpha):
        # the layout's batch is (2, 3): alpha's rows are broadcast against it
        rng = np.random.default_rng(46)
        phi1, phi2 = rng.uniform(0, 2 * np.pi, (2, 2, 3))
        beta = np.array([0.0, BETA_SPLIT, 0.0])
        layout = build_hardware_layout(ToolboxPhases(phi1, phi2), beta)
        conceptual = interferometer_circuit(phi1, phi2, beta)
        full = np.broadcast_to(np.asarray(alpha), (2, 3))
        probs = hardware_output(layout, alpha)
        assert probs.shape == (2, 3, 4)
        assert probs.tobytes() == hardware_output(layout, full).tobytes()
        alphas = [alpha] if np.isscalar(alpha) else alpha  # an iterable, as listed
        assert equivalence_check(conceptual, layout, alphas) == equivalence_check(
            conceptual, layout, full)

    def test_scan_is_max_of_one_point_scans(self):
        alpha, phi1, phi2, _ = random_batch(41)
        points = list(zip(alpha, phi1, phi2))
        betas = (0.0, BETA_SPLIT, 0.3)
        one_by_one = max(equivalence_scan([pt], betas, strict=False) for pt in points)
        assert equivalence_scan(points, betas, strict=False) == one_by_one

    @pytest.mark.parametrize("plate", [1, 2, 3])
    def test_perturbed_plate_is_caught(self, plate):
        alpha, phi1, phi2, beta = random_batch(42)
        conceptual = interferometer_circuit(phi1, phi2, beta)
        angles = list(DEFAULT_HWP_ANGLES)
        angles[plate - 1] += 1e-3
        layout = build_hardware_layout(ToolboxPhases(phi1, phi2), beta, angles)
        assert equivalence_check(conceptual, layout, alpha, strict=False) > 1e-6

    @pytest.mark.parametrize("plate", [2, 3])
    def test_perturbed_plate_changes_its_fused_block(self, plate):
        alpha, phi1, phi2, beta = random_batch(45)
        angles = list(DEFAULT_HWP_ANGLES)
        angles[plate - 1] += 1e-3
        default, perturbed = _fixed_stages(DEFAULT_HWP_ANGLES), _fixed_stages(tuple(angles))
        # HWP2 sits in the run before the phase cells (step 0), HWP3 after them (step 3)
        fused = [k for k, step in enumerate(default.steps) if step.replaces]
        assert fused == [0, 3]
        changed, kept = (0, 3) if plate == 2 else (3, 0)
        assert np.abs(default.steps[changed].matrix - perturbed.steps[changed].matrix).max() > 1e-4
        np.testing.assert_array_equal(default.steps[kept].matrix, perturbed.steps[kept].matrix)
        layout = build_hardware_layout(ToolboxPhases(phi1, phi2), beta, angles)
        assert layout.circuit._steps[changed].matrix is perturbed.steps[changed].matrix
        conceptual = interferometer_circuit(phi1, phi2, beta)
        assert equivalence_check(conceptual, layout, alpha, strict=False) > 1e-6

    def test_fused_blocks_are_shared_across_calls(self):
        a = build_hardware_layout(ToolboxPhases(0.1, 0.2), BETA_SPLIT)
        b = build_hardware_layout(ToolboxPhases(np.array([1.0, 2.0]), 0.5), 0.0)
        blocks = [s.matrix for s in _fixed_stages(DEFAULT_HWP_ANGLES).steps if s.replaces]
        assert [m.shape for m in blocks] == [(8, 8), (8, 8)]
        for layout in (a, b):
            assert len(layout.circuit.elements) == 15 and len(layout.circuit._steps) == 6
            fused = [s.matrix for s in layout.circuit._steps if s.replaces]
            assert len(fused) == 2 and all(x is y for x, y in zip(fused, blocks))

    @pytest.mark.parametrize("plate", [4, 5, 6, 7])
    def test_perturbed_routing_plate_leaks(self, plate):
        alpha, phi1, phi2, beta = random_batch(43)
        angles = list(DEFAULT_HWP_ANGLES)
        angles[plate - 1] += 1e-3
        layout = build_hardware_layout(ToolboxPhases(phi1, phi2), beta, angles)
        with pytest.raises(RuntimeError, match="missed the detector ports"):
            hardware_output(layout, alpha)

    def test_batched_misrouting_is_caught(self):
        alpha, phi1, phi2, beta = random_batch(44)
        angles = list(DEFAULT_HWP_ANGLES)
        angles[6] = 0.0  # HWP7
        layout = build_hardware_layout(ToolboxPhases(phi1, phi2), beta, angles)
        with pytest.raises(RuntimeError, match="missed the detector ports"):
            hardware_output(layout, alpha)


@pytest.mark.parametrize("entry", [
    lambda none: network_matrix(none, 0.3, BETA_SPLIT),
    lambda none: interferometer_circuit(0.2, none, BETA_SPLIT),
    lambda none: build_hardware_layout(ToolboxPhases(0.2, 0.9), none),
    lambda none: hardware_output(build_hardware_layout(ToolboxPhases(0.2, 0.9), 0.0), none),
], ids=["network_matrix", "interferometer_circuit", "build_hardware_layout", "hardware_output"])
def test_an_empty_batch_raises_a_clear_error(entry):
    with pytest.raises(ValueError, match="need at least one (setting, got an empty batch|alpha)"):
        entry(np.zeros(0))


class TestScanInputs:
    POINTS = [(0.4, 1.0, 2.0), (1.1, 0.3, 5.0)]

    def test_empty_points_raise(self):
        with pytest.raises(ValueError, match="at least one point .* got 0 points"):
            equivalence_scan([])

    def test_empty_betas_raise(self):
        with pytest.raises(ValueError, match="and one beta, got 2 points and 0 betas"):
            equivalence_scan(self.POINTS, betas=())

    def test_empty_alphas_raise(self):
        layout = build_hardware_layout(ToolboxPhases(0.2, 0.9), BETA_SPLIT)
        conceptual = interferometer_circuit(0.2, 0.9, BETA_SPLIT)
        with pytest.raises(ValueError, match="at least one alpha"):
            equivalence_check(conceptual, layout, [])

    @pytest.mark.parametrize("beta", [BETA_SPLIT - 1e-9, BETA_SPLIT + 1e-9,
                                      BETA_SPLIT + 3e-6, 1e-9])
    def test_strict_tolerance_is_absolute(self, beta):
        with pytest.raises(ValueError, match="not a validated setting"):
            equivalence_scan(self.POINTS, betas=(beta,))

    def test_strict_guard_checks_every_beta(self):
        with pytest.raises(ValueError, match="beta=0.3 is not a validated setting"):
            equivalence_scan(self.POINTS, betas=(0.0, BETA_SPLIT, 0.3))

    @pytest.mark.parametrize("beta", [0.0, BETA_SPLIT, np.radians(22.5)])
    def test_validated_betas_pass(self, beta):
        assert equivalence_scan(self.POINTS, betas=(beta,)) < 1e-12

    @pytest.mark.parametrize("points, shape", [
        ([(0.1, 0.2)], (1, 2)),
        ([0.1, 0.2, 0.3], (3,)),
        ([(0.1, 0.2, 0.3, 0.4)], (1, 4)),
        (np.zeros((2, 3, 1)), (2, 3, 1)),
    ])
    def test_malformed_grid_is_named(self, points, shape):
        named = re.escape(f"equivalence_scan needs (alpha, phi1, phi2) points, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{named}$"):
            equivalence_scan(points)

    @pytest.mark.parametrize("betas, shape", [
        (0.0, ()),
        ([[0.0, BETA_SPLIT]], (1, 2)),
        ([[0.0], [BETA_SPLIT]], (2, 1)),
        (np.zeros((1, 1, 2)), (1, 1, 2)),
    ])
    def test_malformed_betas_are_named(self, betas, shape):
        named = re.escape(f"equivalence_scan needs betas of shape (n,), got shape {shape}")
        with pytest.raises(ValueError, match=f"^{named}$"):
            equivalence_scan(self.POINTS, betas)

    @pytest.mark.parametrize("points, betas, message", [
        ([(0.3, 0.1, 0.2), (0.5, 1.0)], (0.0,), "(alpha, phi1, phi2) points, got 2 ragged points"),
        ([(0.3, 0.1, 0.2), (0.5, 1.0, (2.0, 3.0))], (0.0,),
         "(alpha, phi1, phi2) points, got 2 ragged points"),
        (POINTS, [[0.0], [0.1, 0.2], []], "betas of shape (n,), got 3 ragged betas"),
    ])
    def test_ragged_inputs_are_named(self, points, betas, message):
        with pytest.raises(ValueError, match=f"^{re.escape('equivalence_scan needs ' + message)}$"):
            equivalence_scan(points, betas)

    @pytest.mark.parametrize("count", [0, 6, 8])
    def test_hwp_angle_count_is_named(self, count):
        message = f"^build_hardware_layout needs 7 hwp_angles, got {count}$"
        with pytest.raises(ValueError, match=message):
            build_hardware_layout(ToolboxPhases(0.2, 0.9), BETA_SPLIT, hwp_angles=[0.1] * count)

    # each input, alone and together with a later fault, raises the first check's message:
    # the empty grid, the network's slot stack, the strict beta refusal, then alpha
    @pytest.mark.parametrize("points, betas, message", [
        ([(0.3, np.nan, 0.2)], (0.0,), r"^arm phases and mixer: .* phi1=nan at row 0$"),
        ([(0.3, 0.1, 0.2)], (np.nan,), r"^arm phases and mixer: .* beta=nan at row 0$"),
        ([(np.nan, 0.1, 0.2)], (0.0,), r"^alpha must be finite$"),
        ([], (0.0,), r"^equivalence_scan needs at least one point .* got 0 points and 1 betas$"),
        (POINTS, (), r"^equivalence_scan needs at least one point .* got 2 points and 0 betas$"),
        (POINTS, (0.3,), r"^beta=0.3 is not a validated setting; pass strict=False"),
        ([], (np.nan,), r"^equivalence_scan needs at least one point"),
        ([(0.3, np.nan, 0.2)], (0.3,), r"^arm phases and mixer: .* phi1=nan at row 0$"),
        ([(np.nan, np.nan, 0.2)], (0.0,), r"^arm phases and mixer: .* phi1=nan at row 0$"),
        ([(np.nan, 0.1, 0.2)], (0.3,), r"^beta=0.3 is not a validated setting"),
    ], ids=["nan-phase", "nan-beta", "nan-alpha", "no-points", "no-betas", "unvalidated",
            "no-points-nan-beta", "nan-phase-unvalidated", "nan-phase-nan-alpha",
            "nan-alpha-unvalidated"])
    def test_refusals_keep_their_messages_and_order(self, points, betas, message):
        with pytest.raises(ValueError, match=message):
            equivalence_scan(points, betas)


class TestScanRoute:
    """A scan runs both compiled chains' steps: no circuit, layout or state is built."""

    @staticmethod
    def grid(seed, n):
        rng = np.random.default_rng(seed)
        return np.column_stack([rng.uniform(0, np.pi / 2, n), rng.uniform(-7, 7, (n, 2))])

    def test_builds_no_circuit_layout_or_state(self, monkeypatch):
        points = self.grid(51, 6)
        equivalence_scan(points)  # the fixed stages are compiled before anything is patched

        def refuse(*args, **kwargs):
            raise AssertionError("a scan built an object it throws away")
        monkeypatch.setattr(optics.Chain, "circuit", refuse)
        monkeypatch.setattr(hardware, "HardwareLayout", refuse)
        monkeypatch.setattr(qcore.PureState, "__post_init__", refuse)
        monkeypatch.setattr(optics.Circuit, "propagate", refuse)
        assert equivalence_scan(points) < 1e-12
        assert equivalence_scan(points, (0.3, -0.0), strict=False) < 1e-12

    @pytest.mark.parametrize("n, betas, strict", [
        (1, VALIDATED_BETAS, True), (7, VALIDATED_BETAS, True), (12, (BETA_SPLIT,), True),
        (9, (0.0, 0.3, BETA_SPLIT, -0.4), False),
    ])
    def test_equals_the_check_on_built_objects_bit_for_bit(self, n, betas, strict):
        points = self.grid(n, n)
        # row p * len(betas) + b holds point p at betas[b], as in the scan
        alpha, phi1, phi2 = np.repeat(points.T, len(betas), axis=-1)
        beta = np.tile(betas, n)
        built = equivalence_check(interferometer_circuit(phi1, phi2, beta),
                                  build_hardware_layout(ToolboxPhases(phi1, phi2), beta),
                                  alpha, strict=strict)
        scanned = equivalence_scan(points, betas, strict=strict)
        assert np.float64(scanned).tobytes() == np.float64(built).tobytes()

    def test_built_circuits_must_start_on_their_inputs(self):
        # the built-object entries run the circuits' steps, after the same basis check
        conceptual = interferometer_circuit(0.2, 0.9, BETA_SPLIT)
        layout = build_hardware_layout(ToolboxPhases(0.2, 0.9), BETA_SPLIT)
        swapped = HardwareLayout(conceptual, DETECTOR_PORTS, layout.hwp_angles, layout.lc_phases)
        with pytest.raises(ValueError, match="^state basis does not match circuit input basis$"):
            hardware_output(swapped, 0.3)
        with pytest.raises(ValueError, match="^state basis does not match circuit input basis$"):
            equivalence_check(layout.circuit, layout, [0.3])


#: (name, modes) of every listed element, in order; every element acts in
#: place except the polarizing splitter
NETWORK_ELEMENTS = [
    ("PBS", ("V", "H"), ("1", "2", "3", "4")),
    ("BS1", ("1", "3"), None), ("BS2", ("2", "4"), None),
    ("phase1", ("3",), None), ("phase2", ("4",), None),
    ("BS3", ("1", "3"), None),
    ("mixer(1,2)", ("1", "2"), None), ("mixer(3,4)", ("3", "4"), None),
]
HARDWARE_ELEMENTS = [
    ("BD1", ("V0", "V1", "V2", "V3")),
    ("HWP1@0", ("V0", "H0")), ("HWP2@0", ("V0", "H0")), ("HWP2@1", ("V1", "H1")),
    ("LC1", ("V1",)), ("LC2", ("H0",)),
    ("HWP3@1", ("V1", "H1")),
    ("BD2", ("H0", "H1", "H2", "H3")),
    ("HWP4@0", ("V0", "H0")), ("HWP5@1", ("V1", "H1")),
    ("HWP6@2", ("V2", "H2")), ("HWP7@3", ("V3", "H3")),
    ("BD3", ("H0", "H1", "H2", "H3")),
    ("HWP8@1", ("V1", "H1")), ("HWP8@3", ("V3", "H3")),
]
DEFAULT_DESCRIPTION = """\
element chain:
  BD1  on V0, V1, V2, V3
  HWP1@0  on V0, H0
  HWP2@0  on V0, H0
  HWP2@1  on V1, H1
  LC1  on V1
  LC2  on H0
  HWP3@1  on V1, H1
  BD2  on H0, H1, H2, H3
  HWP4@0  on V0, H0
  HWP5@1  on V1, H1
  HWP6@2  on V2, H2
  HWP7@3  on V3, H3
  BD3  on H0, H1, H2, H3
  HWP8@1  on V1, H1
  HWP8@3  on V3, H3
plate angles HWP1..HWP7 [deg]: 45, 22.5, 22.5, 45, 0, 0, 45
mixing plate beta [deg]: 22.5
arm phases (phi1, phi2) [rad]: 0.5, 1.5
detectors 1..4 <- ports V1, H1, V3, H3"""


class TestElementSnapshot:
    """Both chains list every element, by name, modes and order, one setting or a batch."""

    @pytest.mark.parametrize("phi1", [0.1, np.array([0.1, 0.4])])
    def test_network_elements(self, phi1):
        listed = [(el.name, el.modes_in, el.modes_out)
                  for el in interferometer_circuit(phi1, 0.2, BETA_SPLIT).elements]
        assert listed == [(name, modes, out or modes) for name, modes, out in NETWORK_ELEMENTS]

    @pytest.mark.parametrize("phi1", [0.5, np.array([0.5, 0.9])])
    def test_hardware_elements(self, phi1):
        layout = build_hardware_layout(ToolboxPhases(phi1, 1.5), BETA_SPLIT)
        listed = [(el.name, el.modes_in, el.modes_out) for el in layout.circuit.elements]
        assert listed == [(name, modes, modes) for name, modes in HARDWARE_ELEMENTS]

    def test_default_description(self):
        layout = build_hardware_layout(ToolboxPhases(0.5, 1.5), BETA_SPLIT)
        assert describe(layout) == DEFAULT_DESCRIPTION
