"""Tests for single-photon statistics and coherence measures."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wptoolbox
import wptoolbox.toolbox as toolbox
from wptoolbox.entangle import (
    TwoPhotonSettings,
    coincidence_closed_forms,
    coincidence_probabilities,
    concurrence,
    ghz_output,
    ghz_sector_probabilities,
    mixture_coincidence_probabilities,
    sector_projection,
    two_photon_batch,
    two_photon_output,
    vh_variant_output,
)
from wptoolbox.hardware import (
    build_hardware_layout,
    describe,
    equivalence_check,
    hardware_output,
)
from wptoolbox.optics import interferometer_circuit, network_matrix
from wptoolbox.qcore import ModeBasis, PureState, measure_distribution
from wptoolbox.shots import (
    NoiseModel,
    noisy_coincidence_probabilities,
    noisy_single_probabilities,
)
from wptoolbox.toolbox import (
    BETA_DIRECT,
    BETA_SPLIT,
    SingleProbabilities,
    ToolboxPhases,
    coherence,
    coherence_witness,
    detection_closed_forms,
    detection_probabilities,
    mixed_output,
    output_state,
    particle_state,
    prepare_input,
    single_photon_batch,
    wave_state,
)


class TestPrepareInput:
    def test_amplitudes(self):
        psi = prepare_input(0.3)
        assert psi.amplitude("V") == pytest.approx(np.cos(0.3))
        assert psi.amplitude("H") == pytest.approx(np.sin(0.3))

    def test_warns_outside_quadrant(self):
        with pytest.warns(UserWarning, match="outside"):
            prepare_input(-0.2)
        with pytest.warns(UserWarning, match="outside"):
            prepare_input(2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            prepare_input(np.inf)

    @pytest.mark.parametrize("call", [
        lambda: prepare_input(2.0),
        lambda: detection_probabilities(2.0),
        lambda: single_photon_batch(2.0, 0.1, 0.2),
        lambda: coincidence_probabilities(TwoPhotonSettings(2.0)),
        lambda: two_photon_batch(2.0, 0.1, 0.2, 0.3, 0.4),
        lambda: concurrence(TwoPhotonSettings(2.0)),
        lambda: ghz_output(3, 2.0),
        lambda: hardware_output(build_hardware_layout(ToolboxPhases(), BETA_SPLIT), 2.0),
    ], ids=["prepare_input", "detection_probabilities", "single_photon_batch",
            "coincidence_probabilities", "two_photon_batch", "concurrence", "ghz_output",
            "hardware_output"])
    def test_warning_points_at_the_caller(self, call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [w.category for w in caught] == [UserWarning]
        assert caught[0].filename == __file__


class TestComponentStates:
    def test_orthogonal_for_any_phases(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            phi1, phi2 = rng.uniform(0, 2 * np.pi, size=2)
            beta = rng.choice([0.0, BETA_SPLIT, 0.37])
            w = wave_state(phi1, beta)
            p = particle_state(phi2, beta)
            assert abs(np.vdot(w.amplitudes, p.amplitudes)) < 1e-14
            assert w.norm() == pytest.approx(1.0)
            assert p.norm() == pytest.approx(1.0)

    def test_match_propagated_pure_inputs(self):
        # wave = network output for alpha = 0, particle = output for alpha = pi/2
        rng = np.random.default_rng(6)
        for _ in range(25):
            phi1, phi2 = rng.uniform(0, 2 * np.pi, size=2)
            beta = rng.choice([0.0, BETA_SPLIT, 0.61])
            circ = interferometer_circuit(phi1, phi2, beta)
            w_prop = circ.propagate(prepare_input(0.0))
            p_prop = circ.propagate(prepare_input(np.pi / 2))
            np.testing.assert_allclose(
                wave_state(phi1, beta).amplitudes, w_prop.amplitudes, atol=1e-13
            )
            np.testing.assert_allclose(
                particle_state(phi2, beta).amplitudes, p_prop.amplitudes, atol=1e-13
            )

    def test_output_state_is_their_superposition(self):
        alpha = 0.6
        phases = ToolboxPhases(1.2, 0.4)
        out = output_state(alpha, phases)
        combo = np.cos(alpha) * wave_state(phases.phi1).amplitudes + np.sin(
            alpha
        ) * particle_state(phases.phi2).amplitudes
        np.testing.assert_allclose(out.amplitudes, combo, atol=1e-15)


#: each caller of the per-photon check, by the name its failure gives
PHOTON_CALLERS = {
    "wave state": lambda: wave_state(0.7, 0.3),
    "particle state": lambda: particle_state(np.array([0.7, 1.1]), 0.3),
    "output": lambda: output_state(0.6, ToolboxPhases(0.3, 1.2), 0.3),
    "photon history": lambda: ghz_sector_probabilities(3, 0.6, ToolboxPhases(0.3, 1.2)),
}


class TestHistoryStates:
    """The wave and particle states are each photon's closed histories, checked on every call."""

    @pytest.mark.parametrize("state, index", [(wave_state, 0), (particle_state, 1)])
    def test_states_never_run_the_engine(self, monkeypatch, state, index):
        def engine(*args):
            raise AssertionError("the engine ran")

        phi, beta = np.array([0.0, -0.0, 0.7, 2.9]), np.array([0.0, -0.0, BETA_SPLIT, 0.3])
        zero = np.zeros_like(phi)  # the arm phase the history never reaches
        phi1, phi2 = (phi, zero) if index == 0 else (zero, phi)
        closed = toolbox._photon_routes(phi1, phi2, beta, {"phi": phi}, "history")[0]
        monkeypatch.setattr(toolbox, "_history_batch", engine)
        assert state(phi, beta).amplitudes.tobytes() == closed[:, index].tobytes()
        for k in range(len(phi)):
            assert state(phi[k], beta[k]).amplitudes.tobytes() == closed[k, index].tobytes()

    @pytest.mark.parametrize("entry", range(8))
    @pytest.mark.parametrize("what", PHOTON_CALLERS)
    def test_a_perturbed_network_entry_raises_for_each_caller(self, monkeypatch, what, entry):
        exact = toolbox._network_matrix

        def perturbed(*values):
            mats = exact(*values).copy()
            mats[..., entry // 2, entry % 2] += 1e-9
            return mats

        monkeypatch.setattr(toolbox, "_network_matrix", perturbed)
        with pytest.raises(RuntimeError, match=rf"^closed-form {what} disagrees with"
                                               r" propagation by 1\.0\d\de-09 at row 0 "):
            PHOTON_CALLERS[what]()

    @pytest.mark.parametrize("state, what", [(wave_state, "wave state"),
                                             (particle_state, "particle state"),
                                             (output_state, "output")])
    def test_an_empty_batch_raises_the_engine_message(self, state, what):
        message = f"evaluating the {what} needs at least one setting, got an empty batch"
        with pytest.raises(ValueError, match=f"^{message}$"):
            state(np.zeros((3, 0)))

    def test_states_are_the_unscaled_histories_bit_for_bit(self):
        rng = np.random.default_rng(8)
        phi = np.concatenate([[0.0, -0.0, np.pi, 2 * np.pi], rng.uniform(-7, 7, 60)])
        beta = np.resize([0.0, -0.0, BETA_SPLIT, 0.3, np.pi / 4], phi.size)
        beta[-20:] = rng.uniform(0, np.pi / 4, 20)
        factors = toolbox._photon_factors(phi, beta)
        wave = toolbox._wave_amplitudes(phi, beta, factors)
        particle = toolbox._particle_amplitudes(phi, beta, toolbox._photon_factors(0 * phi, beta))
        assert wave_state(phi, beta).amplitudes.tobytes() == wave.tobytes()
        assert particle_state(phi, beta).amplitudes.tobytes() == particle.tobytes()
        for i in (0, 1, 7, 50):  # a single setting is its row
            assert wave_state(phi[i], beta[i]).amplitudes.tobytes() == wave[i].tobytes()
            assert particle_state(phi[i], beta[i]).amplitudes.tobytes() == particle[i].tobytes()

    @pytest.mark.parametrize("state", [wave_state, particle_state])
    def test_settings_broadcast(self, state):
        batch = state(np.array([0.1, 0.2]), 0.3)
        assert batch.amplitudes.shape == (2, 4)
        for row, phi in zip(batch.amplitudes, (0.1, 0.2)):
            assert row.tobytes() == state(phi, 0.3).amplitudes.tobytes()

    @pytest.mark.parametrize("state, helper, names", [
        (wave_state, "_wave_amplitudes", "phi1=0.7, phi2=0.0, beta=0.3"),
        (particle_state, "_particle_amplitudes", "phi1=0.0, phi2=0.7, beta=0.3"),
    ])
    def test_perturbed_history_raises_naming_the_setting(self, monkeypatch, state, helper,
                                                         names):
        exact = getattr(toolbox, helper)
        monkeypatch.setattr(toolbox, helper, lambda *args: np.multiply(exact(*args), 1 + 1e-10))
        what = state.__name__.replace("_", " ")
        with pytest.raises(RuntimeError, match=rf"^closed-form {what} disagrees with"
                                               rf" propagation by .* at row 0 \({names}\)$"):
            state(0.7, 0.3)

    @pytest.mark.parametrize("state", [wave_state, particle_state])
    def test_empty_batch_rejected(self, state):
        with pytest.raises(ValueError, match="needs at least one setting, got an empty batch"):
            state(np.array([]))

    @pytest.mark.parametrize("state, name", [(wave_state, "phi1"), (particle_state, "phi2")])
    def test_non_finite_setting_is_named(self, state, name):
        with pytest.raises(ValueError, match=rf"; {name}=nan at row 0$"):
            state(np.nan)


ROWS = np.linspace(0.1, 1.4, 5)
#: every public entry that returns a state, on a batch of 5 settings
STATE_ENTRIES = {
    "prepare_input": lambda: prepare_input(ROWS),
    "Circuit.propagate":
        lambda: interferometer_circuit(0.7, ROWS, 0.3).propagate(prepare_input(ROWS)),
    "wave_state": lambda: wave_state(ROWS, 0.3),
    "particle_state": lambda: particle_state(ROWS, 0.3),
    "output_state": lambda: output_state(ROWS, ToolboxPhases(0.7, ROWS), 0.3),
    "two_photon_output": lambda: two_photon_output(TwoPhotonSettings(ROWS)),
    "vh_variant_output": lambda: vh_variant_output(TwoPhotonSettings(0.4, ToolboxPhases(ROWS))),
    **{f"ghz_output_{n}": lambda n=n: ghz_output(n, ROWS, ToolboxPhases(0.7, 1.9), 0.3)
       for n in range(1, 9)},
}


class TestStateViews:
    @pytest.mark.parametrize("entry", STATE_ENTRIES)
    def test_a_batch_gives_c_ordered_read_only_amplitudes(self, entry):
        amps = STATE_ENTRIES[entry]().amplitudes
        assert amps.shape[0] == 5
        assert amps.flags.c_contiguous and not amps.flags.writeable

    def test_the_basis_follows_the_photon_count(self):
        assert output_state(0.4).basis == wave_state(0.4).basis == toolbox._n_photon_basis(1)
        pair = TwoPhotonSettings()
        assert two_photon_output(pair).basis == toolbox._n_photon_basis(2)
        assert vh_variant_output(pair).basis == toolbox._n_photon_basis(2)
        assert mixed_output(0.4).basis == toolbox._n_photon_basis(1)
        assert ghz_output(3, 0.4).basis == toolbox._n_photon_basis(3)


class TestDetectionProbabilities:
    def test_frozen_values_balanced(self):
        p = detection_probabilities(np.pi / 4, ToolboxPhases(0.0, 0.0))
        assert p.p1 == pytest.approx(0.72855339059327373, abs=1e-15)
        assert p.p2 == pytest.approx(0.021446609406726238, abs=1e-15)
        assert p.p3 == pytest.approx(0.125, abs=1e-15)
        assert p.p4 == pytest.approx(0.125, abs=1e-15)

    def test_frozen_values_quarter_phase(self):
        p = detection_probabilities(np.pi / 4, ToolboxPhases(np.pi / 2, 0.0))
        assert p.p1 == pytest.approx(0.42677669529663687, abs=1e-15)
        assert p.p3 == pytest.approx(0.42677669529663687, abs=1e-15)

    def test_normalization_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            alpha = rng.uniform(0, np.pi / 2)
            phases = ToolboxPhases(*rng.uniform(0, 2 * np.pi, size=2))
            beta = rng.choice([BETA_DIRECT, BETA_SPLIT, 0.45])
            p = detection_probabilities(alpha, phases, beta)
            assert p.as_array().sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p.as_array() >= -1e-15)

    def test_pure_wave_limit(self):
        # alpha = 0: the two mixed detectors share the closed-arm fringe
        for phi1 in (0.0, 0.8, np.pi, 4.2):
            p = detection_probabilities(0.0, ToolboxPhases(phi1, 1.1))
            assert p.p1 == pytest.approx(np.cos(phi1 / 2) ** 2 / 2, abs=1e-14)
            assert p.p2 == pytest.approx(np.cos(phi1 / 2) ** 2 / 2, abs=1e-14)
            assert p.p3 == pytest.approx(np.sin(phi1 / 2) ** 2 / 2, abs=1e-14)
            assert p.p4 == pytest.approx(np.sin(phi1 / 2) ** 2 / 2, abs=1e-14)

    def test_pure_particle_limit_flat(self):
        # alpha = pi/2: every detector at 1/4, independent of both phases
        rng = np.random.default_rng(9)
        for _ in range(20):
            phases = ToolboxPhases(*rng.uniform(0, 2 * np.pi, size=2))
            p = detection_probabilities(np.pi / 2, phases)
            np.testing.assert_allclose(p.as_array(), 0.25, atol=1e-14)

    def test_first_pair_never_depends_on_phi2(self):
        base = detection_probabilities(0.5, ToolboxPhases(1.3, 0.0))
        for phi2 in np.linspace(0, 2 * np.pi, 9):
            p = detection_probabilities(0.5, ToolboxPhases(1.3, phi2))
            assert p.p1 == pytest.approx(base.p1, abs=1e-14)
            assert p.p2 == pytest.approx(base.p2, abs=1e-14)

    def test_mixers_off_closed_forms(self):
        alpha, phi1 = 0.72, 2.1
        p = detection_probabilities(alpha, ToolboxPhases(phi1, 0.9), BETA_DIRECT)
        assert p.p1 == pytest.approx(np.cos(alpha) ** 2 * np.cos(phi1 / 2) ** 2)
        assert p.p2 == pytest.approx(np.sin(alpha) ** 2 / 2)
        assert p.p3 == pytest.approx(np.cos(alpha) ** 2 * np.sin(phi1 / 2) ** 2)
        assert p.p4 == pytest.approx(np.sin(alpha) ** 2 / 2)
        # no interference between the histories without the mixers
        assert p.ic == pytest.approx((p.p1 - p.p2) / 2)

    def test_decomposition_identity(self):
        p = detection_probabilities(0.4, ToolboxPhases(0.9, 2.2))
        assert p.p1 == pytest.approx(p.pc + p.ic, abs=1e-15)
        assert p.p2 == pytest.approx(p.pc - p.ic, abs=1e-15)
        assert p.p3 == pytest.approx(p.ps + p.is_, abs=1e-15)
        assert p.p4 == pytest.approx(p.ps - p.is_, abs=1e-15)

    def test_interference_terms_signs(self):
        def terms(alpha, phases):
            p1, p2, p3, p4 = detection_closed_forms(alpha, phases)
            return (p1 - p2) / 2, (p3 - p4) / 2

        ic, is_ = terms(np.pi / 4, ToolboxPhases(np.pi / 2, 0.0))
        assert ic == pytest.approx(1 / (4 * np.sqrt(2)), abs=1e-15)
        assert is_ == pytest.approx(1 / (4 * np.sqrt(2)), abs=1e-15)
        # open-arm fringe vanishes when phi2 = phi1/2
        _, is0 = terms(np.pi / 4, ToolboxPhases(1.4, 0.7))
        assert is0 == pytest.approx(0.0, abs=1e-15)

    def test_closed_forms_match_propagation_at_any_beta(self):
        rng = np.random.default_rng(10)
        n = 400
        alpha = rng.uniform(0, np.pi / 2, n)
        phi1, phi2 = rng.uniform(-2 * np.pi, 2 * np.pi, (2, n))
        beta = rng.uniform(-1.0, 1.0, n)
        beta[::5] = 0.0
        forms = detection_closed_forms(alpha, ToolboxPhases(phi1, phi2), beta)
        born = interferometer_circuit(phi1, phi2, beta).propagate(prepare_input(alpha))
        np.testing.assert_allclose(forms, born.probabilities(), rtol=0, atol=1e-14)

    def test_closed_forms_broadcast(self):
        forms = detection_closed_forms(0.3, ToolboxPhases(np.linspace(0, 3, 4), 0.5),
                                       np.array([[0.0], [0.2], [BETA_SPLIT]]))
        assert forms.shape == (3, 4, 4)
        one = detection_closed_forms(0.3, ToolboxPhases(2.0, 0.5), 0.2)
        assert forms[1, 2].tobytes() == one.tobytes()


#: each public closed form, called at one alpha, one photon's phases (both photons' for the
#: pair) and one beta
CLOSED_FORMS = {
    "detection_closed_forms": detection_closed_forms,
    "coincidence_closed_forms":
        lambda a, phases, b: coincidence_closed_forms(a, ToolboxPhases(0.4, 1.1), phases, b, b),
}


class TestClosedFormInputs:
    """The closed forms refuse what the engine entries refuse, before evaluating."""

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    @pytest.mark.parametrize("empty", [np.array([]), np.zeros((3, 0))])
    def test_empty_batch_raises(self, name, empty):
        with pytest.raises(ValueError, match=f"^{name} needs at least one setting, got an"
                                             " empty batch$"):
            CLOSED_FORMS[name](empty, ToolboxPhases(), BETA_SPLIT)
        with pytest.raises(ValueError, match="needs at least one setting"):
            single_photon_batch(empty, 0.0, 0.0)  # as the engine entry does

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    @pytest.mark.parametrize("where, bad", [("alpha", np.nan), ("phi2", np.inf),
                                            ("beta", -np.inf)])
    def test_non_finite_setting_named_with_its_row(self, name, where, bad):
        values = {"alpha": np.full(4, 0.3), "phi2": np.full(4, 0.5), "beta": 0.2}
        values[where] = np.array([0.3, 0.3, bad, bad])
        phases = ToolboxPhases(np.linspace(0, 3, 4), values["phi2"])
        # the pair's photon B takes these phases, and both photons this beta
        named = "phi2_prime" if name.startswith("coin") and where == "phi2" else where
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing is evaluated
            with pytest.raises(ValueError, match=rf"^{name} needs finite settings, got"
                                                 rf" {named}={bad!r} at row 2$"):
                CLOSED_FORMS[name](values["alpha"], phases, values["beta"])


class TestCoherence:
    def test_equals_sin_two_alpha(self):
        for alpha in np.linspace(0, np.pi / 2, 13):
            c = coherence(alpha, ToolboxPhases(0.7, 1.9))
            assert c == pytest.approx(abs(np.sin(2 * alpha)), abs=1e-12)

    def test_mixture_has_none(self):
        for alpha in (0.2, np.pi / 4, 1.3):
            c = coherence(alpha, ToolboxPhases(0.7, 1.9), mixed=True)
            assert c == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_a_perturbed_sector_raises_against_the_closed_form(self, monkeypatch, mixed):
        # the off-diagonal entries move by 1e-9, the l1 sum by 2e-9; the trace stays
        exact = toolbox._in_sector
        monkeypatch.setattr(toolbox, "_in_sector",
                            lambda *args: exact(*args) + 1e-9 * (1 - np.eye(2)))
        closed = "0.000000000000" if mixed else f"{abs(np.sin(1.2)):.12f}"
        with pytest.raises(RuntimeError, match=rf"^l1 coherence \S+ disagrees with the"
                                               rf" closed form {closed}$"):
            coherence(0.6, ToolboxPhases(0.7, 1.9), 0.3, mixed=mixed)

    def test_weight_outside_the_sector_raises(self):
        w, p = wave_state(0.7).amplitudes, particle_state(1.9).amplitudes
        outside = np.eye(4)[0] - np.vdot(w, np.eye(4)[0]) * w - np.vdot(p, np.eye(4)[0]) * p
        state = PureState(ModeBasis(toolbox.PATHS), outside / np.linalg.norm(outside))
        with pytest.raises(ValueError, match="not expressible in the wave/particle sector"):
            toolbox._in_sector(state, np.stack([w, p], axis=1))

    def test_witness_equals_twice_ic(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            alpha = rng.uniform(0, np.pi / 2)
            phases = ToolboxPhases(*rng.uniform(0, 2 * np.pi, size=2))
            p = detection_probabilities(alpha, phases)
            assert coherence_witness(p) == pytest.approx(2 * abs(p.ic), abs=1e-14)

    def test_witness_vanishes_for_mixture(self):
        phases = ToolboxPhases(0.8, 0.3)
        rho = mixed_output(0.6, phases)
        p = measure_distribution(rho)
        assert abs(p[0] - p[1]) < 1e-14
        assert abs(p[2] - p[3]) < 1e-14

    def test_mixture_purity(self):
        for alpha in (0.0, 0.4, np.pi / 4):
            rho = mixed_output(alpha, ToolboxPhases(1.1, 0.2))
            expected = np.cos(alpha) ** 4 + np.sin(alpha) ** 4
            assert rho.purity() == pytest.approx(expected, abs=1e-13)

    def test_mixture_and_pure_share_mean_probabilities(self):
        alpha, phases = 0.5, ToolboxPhases(1.7, 0.4)
        pure = detection_probabilities(alpha, phases)
        mixed = measure_distribution(mixed_output(alpha, phases))
        assert mixed[0] == pytest.approx(pure.pc, abs=1e-14)
        assert mixed[1] == pytest.approx(pure.pc, abs=1e-14)
        assert mixed[2] == pytest.approx(pure.ps, abs=1e-14)
        assert mixed[3] == pytest.approx(pure.ps, abs=1e-14)


class TestSingleProbabilitiesContainer:
    def test_as_array_order(self):
        p = SingleProbabilities(0.1, 0.2, 0.3, 0.4, 0.15, 0.35, -0.05, -0.05)
        np.testing.assert_allclose(p.as_array(), [0.1, 0.2, 0.3, 0.4])


class TestCrossCheck:
    """The closed form is still compared with propagation on every call."""

    @pytest.fixture
    def perturbed_wave(self, monkeypatch):
        exact = toolbox._wave_amplitudes

        def perturbed(phi1, beta, *factors):
            amps = exact(phi1, beta, *factors).copy()
            amps[0] += 1e-9
            return amps

        monkeypatch.setattr(toolbox, "_wave_amplitudes", perturbed)

    @pytest.mark.parametrize("beta", [BETA_DIRECT, BETA_SPLIT, 0.3])
    def test_perturbed_closed_form_raises(self, perturbed_wave, beta):
        phases = ToolboxPhases(0.7, 1.9)
        with pytest.raises(RuntimeError, match="disagrees with propagation"):
            output_state(0.4, phases, beta)
        with pytest.raises(RuntimeError, match="disagrees with propagation"):
            detection_probabilities(0.4, phases, beta)


class TestBatchEngine:
    """One engine call over N settings equals N single-setting calls."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_equal_single_setting_calls_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 6), label="n")

        def column(strategy):
            return data.draw(st.lists(strategy, min_size=n, max_size=n))
        alpha = column(st.floats(-0.6, 2.2))  # reaches outside [0, pi/2]
        phi1 = column(st.floats(0.0, 2 * np.pi))
        phi2 = column(st.floats(0.0, 2 * np.pi))
        beta = column(st.sampled_from([BETA_DIRECT, BETA_SPLIT]) | st.floats(0.0, np.pi / 4))
        visibility = column(st.just(1.0) | st.floats(0.0, 1.0))
        dephase = column(st.just(0.0) | st.floats(0.0, 1.0))
        models = [NoiseModel(v, d) for v, d in zip(visibility, dephase)]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = single_photon_batch(
                np.array(alpha), np.array(phi1), np.array(phi2), np.array(beta),
                np.array([m.fringe_scale for m in models]),
            )
        outside = any(not 0.0 <= a <= np.pi / 2 for a in alpha)
        assert any("outside" in str(w.message) for w in caught) == outside

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in range(n):
                phases = ToolboxPhases(phi1[k], phi2[k])
                one = noisy_single_probabilities(alpha[k], phases, beta[k], models[k])
                assert batch.probabilities[k].tobytes() == one.as_array().tobytes()
                out = output_state(alpha[k], phases, beta[k])
                assert batch.amplitudes[k].tobytes() == out.amplitudes.tobytes()
                if models[k].fringe_scale == 1.0:
                    ideal = detection_probabilities(alpha[k], phases, beta[k])
                    assert ideal.as_array().tobytes() == one.as_array().tobytes()

    def test_scalar_settings_give_unbatched_rows(self):
        batch = single_photon_batch(0.4, 0.7, 1.9)
        assert batch.amplitudes.shape == (4,)
        assert batch.probabilities.shape == (4,)
        np.testing.assert_array_equal(
            batch.probabilities,
            detection_probabilities(0.4, ToolboxPhases(0.7, 1.9)).as_array(),
        )

    def test_settings_broadcast(self):
        phi1 = np.linspace(0.0, np.pi, 5)
        batch = single_photon_batch(0.4, phi1, 1.9, BETA_SPLIT)
        assert batch.probabilities.shape == (5, 4)
        for k, p in enumerate(phi1):
            np.testing.assert_array_equal(
                batch.probabilities[k],
                detection_probabilities(0.4, ToolboxPhases(p, 1.9)).as_array(),
            )

    def test_zero_fringe_scale_is_the_mixture(self):
        alpha, phi1, phi2 = np.array([0.2, 0.9]), np.array([0.4, 2.5]), np.array([1.0, 0.1])
        batch = single_photon_batch(alpha, phi1, phi2, BETA_SPLIT, 0.0)
        for k in range(2):
            rho = mixed_output(alpha[k], ToolboxPhases(phi1[k], phi2[k]))
            np.testing.assert_array_equal(batch.probabilities[k], measure_distribution(rho))

    @pytest.mark.parametrize("beta", [BETA_DIRECT, BETA_SPLIT, 0.3])
    def test_cross_check_names_the_failing_row(self, monkeypatch, beta):
        exact = toolbox._wave_amplitudes

        def perturbed(phi1, beta, *factors):
            amps = exact(phi1, beta, *factors).copy()
            amps[2] += 1e-9  # one row of the batch
            return amps

        monkeypatch.setattr(toolbox, "_wave_amplitudes", perturbed)
        alpha = np.linspace(0.1, 1.4, 5)
        phi1 = np.linspace(0.3, 5.0, 5)
        with pytest.raises(RuntimeError, match=r"disagrees with propagation .* at row 2 \(alpha="):
            single_photon_batch(alpha, phi1, 1.9, beta)

    @pytest.mark.parametrize("beta, error", [(BETA_DIRECT, 1e-9), (-0.4, 1e-9), (0.3, 1e-9),
                                             (0.3, np.nan)])
    def test_probabilities_are_checked_off_pi_8(self, monkeypatch, beta, error):
        exact = toolbox._detection_forms

        def perturbed(*args):
            mean, fringe = exact(*args)
            fringe = fringe.copy()
            fringe[2, 1] += error  # one row of the batch
            return mean, fringe

        monkeypatch.setattr(toolbox, "_detection_forms", perturbed)
        alpha = np.linspace(0.1, 1.4, 5)
        phi1 = np.linspace(0.3, 5.0, 5)
        with pytest.raises(
            RuntimeError, match=r"probabilities disagrees with propagation .* at row 2 \("
        ):
            single_photon_batch(alpha, phi1, 1.9, beta)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="needs at least one setting"):
            single_photon_batch(np.array([]), 0.0, 0.0)


class TestCallerValues:
    """Float64 settings are passed on uncopied, so no call may write into them."""

    def test_caller_arrays_are_neither_written_nor_frozen(self):
        rng = np.random.default_rng(3)
        alpha, phi1, phi2, phi1p, phi2p = rng.uniform(0.0, 1.5, (5, 6))
        beta, scale = np.array([0.0, BETA_SPLIT, 0.3] * 2), np.linspace(0.0, 1.0, 6)
        given = (alpha, phi1, phi2, phi1p, phi2p, beta, scale)
        before = [x.copy() for x in given]
        phases, phases_p = ToolboxPhases(phi1, phi2), ToolboxPhases(phi1p, phi2p)
        single_photon_batch(alpha, phi1, phi2, beta, scale)
        two_photon_batch(alpha, phi1, phi2, phi1p, phi2p, beta, beta, scale)
        detection_closed_forms(alpha, phases, beta)
        coincidence_closed_forms(alpha, phases, phases_p, beta, beta)
        mixed_output(alpha, phases, beta)
        ghz_output(3, alpha, phases, beta)
        wave_state(phi1, beta), particle_state(phi2, beta), prepare_input(alpha)
        network_matrix(phi1, phi2, beta)
        circuit, layout = interferometer_circuit(phi1, phi2, beta), build_hardware_layout(phases, beta)
        circuit.matrix(), layout.matrix(), hardware_output(layout, alpha)
        equivalence_check(circuit, layout, alpha, strict=False)
        for x, y in zip(given, before):
            assert x.flags.writeable and x.tobytes() == y.tobytes()


def _pair(alpha, phi1, beta):
    return TwoPhotonSettings(alpha, ToolboxPhases(phi1, 0.2), ToolboxPhases(1.1, 0.3), beta)


#: one setting (beta = 0, as the sector table needs), and each way to make it a batch of 2
ONE = {"a": 0.4, "p": 0.7, "b": 0.0, "m": NoiseModel(0.9, 0.1)}
BATCHES = {
    "alpha": {"a": np.array([0.4, 0.6])},
    "phi1": {"p": np.array([0.7, 1.3])},
    "beta": {"b": np.array([0.0, BETA_SPLIT])},
    "knob": {"m": NoiseModel(np.array([0.9, 0.8]), 0.1)},
}
PAIR_STATE = two_photon_output(TwoPhotonSettings())  # never read: the batch is refused first
#: every entry that returns one result, called at alpha, one phi1, one beta and a noise model
ONE_SETTING_ENTRIES = {
    "detection_probabilities":
        lambda a, p, b, m: detection_probabilities(a, ToolboxPhases(p, 0.2), b),
    "noisy_single_probabilities":
        lambda a, p, b, m: noisy_single_probabilities(a, ToolboxPhases(p, 0.2), b, m),
    "coherence": lambda a, p, b, m: coherence(a, ToolboxPhases(p, 0.2), b),
    "coincidence_probabilities": lambda a, p, b, m: coincidence_probabilities(_pair(a, p, b)),
    "mixture_coincidence_probabilities":
        lambda a, p, b, m: mixture_coincidence_probabilities(_pair(a, p, b)),
    "noisy_coincidence_probabilities":
        lambda a, p, b, m: noisy_coincidence_probabilities(_pair(a, p, b), m),
    "concurrence": lambda a, p, b, m: concurrence(_pair(a, p, b)),
    "sector_projection": lambda a, p, b, m: sector_projection(PAIR_STATE, _pair(a, p, b)),
    "ghz_sector_probabilities":
        lambda a, p, b, m: ghz_sector_probabilities(3, a, ToolboxPhases(p, 0.2), b),
    "describe": lambda a, p, b, m: describe(build_hardware_layout(ToolboxPhases(p, 0.2), b)),
}
BATCHED_CALLS = [
    (entry, axis) for entry in ONE_SETTING_ENTRIES for axis in BATCHES
    if not (axis == "alpha" and entry == "describe")  # a layout has no alpha
    and (axis != "knob" or entry.startswith("noisy"))
]


class TestOneSetting:
    """Every entry that returns one result refuses a batch by one rule, before the engine runs."""

    @pytest.mark.parametrize("entry, axis", BATCHED_CALLS)
    def test_a_batch_is_refused_before_the_engine_runs(self, monkeypatch, entry, axis):
        def engine(*args):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(toolbox, "_history_batch", engine)
        with pytest.raises(ValueError) as raised:
            ONE_SETTING_ENTRIES[entry](**ONE | BATCHES[axis])
        assert str(raised.value) == f"{entry} needs one setting, got a batch of shape (2,)"

    def test_the_sector_table_checks_mixers_then_photon_number_then_batch(self):
        batch = np.array([0.4, 0.6])
        with pytest.raises(ValueError, match="beta=0"):
            ghz_sector_probabilities(9, 0.4, beta=BETA_SPLIT)
        with pytest.raises(ValueError, match="photon number"):
            ghz_sector_probabilities(9, batch)
        with pytest.raises(ValueError, match="needs one setting"):
            ghz_sector_probabilities(3, batch, beta=np.array([0.0, BETA_SPLIT]))


class TestPublicNames:
    """``__init__.py`` names each export once, in its imports; ``__all__`` is built from them."""

    NAMES = [
        "BETA_DIRECT", "BETA_SPLIT", "Circuit", "CoincidenceTable", "CountTable",
        "DEFAULT_HWP_ANGLES", "DensityMatrix", "ElementUnitary", "HardwareLayout", "ModeBasis",
        "NoiseModel", "PATHS", "POLS", "PairBatch", "PureState", "SingleBatch",
        "SingleProbabilities", "ToolboxPhases", "TwoPhotonSettings", "VALIDATED_BETAS",
        "WitnessEstimate", "apply_unitary", "balanced_bs", "beam_displacer",
        "build_hardware_layout", "coherence", "coherence_witness", "coincidence_closed_forms",
        "coincidence_probabilities", "concurrence", "count_errors", "describe",
        "detection_closed_forms", "detection_probabilities", "entanglement_witness",
        "equivalence_check", "equivalence_scan", "estimate_probabilities", "estimate_witness",
        "ghz_output", "ghz_sector_probabilities", "hardware_output", "hwp_jones",
        "interferometer_circuit", "measure_distribution", "mix", "mixed_output",
        "mixture_coincidence_probabilities", "mixture_two_photon_output", "network_matrix",
        "noisy_coincidence_probabilities", "noisy_single_probabilities", "output_mixer",
        "output_state", "partial_trace", "particle_state", "phase_shifter", "poisson_error",
        "polarizing_bs", "prepare_input", "product_basis", "pure_density", "sample_counts",
        "sample_rows", "sector_projection", "single_photon_batch", "two_photon_batch",
        "two_photon_output", "vh_variant_output", "wave_state", "witness_rows",
        "wootters_concurrence",
    ]

    def test_all_is_the_pinned_72_names(self):
        assert len(self.NAMES) == 72
        assert sorted(wptoolbox.__all__) == self.NAMES
        assert all(hasattr(wptoolbox, name) for name in wptoolbox.__all__)

