"""Tests for optical elements and the interferometer network."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptoolbox import optics, qcore
from wptoolbox.entangle import (TwoPhotonSettings, coincidence_probabilities, ghz_output,
                                two_photon_batch, vh_variant_output)
from wptoolbox.optics import (
    PATHS,
    Circuit,
    ElementUnitary,
    balanced_bs,
    interferometer_circuit,
    network_matrix,
    output_mixer,
    phase_shifter,
    polarizing_bs,
    _fixed_stages,
)
from wptoolbox.hardware import build_hardware_layout, equivalence_scan
from wptoolbox.qcore import ModeBasis, PureState, is_isometry, route
from wptoolbox.toolbox import (
    ToolboxPhases,
    detection_probabilities,
    prepare_input,
    single_photon_batch,
)

RT2 = np.sqrt(2.0)
BALANCED = np.pi / 8


def pol_state(alpha):
    return PureState(ModeBasis(("V", "H")), np.array([np.cos(alpha), np.sin(alpha)]))


class TestElements:
    def test_element_rejects_non_isometry(self):
        with pytest.raises(ValueError, match="isometry"):
            ElementUnitary("bad", ("1", "2"), ("1", "2"), np.ones((2, 2)))

    def test_element_isometry_check_is_absolute(self):
        # np.allclose's hidden rtol of 1e-5 would accept this gain
        with pytest.raises(ValueError, match="isometry"):
            ElementUnitary("gain", ("1",), ("1",), np.array([[1 + 1e-7]]))

    def test_element_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ElementUnitary("bad", ("1", "2"), ("1", "2"), np.eye(3))

    def test_polarizing_bs_routes_v_and_h(self):
        el = polarizing_bs()
        np.testing.assert_allclose(el.matrix[:, 0], [1, 0, 0, 0])
        np.testing.assert_allclose(el.matrix[:, 1], [0, 1, 0, 0])
        assert el.changes_basis

    def test_balanced_bs_is_hadamard_and_involutive(self):
        el = balanced_bs("1", "3")
        np.testing.assert_allclose(el.matrix @ el.matrix, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(el.matrix[0], [1 / RT2, 1 / RT2])

    def test_phase_shifter(self):
        el = phase_shifter("3", 0.7)
        assert el.matrix[0, 0] == pytest.approx(np.exp(0.7j))

    def test_output_mixer_absent_at_zero(self):
        np.testing.assert_allclose(output_mixer("1", "2", 0.0).matrix, np.eye(2))

    def test_output_mixer_balanced_angle_is_hadamard(self):
        el = output_mixer("1", "2", BALANCED)
        np.testing.assert_allclose(el.matrix, [[1, 1], [1, -1]] / RT2, atol=1e-15)

    def test_output_mixer_limit_is_discontinuous(self):
        # beta -> 0 tends to diag(1, -1), which is *not* the absent element
        el = output_mixer("1", "2", 1e-9)
        np.testing.assert_allclose(el.matrix, [[1, 0], [0, -1]], atol=1e-8)


class TestCircuit:
    @pytest.mark.parametrize("beta", [0.3, np.array([0.0, BALANCED, 0.3])])
    def test_propagate_returns_read_only_amplitudes(self, beta):
        circuit = interferometer_circuit(0.1, 0.2, beta)
        state = prepare_input(np.array([0.3, 0.6, 0.9]) if np.ndim(beta) else 0.3)
        out = circuit.propagate(state)
        assert not out.amplitudes.flags.writeable
        assert out.amplitudes.flags.c_contiguous and out.amplitudes.dtype == np.complex128
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        np.testing.assert_allclose(out.amplitudes, np.matvec(circuit.matrix(), state.amplitudes),
                                   rtol=0, atol=1e-15)

    def test_propagate_still_refuses_amplitudes_that_overflow(self):
        basis = ModeBasis(("V", "H"))
        huge = PureState(basis, np.array([1.5e308, 1.5e308]))  # finite, its norm is not
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                Circuit(basis, basis, (balanced_bs("V", "H"),)).propagate(huge)

    def test_propagate_rejects_wrong_basis(self):
        circ = interferometer_circuit(0.0, 0.0, 0.0)
        bad = PureState(ModeBasis(("a", "b")), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="input basis"):
            circ.propagate(bad)

    def test_declared_output_basis_enforced(self):
        basis = ModeBasis(("V", "H"))
        circ = Circuit(basis, ModeBasis(("x", "y")), (balanced_bs("V", "H"),))
        with pytest.raises(ValueError, match="output basis"):
            circ.propagate(pol_state(0.3))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matrix_is_isometry_everywhere(self, data):
        n = data.draw(st.integers(1, 8), label="n")

        def column(strategy):
            return np.array(data.draw(st.lists(strategy, min_size=n, max_size=n)))
        phi1, phi2 = column(st.floats(-7.0, 7.0)), column(st.floats(-7.0, 7.0))
        beta = column(st.sampled_from([0.0, BALANCED]) | st.floats(-1.0, 1.0))
        m = network_matrix(phi1, phi2, beta)
        assert m.shape == (n, 4, 2)
        gram = np.swapaxes(m.conj(), -1, -2) @ m
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), (n, 2, 2)), atol=1e-12)
        k = data.draw(st.integers(0, n - 1), label="k")
        assert m[k].tobytes() == network_matrix(phi1[k], phi2[k], beta[k]).tobytes()


    def test_element_off_the_current_basis_rejected(self):
        basis = ModeBasis(("V", "H"))
        circ = Circuit(basis, basis, (balanced_bs("V", "X"),))
        with pytest.raises(KeyError, match="'X'"):
            circ.propagate(pol_state(0.3))

    def test_basis_change_must_consume_whole_basis(self):
        basis = ModeBasis(("V", "H", "D"))
        circ = Circuit(basis, ModeBasis(PATHS), (polarizing_bs(),))
        with pytest.raises(ValueError, match="whole basis"):
            circ.propagate(PureState(basis, np.array([1.0, 0.0, 0.0])))

    def test_fixed_stages_are_shared(self):
        a = interferometer_circuit(0.1, 0.2, BALANCED)
        b = interferometer_circuit(1.1, 2.2, 0.0)
        assert a.input_basis is b.input_basis
        assert a.output_basis is b.output_basis
        for k in (0, 1, 2, 5):  # PBS, BS1, BS2, BS3
            assert a.elements[k] is b.elements[k]
        np.testing.assert_allclose(b.elements[3].matrix, [[np.exp(1.1j)]])

    def test_mixer_slots_share_one_read_only_matrix(self):
        for beta in (0.3, np.array([0.0, BALANCED, 0.3])):
            network = interferometer_circuit(0.1, 0.2, beta)
            layout = build_hardware_layout(ToolboxPhases(0.1, 0.2), beta).circuit
            for circuit, first, second in ((network, 6, 7), (layout, 13, 14)):
                a, b = circuit.elements[first], circuit.elements[second]
                assert a.matrix is b.matrix
                assert not a.matrix.flags.writeable
                assert a.matrix.shape == np.shape(beta) + (2, 2)
                assert sum(step.matrix is a.matrix for step in circuit._steps) == 2
            np.testing.assert_array_equal(network.elements[6].matrix,
                                          output_mixer("1", "2", beta).matrix)


class TestBatchedCircuits:
    """Array settings give one circuit that propagates every setting."""

    def test_batched_elements_stack_one_matrix_per_setting(self):
        betas = np.array([0.0, BALANCED, 0.3])
        mixer = output_mixer("1", "2", betas)
        assert mixer.matrix.shape == (3, 2, 2)
        np.testing.assert_array_equal(mixer.matrix[0], np.eye(2))  # absent, not the limit
        for k in (1, 2):
            np.testing.assert_array_equal(mixer.matrix[k], output_mixer("1", "2", betas[k]).matrix)
        phase = phase_shifter("3", np.array([0.5, 2.0]))
        np.testing.assert_array_equal(phase.matrix[:, 0, 0], np.exp(1j * np.array([0.5, 2.0])))

    def test_one_bad_matrix_fails_the_whole_stack(self):
        stack = np.array([np.eye(2), [[1.0, 0.0], [0.0, 1.0 + 1e-9]]])
        with pytest.raises(ValueError, match="isometry"):
            ElementUnitary("m", ("1", "2"), ("1", "2"), stack)

    def test_batched_propagation_equals_each_setting(self):
        rng = np.random.default_rng(21)
        alpha = rng.uniform(0, np.pi / 2, 7)
        phi1, phi2 = rng.uniform(0, 2 * np.pi, (2, 7))
        beta = np.array([0.0, BALANCED, 0.3, 0.0, 0.61, BALANCED, 0.1])
        states = PureState(ModeBasis(("V", "H")), np.stack([np.cos(alpha), np.sin(alpha)], -1))
        out = interferometer_circuit(phi1, phi2, beta).propagate(states)
        assert out.amplitudes.shape == (7, 4)
        for k in range(7):
            one = interferometer_circuit(phi1[k], phi2[k], beta[k]).propagate(pol_state(alpha[k]))
            np.testing.assert_array_equal(out.amplitudes[k], one.amplitudes)

    def test_one_state_runs_through_a_batch_of_settings(self):
        circuit = interferometer_circuit(np.array([0.1, 0.2]), 0.0, 0.0)
        out = circuit.propagate(prepare_input(0.3))
        assert out.amplitudes.shape == (2, 4)
        broadcast = circuit.propagate(prepare_input(np.full(2, 0.3)))
        assert out.amplitudes.tobytes() == broadcast.amplitudes.tobytes()
        assert out.amplitudes.flags.c_contiguous and not out.amplitudes.flags.writeable

    def test_network_matrix_stacks_each_setting(self):
        rng = np.random.default_rng(22)
        phi1, phi2 = rng.uniform(0, 2 * np.pi, (2, 2, 3))
        beta = np.array([0.0, BALANCED, 0.3])
        stack = network_matrix(phi1, phi2, beta)
        assert stack.shape == (2, 3, 4, 2)
        for i in range(2):
            for k in range(3):
                np.testing.assert_allclose(
                    stack[i, k], network_matrix(phi1[i, k], phi2[i, k], beta[k]),
                    rtol=0, atol=1e-15,
                )

    def test_batched_matrix_rows_equal_each_setting(self):
        rng = np.random.default_rng(23)
        phi1, phi2 = rng.uniform(-7, 7, (2, 2, 6))
        beta = np.array([0.0, BALANCED, 0.3, 0.0, -0.7, BALANCED])
        network = interferometer_circuit(phi1, phi2, beta).matrix()
        hardware = build_hardware_layout(ToolboxPhases(phi1, phi2), beta).matrix()
        assert network.shape == (2, 6, 4, 2) and hardware.shape == (2, 6, 8, 8)
        for i in range(2):
            for k in range(6):
                one = interferometer_circuit(phi1[i, k], phi2[i, k], beta[k]).matrix()
                assert network[i, k].tobytes() == one.tobytes()
                layout = build_hardware_layout(ToolboxPhases(phi1[i, k], phi2[i, k]), beta[k])
                assert hardware[i, k].tobytes() == layout.matrix().tobytes()
        # a circuit of batched elements built by hand runs the same route
        circuit = interferometer_circuit(phi1, phi2, beta)
        by_hand = Circuit(circuit.input_basis, circuit.output_basis, circuit.elements)
        assert by_hand.matrix().tobytes() == network.tobytes()

    def test_settings_that_do_not_broadcast_fail_at_construction(self):
        phi1, beta = np.array([0.1, 0.2]), np.array([0.0, 0.1, 0.2])
        with pytest.raises(ValueError, match="broadcast"):
            interferometer_circuit(phi1, 0.3, beta)
        with pytest.raises(ValueError, match="broadcast"):
            network_matrix(phi1, 0.3, beta)
        with pytest.raises(ValueError, match="broadcast"):
            build_hardware_layout(ToolboxPhases(phi1, 0.3), beta)


def embedded_product(circuit):
    """Transfer matrix as a product of the elements embedded in the full basis."""
    labels = list(circuit.input_basis.labels)
    total = np.eye(len(labels), dtype=complex)
    for el in circuit.elements:
        if el.changes_basis:
            step = np.zeros((len(el.modes_out), len(labels)), dtype=complex)
            for j, label in enumerate(el.modes_in):
                step[:, labels.index(label)] = el.matrix[:, j]
            labels = list(el.modes_out)
        else:
            step = np.eye(len(labels), dtype=complex)
            rows = [labels.index(label) for label in el.modes_in]
            step[np.ix_(rows, rows)] = el.matrix
        total = step @ total
    assert labels == list(circuit.output_basis.labels)
    return total


def column_by_column(circuit):
    """Transfer matrix from one propagation per input basis vector."""
    basis = circuit.input_basis
    cols = [circuit.propagate(PureState(basis, e)).amplitudes
            for e in np.eye(basis.dimension)]
    return np.stack(cols, axis=1)


def random_circuits(seed, count=15):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        phi1, phi2 = rng.uniform(0, 2 * np.pi, size=2)
        beta = rng.choice([0.0, BALANCED, rng.uniform(0, np.pi / 4)])
        yield interferometer_circuit(phi1, phi2, beta)
        yield build_hardware_layout(ToolboxPhases(phi1, phi2), beta).circuit


class TestCircuitMatrix:
    """The one-pass transfer matrix against two independent constructions."""

    def test_matches_embedded_product(self):
        for circuit in random_circuits(5):
            np.testing.assert_allclose(
                circuit.matrix(), embedded_product(circuit), rtol=0, atol=1e-14
            )

    def test_matches_column_by_column_propagation(self):
        for circuit in random_circuits(6):
            np.testing.assert_allclose(
                circuit.matrix(), column_by_column(circuit), rtol=0, atol=1e-14
            )


class TestCompiledRoute:
    """Fused fixed runs, per-call checked stacks and one step runner."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_batched_route_matches_embedded_product(self, data):
        n = data.draw(st.integers(1, 6), label="n")

        def column(strategy):
            return np.array(data.draw(st.lists(strategy, min_size=n, max_size=n)))
        phi1, phi2 = column(st.floats(-7.0, 7.0)), column(st.floats(-7.0, 7.0))
        beta = column(st.sampled_from([0.0, BALANCED]) | st.floats(-1.0, 1.0))
        stack = network_matrix(phi1, phi2, beta)
        for k in range(n):
            circuit = interferometer_circuit(phi1[k], phi2[k], beta[k])
            np.testing.assert_allclose(stack[k], embedded_product(circuit), rtol=0, atol=1e-15)
            layout = build_hardware_layout(ToolboxPhases(phi1[k], phi2[k]), beta[k])
            np.testing.assert_allclose(
                layout.matrix(), embedded_product(layout.circuit), rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("shape", [(), (22,), (22, 2), (1,), (4, 7)])
    @pytest.mark.parametrize("beta", [BALANCED, 0.0, -0.0, "random", np.pi / 4, np.pi,
                                      2 * np.pi])
    def test_network_matrix_is_the_circuit_matrix_bit_for_bit(self, shape, beta):
        # network_matrix starts from the fused block's columns and groups the
        # slots (both phases, then both mixers); Circuit.matrix runs the
        # identity block through every step, that block included
        rng = np.random.default_rng(len(shape))
        beta = rng.uniform(-1, 1, shape) if beta == "random" else np.full(shape, beta)
        for phase in (None, -0.0, np.pi, 2 * np.pi):
            phi1, phi2 = map(np.array, rng.uniform(-7, 7, (2,) + shape))  # 0-d arrays at ()
            phi1.flat[::3] = -0.0  # signed zeros in the phases too
            if phase is not None:  # both phases special on even rows, phi2 on all
                phi1.flat[::2] = phase
                phi2[...] = phase
            args = (phi1, phi2, beta) if shape else (float(phi1), float(phi2), float(beta))
            stack = network_matrix(*args)
            assert stack.shape == shape + (4, 2)
            assert stack.tobytes() == interferometer_circuit(*args).matrix().tobytes()

    def test_fused_block_is_shared_across_calls(self):
        block = _fixed_stages().steps[0].matrix
        assert block.shape == (4, 2) and not block.flags.writeable
        a = interferometer_circuit(0.1, 0.2, BALANCED)
        b = interferometer_circuit(np.array([1.1, 2.0]), 2.2, 0.0)
        for circuit in (a, b):
            assert circuit._steps[0].matrix is block
            assert len(circuit._steps) == 6 and len(circuit.elements) == 8
        np.testing.assert_array_equal(
            block, embedded_product(Circuit(a.input_basis, a.output_basis, a.elements[:3]))
        )

    @pytest.mark.parametrize("bad", ["phi1", "phi2", "beta"])
    def test_nan_setting_is_not_an_isometry(self, bad):
        values = {"phi1": np.array([0.1, 0.2]), "phi2": np.array([0.3, 0.4]),
                  "beta": np.array([0.0, BALANCED])}
        values[bad][1] = np.nan
        with pytest.raises(ValueError, match="not an isometry"):
            network_matrix(**values)
        with pytest.raises(ValueError, match="not an isometry"):
            interferometer_circuit(**values)
        with pytest.raises(ValueError, match="not an isometry"):
            network_matrix(**{**values, bad: np.nan})
        phases = ToolboxPhases(values["phi1"], values["phi2"])
        with pytest.raises(ValueError, match="not an isometry"):
            build_hardware_layout(phases, values["beta"])

    def test_chain_takes_one_matrix_per_slot(self):
        chain = _fixed_stages()
        mixer = output_mixer("1", "2", 0.3)
        phases = phase_shifter("3", 0.1).matrix, phase_shifter("4", 0.2).matrix
        with pytest.raises(ValueError):
            chain.circuit(*phases, mixer.matrix)
        with pytest.raises(ValueError):
            chain.steps_with(*(mixer.matrix,) * 5)
        circuit = chain.circuit(*phases, mixer.matrix, mixer.matrix)
        assert [el.name for el in circuit.elements if el.matrix is mixer.matrix] == [
            "mixer(1,2)", "mixer(3,4)"]

    def test_one_isometry_check_per_chain(self, monkeypatch):
        # network_matrix checks its slots entry by entry, once, and no stack
        calls, slot_checks = [], []

        def counted(matrix):
            calls.append(matrix.shape)
            return is_isometry(matrix)

        def counted_slots(slots, settings):
            slot_checks.append(np.shape(slots[0]))
            return check_slots(slots, settings)
        check_slots = optics._check_slots
        runs = {
            "network_matrix": lambda points: network_matrix(0.1, 0.2, BALANCED),
            "interferometer_circuit": lambda points: interferometer_circuit(0.1, 0.2, 0.0),
            "build_hardware_layout":
                lambda points: build_hardware_layout(ToolboxPhases(0.1, 0.2), BALANCED),
            "equivalence_scan": lambda points: equivalence_scan(points),
        }
        # (is_isometry calls, entrywise slot checks)
        expected = {"network_matrix": (0, 1), "interferometer_circuit": (1, 0),
                    "build_hardware_layout": (1, 0), "equivalence_scan": (2, 0)}
        rng = np.random.default_rng(24)
        for n in (1, 100):
            points = [(a, *phis) for a, phis in zip(rng.uniform(0, 1.5, n),
                                                    rng.uniform(0, 6, (n, 2)))]
            for name, run in runs.items():
                run(points)  # the fixed stages are built and checked once, before counting
                monkeypatch.setattr(optics, "is_isometry", counted)
                monkeypatch.setattr(qcore, "is_isometry", counted)
                monkeypatch.setattr(optics, "_check_slots", counted_slots)
                calls.clear()
                slot_checks.clear()
                run(points)
                monkeypatch.undo()
                assert (len(calls), len(slot_checks)) == expected[name], (name, n, calls)
        network_matrix(np.zeros(7), 0.2, BALANCED)  # a batch: one check on its arrays
        monkeypatch.setattr(optics, "_check_slots", counted_slots)
        slot_checks.clear()
        network_matrix(np.zeros(7), 0.2, BALANCED)
        assert slot_checks == [(7,)]

    @pytest.mark.parametrize("bad", ["phi1", "phi2", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_setting_is_named(self, bad, value):
        settings = {"phi1": 0.1, "phi2": 0.2, "beta": BALANCED, bad: value}
        phases = ToolboxPhases(settings["phi1"], settings["phi2"])
        named = f"not an isometry; {bad}={value!r} at row 0"
        with np.errstate(invalid="ignore"):
            # settings are normalized once at each entry; the slot check still sees them
            with pytest.raises(ValueError, match=named):
                network_matrix(**settings)
            with pytest.raises(ValueError, match=named):
                equivalence_scan([(0.3, settings["phi1"], settings["phi2"])], (settings["beta"],))
            with pytest.raises(ValueError, match=named):
                detection_probabilities(0.3, phases, settings["beta"])
            pair = TwoPhotonSettings(0.3, ToolboxPhases(), phases, BALANCED, settings["beta"])
            for source in (coincidence_probabilities, vh_variant_output):
                with pytest.raises(ValueError, match=named.replace(bad, f"{bad}_prime")):
                    source(pair)
            with pytest.raises(ValueError, match=named):
                ghz_output(3, 0.3, phases, settings["beta"])
            batch = {k: np.array([0.1, 0.2, 0.3]) for k in settings}
            batch[bad][2] = value
            with pytest.raises(ValueError, match=f"{bad}={value!r} at row 2"):
                build_hardware_layout(ToolboxPhases(batch["phi1"], batch["phi2"]), batch["beta"])
            # photon B of the pair's third setting, not the engine's flat row 5
            with pytest.raises(ValueError, match=f"{bad}_prime={value!r} at row 2"):
                two_photon_batch(0.3, 0.1, 0.2, batch["phi1"], batch["phi2"], BALANCED,
                                 batch["beta"])

    @pytest.mark.parametrize("bad", ["phi1", "phi2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_entrywise_slot_check_names_a_non_finite_phase(self, bad, value):
        with np.errstate(invalid="ignore"):
            for shape, row in (((), 0), ((5,), 3)):
                values = {"phi1": np.full(shape, 0.1), "phi2": np.full(shape, 0.2)}
                values[bad][(row,) if shape else ()] = value
                with pytest.raises(ValueError, match=rf"^arm phases and mixer: matrix is not an"
                                                     rf" isometry; {bad}={value!r} at row {row}$"):
                    network_matrix(**values, beta=np.full(shape, BALANCED))
            # the engine's caller names its own setting: photon B of a one-setting pair
            with pytest.raises(ValueError, match=rf"; {bad}_prime={value!r} at row 0$"):
                two_photon_batch(0.3, 0.1, 0.2, *(value if k == bad else 0.4
                                                  for k in ("phi1", "phi2")))

    @pytest.mark.parametrize("shape", [(), (6,)])
    def test_entrywise_slot_check_is_the_stack_isometry_rule(self, shape):
        # the Gram rule on the entries refuses exactly what is_isometry refuses of the
        # slot stack, on either side of ATOL, in each slot
        rng = np.random.default_rng(33)
        phi1, phi2, beta = qcore.broadcast_values(*rng.uniform(-3, 3, (3,) + shape))
        for slot in range(6):
            isometries = []
            for gain in (1 + 0.4e-12, 1 + 3e-12, 1 + 1e-6):
                slots = [np.exp(1j * phi1), np.exp(1j * phi2), *optics._mixer_entries(beta)]
                slots[slot] = slots[slot] * gain
                stack = np.zeros(shape + (2, 2, 2), dtype=complex)
                stack[..., 0, 0, 0], stack[..., 0, 1, 1] = slots[:2]
                stack[..., 1, :, :] = np.array(slots[2:]).reshape((2, 2) + shape).transpose(
                    *range(2, 2 + len(shape)), 0, 1)
                if not shape:
                    slots = list(map(complex, slots))
                isometries.append(is_isometry(stack))
                if isometries[-1]:
                    optics._check_slots(tuple(slots), {})
                else:
                    with pytest.raises(ValueError, match="^arm phases and mixer: matrix is not"
                                                         " an isometry$"):
                        optics._check_slots(tuple(slots), {})
            assert isometries[0] and not isometries[-1]  # each side of ATOL is reached

    def test_finite_settings_add_nothing_to_a_failed_check(self):
        with pytest.raises(ValueError, match="isometry$"):
            optics._slot_matrices("gain", *qcore.broadcast_values(0.1, 0.2, 0.3),
                                  lambda beta: 1.5 * np.eye(2))

    def test_finite_settings_keep_the_engine_check_message(self, monkeypatch):
        def gain(beta):  # the entries of 1.5 I
            return tuple(np.full(np.shape(beta), x) for x in (1.5, 0.0, 0.0, 1.5))

        monkeypatch.setattr(optics, "_mixer_entries", gain)
        pair = TwoPhotonSettings(0.3, ToolboxPhases(0.1, 0.2), ToolboxPhases(0.3, 0.4))
        for run in (lambda: detection_probabilities(0.3, ToolboxPhases(0.1, 0.2)),
                    lambda: coincidence_probabilities(pair),
                    lambda: vh_variant_output(pair),
                    lambda: ghz_output(3, 0.3)):
            with pytest.raises(ValueError) as raised:
                run()
            assert str(raised.value) == "arm phases and mixer: matrix is not an isometry"

    def test_first_non_finite_in_argument_order_is_named(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="; phi2=inf at row 0$"):
                two_photon_batch(0.3, 0.1, np.inf, np.nan, 0.2)
            # phi2 comes first in the arguments, though phi1_prime's row is earlier
            with pytest.raises(ValueError, match="; phi2=inf at row 2$"):
                two_photon_batch(0.3, 0.1, np.array([0.2, 0.2, np.inf]),
                                 np.array([np.nan, 0.1, 0.1]), 0.2)
            with pytest.raises(ValueError, match="; phi1=nan at row 1$"):
                single_photon_batch(0.3, np.array([0.1, np.nan]), np.array([0.2, np.inf]))

    def test_positions_resolve_to_slices_when_evenly_spaced(self):
        basis = ModeBasis(("a", "b", "c", "d"))
        assert route(basis, ("a", "c"), ("a", "c"))[:2] == (slice(0, 3, 2), False)
        assert route(basis, ("d",), ("d",))[0] == slice(3, 4, 1)
        at, replaces, after = route(basis, ("b", "a", "c", "d"), ("w", "x", "y", "z"))
        np.testing.assert_array_equal(at, [1, 0, 2, 3])
        assert replaces and after.labels == ("w", "x", "y", "z")


class TestNetworkStages:
    """Check the state after each splitter stage against hand closed forms."""

    def test_split_stage(self):
        # circuit truncated after the phase plates: each polarization sits in
        # its own two-path superposition
        alpha, phi1, phi2 = 0.4, 1.1, 2.3
        full = interferometer_circuit(phi1, phi2, 0.0)
        stage = Circuit(full.input_basis, full.output_basis, full.elements[:5])
        out = stage.propagate(pol_state(alpha))
        expected = np.array(
            [
                np.cos(alpha) / RT2,
                np.sin(alpha) / RT2,
                np.cos(alpha) * np.exp(1j * phi1) / RT2,
                np.sin(alpha) * np.exp(1j * phi2) / RT2,
            ]
        )
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_recombined_stage(self):
        # after the closing splitter the recombined pair carries phi1 as a
        # cos/sin envelope with a global half-phase
        alpha, phi1, phi2 = 0.7, 0.9, 1.7
        full = interferometer_circuit(phi1, phi2, 0.0)
        stage = Circuit(full.input_basis, full.output_basis, full.elements[:6])
        out = stage.propagate(pol_state(alpha))
        g = np.exp(0.5j * phi1)
        expected = np.array(
            [
                np.cos(alpha) * g * np.cos(phi1 / 2),
                np.sin(alpha) / RT2,
                -1j * np.cos(alpha) * g * np.sin(phi1 / 2),
                np.sin(alpha) * np.exp(1j * phi2) / RT2,
            ]
        )
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_final_state_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            alpha = rng.uniform(0, np.pi / 2)
            phi1, phi2 = rng.uniform(0, 2 * np.pi, size=2)
            out = interferometer_circuit(phi1, phi2, BALANCED).propagate(
                pol_state(alpha)
            )
            g = np.exp(0.5j * phi1)
            wave = (
                g
                / RT2
                * np.array(
                    [
                        np.cos(phi1 / 2),
                        np.cos(phi1 / 2),
                        -1j * np.sin(phi1 / 2),
                        -1j * np.sin(phi1 / 2),
                    ]
                )
            )
            particle = 0.5 * np.array(
                [1, -1, np.exp(1j * phi2), -np.exp(1j * phi2)]
            )
            expected = np.cos(alpha) * wave + np.sin(alpha) * particle
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_mixers_off_keeps_histories_separate(self):
        alpha, phi1 = 0.5, 1.3
        out = interferometer_circuit(phi1, 0.8, 0.0).propagate(pol_state(alpha))
        p = out.probabilities()
        expected = [
            np.cos(alpha) ** 2 * np.cos(phi1 / 2) ** 2,
            np.sin(alpha) ** 2 / 2,
            np.cos(alpha) ** 2 * np.sin(phi1 / 2) ** 2,
            np.sin(alpha) ** 2 / 2,
        ]
        np.testing.assert_allclose(p, expected, atol=1e-15)

    def test_frozen_detector_probabilities(self):
        # alpha = pi/4, both phases zero, balanced mixers
        out = interferometer_circuit(0.0, 0.0, BALANCED).propagate(
            pol_state(np.pi / 4)
        )
        p = out.probabilities()
        assert p[0] == pytest.approx(0.72855339059327373, abs=1e-15)
        assert p[1] == pytest.approx(0.021446609406726238, abs=1e-15)
        assert p[2] == pytest.approx(0.125, abs=1e-15)
        assert p[3] == pytest.approx(0.125, abs=1e-15)
        # alpha = pi/4, phi1 = pi/2: first detector sits at 1/4 + 1/(4 sqrt 2)
        out2 = interferometer_circuit(np.pi / 2, 0.0, BALANCED).propagate(
            pol_state(np.pi / 4)
        )
        assert out2.probabilities()[0] == pytest.approx(
            0.42677669529663687, abs=1e-15
        )
