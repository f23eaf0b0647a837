"""Tests for the labeled-basis state algebra."""
import copy
import inspect
import pickle
from pathlib import Path

import numpy as np
import pytest

import wptoolbox.qcore as qcore
from wptoolbox import entangle, optics, shots
from wptoolbox.qcore import (
    DensityMatrix,
    ModeBasis,
    PureState,
    apply_unitary,
    as_values,
    broadcast_values,
    check_distribution,
    is_isometry,
    measure_distribution,
    mix,
    partial_trace,
    product_basis,
    pure_density,
)

RT2 = np.sqrt(2.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / RT2


class TestModeBasis:
    def test_requires_unique_labels(self):
        with pytest.raises(ValueError, match="unique"):
            ModeBasis(("a", "b", "a"))

    def test_requires_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            ModeBasis(())

    def test_index_and_contains(self):
        basis = ModeBasis(("V", "H"))
        assert basis.index("H") == 1
        assert "V" in basis
        assert "X" not in basis
        with pytest.raises(KeyError):
            basis.index("X")

    def test_product_flattens_labels(self):
        a = ModeBasis(("1", "2"))
        b = ModeBasis(("1'", "2'"))
        ab = product_basis(a, b)
        assert ab.labels == (("1", "1'"), ("1", "2'"), ("2", "1'"), ("2", "2'"))
        abc = product_basis(ab, ModeBasis(("x",)))
        assert abc.labels[0] == ("1", "1'", "x")
        assert len(abc.factors) == 3

    def test_ragged_products_still_check_uniqueness(self):
        # flat labels of two lengths, or of one length that collide, can repeat a label
        ragged = ModeBasis(("x", ("x", "y"))), ModeBasis((("y", "z"), "z"))
        with pytest.raises(ValueError, match="mode labels must be unique"):
            product_basis(*ragged)
        with pytest.raises(ValueError, match="mode labels must be unique"):
            product_basis(ModeBasis(("1", ("1",))), ModeBasis(("a", "b")))
        # a ragged product without a collision keeps its labels and factors
        basis = product_basis(ragged[0], ModeBasis(("z",)))
        assert basis.labels == (("x", "z"), ("x", "y", "z"))
        assert basis.index(("x", "y", "z")) == 1 and ("x", "y") not in basis
        assert basis.factors == (ragged[0], ModeBasis(("z",)))

    def test_equal_products_compare_without_labels(self, monkeypatch):
        a, b, c = ModeBasis(("1", "2")), ModeBasis(("1'", "2'")), ModeBasis(("x", "y", "z"))
        twice = product_basis(product_basis(a, b), c), product_basis(a, product_basis(b, c))

        def unbuilt(flats):
            raise AssertionError("labels were built")

        monkeypatch.setattr(qcore, "_product_labels", unbuilt)
        assert twice[0] == twice[1] and not twice[0] != twice[1]
        assert twice[0].dimension == 12 and twice[0].index(("2", "1'", "y")) == 7
        with pytest.raises(AssertionError, match="labels were built"):
            twice[0].labels

    def test_products_equal_plain_bases_with_their_labels(self):
        ab = product_basis(ModeBasis(("1", "2")), ModeBasis(("1'", "2'")))
        plain = ModeBasis(ab.labels)
        assert ab == plain and plain == ab and hash(ab) == hash(plain)
        assert ab != ModeBasis(ab.labels[::-1]) and ab != "not a basis"
        with pytest.raises(AttributeError):
            ab.dimension = 5


class TestPureState:
    def test_shape_check(self):
        with pytest.raises(ValueError, match="expected 2 amplitudes"):
            PureState(ModeBasis(("V", "H")), np.array([1.0, 0.0, 0.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            PureState(ModeBasis(("V", "H")), np.array([np.nan, 0.0]))

    def test_amplitudes_are_immutable(self):
        psi = PureState(ModeBasis(("V", "H")), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_probabilities_and_norm(self):
        psi = PureState(ModeBasis(("V", "H")), np.array([0.6, 0.8j]))
        assert psi.norm() == pytest.approx(1.0)
        assert psi.probability("H") == pytest.approx(0.64)
        np.testing.assert_allclose(psi.probabilities(), [0.36, 0.64])
        assert psi.amplitude("H") == pytest.approx(0.8j)

    def test_normalized(self):
        psi = PureState(ModeBasis(("V", "H")), np.array([3.0, 4.0]))
        np.testing.assert_allclose(psi.normalized().amplitudes, [0.6, 0.8])
        zero = PureState(ModeBasis(("V", "H")), np.zeros(2))
        with pytest.raises(ValueError, match="zero vector"):
            zero.normalized()


class TestRebuilt:
    @pytest.mark.parametrize("make, field", [
        (lambda b: PureState(b, np.array([0.6, 0.0, 0.0, 0.8j])), "amplitudes"),
        (lambda b: DensityMatrix(b, np.eye(4) / 4), "matrix"),
    ], ids=["PureState", "DensityMatrix"])
    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_arrays_stay_read_only_through_pickle_and_deepcopy(self, make, field, clone):
        basis = product_basis(ModeBasis(("V", "H")), ModeBasis(("1", "2")))
        original = make(basis)
        twin = clone(original)
        assert not getattr(twin, field).flags.writeable
        np.testing.assert_array_equal(getattr(twin, field), getattr(original, field))
        assert twin.basis == basis and twin.basis.labels == basis.labels

    def test_unpickling_runs_the_checks(self, monkeypatch):
        data = pickle.dumps(PureState(ModeBasis(("V", "H")), np.array([1.0, 0.0])))
        checked, post_init = [], PureState.__post_init__
        monkeypatch.setattr(PureState, "__post_init__",
                            lambda self: checked.append(self) or post_init(self))
        assert pickle.loads(data) is checked[0]


class TestValueEquality:
    PLAIN = ModeBasis((("V", "1"), ("V", "2"), ("H", "1"), ("H", "2")))
    #: a state or matrix over basis b, equal for equal x
    MAKERS = [
        lambda b, x: PureState(b, np.array([0.6, 0.0, 0.0, 0.8j * x])),
        lambda b, x: DensityMatrix(b, np.diag([0.5, 0.5 * x, 0.5 * (1 - x), 0.0])),
    ]

    @pytest.mark.parametrize("make", MAKERS, ids=["PureState", "DensityMatrix"])
    def test_equal_values_compare_and_hash_equal(self, make):
        lazy = product_basis(ModeBasis(("V", "H")), ModeBasis(("1", "2")))
        assert lazy.labels == self.PLAIN.labels
        a, b, plain = make(lazy, 1.0), make(lazy, 1.0), make(self.PLAIN, 1.0)
        assert a is not b and a == b and hash(a) == hash(b)
        # a lazy product basis equals a plain basis with the same labels
        assert a == plain and plain == a and hash(a) == hash(plain)
        assert len({a, b, plain}) == 1

    @pytest.mark.parametrize("make", MAKERS, ids=["PureState", "DensityMatrix"])
    def test_unequal_values_compare_unequal(self, make):
        state = make(self.PLAIN, 1.0)
        assert state != make(self.PLAIN, 0.0)
        relabeled = ModeBasis(("a", "b", "c", "d"))
        assert state != make(relabeled, 1.0)
        assert state != state.basis and state != 1.0

    def test_batched_states_compare_by_shape_and_values(self):
        basis = ModeBasis(("V", "H"))
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert PureState(basis, rows) == PureState(basis, rows.copy())
        assert PureState(basis, rows) != PureState(basis, rows[:1])
        assert PureState(basis, rows[0]) != PureState(basis, rows[:1])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        basis = ModeBasis(("V", "H"))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(basis, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_hermitian_check_is_absolute(self):
        # np.allclose's hidden rtol of 1e-5 would accept this asymmetry
        basis = ModeBasis(("V", "H"))
        m = np.array([[0.5, 0.5 + 1e-8], [0.5, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(basis, m)

    def test_rejects_wrong_trace(self):
        basis = ModeBasis(("V", "H"))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(basis, np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        basis = ModeBasis(("V", "H"))
        m = np.array([[0.5, 0.7], [0.7, 0.5]])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(basis, m)

    def test_purity(self):
        basis = ModeBasis(("V", "H"))
        assert DensityMatrix(basis, np.eye(2) / 2).purity() == pytest.approx(0.5)
        psi = PureState(basis, np.array([0.6, 0.8]))
        assert pure_density(psi).purity() == pytest.approx(1.0)


class TestApplyUnitary:
    def test_subspace_hadamard(self):
        basis = ModeBasis(("1", "2", "3"))
        psi = PureState(basis, np.array([1.0, 0.0, 0.0]))
        out = apply_unitary(psi, HADAMARD, ("1", "3"))
        np.testing.assert_allclose(out.amplitudes, [1 / RT2, 0.0, 1 / RT2])

    def test_mode_order_matters(self):
        basis = ModeBasis(("1", "2"))
        psi = PureState(basis, np.array([1.0, 0.0]))
        forward = apply_unitary(psi, HADAMARD, ("1", "2"))
        swapped = apply_unitary(psi, HADAMARD, ("2", "1"))
        np.testing.assert_allclose(forward.amplitudes, [1 / RT2, 1 / RT2])
        # with the order reversed, mode "1" takes the second Hadamard row
        np.testing.assert_allclose(swapped.amplitudes, [-1 / RT2, 1 / RT2])

    def test_rejects_non_isometry(self):
        basis = ModeBasis(("1", "2"))
        psi = PureState(basis, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="isometry"):
            apply_unitary(psi, np.array([[1.0, 1.0], [0.0, 1.0]]), ("1", "2"))

    def test_isometry_check_is_absolute(self):
        psi = PureState(ModeBasis(("1",)), np.array([1.0]))
        with pytest.raises(ValueError, match="isometry"):
            apply_unitary(psi, np.array([[1 + 1e-7]]), ("1",))

    def test_is_isometry_tolerance(self):
        assert is_isometry(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        assert is_isometry(HADAMARD.astype(complex))
        assert not is_isometry(np.array([[1 + 1e-11]]))
        assert not is_isometry(np.array([[np.nan]]))

    @pytest.mark.parametrize("dtype", [int, np.int8, np.uint8, bool, np.float32, float])
    def test_is_isometry_answers_for_integer_and_real_input(self, dtype):
        assert is_isometry(np.eye(2, dtype=dtype))
        assert is_isometry(np.array([[0, 1], [1, 0], [0, 0]], dtype=dtype))
        assert not is_isometry(np.array([[1, 1], [0, 1]], dtype=dtype))

    def test_is_isometry_takes_complex_input_as_it_is(self, monkeypatch):
        seen, vecdot = [], np.vecdot
        monkeypatch.setattr(np, "vecdot", lambda a, b, **kw: seen.append(a) or vecdot(a, b, **kw))
        matrix = HADAMARD.astype(complex)
        assert is_isometry(matrix)
        assert np.shares_memory(seen[0], matrix)

    def test_is_isometry_on_a_stack(self):
        good = np.stack([HADAMARD, np.eye(2)]).astype(complex)
        assert is_isometry(good)
        bad = good.copy()
        bad[1, 1, 1] += 1e-11
        assert not is_isometry(bad)

    @pytest.mark.parametrize("shape", [(100, 2, 2), (100, 2, 2, 2), (100, 4, 2), (100, 16, 2)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_stacks_match_a_per_matrix_oracle(self, shape, real):
        rng = np.random.default_rng(sum(shape) + real)
        z = rng.normal(size=shape) if real else rng.normal(size=shape) + 1j * rng.normal(size=shape)
        good = np.linalg.qr(z)[0]  # orthonormal columns, to rounding
        cols = shape[-1]

        def oracle(stack):
            return all(np.abs(m.conj().T @ m - np.eye(cols)).max() <= qcore.ATOL
                       for m in stack.reshape(-1, *stack.shape[-2:]))

        def verdict(stack):
            assert is_isometry(stack) == oracle(stack)
            for view in (stack[::3], stack.swapaxes(-1, -2).copy().swapaxes(-1, -2)):
                assert not view.flags.c_contiguous
                assert is_isometry(view) == oracle(view)
            return is_isometry(stack)

        assert verdict(good)
        k = np.unravel_index(57, shape[:-2])  # one matrix of the stack
        for change, ok in ((1 + 1e-13, True), (1 + 1e-11, False), (np.nan, False)):
            bad = good.copy()
            bad[k] *= change
            assert verdict(bad) is ok

    def test_basis_change_isometry(self):
        pol = ModeBasis(("V", "H"))
        psi = PureState(pol, np.array([0.6, 0.8]))
        iso = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        out = apply_unitary(psi, iso, ("V", "H"), ("1", "2", "3"))
        assert out.basis.labels == ("1", "2", "3")
        np.testing.assert_allclose(out.amplitudes, [0.6, 0.8, 0.0])

    def test_basis_change_must_consume_whole_basis(self):
        basis = ModeBasis(("1", "2", "3"))
        psi = PureState(basis, np.array([1.0, 0.0, 0.0]))
        iso = np.eye(2)
        with pytest.raises(ValueError, match="whole basis"):
            apply_unitary(psi, iso, ("1", "2"), ("a", "b"))

    def test_random_unitaries_preserve_norm(self):
        rng = np.random.default_rng(7)
        basis = ModeBasis(tuple("abcde"))
        for _ in range(25):
            z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            u, _ = np.linalg.qr(z)
            amps = rng.normal(size=5) + 1j * rng.normal(size=5)
            psi = PureState(basis, amps / np.linalg.norm(amps))
            out = apply_unitary(psi, u, basis.labels)
            assert out.norm() == pytest.approx(1.0, abs=1e-12)


class TestRunSteps:
    @staticmethod
    def steps(rng):
        """A fixed, a (3, 1)-batched and a (4,)-batched in-place step on 4 modes."""
        def unitary(shape):
            z = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
            return np.linalg.qr(z)[0]
        return (qcore.Step(unitary(()), slice(0, 2), False),
                qcore.Step(unitary((3, 1)), slice(1, 3), False),
                qcore.Step(unitary((4,)), np.array([3, 0]), False))

    @pytest.mark.parametrize("shape", [(), (4,), (3, 1)])
    def test_a_smaller_batch_grows_at_the_steps_that_need_it(self, shape):
        rng = np.random.default_rng(33)
        steps, amps = self.steps(rng), rng.normal(size=shape + (4,)) + 0j
        out = qcore.run_steps(amps.copy(), steps)
        assert out.shape == (3, 4, 4)
        full = qcore.run_steps(np.broadcast_to(amps, (3, 4, 4)).copy(), steps)
        assert out.tobytes() == full.tobytes()

    def test_a_one_row_batch_adds_its_axis(self):
        # numpy would write a (1, 2) image into an unbatched (2,) slot: the axis stays
        rng = np.random.default_rng(33)
        step = qcore.Step(self.steps(rng)[1].matrix[0], slice(1, 3), False)  # batch (1,)
        amps = rng.normal(size=4) + 0j
        out = qcore.run_steps(amps.copy(), (step,))
        assert out.shape == (1, 4)
        assert out.tobytes() == qcore.run_steps(amps[None].copy(), (step,)).tobytes()

    def test_a_failed_write_of_the_same_batch_still_raises(self):
        amps = np.zeros((3, 4, 4), dtype=complex)
        amps.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            qcore.run_steps(amps, self.steps(np.random.default_rng(33)))


class TestMeasurement:
    def test_default_groups(self):
        psi = PureState(ModeBasis(("1", "2")), np.array([0.6, 0.8j]))
        np.testing.assert_allclose(measure_distribution(psi), [0.36, 0.64])

    def test_grouped(self):
        basis = ModeBasis(("1", "2", "3", "4"))
        psi = PureState(basis, np.full(4, 0.5))
        p = measure_distribution(psi, groups=[("1", "3"), ("2", "4")])
        np.testing.assert_allclose(p, [0.5, 0.5])

    def test_rejects_overlapping_groups(self):
        basis = ModeBasis(("1", "2"))
        psi = PureState(basis, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="disjoint"):
            measure_distribution(psi, groups=[("1",), ("1", "2")])

    def test_density_matrix_input(self):
        basis = ModeBasis(("1", "2"))
        rho = DensityMatrix(basis, np.array([[0.25, 0.0], [0.0, 0.75]]))
        np.testing.assert_allclose(measure_distribution(rho), [0.25, 0.75])


class TestMixAndTrace:
    def test_mix_weights_validated(self):
        basis = ModeBasis(("V", "H"))
        a = PureState(basis, np.array([1.0, 0.0]))
        b = PureState(basis, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="sum to 1"):
            mix([(a, 0.5), (b, 0.6)])
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got -0.5 at row 0"):
            mix([(a, 1.5), (b, -0.5)])

    def test_mix_kills_coherence(self):
        basis = ModeBasis(("V", "H"))
        a = PureState(basis, np.array([1.0, 0.0]))
        b = PureState(basis, np.array([0.0, 1.0]))
        rho = mix([(a, 0.5), (b, 0.5)])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_partial_trace_product_state(self):
        a = PureState(ModeBasis(("V", "H")), np.array([0.6, 0.8]))
        b = PureState(ModeBasis(("1'", "2'")), np.array([1.0, 1.0]) / RT2)
        rho = pure_density(PureState(product_basis(a.basis, b.basis),
                                     np.kron(a.amplitudes, b.amplitudes)))
        ra = partial_trace(rho, keep=0)
        rb = partial_trace(rho, keep=1)
        np.testing.assert_allclose(
            ra.matrix, np.array([[0.36, 0.48], [0.48, 0.64]]), atol=1e-15
        )
        np.testing.assert_allclose(rb.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_partial_trace_bell_state(self):
        a = ModeBasis(("V", "H"))
        b = ModeBasis(("V'", "H'"))
        bell = PureState(product_basis(a, b), np.array([1.0, 0.0, 0.0, 1.0]) / RT2)
        reduced = partial_trace(pure_density(bell), keep=0)
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15)
        assert reduced.purity() == pytest.approx(0.5)

    def test_partial_trace_three_factors(self):
        rng = np.random.default_rng(11)
        parts = []
        for k in range(3):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            parts.append(
                PureState(ModeBasis((f"a{k}", f"b{k}")), amps / np.linalg.norm(amps))
            )
        full = PureState(product_basis(product_basis(parts[0].basis, parts[1].basis),
                                       parts[2].basis),
                         np.kron(np.kron(parts[0].amplitudes, parts[1].amplitudes),
                                 parts[2].amplitudes))
        rho = pure_density(full)
        for k in range(3):
            reduced = partial_trace(rho, keep=k)
            expected = np.outer(parts[k].amplitudes, parts[k].amplitudes.conj())
            np.testing.assert_allclose(reduced.matrix, expected, atol=1e-14)

    def test_partial_trace_requires_factorization(self):
        basis = ModeBasis(("1", "2"))
        rho = DensityMatrix(basis, np.eye(2) / 2)
        with pytest.raises(ValueError, match="factorization"):
            partial_trace(rho, keep=0)


class TestBatches:
    """States and density matrices with leading batch axes."""

    def test_pure_state_batch_shape(self):
        basis = ModeBasis(("V", "H"))
        psi = PureState(basis, np.array([[1.0, 0.0], [0.6, 0.8j]]))
        np.testing.assert_allclose(psi.probabilities(), [[1.0, 0.0], [0.36, 0.64]])
        with pytest.raises(TypeError):
            psi.norm()  # one number per state: a batch has no single norm
        with pytest.raises(ValueError, match="expected 2 amplitudes"):
            PureState(basis, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="finite"):
            PureState(basis, np.array([[1.0, 0.0], [np.inf, 0.0]]))

    def test_density_matrix_checks_every_member(self):
        basis = ModeBasis(("V", "H"))
        good = np.eye(2) / 2
        with pytest.raises(ValueError, match="trace must be 1, got 0.8"):
            DensityMatrix(basis, np.stack([good, np.diag([0.4, 0.4])]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(basis, np.stack([good, np.diag([1.5, -0.5])]))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(basis, np.stack([good, [[0.5, 0.1], [0.0, 0.5]]]))

    def test_mix_with_weight_arrays_equals_each_row(self):
        basis = ModeBasis(("V", "H"))
        a = PureState(basis, np.array([[1.0, 0.0], [0.6, 0.8]]))
        b = PureState(basis, np.array([[0.0, 1.0], [0.8, -0.6]]))
        w = np.array([0.25, 0.7])
        rho = mix([(a, w), (b, 1 - w)])
        assert rho.matrix.shape == (2, 2, 2)
        for k in range(2):
            one = mix([(PureState(basis, a.amplitudes[k]), w[k]),
                       (PureState(basis, b.amplitudes[k]), 1 - w[k])])
            np.testing.assert_array_equal(rho.matrix[k], one.matrix)
        with pytest.raises(ValueError, match="sum to 1"):
            mix([(a, w), (b, w)])

    def test_measure_distribution_groups_per_row(self):
        basis = ModeBasis(("1", "2", "3"))
        psi = PureState(basis, np.array([[0.6, 0.8, 0.0], [0.0, 0.6, 0.8]]))
        np.testing.assert_allclose(
            measure_distribution(psi, [("1", "2"), ("3",)]), [[1.0, 0.0], [0.36, 0.64]]
        )


class TestValues:
    """Settings are normalized once: float64 values pass on as they are."""

    def test_float64_values_come_back_as_the_same_object(self):
        x, a = np.float64(0.3), np.linspace(0.0, 1.0, 5)
        strided, frozen = a[::2], np.ones(3)
        frozen.flags.writeable = False
        for value in (x, a, strided, frozen):
            assert as_values(value) is value
        for given in ((x, np.float64(-0.0)), (a, 2 * a, frozen[:1] + a)):
            assert all(got is value for got, value in zip(broadcast_values(*given), given))
        spread, *rest = broadcast_values(x, a, a)  # only the number is broadcast
        assert spread.shape == a.shape and all(got is a for got in rest)

    @pytest.mark.parametrize("value, expected", [
        (3, 3.0), (True, 1.0), (0.25, 0.25), (np.float32(0.5), 0.5), (np.array(0.75), 0.75),
        ([1, 2], [1.0, 2.0]), ((0.5, 1.5), [0.5, 1.5]), (np.arange(3), [0.0, 1.0, 2.0]),
        (np.arange(3.0).astype(">f8"), [0.0, 1.0, 2.0])])
    def test_other_values_are_converted(self, value, expected):
        got = as_values(value)
        assert got.dtype == np.float64 and got is not value
        # one number becomes a numpy scalar, 0-d arrays included
        assert type(got) is (np.float64 if np.ndim(value) == 0 else np.ndarray)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("value", [-0.0, np.float64(-0.0), np.array(-0.0), np.array([-0.0]),
                                       [-0.0, 0.0]])
    def test_negative_zero_keeps_its_sign(self, value):
        assert np.signbit(as_values(value)).tolist() == np.signbit(value).tolist()

    def test_values_of_several_shapes_still_broadcast(self):
        a, b = broadcast_values(0.5, np.arange(3.0))
        assert a.shape == b.shape == (3,)
        np.testing.assert_array_equal(a, 0.5)
        with pytest.raises(ValueError, match="shape mismatch"):
            broadcast_values(np.zeros(2), np.zeros(3))


class TestCertification:
    """One trusted constructor and one probability-table rule, in qcore."""

    def test_only_the_trusted_constructor_bypasses_a_constructor(self):
        lines, start = inspect.getsourcelines(qcore._trusted)
        inside = range(start, start + len(lines))
        found = [(path.name, n) for path in sorted(Path(qcore.__file__).parent.glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if "object.__new__" in line]
        assert len(found) == 1 and found[0][0] == "qcore.py" and found[0][1] in inside
        gone = [(PureState, "_wrap"), (entangle.CoincidenceTable, "_wrap"),
                (shots.CountTable, "_drawn"), (optics, "_slot_element"), (ModeBasis, "_product"),
                (entangle, "_check_tables")]
        assert [name for owner, name in gone if hasattr(owner, name)] == []

    def test_trusted_instances_skip_init_and_freeze_their_arrays(self, monkeypatch):
        monkeypatch.setattr(PureState, "__init__", lambda *args: pytest.fail("__init__ ran"))
        amps = np.array([0.6, 0.8j])
        state = qcore._trusted(PureState, basis=ModeBasis(("V", "H")), amplitudes=amps)
        assert state.amplitudes is amps and not amps.flags.writeable
        assert vars(state) == {"basis": ModeBasis(("V", "H")), "amplitudes": amps}

    def test_valid_rows_pass_uncopied(self):
        rows = np.full((3, 4, 4), 1 / 16)
        assert check_distribution(rows, "t", axis=(-2, -1)) is rows
        assert check_distribution([[0.25, 1.0], [0.75, 0.0]], "w").tolist() == [
            [0.25, 1.0], [0.75, 0.0]]  # outcomes on the first axis by default
        check_distribution(np.array([1 + 1e-12, -1e-12]), "w")  # round-off passes

    @pytest.mark.parametrize("values, axis, message", [
        ([[0.5, 0.5], [0.5, 0.6]], -1, "must sum to 1, got 1.1 at row 1"),
        ([[0.5, 0.5], [1.5, -0.5]], -1, r"must lie in \[0, 1\], got -0.5 at row 1"),
        ([[1.5, 0.5], [-0.5, 0.5]], 0, r"must lie in \[0, 1\], got -0.5 at row 0"),
        ([[0.5, 0.5], [0.5, np.nan]], -1, r"must lie in \[0, 1\], got nan at row 1"),
        ([[0.5, 0.5], [1 + 1e-11, -1e-11]], -1, r"must lie in \[0, 1\], got -1e-11 at row 1"),
        (np.full((2, 3, 2, 2), 0.25), (1, 3), r"must sum to 1, got 1.5 at row 0"),
        (np.zeros((0, 4)), -1, r"needs at least one row, got shape \(0, 4\)"),
        (np.zeros((2, 0)), -1, "must sum to 1, got 0.0 at row 0"),
    ])
    def test_an_error_names_the_first_bad_row(self, values, axis, message):
        with pytest.raises(ValueError, match="^table " + message):
            check_distribution(values, "table", axis=axis)
