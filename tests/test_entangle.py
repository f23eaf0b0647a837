"""Tests for two-photon coincidences, concurrence, and the n-photon extension."""
import copy
import itertools
import pickle
from functools import reduce
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import wptoolbox.entangle as entangle
import wptoolbox.toolbox as toolbox
from wptoolbox.entangle import (
    CoincidenceTable,
    TwoPhotonSettings,
    coincidence_closed_forms,
    coincidence_probabilities,
    concurrence,
    entanglement_witness,
    ghz_output,
    ghz_sector_probabilities,
    mixture_coincidence_probabilities,
    mixture_two_photon_output,
    sector_projection,
    two_photon_batch,
    two_photon_output,
    vh_variant_output,
    wootters_concurrence,
)
from wptoolbox.qcore import (
    DensityMatrix,
    ModeBasis,
    PureState,
    check_distribution,
    measure_distribution,
    product_basis,
)
from wptoolbox.shots import (
    NoiseModel,
    noisy_coincidence_probabilities,
    noisy_single_probabilities,
)
from wptoolbox.toolbox import (
    BETA_DIRECT,
    BETA_SPLIT,
    ToolboxPhases,
    mixed_output,
    output_state,
    particle_state,
    single_photon_batch,
    wave_state,
)

PI = np.pi


def settings(alpha=PI / 4, phi1=0.0, phi2=0.0, phi1p=0.0, phi2p=0.0,
             beta_a=BETA_SPLIT, beta_b=BETA_SPLIT):
    return TwoPhotonSettings(
        alpha=alpha,
        phases_a=ToolboxPhases(phi1, phi2),
        phases_b=ToolboxPhases(phi1p, phi2p),
        beta_a=beta_a,
        beta_b=beta_b,
    )


#: the eight pairwise degeneracies of the balanced-mixer table (1-based)
SYMMETRIC_PAIRS = [
    ((1, 1), (2, 2)), ((1, 2), (2, 1)),
    ((1, 3), (2, 4)), ((1, 4), (2, 3)),
    ((3, 1), (4, 2)), ((3, 2), (4, 1)),
    ((3, 3), (4, 4)), ((3, 4), (4, 3)),
]


class TestCoincidenceTable:
    def test_shape_checked(self):
        with pytest.raises(ValueError, match="4x4"):
            CoincidenceTable(np.full((2, 2), 0.25))

    def test_normalization_checked(self):
        with pytest.raises(ValueError, match="must sum to 1, got 1.6"):
            CoincidenceTable(np.full((4, 4), 0.1))

    def test_range_checked(self):
        m = np.zeros((4, 4))
        m[0, 0] = 1.5
        m[0, 1] = -0.5
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            CoincidenceTable(m)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got nan"):
            CoincidenceTable(np.full((4, 4), np.nan))
        stack = np.full((3, 4, 4), 1 / 16)
        stack[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got nan at row 1"):
            check_distribution(stack, "coincidence probabilities", axis=(-2, -1))

    def test_engine_checks_every_table_of_a_stack(self):
        stack = np.full((3, 4, 4), 1 / 16)
        check_distribution(stack, "coincidence probabilities", axis=(-2, -1))
        stack[2, 0, 0] += 0.01
        with pytest.raises(ValueError, match="sum to 1, got 1.01 at row 2"):
            check_distribution(stack, "coincidence probabilities", axis=(-2, -1))
        stack[2, 0, 0] = -0.5
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got -0.5 at row 2"):
            check_distribution(stack, "coincidence probabilities", axis=(-2, -1))

    @pytest.mark.parametrize("det", [0, 5, 1.5, 2.0, True, "2", None])
    def test_detector_indices_are_integers_from_one_to_four(self, det):
        table = coincidence_probabilities(TwoPhotonSettings())
        for args in ((det, 1), (1, det)):
            with pytest.raises(ValueError, match="detector indices must be integers from 1 to 4"):
                table.prob(*args)
        assert table.prob(np.int64(2), 4) == table.prob(2, 4) == table.matrix[1, 3]

    def test_tables_compare_and_hash_by_value(self):
        m = np.arange(16.0).reshape(4, 4) / 120
        a, b = CoincidenceTable(m), CoincidenceTable(m.T.copy().T)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != CoincidenceTable(m.T) and a != CoincidenceTable(np.full((4, 4), 1 / 16))
        assert a.__eq__(m) is NotImplemented

    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_matrix_stays_read_only_through_pickle_and_deepcopy(self, clone):
        table = coincidence_probabilities(TwoPhotonSettings())
        twin = clone(table)
        assert twin == table and not twin.matrix.flags.writeable

    @pytest.mark.parametrize("kind", ["ideal", "mixture", "noisy"])
    def test_tables_are_the_read_only_engine_row_bit_for_bit(self, kind):
        # the engine's checked table is wrapped, not copied and checked again
        s = TwoPhotonSettings(0.4, ToolboxPhases(0.3, 1.1), ToolboxPhases(2.0, 0.7), BETA_SPLIT, 0.3)
        model = NoiseModel(0.8, 0.25)
        table, scale = {
            "ideal": lambda: (coincidence_probabilities(s), 1.0),
            "mixture": lambda: (mixture_coincidence_probabilities(s), 0.0),
            "noisy": lambda: (noisy_coincidence_probabilities(s, model), model.fringe_scale),
        }[kind]()
        row = two_photon_batch(0.4, 0.3, 1.1, 2.0, 0.7, BETA_SPLIT, 0.3, scale).probabilities
        assert type(table) is CoincidenceTable and not table.matrix.flags.writeable
        assert table.matrix.dtype == np.float64 and table.matrix.tobytes() == row.tobytes()
        assert table == CoincidenceTable(row)

    @pytest.mark.parametrize("table", [coincidence_probabilities, mixture_coincidence_probabilities,
                                       lambda s: noisy_coincidence_probabilities(s, NoiseModel(0.9))])
    def test_tables_still_refuse_a_batched_setting(self, table):
        s = TwoPhotonSettings(np.array([0.3, 0.5]))
        with pytest.raises(ValueError, match=r"needs one setting, got a batch of shape \(2,\)$"):
            table(s)

    def test_prob_is_one_based(self):
        m = np.zeros((4, 4))
        m[1, 0] = 1.0
        t = CoincidenceTable(m)
        assert t.prob(2, 1) == 1.0
        with pytest.raises(ValueError, match="1 to 4"):
            t.prob(0, 1)


class TestPairState:
    def test_entangled_input_amplitudes(self):
        # in the {ww', wp', pw', pp'} sector the output is the input's
        # cos(a)|VV'> + sin(a)|HH'> with V -> w and H -> p
        s = settings(alpha=0.3, phi1=0.8, phi2=1.9, phi1p=2.2, phi2p=0.1, beta_b=0.0)
        sector = sector_projection(two_photon_output(s), s)
        amps = np.array([np.cos(0.3), 0.0, 0.0, np.sin(0.3)])
        np.testing.assert_allclose(sector, np.outer(amps, amps), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("beta_a, beta_b", [(BETA_SPLIT, BETA_SPLIT), (0.0, 0.3)])
    def test_mixture_is_the_two_histories_weighted(self, beta_a, beta_b):
        alpha = 0.4
        s = settings(alpha, 0.8, 1.9, 2.2, 0.1, beta_a, beta_b)
        w = wave_state(0.8, beta_a).amplitudes
        p = particle_state(1.9, beta_a).amplitudes
        wp = wave_state(2.2, beta_b).amplitudes
        pp = particle_state(0.1, beta_b).amplitudes
        ww, both_p = np.kron(w, wp), np.kron(p, pp)
        expected = (np.cos(alpha) ** 2 * np.outer(ww, ww.conj())
                    + np.sin(alpha) ** 2 * np.outer(both_p, both_p.conj()))
        rho = mixture_two_photon_output(s)
        np.testing.assert_allclose(rho.matrix, expected, rtol=0, atol=1e-15)
        assert rho.basis == two_photon_output(s).basis

    def test_output_normalized_everywhere(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            s = settings(
                alpha=rng.uniform(0, PI / 2),
                phi1=rng.uniform(0, 2 * PI),
                phi2=rng.uniform(0, 2 * PI),
                phi1p=rng.uniform(0, 2 * PI),
                phi2p=rng.uniform(0, 2 * PI),
                beta_a=rng.choice([0.0, BETA_SPLIT]),
                beta_b=rng.choice([0.0, BETA_SPLIT]),
            )
            assert two_photon_output(s).norm() == pytest.approx(1.0, abs=1e-12)


class TestCoincidences:
    def test_frozen_table_all_zero_phases(self):
        t = coincidence_probabilities(settings())
        assert t.prob(1, 1) == pytest.approx(9 / 32, abs=1e-14)
        assert t.prob(2, 2) == pytest.approx(9 / 32, abs=1e-14)
        for a in range(1, 5):
            for b in range(1, 5):
                if (a, b) not in ((1, 1), (2, 2)):
                    assert t.prob(a, b) == pytest.approx(1 / 32, abs=1e-14)

    def test_sum_and_symmetries_random(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            s = settings(
                alpha=rng.uniform(0, PI / 2),
                phi1=rng.uniform(0, 2 * PI), phi2=rng.uniform(0, 2 * PI),
                phi1p=rng.uniform(0, 2 * PI), phi2p=rng.uniform(0, 2 * PI),
            )
            t = coincidence_probabilities(s)
            assert t.matrix.sum() == pytest.approx(1.0, abs=1e-12)
            for (a, b), (c, d) in SYMMETRIC_PAIRS:
                assert t.prob(a, b) == pytest.approx(t.prob(c, d), abs=1e-12)

    def test_closed_forms_match_propagation(self):
        rng = np.random.default_rng(23)
        for k in range(60):
            alpha = rng.uniform(0, PI / 2)
            pa = ToolboxPhases(*rng.uniform(0, 2 * PI, size=2))
            pb = ToolboxPhases(*rng.uniform(0, 2 * PI, size=2))
            # every pair of mixers from pi/8, off and anywhere in [-1, 1]
            choices = (BETA_SPLIT, BETA_DIRECT, rng.uniform(-1, 1))
            beta_a, beta_b = choices[k % 3], choices[k // 3 % 3]
            s = TwoPhotonSettings(alpha, pa, pb, beta_a, beta_b)
            np.testing.assert_allclose(
                coincidence_closed_forms(alpha, pa, pb, beta_a, beta_b),
                coincidence_probabilities(s).matrix,
                atol=1e-13,
            )

    def test_marginals_show_no_fringe(self):
        # each photon's own counts match the classical mixture, not the
        # coherent single-photon state
        s = settings(alpha=0.55, phi1=1.2, phi2=0.3, phi1p=2.0, phi2p=1.1)
        t = coincidence_probabilities(s)
        mixed_a = measure_distribution(mixed_output(0.55, s.phases_a))
        mixed_b = measure_distribution(mixed_output(0.55, s.phases_b))
        np.testing.assert_allclose(t.marginal_a(), mixed_a, atol=1e-13)
        np.testing.assert_allclose(t.marginal_b(), mixed_b, atol=1e-13)
        pure_a = output_state(0.55, s.phases_a).probabilities()
        assert np.max(np.abs(t.marginal_a() - pure_a)) > 0.05

    def test_mixers_off_corner_tables(self):
        # with both mixers absent the correlated source fills the wave block
        # or the particle block only
        for phi1, phi1p in ((0.0, 0.0), (0.0, PI), (PI, 0.0), (PI, PI)):
            s = settings(phi1=phi1, phi1p=phi1p, beta_a=0.0, beta_b=0.0)
            t = coincidence_probabilities(s)
            wave_a = 0 if phi1 == 0.0 else 2  # detector 1 or 3 (0-based)
            wave_b = 0 if phi1p == 0.0 else 2
            assert t.matrix[wave_a, wave_b] == pytest.approx(0.5, abs=1e-14)
            for a in (1, 3):
                for b in (1, 3):
                    assert t.matrix[a, b] == pytest.approx(1 / 8, abs=1e-14)
            # crossed blocks stay empty
            assert t.matrix[np.ix_((0, 2), (1, 3))].max() < 1e-14
            assert t.matrix[np.ix_((1, 3), (0, 2))].max() < 1e-14


class TestPairEngine:
    """One engine call over N settings equals N single-setting calls."""

    @hyp_settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rows_equal_single_setting_calls_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 6), label="n")

        def column(strategy):
            return data.draw(st.lists(strategy, min_size=n, max_size=n))
        beta_choice = st.sampled_from([BETA_DIRECT, BETA_SPLIT]) | st.floats(0.0, PI / 4)
        alpha = column(st.floats(-0.6, 2.2))  # reaches outside [0, pi/2]
        phi1, phi2, phi1p, phi2p = (column(st.floats(0.0, 2 * PI)) for _ in range(4))
        beta, betap = column(beta_choice), column(beta_choice)
        visibility = column(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        dephase = column(st.just(0.0) | st.floats(0.0, 1.0))
        models = [NoiseModel(v, d) for v, d in zip(visibility, dephase)]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = two_photon_batch(
                *map(np.array, (alpha, phi1, phi2, phi1p, phi2p, beta, betap)),
                np.array([m.fringe_scale for m in models]),
            )
        outside = any(not 0.0 <= a <= PI / 2 for a in alpha)
        assert any("outside" in str(w.message) for w in caught) == outside
        assert batch.amplitudes.shape == (n, 16)
        assert batch.probabilities.shape == (n, 4, 4)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in range(n):
                s = settings(alpha[k], phi1[k], phi2[k], phi1p[k], phi2p[k],
                             beta[k], betap[k])
                row = batch.probabilities[k].tobytes()
                assert row == noisy_coincidence_probabilities(s, models[k]).matrix.tobytes()
                out = two_photon_output(s)
                assert batch.amplitudes[k].tobytes() == out.amplitudes.tobytes()
                if models[k].fringe_scale == 1.0:
                    assert row == coincidence_probabilities(s).matrix.tobytes()
                if models[k].fringe_scale == 0.0:
                    assert row == mixture_coincidence_probabilities(s).matrix.tobytes()

    def test_scalar_settings_give_unbatched_rows(self):
        batch = two_photon_batch(0.4, 0.7, 1.9, 2.2, 0.3)
        assert batch.amplitudes.shape == (16,)
        assert batch.probabilities.shape == (4, 4)
        s = settings(0.4, 0.7, 1.9, 2.2, 0.3)
        np.testing.assert_array_equal(
            batch.probabilities, coincidence_probabilities(s).matrix
        )

    def test_settings_broadcast(self):
        phi1 = np.linspace(0.0, PI, 5)
        batch = two_photon_batch(0.4, phi1, 1.9, 2.2, 0.3, BETA_SPLIT, 0.0)
        assert batch.probabilities.shape == (5, 4, 4)
        for k, p in enumerate(phi1):
            s = settings(0.4, p, 1.9, 2.2, 0.3, BETA_SPLIT, 0.0)
            np.testing.assert_array_equal(
                batch.probabilities[k], coincidence_probabilities(s).matrix
            )

    def test_closed_forms_broadcast_row_by_row(self):
        rng = np.random.default_rng(31)
        alpha = rng.uniform(0, PI / 2, size=(3, 1))
        pa = ToolboxPhases(rng.uniform(0, 2 * PI, size=4), 0.8)
        pb = ToolboxPhases(1.3, rng.uniform(0, 2 * PI, size=(3, 4)))
        forms = coincidence_closed_forms(alpha, pa, pb)
        assert forms.shape == (3, 4, 4, 4)
        for i, j in itertools.product(range(3), range(4)):
            one = coincidence_closed_forms(
                alpha[i, 0], ToolboxPhases(pa.phi1[j], 0.8), ToolboxPhases(1.3, pb.phi2[i, j])
            )
            assert forms[i, j].tobytes() == one.tobytes()

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
        with pytest.raises(
            RuntimeError, match=r"pair state disagrees with propagation .* at row 2 \(alpha="
        ):
            two_photon_batch(alpha, phi1, 1.9, 0.6, 2.4, beta, beta)

    def test_closed_form_table_check_names_the_failing_row(self, monkeypatch):
        exact = entangle._coincidence_forms

        def perturbed(*args):
            mean, fringe = exact(*args)
            fringe = fringe.copy()
            fringe[3, 1, 2] += 1e-9
            return mean, fringe

        monkeypatch.setattr(entangle, "_coincidence_forms", perturbed)
        phi1 = np.linspace(0.3, 5.0, 5)
        with pytest.raises(
            RuntimeError, match=r"coincidence table disagrees with propagation .* at row 3 \("
        ):
            two_photon_batch(0.7, phi1, 1.9, 0.6, 2.4)
        # the closed forms hold, and are compared, at any mixer angles
        with pytest.raises(RuntimeError, match=r"at row 3 \("):
            two_photon_batch(0.7, phi1, 1.9, 0.6, 2.4, BETA_SPLIT, 0.3)

    @pytest.mark.parametrize("beta, beta_prime", [(0.3, 0.3), (0.3, BETA_DIRECT), (-0.4, 0.3)])
    def test_tables_are_checked_off_pi_8(self, monkeypatch, beta, beta_prime):
        exact = entangle._coincidence_forms

        def perturbed(*args):
            mean, fringe = exact(*args)
            mean = mean.copy()
            mean[2, 0, 3] += 1e-9  # one row of the batch
            return mean, fringe

        monkeypatch.setattr(entangle, "_coincidence_forms", perturbed)
        phi1 = np.linspace(0.3, 5.0, 5)
        with pytest.raises(
            RuntimeError, match=r"coincidence table disagrees with propagation .* at row 2 \("
        ):
            two_photon_batch(0.7, phi1, 1.9, 0.6, 2.4, beta, beta_prime)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="needs at least one setting"):
            two_photon_batch(np.array([]), 0.0, 0.0, 0.0, 0.0)

    @hyp_settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_balanced_rows_keep_symmetries_and_normalization(self, data):
        n = data.draw(st.integers(1, 8), label="n")

        def column(strategy):
            return np.array(data.draw(st.lists(strategy, min_size=n, max_size=n)))
        phases = [column(st.floats(0.0, 2 * PI)) for _ in range(4)]
        scale = column(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        tables = two_photon_batch(
            column(st.floats(0.0, PI / 2)), *phases, fringe_scale=scale
        ).probabilities
        np.testing.assert_allclose(tables.sum(axis=(1, 2)), 1.0, rtol=0, atol=1e-12)
        for (a, b), (c, d) in SYMMETRIC_PAIRS:
            np.testing.assert_allclose(
                tables[:, a - 1, b - 1], tables[:, c - 1, d - 1], rtol=0, atol=1e-12
            )


class TestWitness:
    def test_quarter_cosine_fringe(self):
        for phi1 in np.linspace(0, 2 * PI, 25):
            t = coincidence_probabilities(settings(phi1=phi1))
            expected = 0.25 * np.cos(phi1 / 2) ** 2
            assert entanglement_witness(t) == pytest.approx(expected, abs=1e-12)

    def test_vanishes_without_entanglement(self):
        for alpha in (0.0, PI / 2):
            t = coincidence_probabilities(settings(alpha=alpha, phi1=0.7))
            assert entanglement_witness(t) == pytest.approx(0.0, abs=1e-13)

    def test_vanishes_for_mixture(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            s = settings(
                alpha=rng.uniform(0, PI / 2),
                phi1=rng.uniform(0, 2 * PI), phi1p=rng.uniform(0, 2 * PI),
            )
            t = mixture_coincidence_probabilities(s)
            assert entanglement_witness(t) == pytest.approx(0.0, abs=1e-13)


class TestConcurrence:
    def test_sine_of_two_alpha(self):
        for alpha in np.linspace(0, PI / 2, 13):
            s = settings(alpha=alpha, phi1=0.9, phi2=0.2, phi1p=1.7, phi2p=2.5)
            assert concurrence(s) == pytest.approx(np.sin(2 * alpha), abs=1e-10)

    def test_mixture_unentangled(self):
        for alpha in (0.3, PI / 4, 1.1):
            assert concurrence(settings(alpha=alpha), mixed=True) == pytest.approx(
                0.0, abs=1e-10
            )

    @pytest.mark.parametrize("mixed, form", [(False, "pure-state formula"),
                                             (True, "mixture's closed form")])
    def test_a_perturbed_sector_raises_against_the_closed_form(self, monkeypatch, mixed, form):
        # a rotation by 1e-9 between |ww> and |pp> moves the value by about 7e-10; the
        # sector stays a density matrix, so only the comparison with the closed form
        # can see it
        exact, rot = entangle._in_sector, np.eye(4)
        rot[np.ix_((0, 3), (0, 3))] = [[np.cos(1e-9), -np.sin(1e-9)],
                                       [np.sin(1e-9), np.cos(1e-9)]]
        monkeypatch.setattr(entangle, "_in_sector", lambda *args: rot @ exact(*args) @ rot.T)
        with pytest.raises(RuntimeError, match=rf"^spin-flip concurrence \S+ disagrees"
                                               rf" with the {form} "):
            concurrence(settings(alpha=0.6, phi1=0.9, phi2=0.2, phi1p=1.7), mixed=mixed)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_a_negative_sector_eigenvalue_raises(self, monkeypatch, mixed):
        # weight moved from |wp> to |pw>: trace 1 and Hermitian, one eigenvalue -1e-6
        exact, shift = entangle._in_sector, np.diag([0.0, -1e-6, 1e-6, 0.0])
        monkeypatch.setattr(entangle, "_in_sector", lambda *args: exact(*args) + shift)
        with pytest.raises(ValueError, match=r"^two-qubit density matrix has an eigenvalue"
                                             r" -1\.000e-06 below -1e-10$"):
            concurrence(settings(alpha=0.6, phi1=0.9, phi2=0.2, phi1p=1.7), mixed=mixed)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_the_engine_sector_skips_the_foreign_matrix_checks(self, monkeypatch, mixed):
        # concurrence gives the public function's bits without calling it
        s = settings(alpha=0.6, phi1=0.9, phi2=0.2, phi1p=1.7)
        state = mixture_two_photon_output(s) if mixed else two_photon_output(s)
        expected = wootters_concurrence(sector_projection(state, s))

        def refused(rho):
            raise AssertionError("a foreign matrix's checks ran")
        monkeypatch.setattr(entangle, "wootters_concurrence", refused)
        assert concurrence(s, mixed).hex() == expected.hex()

    def test_variant_pair_maximal(self):
        s = settings(phi1=0.8, phi2=1.9, phi1p=2.2, phi2p=0.1)
        rho = sector_projection(vh_variant_output(s), s)
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-10)

    def test_variant_pair_anticorrelated_histories(self):
        # mixers off: photon A firing a wave detector forces photon B onto a
        # particle detector and vice versa
        s = settings(phi1=0.4, phi1p=1.3, beta_a=0.0, beta_b=0.0)
        t = (np.abs(vh_variant_output(s).amplitudes) ** 2).reshape(4, 4)
        assert t[np.ix_((0, 2), (0, 2))].max() < 1e-14
        assert t[np.ix_((1, 3), (1, 3))].max() < 1e-14
        assert t.sum() == pytest.approx(1.0, abs=1e-13)

    def test_projection_rejects_outside_sector(self):
        basis = product_basis(ModeBasis(("1", "2", "3", "4")),
                              ModeBasis(("1'", "2'", "3'", "4'")))
        amps = np.zeros(16)
        amps[0] = 1.0  # bare |1 1'>, not a wave/particle product
        with pytest.raises(ValueError, match="sector"):
            sector_projection(PureState(basis, amps), settings())

    def test_sector_isometry_matches_kron_columns_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            alpha = rng.uniform(0, PI / 2)
            phi1, phi2, phi1p, phi2p = rng.uniform(-7, 7, 4)
            beta_a, beta_b = (rng.choice([0.0, BETA_SPLIT, rng.uniform(-1, 1)]) for _ in "ab")
            s = settings(alpha, phi1, phi2, phi1p, phi2p, beta_a, beta_b)
            histories = entangle._entangled(entangle._pair_settings(s))
            (wa, pa), (wb, pb) = histories.histories  # photon k's (wave, particle) in row k
            kron = np.stack([np.kron(wa, wb), np.kron(wa, pb), np.kron(pa, wb),
                             np.kron(pa, pb)], axis=1)
            iso = histories.sector()
            assert iso.shape == (16, 4) and iso.flags.c_contiguous
            assert iso.tobytes() == kron.tobytes()

    def test_single_photon_sector_is_the_stacked_histories_bit_for_bit(self):
        rng = np.random.default_rng(48)
        for beta in (0.0, BETA_SPLIT, *rng.uniform(-1, 1, 20)):
            phases = ToolboxPhases(*rng.uniform(-7, 7, 2))
            single = toolbox._single_photon(toolbox._single_settings(0.4, phases, beta))
            w, p = single.histories[0]
            assert single.sector().tobytes() == np.stack([w, p], axis=1).tobytes()

    @pytest.mark.parametrize("source", ["single", "pair"])
    def test_sector_rejects_overlapping_histories(self, source):
        s = settings(0.4, 0.7, 1.9, 0.3, 2.2)
        histories = (entangle._entangled(entangle._pair_settings(s)) if source == "pair"
                     else toolbox._single_photon(toolbox._single_settings(0.4, s.phases_a,
                                                                          s.beta_a)))
        with pytest.raises(RuntimeError, match="wave/particle basis not orthogonal"):
            waves_as_particles(histories).sector()

    def test_wootters_bell_state(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert wootters_concurrence(np.outer(bell, bell)) == pytest.approx(1.0)
        assert wootters_concurrence(np.eye(4) / 4) == pytest.approx(0.0)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_projection_refuses_a_batch(self, mixed):
        s = settings(alpha=np.array([0.3, 0.5, 0.7]))
        state = mixture_two_photon_output(s) if mixed else two_photon_output(s)
        with pytest.raises(ValueError, match=r"^sector_projection needs one state, got a batch"
                                             r" of shape \(3,\)$"):
            sector_projection(state, settings())

    @pytest.mark.parametrize("state", [output_state(0.3), ghz_output(3, 0.3),
                                       mixed_output(0.3), two_photon_output(settings()).amplitudes])
    def test_projection_refuses_another_basis(self, state):
        if isinstance(state, np.ndarray):  # the pair's amplitudes over other labels
            state = PureState(ModeBasis(tuple("abcdefghijklmnop")), state)
        with pytest.raises(ValueError, match=r"^sector_projection needs a state over the"
                                             r" pair's path basis, got ModeBasis\("):
            sector_projection(state, settings())

    @pytest.mark.parametrize("rho, message", [
        (np.full((4, 4), np.nan), "must be finite"),
        (np.diag([0.5, 0.5, 0.0, np.inf]), "must be finite"),
        (np.diag([2.0, 0.0, 0.0, 0.0]), r"must have trace 1, got 2\.0$"),
        (np.eye(4) / 4 + np.triu(np.full((4, 4), 1e-6), 1), r"must be Hermitian within 1e-12$"),
        (np.diag([0.6, 0.5, 0.0, -0.1]), r"has an eigenvalue -1\.000e-01 below -1e-10$"),
    ])
    def test_wootters_refuses_a_non_density_matrix(self, rho, message):
        with pytest.raises(ValueError, match="^two-qubit density matrix " + message):
            wootters_concurrence(rho)

    def test_wootters_accepts_the_density_matrix_tolerances(self):
        # each condition just inside the bound DensityMatrix allows
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell) * (1 + 5e-10)
        rho[0, 1] += 5e-13
        DensityMatrix(product_basis(ModeBasis("ab"), ModeBasis("cd")), rho)
        assert wootters_concurrence(rho) == pytest.approx(1.0)
        assert wootters_concurrence(np.diag([0.6, 0.4 + 5e-11, 0.0, -5e-11])) == 0.0


class TestGhzExtension:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_basis_matches_nested_products(self, n):
        nested = toolbox._photon_basis(0)
        # the materialized labels, built as nested products of flat label tuples
        labels = nested.labels
        for k in range(1, n):
            photon = toolbox._photon_basis(k)
            nested = product_basis(nested, photon)
            labels = tuple((head if k > 1 else (head,)) + (tail,)
                           for head in labels for tail in photon.labels)
        basis = ghz_output(n, 0.4).basis
        assert basis.labels == nested.labels == labels
        assert basis.factors == nested.factors
        materialized = ModeBasis(labels)
        assert basis == materialized and materialized == basis and basis == nested
        assert basis.dimension == len(labels) == 4**n
        assert all(basis.index(label) == i for i, label in enumerate(labels))
        assert all(label in basis for label in labels)
        first = labels[0] if n > 1 else (labels[0],)  # as a tuple of paths
        strangers = [first + ("1",), first[:-1], list(first), "1'" * n,
                     tuple(path + "'" for path in first), (["1"],) * n]
        for label in strangers:
            assert label not in basis and label not in materialized
            with pytest.raises(KeyError, match="not in basis"):
                basis.index(label)
        if n == 1:
            assert basis.factors is None and basis.labels == ("1", "2", "3", "4")

    def test_photon_number_bounds(self):
        with pytest.raises(ValueError, match="photon number"):
            ghz_output(0, PI / 4)
        with pytest.raises(ValueError, match="photon number"):
            ghz_output(9, PI / 4)

    def test_photon_number_of_any_integral_type(self):
        phases = ToolboxPhases(0.8, 2.1)
        wide = ghz_output(np.int64(3), 0.3, phases)
        assert wide.amplitudes.tobytes() == ghz_output(3, 0.3, phases).amplitudes.tobytes()
        assert wide.basis == ghz_output(3, 0.3).basis
        with pytest.raises(ValueError, match=r"photon number must be an integer in \[1, 8\]"):
            ghz_output(True, 0.3)

    @pytest.mark.parametrize("source", [ghz_output, ghz_sector_probabilities])
    def test_non_finite_alpha_rejected(self, source):
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            source(3, np.nan)

    @pytest.mark.parametrize("source", [ghz_output, ghz_sector_probabilities])
    @pytest.mark.parametrize("alpha", [-0.2, 2.0])
    def test_alpha_outside_quadrant_warns_once(self, source, alpha):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            source(3, alpha)
        assert [str(w.message).split(";")[0] for w in caught] == [
            f"alpha={alpha:.6g} lies outside [0, pi/2]"]

    def test_single_photon_reduces_to_toolbox(self):
        phases = ToolboxPhases(1.1, 0.6)
        one = ghz_output(1, 0.4, phases)
        np.testing.assert_allclose(
            one.amplitudes, output_state(0.4, phases).amplitudes, atol=1e-13
        )

    def test_history_patterns_two_valued(self):
        probs = ghz_sector_probabilities(3, PI / 4, ToolboxPhases(PI / 2, 0.0))
        assert probs["www"] == pytest.approx(0.5, abs=1e-13)
        assert probs["ppp"] == pytest.approx(0.5, abs=1e-13)
        crossed = {k: v for k, v in probs.items() if k not in ("www", "ppp")}
        assert len(crossed) == 6
        assert max(crossed.values()) < 1e-13

    def test_history_pattern_weights_follow_alpha(self):
        alpha = 0.35
        probs = ghz_sector_probabilities(4, alpha, ToolboxPhases(0.9, 1.4))
        assert probs["wwww"] == pytest.approx(np.cos(alpha) ** 2, abs=1e-13)
        assert probs["pppp"] == pytest.approx(np.sin(alpha) ** 2, abs=1e-13)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_patterns_need_mixers_off(self):
        with pytest.raises(ValueError, match="beta=0"):
            ghz_sector_probabilities(2, PI / 4, beta=BETA_SPLIT)

    @pytest.mark.parametrize("setting", [
        {"alpha": np.array([0.3, 0.5])},
        {"phases": ToolboxPhases(np.array([0.3, 0.5]), 0.1)},
        {"phases": ToolboxPhases(0.3, np.array([0.1, 0.2]))},
        {"beta": np.array([0.0, 0.0])},
        {"beta": np.array([0.0, BETA_SPLIT])},
    ])
    def test_sector_table_needs_one_setting(self, setting):
        # the result is one dict, so a batch is refused by name
        kwargs = {"alpha": 0.4} | setting
        with pytest.raises(ValueError, match=r"needs one setting, got a batch of shape \(2,\)"):
            ghz_sector_probabilities(3, **kwargs)

    def test_largest_supported_size(self):
        out = ghz_output(8, PI / 4, ToolboxPhases(0.3, 0.8), beta=BETA_SPLIT)
        assert out.basis.dimension == 4**8
        assert out.norm() == pytest.approx(1.0, abs=1e-11)


class TestSourceTermEngine:
    """Single, pair, variant and n-photon outputs share one checked engine."""

    @pytest.fixture
    def perturbed_wave(self, monkeypatch):
        exact = toolbox._wave_amplitudes

        def perturbed(phi1, beta, *factors):
            return exact(phi1, beta, *factors) + 1e-9

        monkeypatch.setattr(toolbox, "_wave_amplitudes", perturbed)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_perturbed_closed_form_raises_for_ghz(self, perturbed_wave, n):
        with pytest.raises(RuntimeError, match="disagrees with propagation"):
            ghz_output(n, 0.6, ToolboxPhases(0.3, 1.2))

    @pytest.mark.parametrize("entry", range(8))
    @pytest.mark.parametrize("n", [1, 2, 6, 7, 8])
    def test_perturbed_network_entry_raises_for_ghz(self, monkeypatch, n, entry):
        # every transfer-matrix entry reaches the per-photon check, at every n
        exact = toolbox._network_matrix

        def perturbed(*values):
            mats = exact(*values).copy()
            mats[..., entry // 2, entry % 2] += 1e-9
            return mats

        monkeypatch.setattr(toolbox, "_network_matrix", perturbed)
        with pytest.raises(RuntimeError, match="disagrees with propagation"):
            ghz_output(n, 0.6, ToolboxPhases(0.3, 1.2))

    @staticmethod
    def fault_first_product(monkeypatch, fault):
        """Patch the engine's first Kronecker product, the first term's, with
        ``fault(exact, histories, pattern)``; later products stay exact."""
        exact, calls = toolbox._product, itertools.count()

        def faulty(*args):
            return fault(exact, *args) if next(calls) == 0 else exact(*args)

        monkeypatch.setattr(toolbox, "_product", faulty)

    @staticmethod
    def engine_output(n):
        """The engine's checked state at n photons; the pair's photons have distinct settings."""
        if n == 2:
            return two_photon_output(
                settings(alpha=0.6, phi1=0.3, phi2=1.2, phi1p=2.2, phi2p=0.1))
        return ghz_output(n, 0.6, ToolboxPhases(0.3, 1.2))

    @staticmethod
    def one_amplitude(exact, *args):
        term = exact(*args).copy()
        term[..., 1] += 1e-10
        return term

    @staticmethod
    def scaled_term(exact, *args):
        return exact(*args) * (1 + 1e-10)

    # the histories are exact, so the per-photon check passes: only the
    # projection of the assembled output on the product probe can see these
    @pytest.mark.parametrize("fault", ["one_amplitude", "scaled_term"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_faulty_assembly_raises(self, monkeypatch, n, fault):
        self.fault_first_product(monkeypatch, getattr(self, fault))
        with pytest.raises(RuntimeError, match="disagrees with propagation"):
            self.engine_output(n)

    def test_swapped_photon_rows_raise(self, monkeypatch):
        # the first term's two photons in the wrong order: each history is right
        def swapped(exact, histories, pattern):
            return exact(histories[..., ::-1, :, :], pattern)

        self.fault_first_product(monkeypatch, swapped)
        with pytest.raises(RuntimeError, match="disagrees with propagation"):
            self.engine_output(2)

    def test_perturbed_closed_form_raises_for_variant_and_concurrence(self, perturbed_wave):
        s = settings(alpha=0.5, phi1=0.8, phi2=1.9, phi1p=2.2, phi2p=0.1)
        with pytest.raises(RuntimeError, match="disagrees with propagation"):
            vh_variant_output(s)
        with pytest.raises(RuntimeError, match="disagrees with propagation"):
            concurrence(s)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_concurrence_evaluates_the_histories_once(self, monkeypatch, mixed):
        calls = {"_wave_amplitudes": 0, "_particle_amplitudes": 0}

        def counted(name):
            exact = getattr(toolbox, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return exact(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(toolbox, name, counted(name))
        # one setting: each of the two distinct photon settings once, on its own numbers
        concurrence(settings(alpha=0.5, phi1=0.8, phi2=1.9, phi1p=2.2), mixed=mixed)
        assert calls == {"_wave_amplitudes": 2, "_particle_amplitudes": 2}

    def test_ghz_stacks_its_photons_in_one_network_call(self, monkeypatch):
        shapes = []
        exact = toolbox._network_matrix

        def recorded(*values):
            shapes.append(tuple(np.shape(v) for v in values[:3]))
            return exact(*values)

        monkeypatch.setattr(toolbox, "_network_matrix", recorded)
        ghz_output(8, 0.6, ToolboxPhases(0.3, 1.2), BETA_SPLIT)
        assert shapes == [((), (), ())]  # the shared setting once, on its own numbers
        shapes.clear()
        ghz_output(8, np.array([0.6, 0.7, 0.8]), ToolboxPhases(0.3, 1.2), BETA_SPLIT)
        assert shapes == [((3, 8),) * 3]  # one row per photon, as a pair batch stacks two

    def test_shared_and_stacked_rows_agree_bit_for_bit(self):
        # ghz_output takes one setting's row twice, the pair stacks two rows
        rng = np.random.default_rng(30)
        rows = 300
        alpha, phi1, phi2 = rng.uniform(0, PI / 2, rows), *rng.uniform(-7, 7, (2, rows))
        beta = np.choose(rng.integers(0, 3, rows),
                         [np.zeros(rows), np.full(rows, BETA_SPLIT), rng.uniform(-1, 1, rows)])
        ghz = ghz_output(2, alpha, ToolboxPhases(phi1, phi2), beta)
        pair = two_photon_output(settings(alpha, phi1, phi2, phi1, phi2, beta, beta))
        assert ghz.basis == pair.basis and ghz.amplitudes.shape == (rows, 16)
        assert ghz.amplitudes.tobytes() == pair.amplitudes.tobytes()
        for i in range(0, rows, 50):  # and one setting at a time
            ghz = ghz_output(2, alpha[i], ToolboxPhases(phi1[i], phi2[i]), beta[i])
            pair = two_photon_output(
                settings(alpha[i], phi1[i], phi2[i], phi1[i], phi2[i], beta[i], beta[i]))
            assert ghz.amplitudes.tobytes() == pair.amplitudes.tobytes()

    @pytest.mark.parametrize("shared", [True, False])
    def test_three_photon_sector_is_per_photon(self, shared):
        # one column per history pattern, each the kron of every photon's history
        photons = tuple((f"phi1_{k}", f"phi2_{k}", f"beta_{k}") for k in range(3))
        values = [(0.3, 1.2, 0.2), (2.1, 0.4, 0.0), (-1.3, 2.8, BETA_SPLIT)]
        if shared:
            photons, values = (photons[0],) * 3, [values[0]] * 3
        by_name = {"alpha": np.float64(0.6)}
        for names, triple in zip(photons, values):
            by_name |= dict(zip(names, map(np.float64, triple)))
        cols = []
        for phi1, phi2, beta in values:
            factors = toolbox._photon_factors(phi1, beta)
            cols.append(np.stack([toolbox._wave_amplitudes(phi1, beta, factors),
                                  toolbox._particle_amplitudes(phi2, beta, factors)], axis=1))
        sector = toolbox._alpha_source(by_name, photons, "three-photon state").sector()
        assert sector.shape == (64, 8)
        assert sector.tobytes() == reduce(np.kron, cols).tobytes()

    @pytest.mark.parametrize("beta", [BETA_DIRECT, BETA_SPLIT, 0.3])
    def test_two_photon_ghz_is_the_pair_bit_for_bit(self, beta):
        phi1, phi2 = 1.3, 0.4
        ghz = ghz_output(2, 0.7, ToolboxPhases(phi1, phi2), beta)
        pair = two_photon_output(settings(0.7, phi1, phi2, phi1, phi2, beta, beta))
        assert ghz.basis == pair.basis
        assert ghz.amplitudes.tobytes() == pair.amplitudes.tobytes()


class TestOneSettingIsABatchRow:
    """A one-setting call evaluates each distinct photon setting on its own numbers, a
    batch stacks them; both give the same bits, signed zeros included."""

    @staticmethod
    def rows():
        """64 rows: every beta in {0, -0.0, pi/8, random} with phases from {-0.0, pi,
        2 pi, random}; photon B's settings are other rows', so the photons differ."""
        rng = np.random.default_rng(33)
        special = [-0.0, PI, 2 * PI, rng.uniform(-7, 7)]
        grid = itertools.product([0.0, -0.0, BETA_SPLIT, rng.uniform(-1, 1)], special, special)
        beta, phi1, phi2 = np.array(list(grid)).T
        alpha = rng.uniform(0, PI / 2, beta.size)
        pair = (alpha, phi1, phi2, np.roll(phi1, 5), np.roll(phi2, 11), beta, np.roll(beta, 17))
        return alpha, phi1, phi2, beta, pair

    @staticmethod
    def pair_settings(values, i):
        a, phi1, phi2, phi1p, phi2p, beta, betap = (v[i] for v in values)
        return TwoPhotonSettings(a, ToolboxPhases(phi1, phi2), ToolboxPhases(phi1p, phi2p),
                                 beta, betap)

    @staticmethod
    def routes_in_a_batch(monkeypatch, module):
        """Evaluate every one-setting photon as row 0 of a three-row batch."""
        exact = toolbox._photon_routes

        def in_a_batch(phi1, phi2, beta, settings, what):
            assert not np.shape(phi1)
            values = [np.array([v, 0.4, -2.0]) for v in (phi1, phi2, beta)]
            closed, propagated = exact(*values, dict(zip(("p", "q", "b"), values)), what)
            return closed[0], propagated[0]

        monkeypatch.setattr(module, "_photon_routes", in_a_batch)

    def test_detection_and_ghz_output(self):
        alpha, phi1, phi2, beta, _ = self.rows()
        probs = single_photon_batch(alpha, phi1, phi2, beta).probabilities
        ghz = ghz_output(3, alpha, ToolboxPhases(phi1, phi2), beta).amplitudes
        for i in range(alpha.size):
            phases = ToolboxPhases(phi1[i], phi2[i])
            single = toolbox.detection_probabilities(alpha[i], phases, beta[i])
            assert single.as_array().tobytes() == probs[i].tobytes()
            assert ghz_output(3, alpha[i], phases, beta[i]).amplitudes.tobytes() == ghz[i].tobytes()

    def test_coincidence_table(self):
        *_, pair = self.rows()
        tables = two_photon_batch(*pair).probabilities
        for i in range(tables.shape[0]):
            table = coincidence_probabilities(self.pair_settings(pair, i))
            assert table.matrix.tobytes() == tables[i].tobytes()

    @pytest.mark.parametrize("mixed", [False, True])
    def test_concurrence(self, monkeypatch, mixed):
        *_, pair = self.rows()
        values = [concurrence(self.pair_settings(pair, i), mixed) for i in range(0, 64, 3)]
        self.routes_in_a_batch(monkeypatch, toolbox)
        rows = [concurrence(self.pair_settings(pair, i), mixed) for i in range(0, 64, 3)]
        assert [v.hex() for v in values] == [v.hex() for v in rows]

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_ghz_sector_probabilities(self, monkeypatch, n):
        alpha, phi1, phi2, beta, _ = self.rows()
        at_zero = np.flatnonzero(beta == 0.0)  # the only beta the table takes, -0.0 too
        calls = [(n, alpha[i], ToolboxPhases(phi1[i], phi2[i]), beta[i]) for i in at_zero]
        values = [ghz_sector_probabilities(*c) for c in calls]
        self.routes_in_a_batch(monkeypatch, entangle)
        rows = [ghz_sector_probabilities(*c) for c in calls]
        assert [[p.hex() for p in v.values()] for v in values] == [
            [p.hex() for p in v.values()] for v in rows]


class TestGhzAmplitudeBits:
    """ghz_output's amplitudes are the kron products of one photon's wave and
    particle histories, scaled and summed, bit for bit at every n."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("beta", [BETA_DIRECT, BETA_SPLIT, "random"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_amplitudes_are_the_kron_oracle_bit_for_bit(self, n, beta, seed):
        rng = np.random.default_rng([n, seed])
        alpha, phi1, phi2 = rng.uniform(0, PI / 2), *rng.uniform(0, 2 * PI, 2)
        beta = rng.uniform(0, PI / 4) if beta == "random" else beta
        factors = toolbox._photon_factors(phi1, beta)
        w = toolbox._wave_amplitudes(phi1, beta, factors)
        p = toolbox._particle_amplitudes(phi2, beta, factors)
        if n == 1:
            expected = np.cos(alpha) * w + np.sin(alpha) * p
        else:
            expected = (reduce(np.kron, [w] * n) * np.cos(alpha)
                        + reduce(np.kron, [p] * n) * np.sin(alpha))
        got = ghz_output(n, alpha, ToolboxPhases(phi1, phi2), beta).amplitudes
        assert got.shape == expected.shape == (4**n,)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_batch_rows_are_single_calls_bit_for_bit(self, n):
        alpha, phi1, phi2 = np.array([0.6, 1.1]), np.array([0.3, 2.0]), np.array([1.2, 0.4])
        beta = np.array([BETA_DIRECT, 0.3])
        batch = ghz_output(n, alpha, ToolboxPhases(phi1, phi2), beta).amplitudes
        assert batch.shape == (2, 4**n)
        for i in range(2):
            single = ghz_output(n, alpha[i], ToolboxPhases(phi1[i], phi2[i]), beta[i])
            assert batch[i].tobytes() == single.amplitudes.tobytes()

    def test_nan_in_an_eight_photon_history_raises_through_the_cross_check(self, monkeypatch):
        # the output is not scanned again after the check: the check must catch it
        exact = toolbox._wave_amplitudes

        def poisoned(phi1, beta, *factors):
            amps = exact(phi1, beta, *factors).copy()
            amps[..., 2] = np.nan
            return amps

        monkeypatch.setattr(toolbox, "_wave_amplitudes", poisoned)
        with pytest.raises(RuntimeError, match="disagrees with propagation by nan at row 0"):
            ghz_output(8, 0.6, ToolboxPhases(0.3, 1.2))
        with pytest.raises(RuntimeError, match="disagrees with propagation by nan"):
            ghz_sector_probabilities(8, 0.6, ToolboxPhases(0.3, 1.2))

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_amplitudes_are_read_only(self, n):
        state = ghz_output(n, 0.6, ToolboxPhases(0.3, 1.2))
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 0.0
        twin = pickle.loads(pickle.dumps(state))  # through the checking constructor
        assert twin == state and not twin.amplitudes.flags.writeable


def sector_atol(n):
    """Round-off allowance for sums of 2^n terms in another order."""
    return 2**n * np.finfo(float).eps


def brute_force_sectors(probs, n):
    """History-pattern sums by a loop over every n-photon path pattern.

    Path index = 2 * pair + history, so paths 1, 3 carry 'w' and 2, 4 'p'.
    """
    out = {}
    for p, paths in zip(probs, itertools.product(range(4), repeat=n)):
        key = "".join("wp"[path % 2] for path in paths)
        out[key] = out.get(key, 0.0) + p
    return out


class TestGhzSectors:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_contraction_matches_brute_force_on_random_histories(self, monkeypatch, n):
        # random complex histories put weight on every path, so on every pattern,
        # unlike the GHZ histories; both routes get them, so both checks pass
        rng = np.random.default_rng(n)
        h = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        h /= np.linalg.norm(h, axis=-1, keepdims=True)
        monkeypatch.setattr(entangle, "_photon_routes", lambda *args: (h, h))
        alpha = 0.3
        got = ghz_sector_probabilities(n, alpha)
        amps = (np.cos(alpha) * reduce(np.kron, [h[0]] * n)
                + np.sin(alpha) * reduce(np.kron, [h[1]] * n))
        expected = brute_force_sectors(np.abs(amps) ** 2, n)
        order = ["".join("wp"[(k >> (n - 1 - j)) & 1] for j in range(n))
                 for k in range(2**n)]
        assert list(got) == order
        assert min(expected.values()) > 1e-6  # no pattern is empty
        np.testing.assert_allclose(
            [got[key] for key in order], [expected[key] for key in order],
            rtol=0, atol=sector_atol(n),
        )

    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("route", ["closed form", "propagation"])
    def test_perturbed_history_raises_naming_the_settings(self, monkeypatch, n, route):
        if route == "closed form":
            exact = toolbox._wave_amplitudes
            monkeypatch.setattr(toolbox, "_wave_amplitudes",
                                lambda *args: exact(*args) + 1e-10)
        else:
            exact = toolbox._network_matrix
            monkeypatch.setattr(toolbox, "_network_matrix", lambda *args: exact(*args) + 1e-10)
        message = (r"closed-form photon history disagrees with propagation by 1\.0\d\de-10"
                   r" at row 0 \(alpha=0\.6, phi1=0\.3, phi2=1\.2, beta=0\.0\)$")
        with pytest.raises(RuntimeError, match=message):
            ghz_sector_probabilities(n, 0.6, ToolboxPhases(0.3, 1.2))

    @pytest.mark.parametrize("n", [1, 8])
    def test_perturbed_route_after_the_history_check_raises(self, monkeypatch, n):
        # the propagated histories moved by 1e-10 once they passed their check:
        # only the comparison of the two contracted tables can catch it
        exact = entangle._photon_routes

        def perturbed(*args):
            closed, propagated = exact(*args)
            return closed, propagated + 1e-10

        monkeypatch.setattr(entangle, "_photon_routes", perturbed)
        message = (r"closed-form n-photon sector table disagrees with propagation by"
                   r" \S+ at row 0 \(alpha=0\.6, phi1=0\.3, phi2=1\.2, beta=0\.0\)$")
        with pytest.raises(RuntimeError, match=message):
            ghz_sector_probabilities(n, 0.6, ToolboxPhases(0.3, 1.2))

    @pytest.mark.parametrize("phases, named", [(ToolboxPhases(np.nan, 0.2), "phi1=nan"),
                                               (ToolboxPhases(0.3, -np.inf), "phi2=-inf")])
    def test_non_finite_phase_named(self, phases, named):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # exp of a non-finite phase
            with pytest.raises(ValueError, match=rf"not an isometry; {named} at row 0$"):
                ghz_sector_probabilities(4, 0.6, phases)

    @pytest.mark.parametrize("n", range(2, 9))  # one photon has no crossed sector
    def test_crossed_sectors_are_positive_zero(self, n):
        rng = np.random.default_rng(20 + n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # alpha outside [0, pi/2] flips signs
            for alpha, phi1, phi2 in rng.uniform(-4, 4, (25, 3)) * (1, 3, 3):
                got = ghz_sector_probabilities(n, alpha, ToolboxPhases(phi1, phi2))
                crossed = np.array([v for k, v in got.items() if len(set(k)) > 1])
                assert not crossed.any() and not np.signbit(crossed).any()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force_on_ghz_output(self, n):
        phases = ToolboxPhases(0.8, 2.1)
        got = ghz_sector_probabilities(n, 0.6, phases)
        probs = ghz_output(n, 0.6, phases, 0.0).probabilities()
        expected = brute_force_sectors(probs, n)
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=sector_atol(n))


def random_histories(kind, rows=40, seed=5):
    """Engine output of one source kind at ``rows`` random settings, a
    quarter of them with both mixers off."""
    rng = np.random.default_rng(seed)
    values = dict(zip(entangle._PAIR_NAMES, (
        rng.uniform(0, PI / 2, rows), *rng.uniform(0, 2 * PI, (4, rows)),
        *np.where(np.arange(rows) % 4 == 0, 0.0, rng.uniform(0, PI / 4, (2, rows))))))
    if kind == "single":
        single = {name: values[name] for name in toolbox._SINGLE_NAMES}
        return toolbox._single_photon(single)
    if kind == "pair":
        return entangle._entangled(values)
    del values["alpha"]
    c = np.sqrt(0.5)
    return toolbox._history_batch((c, c), ((0, 1), (1, 0)), entangle._PAIR_PHOTONS,
                                  "variant", values)


def waves_as_particles(histories):
    """``histories`` with every photon's particle history replaced by its wave history."""
    rows = histories.histories.copy()
    rows[..., 1, :] = rows[..., 0, :]
    return histories._replace(histories=rows)


def baseline(histories, mean):
    """The noise baseline: every row at fringe scale 0, checked against ``mean``."""
    rows = np.shape(histories.amplitudes)[:-1]
    return histories.fringe_scaled(np.zeros(histories.amplitudes.shape), mean, np.zeros(rows))


def diagonal(histories):
    """The diagonal of the histories' mixture, the route the baseline skips."""
    return histories.mixture().probabilities()


class TestNoiseBaseline:
    """The baseline of noisy rows is the mixture's diagonal, checked without it."""

    @pytest.mark.parametrize("kind", ["single", "pair", "variant"])
    def test_is_the_mixture_diagonal_bit_for_bit(self, kind):
        histories = random_histories(kind)
        expected = diagonal(histories)
        got = baseline(histories, expected)
        if kind == "single":
            assert got.tobytes() == expected.tobytes()
        else:
            # a product of real weights rounds apart from |kron product|^2
            assert np.abs(got - expected).max() <= 4.4e-16

    @pytest.mark.parametrize("kind", ["single", "pair"])
    def test_overlapping_terms_raise(self, kind):
        # the particle histories replaced by the wave ones: both terms are the same
        # unit vector, and weights and row sums still pass; the closed mean does not
        histories = random_histories(kind)
        with pytest.raises(RuntimeError, match="mixture baseline disagrees with propagation"):
            baseline(waves_as_particles(histories), diagonal(histories))

    def test_nan_term_raises(self):
        histories = random_histories("pair")
        rows = histories.histories.copy()
        rows[7, 1, 1, 3] = np.nan  # photon B's particle history, row 7
        with pytest.raises(
            RuntimeError, match=r"mixture baseline disagrees with propagation by nan at row 7 \("
        ):
            baseline(histories._replace(histories=rows), diagonal(histories))

    @pytest.mark.parametrize("bad", [np.nan, 5.0, -1.0, 1.0 + 1e-9])
    @pytest.mark.parametrize("engine", [toolbox.single_photon_batch, two_photon_batch])
    def test_fringe_scale_outside_unit_interval_raises(self, engine, bad):
        settings = (0.4,) + (0.0,) * (2 if engine is toolbox.single_photon_batch else 4)
        message = rf"fringe_scale must lie in \[0, 1\], got {float(bad)} at row"
        with pytest.raises(ValueError, match=message + " 0$"):
            engine(*settings, fringe_scale=bad)
        with pytest.raises(ValueError, match=message + " 2$"):
            engine(*settings, fringe_scale=np.array([1.0, 0.5, bad, bad]))
        assert engine(*settings, fringe_scale=np.array([0.0, 1.0])).probabilities.shape[0] == 2

    def test_weights_off_one_raise(self):
        histories = random_histories("single")
        cos, sin = histories.coeffs
        with pytest.raises(ValueError, match="weights must sum to 1"):
            baseline(histories._replace(coeffs=(cos * 1.001, sin)), diagonal(histories))

    @staticmethod
    def shifted_means(monkeypatch, module, name, index):
        """Patch ``module.name``, a closed form returning ``(mean, fringe)``, to move
        the mean by 1e-9 at ``index`` and the fringe back, so their sum, which the
        Born table is checked against, keeps its value."""
        exact = getattr(module, name)

        def shifted(*args):
            mean, fringe = (f.copy() for f in exact(*args))
            mean[index] += 1e-9
            fringe[index] -= 1e-9
            return mean, fringe

        monkeypatch.setattr(module, name, shifted)

    ENGINES = [
        (toolbox, "_detection_forms", (2, 1), toolbox.single_photon_batch, (1.9,)),
        (entangle, "_coincidence_forms", (2, 0, 3), two_photon_batch, (1.9, 0.6, 2.4)),
    ]

    @pytest.mark.parametrize("module, name, index, engine, rest", ENGINES)
    def test_closed_mean_checks_the_noisy_rows(self, monkeypatch, module, name, index, engine,
                                                rest):
        alpha, phi1 = np.linspace(0.1, 1.4, 5), np.linspace(0.3, 5.0, 5)
        self.shifted_means(monkeypatch, module, name, index)
        scale = np.array([1.0, 1.0, 0.5, 1.0, 0.0])
        with pytest.raises(
            RuntimeError, match=r"closed-form mixture baseline disagrees with propagation by"
                                r" 1\.000e-09 at row 2 \(alpha=0\.7499+, phi1=2\.65, phi2=1\.9, "
        ):
            engine(alpha, phi1, *rest, fringe_scale=scale)

    @pytest.mark.parametrize("module, name, index, engine, rest", ENGINES)
    def test_ideal_rows_build_no_baseline(self, monkeypatch, module, name, index, engine, rest):
        alpha, phi1 = np.linspace(0.1, 1.4, 5), np.linspace(0.3, 5.0, 5)
        scale = np.array([0.5, 0.0, 1.0, 0.5, 0.25])
        exact = engine(alpha, phi1, *rest, fringe_scale=scale).probabilities
        self.shifted_means(monkeypatch, module, name, index)  # row 2, whose scale is 1
        got = engine(alpha, phi1, *rest, fringe_scale=scale).probabilities
        assert got.tobytes() == exact.tobytes()

    def test_noisy_pair_rows_multiply_real_weights_once_per_term(self, monkeypatch):
        dtypes, product = [], toolbox._product

        def counted(histories, pattern):
            dtypes.append(histories.dtype)
            return product(histories, pattern)

        monkeypatch.setattr(toolbox, "_product", counted)
        rows = np.linspace(0, 1, 25)
        two_photon_batch(rows, 2 * rows, 1.0, 0.4, 3 * rows, BETA_SPLIT, 0.2)
        ideal = dtypes.copy()
        dtypes.clear()
        two_photon_batch(rows, 2 * rows, 1.0, 0.4, 3 * rows, BETA_SPLIT, 0.2, rows)
        assert ideal == [np.complex128] * 2  # the engine's own two terms
        assert dtypes == ideal + [np.float64] * 2

    def test_noisy_engine_calls_build_no_density_matrix(self, monkeypatch):
        calls = {"DensityMatrix": 0, "eigvalsh": 0}
        post_init, eigvalsh = DensityMatrix.__post_init__, np.linalg.eigvalsh

        def counted_post_init(self):
            calls["DensityMatrix"] += 1
            post_init(self)

        def counted_eigvalsh(*args, **kwargs):
            calls["eigvalsh"] += 1
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        rows = np.linspace(0, 1, 25)
        model = NoiseModel(visibility=0.8, dephase_wp=0.3)
        s = settings(0.5, 0.8, 1.9, 2.2, 0.1, BETA_DIRECT, 0.3)
        single_photon_batch(rows, 2 * rows, 1.0, BETA_SPLIT, rows)
        two_photon_batch(rows, 2 * rows, 1.0, 0.4, 3 * rows, BETA_SPLIT, 0.2, rows)
        noisy_single_probabilities(0.5, ToolboxPhases(0.8, 1.9), model=model)
        noisy_coincidence_probabilities(s, model)
        mixture_coincidence_probabilities(s)
        assert calls == {"DensityMatrix": 0, "eigvalsh": 0}
        # the counters do count: the mixture state is still a checked matrix
        mixture_two_photon_output(s)
        assert calls == {"DensityMatrix": 1, "eigvalsh": 1}


def peak_bytes(call):
    """Peak of traced allocations during ``call``, after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_eight_photon_sectors_stay_small(self):
        # no n-photon state: 2**8 sectors of a few 2x2 Gram products
        assert peak_bytes(lambda: ghz_sector_probabilities(8, 0.6)) <= 0.125 * 2**20

    # the output alone is 4**8 complex amplitudes, 1 MiB
    def test_eight_photon_output_stays_small(self):
        assert peak_bytes(lambda: ghz_output(8, 0.6, ToolboxPhases(0.3, 1.2))) <= 2.0 * 2**20

    def test_batched_sector_table_is_refused_before_it_is_evaluated(self):
        # 64 rows of 4**8 amplitudes would be 64 MiB before the refusal
        alpha = np.linspace(0.1, 1.4, 64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"needs one setting, got a batch of shape \(64,\)"):
                ghz_sector_probabilities(8, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * 2**20

    def test_cold_eight_photon_output_retains_no_basis_labels(self):
        # 4**8 label tuples would hold about 9 MiB
        toolbox._n_photon_basis.cache_clear()
        tracemalloc.start()
        try:
            ghz_output(8, 0.6)  # the result is dropped at once
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1.0 * 2**20

    def test_noisy_pair_batch_builds_no_matrix_stack(self):
        # 200 rows of 16x16 density matrices would be 0.8 MiB on their own
        rows = np.linspace(0, 1, 200)
        peak = peak_bytes(lambda: two_photon_batch(
            rows, 2 * rows, 1.0, 0.4, 3 * rows, BETA_SPLIT, 0.2, rows))
        assert peak <= 1.0 * 2**20
