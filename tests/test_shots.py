"""Tests for count sampling, Poisson errors, and noise models."""
import copy
import pickle
import re

import numpy as np
import pytest

from wptoolbox.entangle import (
    TwoPhotonSettings,
    coincidence_probabilities,
    entanglement_witness,
    mixture_coincidence_probabilities,
    two_photon_batch,
)
from wptoolbox.shots import (
    MAX_SHOTS,
    CountTable,
    NoiseModel,
    WitnessEstimate,
    estimate_probabilities,
    estimate_witness,
    noisy_coincidence_probabilities,
    noisy_single_probabilities,
    poisson_error,
    sample_counts,
    sample_rows,
    witness_rows,
)
from wptoolbox.toolbox import (
    BETA_SPLIT,
    ToolboxPhases,
    coherence_witness,
    detection_probabilities,
    single_photon_batch,
)

PI = np.pi
FLAT4 = np.full(4, 0.25)


class TestNoiseModel:
    def test_range_enforced(self):
        with pytest.raises(ValueError, match="visibility"):
            NoiseModel(visibility=1.2)
        with pytest.raises(ValueError, match="dephase_wp"):
            NoiseModel(dephase_wp=-0.1)

    def test_fringe_scale(self):
        assert NoiseModel().fringe_scale == 1.0
        assert NoiseModel(visibility=0.8, dephase_wp=0.5).fringe_scale == pytest.approx(0.4)

    @pytest.mark.parametrize("visibility, dephase, message", [
        (0.5, -0.1, "dephase_wp must lie in [0, 1], got -0.1"),
        (1.2, -0.1, "visibility must lie in [0, 1], got 1.2"),
        (np.nan, 0.0, "visibility must lie in [0, 1], got nan"),
        (np.array([0.5, 2.0, 3.0]), np.array([-1.0, 0.5, 0.5]),
         "visibility must lie in [0, 1], got 2.0"),
        (np.array([0.5, 0.2]), np.array([0.1, np.nan]), "dephase_wp must lie in [0, 1], got nan"),
        (np.array([0.5, 0.2]), 7.0, "dephase_wp must lie in [0, 1], got 7.0"),
    ])
    def test_error_names_the_first_bad_value(self, visibility, dephase, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NoiseModel(visibility, dephase)

    def test_array_knobs_are_read_only_copies(self):
        visibility = np.array([0.5, 0.6])
        model = NoiseModel(visibility, np.array([0.1, 0.2]))
        visibility[0] = 0.9
        np.testing.assert_array_equal(model.visibility, [0.5, 0.6])
        with pytest.raises(ValueError, match="read-only"):
            model.dephase_wp[0] = 0.3
        np.testing.assert_array_equal(NoiseModel(visibility, 0.3).dephase_wp, [0.3, 0.3])

    def test_models_compare_and_hash_by_value(self):
        a = NoiseModel(np.array([0.5, 0.6]), np.array([0.0, 0.1]))
        b = NoiseModel(np.array([0.5, 0.6]), np.array([0.0, 0.1]))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != NoiseModel(np.array([0.5, 0.7]), np.array([0.0, 0.1]))
        assert a != NoiseModel(np.array([[0.5, 0.6]]), np.array([[0.0, 0.1]]))
        assert NoiseModel(np.array([0.5])) != NoiseModel(0.5)

    def test_scalar_models_stay_floats(self):
        model = NoiseModel(np.float64(0.8), 1)
        assert type(model.visibility) is float and type(model.dephase_wp) is float
        assert model == NoiseModel(0.8, 1.0) and hash(model) == hash((0.8, 1.0))
        assert NoiseModel() != NoiseModel(0.9) and NoiseModel().__eq__(0.9) is NotImplemented


class TestCountTable:
    def test_sum_invariant(self):
        with pytest.raises(ValueError, match="declared total"):
            CountTable(np.array([1, 2, 3, 4]), 11, seed=0)

    def test_outcome_count_checked(self):
        with pytest.raises(ValueError, match="4 or 16"):
            CountTable(np.array([5, 5]), 10, seed=0)

    @pytest.mark.parametrize("shape", [(2, 8), (8, 2), (2, 2), (1, 4), (4, 1), (4, 4, 1),
                                       (1, 16), (2, 2, 2, 2)])
    def test_only_shapes_of_four_or_sixteen_outcomes(self, shape):
        # entries 4 and 5 of a (2, 8) table are no n_21' and n_22' counts
        counts = np.arange(np.prod(shape)).reshape(shape)
        message = re.escape(f"got {counts.size} in shape {shape}")
        with pytest.raises(ValueError, match=message):
            CountTable(counts, int(counts.sum()), seed=0)
        with pytest.raises(ValueError, match=message):
            sample_counts(np.full(shape, 1 / counts.size), 10, seed=0)

    @pytest.mark.parametrize("shape", [(4,), (4, 4), (16,)])
    def test_outcome_shapes_kept(self, shape):
        counts = np.arange(np.prod(shape)).reshape(shape)
        assert CountTable(counts, int(counts.sum()), seed=0).counts.shape == shape
        assert sample_counts(np.full(shape, 1 / counts.size), 10, seed=0).counts.shape == shape

    @pytest.mark.parametrize("counts, named", [([1.7, 0.2, 0, 0], "1.7"),
                                               (np.array([1.0, np.nan, 0.0, 0.0]), "nan"),
                                               (np.array([2.0, 0.0, np.inf, 0.0]), "inf")])
    def test_fractional_counts_rejected(self, counts, named):
        with pytest.raises(ValueError, match=f"^counts must be whole numbers, got {named}$"):
            CountTable(counts, 1, seed=0)

    @pytest.mark.parametrize("total", [2.0, 2.5, np.float64(2.0)])
    def test_non_integer_total_rejected(self, total):
        with pytest.raises(ValueError, match=f"^total_shots must be an integer, got {total}$"):
            CountTable(np.array([1, 1, 0, 0]), total, seed=0)

    def test_whole_numbers_of_any_type_pass(self):
        a = CountTable(np.array([1.0, 1.0, 0.0, 0.0]), np.int32(2), seed=0)
        b = CountTable([1, 1, 0, 0], 2, seed=0)
        assert a == b and a.counts.dtype == np.int64
        assert a.frequencies().tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CountTable(np.array([-1, 1, 0, 0]), 0, seed=0)

    def test_frequencies(self):
        t = CountTable(np.array([1, 2, 3, 4]), 10, seed=0)
        np.testing.assert_allclose(t.frequencies(), [0.1, 0.2, 0.3, 0.4])

    def test_tables_compare_and_hash_by_value(self):
        a = CountTable(np.array([1, 2, 3, 4]), 10, seed=0)
        b = CountTable(np.array([1, 2, 3, 4], dtype=np.int32), 10, seed=0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        drawn = sample_counts(np.array([0.1, 0.2, 0.3, 0.4]), 1000, seed=5)
        assert drawn == CountTable(drawn.counts.copy(), 1000, 5)
        assert hash(drawn) == hash(CountTable(drawn.counts.copy(), 1000, 5))
        assert a != CountTable(np.array([1, 2, 4, 3]), 10, seed=0)
        assert a != CountTable(np.array([1, 2, 3, 4]), 10, seed=1)
        assert a != CountTable(np.array([[1, 2, 3, 4], [0] * 4, [0] * 4, [0] * 4]), 10, seed=0)
        assert a.__eq__(NoiseModel()) is NotImplemented


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_arrays_stay_read_only_through_pickle_and_deepcopy(clone):
    model = NoiseModel(np.array([0.5, 0.6]), np.array([0.1, 0.2]))
    tables = [CountTable(np.array([1, 2, 3, 4]), 10, seed=3),
              sample_counts(np.full(4, 0.25), 100, seed=1)]
    for original, field in [(model, "visibility"), (model, "dephase_wp"),
                            *((table, "counts") for table in tables)]:
        twin = clone(original)
        assert twin == original and not getattr(twin, field).flags.writeable


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        a = sample_counts(FLAT4, 10_000, seed=42)
        b = sample_counts(FLAT4, 10_000, seed=42)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.seed == 42

    @pytest.mark.parametrize("dist", [FLAT4, np.full((4, 4), 1 / 16)])
    def test_drawn_tables_skip_the_second_check(self, monkeypatch, dist):
        checked = []
        post_init = CountTable.__post_init__

        def counted(self):
            checked.append(self)
            post_init(self)

        monkeypatch.setattr(CountTable, "__post_init__", counted)
        drawn = sample_counts(dist, 5000, seed=9)
        assert checked == []
        built = CountTable(drawn.counts, 5000, 9)
        assert len(checked) == 1 and checked[0] is built
        assert (built.total_shots, built.seed) == (drawn.total_shots, drawn.seed) == (5000, 9)
        assert built.counts.tobytes() == drawn.counts.tobytes()
        assert drawn.counts.dtype == np.int64 and drawn.counts.shape == dist.shape
        assert not drawn.counts.flags.writeable

    def test_drawn_tables_still_check_their_outcome_count(self):
        with pytest.raises(ValueError, match="expected 4 or 16 outcomes, got 5"):
            sample_counts(np.full(5, 0.2), 10, seed=0)

    def test_point_mass(self):
        t = sample_counts(np.array([1.0, 0.0, 0.0, 0.0]), 500, seed=1)
        np.testing.assert_array_equal(t.counts, [500, 0, 0, 0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="must sum to 1, got 1.2"):
            sample_counts(np.array([0.3, 0.3, 0.3, 0.3]), 10, seed=0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got nan"):
            sample_counts(np.full(4, np.nan), 10, seed=0)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got nan"):
            sample_counts(np.array([0.5, np.nan, 0.25, 0.25]), 10, seed=0)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="at least one"):
            sample_counts(FLAT4, 0, seed=0)

    def test_flat_distribution_within_five_sigma(self):
        n = 100_000
        t = sample_counts(FLAT4, n, seed=7)
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(t.counts - n * 0.25) < 5 * sigma)

    def test_coincidence_tables_keep_shape(self):
        table = coincidence_probabilities(TwoPhotonSettings())
        t = sample_counts(table, 1000, seed=3)
        assert t.counts.shape == (4, 4)
        assert t.counts.sum() == 1000

    def test_total_variation_shrinks_with_shots(self):
        p = detection_probabilities(0.6, ToolboxPhases(0.9, 0.4)).as_array()
        ratios = []
        for seed in range(30):
            tv_small = 0.5 * np.abs(
                sample_counts(p, 2_000, seed).frequencies() - p
            ).sum()
            tv_big = 0.5 * np.abs(
                sample_counts(p, 8_000, seed + 1000).frequencies() - p
            ).sum()
            ratios.append(tv_big / tv_small)
        # quadrupling the shots should halve the distance on average
        assert 0.3 < np.mean(ratios) < 0.75


def _random_rows(rows, outcomes, seed):
    """Random distributions, one per row, shaped ``(rows, 4)`` or ``(rows, 4, 4)``."""
    p = np.random.default_rng(seed).dirichlet(np.full(outcomes, 0.7), rows)
    p[1] = np.eye(outcomes)[2]  # a point mass among them
    return p.reshape((rows,) + ((4,) if outcomes == 4 else (4, 4)))


#: band of the benchmark oracle's count check: |n - N p| <= Z_MAX sigma + 3
Z_MAX = 7.0


class TestSampleRows:
    @pytest.mark.parametrize("outcomes", [4, 16])
    def test_table_is_one_stream_at_the_seed(self, outcomes):
        dists = _random_rows(9, outcomes, seed=outcomes)
        counts = sample_rows(dists, 3_000, seed=41)
        assert counts.dtype == np.int64 and counts.shape == dists.shape
        flat = dists.reshape(9, -1)
        drawn = np.random.default_rng(41).multinomial(3_000, flat / flat.sum(axis=1, keepdims=True))
        assert counts.reshape(9, -1).tobytes() == drawn.tobytes()
        assert counts[0].tobytes() == sample_counts(dists[0], 3_000, seed=41).counts.tobytes()
        assert sample_rows(dists, 3_000, seed=41).tobytes() == counts.tobytes()

    @pytest.mark.parametrize("outcomes", [4, 16])
    def test_counts_depend_on_values_not_layout(self, outcomes):
        # engine tables: rows of these values sum to 1 - 3 ulp or so, and a
        # sum that rounds differently changes the normalized draw
        grid = np.linspace(0, 2 * PI, 5)
        if outcomes == 4:
            dists = single_photon_batch(np.linspace(0, PI / 2, 25), np.linspace(0, 2 * PI, 25),
                                        1.0).probabilities
        else:
            dists = two_photon_batch(PI / 4, grid[:, None], 0.0, grid[None, :],
                                     0.0).probabilities.reshape(25, 4, 4)
        wide = np.zeros((25, 2 * outcomes))
        wide[:, ::2] = dists.reshape(25, -1)
        layouts = {
            "fortran": np.asfortranarray(dists),
            "transposed": np.moveaxis(np.ascontiguousarray(np.moveaxis(dists, 0, -1)), -1, 0),
            "strided": wide[:, ::2].reshape(dists.shape),
        }
        counts = sample_rows(dists, 5_000, seed=9).tobytes()
        for name, table in layouts.items():
            assert table.tobytes() == dists.tobytes() and not table.flags.c_contiguous, name
            assert sample_rows(table, 5_000, seed=9).tobytes() == counts, name

    def test_rows_of_one_distribution_are_independent_draws(self):
        n, p = 20_000, np.array([0.5, 0.3, 0.15, 0.05])
        counts = sample_rows(np.tile(p, (200, 1)), n, seed=8)
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= Z_MAX * sigma + 3)
        # lag-1 correlation of each outcome's counts: about N(0, 1/200) if independent
        for outcome in range(4):
            x = counts[:, outcome]
            r = np.corrcoef(x[:-1], x[1:])[0, 1]
            assert abs(r) < 4 / np.sqrt(len(x)), (outcome, r)
        assert len({row.tobytes() for row in counts}) > 190

    @pytest.mark.parametrize("outcomes", [4, 16])
    @pytest.mark.parametrize("bad, message", [
        (-1e-3, "probabilities must lie in [0, 1], got -0.001"),
        (np.nan, "probabilities must lie in [0, 1], got nan"),
        (0.05, "probabilities must sum to 1, got 1.0"),
    ])
    def test_bad_row_is_named(self, outcomes, bad, message):
        dists = _random_rows(6, outcomes, seed=5)
        row = dists[3].reshape(-1)  # a view: writes land in dists
        if bad == 0.05:
            row[0] += bad
        else:
            row[0], row[1] = bad, row[1] + row[0] - bad
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            sample_rows(dists, 100, seed=0)
        assert str(err.value).endswith(" at row 3")

    def test_round_off_negatives_are_drawn_as_zero(self):
        dists = np.array([[0.5, 0.5 + 1e-13, -1e-13, 0.0], [0.25, 0.25, 0.25, 0.25]])
        counts = sample_rows(dists, 10_000, seed=4)
        clipped = np.clip(dists, 0.0, None)
        drawn = np.random.default_rng(4).multinomial(
            10_000, clipped / clipped.sum(axis=1, keepdims=True))
        assert counts.tobytes() == drawn.tobytes()
        assert counts[0, 2] == counts[0, 3] == 0

    def test_first_bad_row_is_named(self):
        dists = np.full((5, 4), 0.25)
        dists[4, 0] = np.nan
        dists[2] *= 2
        with pytest.raises(ValueError, match="probabilities must sum to 1, got 2.0 at row 2"):
            sample_rows(dists, 100, seed=0)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="at least one"):
            sample_rows(np.full((2, 4), 0.25), 0, seed=0)

    @pytest.mark.parametrize("n_shots", [2.9, 2.5, 3.0, np.float64(3.0)])
    def test_rejects_non_integer_shots(self, n_shots):
        message = f"^n_shots must be an integer, got {n_shots}$"
        with pytest.raises(ValueError, match=message):
            sample_rows(np.full((2, 4), 0.25), n_shots, seed=3)
        with pytest.raises(ValueError, match=message):
            sample_counts(FLAT4, n_shots, seed=3)

    @pytest.mark.parametrize("n_shots", [np.int64(40), np.int8(40), np.uint16(40)])
    def test_numpy_integer_shots_draw_like_an_int(self, n_shots):
        dists = np.full((2, 4), 0.25)
        assert sample_rows(dists, n_shots, 3).tobytes() == sample_rows(dists, 40, 3).tobytes()
        assert sample_counts(FLAT4, n_shots, 3) == sample_counts(FLAT4, 40, 3)

    def test_shots_beyond_int64_raise_a_value_error(self):
        # numpy's multinomial counts in int64 and raises OverflowError beyond it
        most = np.iinfo(np.int64).max
        assert MAX_SHOTS == most
        counts = sample_rows(np.full((2, 4), 0.25), most, seed=0)
        assert (counts.sum(axis=1) == most).all()
        for shots in (most + 1, 10**20):
            with pytest.raises(ValueError, match=f"at most {most} shots can be drawn, got {shots}"):
                sample_rows(np.full((2, 4), 0.25), shots, seed=0)
            with pytest.raises(ValueError, match=f"at most {most} shots"):
                sample_counts(np.full(4, 0.25), shots, seed=0)

    @pytest.mark.parametrize("shape", [(4,), (3, 5), (2, 16), (2, 2, 2), (2, 4, 4, 1), (0, 4),
                                       (0, 4, 4), ()])
    def test_only_rows_of_four_or_four_by_four_outcomes(self, shape):
        # a 1-D table is not four one-outcome rows, and no table has zero rows
        message = re.escape(f"(rows, 4) or (rows, 4, 4) with at least one row, got shape {shape}")
        dists = np.full(shape, 1 / np.prod(shape[1:], dtype=int))
        with pytest.raises(ValueError, match=message):
            sample_rows(dists, 10, seed=0)
        with pytest.raises(ValueError, match=message):
            witness_rows(dists.astype(np.int64), 10, "coherence")

    @pytest.mark.parametrize("witness, outcomes", [("coherence", 4), ("entanglement", 16)])
    def test_witness_rows_are_estimate_witness(self, witness, outcomes):
        counts = sample_rows(_random_rows(7, outcomes, seed=2), 500, seed=3)
        value, error = witness_rows(counts, 500, witness)
        for k in range(len(counts)):
            one = estimate_witness(CountTable(counts[k], 500, seed=3 + k), witness)
            assert (value[k], error[k]) == one
            assert np.float64(one.value).tobytes() == value[k].tobytes()
            assert np.float64(one.error).tobytes() == error[k].tobytes()

    def test_entanglement_witness_keeps_its_sign(self):
        counts = np.zeros((2, 4, 4), dtype=np.int64)
        counts[:, 1, 1], counts[:, 1, 0], counts[:, 0, 0] = (10, 30), (30, 0), (60, 70)
        value, error = witness_rows(counts, 100, "entanglement")
        np.testing.assert_array_equal(value, [-0.2, 0.3])
        np.testing.assert_array_equal(error, [np.hypot(np.sqrt(10), np.sqrt(30)) / 100,
                                              np.hypot(np.sqrt(30), 1.0) / 100])


class TestPoissonError:
    def test_sqrt_counts(self):
        t = CountTable(np.array([10_000, 100, 1, 0]), 10_101, seed=0)
        np.testing.assert_allclose(poisson_error(t), [100.0, 10.0, 1.0, 1.0])

    def test_probability_estimates(self):
        t = CountTable(np.array([400, 100, 0, 0]), 500, seed=0)
        p, e = estimate_probabilities(t)
        np.testing.assert_allclose(p, [0.8, 0.2, 0.0, 0.0])
        np.testing.assert_allclose(e, [20 / 500, 10 / 500, 1 / 500, 1 / 500])

    def test_three_sigma_coverage(self):
        p_true = detection_probabilities(PI / 4, ToolboxPhases(0.7, 0.2)).as_array()
        n, hits, trials = 10_000, 0, 400
        for seed in range(trials):
            t = sample_counts(p_true, n, seed=seed)
            est, err = estimate_probabilities(t)
            if abs(est[0] - p_true[0]) <= 3 * err[0]:
                hits += 1
        assert hits / trials >= 0.99


def fringe_scaled(probs, k):
    """The balanced-mixer signal with its interference terms scaled by ``k``.

    ``pc ± k ic`` and ``ps ± k is_``: the noise model written out on the
    mean/oscillating split, independent of the mixture interpolation.
    """
    return np.array([probs.pc + k * probs.ic, probs.pc - k * probs.ic,
                     probs.ps + k * probs.is_, probs.ps - k * probs.is_])


class TestNoise:
    def test_identity_model_is_noop(self):
        alpha, phases = 0.5, ToolboxPhases(1.0, 0.3)
        probs = detection_probabilities(alpha, phases)
        noisy = noisy_single_probabilities(alpha, phases, BETA_SPLIT, NoiseModel())
        np.testing.assert_allclose(noisy.as_array(), probs.as_array(), atol=1e-15)
        np.testing.assert_allclose(noisy.as_array(), fringe_scaled(probs, 1.0), atol=1e-15)

    def test_full_dephasing_kills_coherence_witness(self):
        alpha, phases = PI / 4, ToolboxPhases(0.0, 0.0)
        noisy = noisy_single_probabilities(
            alpha, phases, BETA_SPLIT, NoiseModel(dephase_wp=1.0)
        )
        assert coherence_witness(noisy) == pytest.approx(0.0, abs=1e-15)
        assert sum(noisy.as_array()) == pytest.approx(1.0, abs=1e-14)
        probs = detection_probabilities(alpha, phases)
        np.testing.assert_allclose(noisy.as_array(), fringe_scaled(probs, 0.0), atol=1e-15)

    def test_visibility_scales_fringes(self):
        alpha, phases = 0.7, ToolboxPhases(1.1, 2.0)
        probs = detection_probabilities(alpha, phases)
        noisy = noisy_single_probabilities(
            alpha, phases, BETA_SPLIT, NoiseModel(visibility=0.9)
        )
        assert noisy.ic == pytest.approx(0.9 * probs.ic, abs=1e-15)
        assert noisy.is_ == pytest.approx(0.9 * probs.is_, abs=1e-15)
        assert noisy.pc == pytest.approx(probs.pc, abs=1e-15)

    def test_interpolation_route_agrees_with_fringe_scaling(self):
        rng = np.random.default_rng(44)
        for _ in range(15):
            alpha = rng.uniform(0, PI / 2)
            phases = ToolboxPhases(*rng.uniform(0, 2 * PI, size=2))
            model = NoiseModel(visibility=rng.uniform(), dephase_wp=rng.uniform())
            direct = fringe_scaled(detection_probabilities(alpha, phases), model.fringe_scale)
            interp = noisy_single_probabilities(alpha, phases, BETA_SPLIT, model)
            np.testing.assert_allclose(interp.as_array(), direct, atol=1e-13)

    def test_mixers_off_statistics_are_noise_immune(self):
        alpha, phases = 0.8, ToolboxPhases(1.4, 0.5)
        ideal = detection_probabilities(alpha, phases, 0.0)
        noisy = noisy_single_probabilities(
            alpha, phases, 0.0, NoiseModel(visibility=0.5, dephase_wp=0.7)
        )
        np.testing.assert_allclose(noisy.as_array(), ideal.as_array(), atol=1e-13)

    def test_entanglement_witness_scales_with_visibility(self):
        s = TwoPhotonSettings()  # alpha = pi/4, all phases zero
        noisy = noisy_coincidence_probabilities(s, NoiseModel(visibility=0.9))
        assert entanglement_witness(noisy) == pytest.approx(0.225, abs=1e-14)

    def test_full_dephasing_kills_entanglement_witness(self):
        for phi1 in (0.0, 0.9, 2.4):
            s = TwoPhotonSettings(phases_a=ToolboxPhases(phi1, 0.3))
            noisy = noisy_coincidence_probabilities(s, NoiseModel(dephase_wp=1.0))
            assert entanglement_witness(noisy) == pytest.approx(0.0, abs=1e-14)

    def test_noisy_table_still_normalized(self):
        s = TwoPhotonSettings(phases_a=ToolboxPhases(1.2, 0.1))
        noisy = noisy_coincidence_probabilities(s, NoiseModel(visibility=0.3))
        assert noisy.matrix.sum() == pytest.approx(1.0, abs=1e-12)
        # interpolated toward the mixture table by the fringe scale
        ideal = coincidence_probabilities(s).matrix
        baseline = mixture_coincidence_probabilities(s).matrix
        np.testing.assert_allclose(
            noisy.matrix, baseline + 0.3 * (ideal - baseline), rtol=0, atol=1e-15
        )
        dephased = noisy_coincidence_probabilities(s, NoiseModel(dephase_wp=1.0))
        np.testing.assert_array_equal(dephased.matrix, baseline)


class TestWitnessEstimation:
    def test_exact_proportion_counts(self):
        # the all-zero-phase table has probabilities in 32nds
        table = coincidence_probabilities(TwoPhotonSettings())
        counts = np.rint(table.matrix * 32).astype(int)
        t = CountTable(counts, 32, seed=0)
        est = estimate_witness(t, "entanglement")
        assert est.value == pytest.approx(0.25, abs=1e-15)
        assert isinstance(est, WitnessEstimate)

    def test_coherence_hand_values(self):
        t = CountTable(np.array([300, 100, 300, 300]), 1000, seed=0)
        est = estimate_witness(t, "coherence")
        assert est.value == pytest.approx(0.2)
        assert est.error == pytest.approx(np.sqrt(400) / 1000)

    def test_sampling_three_sigma(self):
        table = coincidence_probabilities(TwoPhotonSettings())
        t = sample_counts(table, 100_000, seed=11)
        est = estimate_witness(t, "entanglement")
        assert abs(est.value - 0.25) < 3 * est.error

    def test_unbiased_over_seeds(self):
        table = coincidence_probabilities(TwoPhotonSettings())
        estimates = [
            estimate_witness(sample_counts(table, 20_000, seed=s), "entanglement").value
            for s in range(60)
        ]
        mean = np.mean(estimates)
        stderr = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
        assert abs(mean - 0.25) < 3 * stderr

    def test_coherence_reads_high_near_zero(self):
        # the documented bias: a flat P1 = P2 reads sqrt(2/pi) sqrt(n1 + n2) / N
        n, seeds = 10_000, 400
        estimates = [
            estimate_witness(sample_counts(FLAT4, n, seed=s), "coherence").value
            for s in range(seeds)
        ]
        expected = np.sqrt(2 / PI) * np.sqrt(n / 2) / n
        stderr = np.std(estimates, ddof=1) / np.sqrt(seeds)
        assert abs(np.mean(estimates) - expected) < 4 * stderr
        assert np.mean(estimates) > 10 * stderr  # far from the true value 0

    def test_zero_shots_rejected(self):
        # a table of no shots is refused where it is built, so no estimate divides by 0
        with pytest.raises(ValueError, match="needs at least one shot, got total_shots=0$"):
            CountTable(np.zeros(4, dtype=np.int64), 0, seed=0)
        with pytest.raises(ValueError, match="needs at least one shot"):
            witness_rows(np.zeros((1, 4), dtype=np.int64), 0, "coherence")

    @pytest.mark.parametrize("n_shots", [4.0, 2.5, np.float64(3.0), "4"])
    def test_non_integer_shots_rejected(self, n_shots):
        counts = np.array([[1, 1, 1, 1], [2, 0, 1, 1]])
        with pytest.raises(ValueError, match=f"^n_shots must be an integer, got {n_shots}$"):
            witness_rows(counts, n_shots, "coherence")

    @pytest.mark.parametrize("n_shots", [4, np.int64(4), np.uint8(4)])
    def test_integer_shots_of_any_type_pass(self, n_shots):
        counts = np.array([[1, 1, 1, 1], [2, 0, 1, 1]])
        value, error = witness_rows(counts, n_shots, "coherence")
        assert value.tolist() == [0.0, 0.5]
        assert error.tolist() == [np.hypot(1, 1) / 4, np.hypot(np.sqrt(2), 1) / 4]

    def test_shape_mismatches_rejected(self):
        four = CountTable(np.array([5, 5, 5, 5]), 20, seed=0)
        sixteen = sample_counts(coincidence_probabilities(TwoPhotonSettings()), 100, seed=0)
        with pytest.raises(ValueError, match="coincidence"):
            estimate_witness(four, "entanglement")
        with pytest.raises(ValueError, match="4-outcome"):
            estimate_witness(sixteen, "coherence")
        with pytest.raises(ValueError, match="unknown witness"):
            estimate_witness(four, "parity")
