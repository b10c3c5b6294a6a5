"""Seeded sampling: determinism, worker invariance, and estimator arithmetic."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leggettlab import montecarlo

from leggettlab import (
    BLOCK_SIZE,
    HVModel,
    InputError,
    JointOutcomeDistribution,
    MCEstimate,
    SampleCounts,
    diagonal_joint,
    ensemble_averages,
    estimate,
    sample_pairs,
    simulate_hv,
)
from leggettlab.domain import MeasurementSettings


class TestSampleCounts:
    def test_counts_must_sum(self):
        with pytest.raises(InputError):
            SampleCounts(1, 2, 3, 4, n_total=11)

    def test_counts_must_be_nonnegative_integers(self):
        with pytest.raises(InputError):
            SampleCounts(-1, 1, 0, 0, n_total=0)
        with pytest.raises(InputError):
            SampleCounts(0.5, 0.5, 0, 0, n_total=1)

    def test_seed_provenance_is_optional(self):
        assert SampleCounts(1, 0, 0, 0, n_total=1).seed is None
        assert SampleCounts(1, 0, 0, 0, n_total=1, seed=42).seed == 42


class TestSamplePairs:
    def test_degenerate_distribution(self):
        counts = sample_pairs(JointOutcomeDistribution(1.0, 0.0, 0.0, 0.0), 1000, seed=3)
        assert counts.as_tuple() == (1000, 0, 0, 0)

    def test_deterministic_for_seed(self):
        dist = diagonal_joint(0.3, MeasurementSettings(0.7, 1.1))
        one = sample_pairs(dist, 50_000, seed=11)
        two = sample_pairs(dist, 50_000, seed=11)
        assert one == two

    def test_seed_changes_counts(self):
        dist = diagonal_joint(0.3, MeasurementSettings(0.7, 1.1))
        one = sample_pairs(dist, 50_000, seed=11)
        two = sample_pairs(dist, 50_000, seed=12)
        assert one.as_tuple() != two.as_tuple()

    def test_worker_count_is_invisible(self):
        dist = diagonal_joint(0.3, MeasurementSettings(0.7, 1.1))
        n = 3 * BLOCK_SIZE + 12345  # forces four blocks, one ragged
        baseline = sample_pairs(dist, n, seed=5, workers=1)
        for workers in (2, 3, 7):
            assert sample_pairs(dist, n, seed=5, workers=workers) == baseline

    def test_frozen_reference_counts(self):
        # Pinned output of the counter-based sampler; any change to the
        # block layout or generator keying shows up here.
        dist = diagonal_joint(0.3, MeasurementSettings(0.7, 1.1))
        counts = sample_pairs(dist, 1_000_000, seed=42)
        assert counts.as_tuple() == (253282, 315918, 5497, 425303)

    @pytest.mark.parametrize(
        "probs, n, seed, want",
        [
            # Four blocks, the last one ragged.
            ((0.25319923559469454, 0.31648729299440437, 0.0055153063306136165, 0.4247981650802877),
             3 * BLOCK_SIZE + 12345, 42, (799736, 999945, 17345, 1341047)),
            ((0.5, 0.0, 0.25, 0.25), 100_000, 7, (50217, 0, 24890, 24893)),  # a zero cell
            ((0.1, 0.2, 0.3, 0.4), 1000, 2**64 - 1, (108, 193, 294, 405)),
        ],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_counts(self, probs, n, seed, want, workers):
        counts = sample_pairs(JointOutcomeDistribution(*probs), n, seed=seed, workers=workers)
        assert counts.as_tuple() == want

    def test_frequencies_match_probabilities(self):
        dist = JointOutcomeDistribution(0.25, 0.25, 0.25, 0.25)
        counts = sample_pairs(dist, 1_000_000, seed=7)
        for k, p in zip(counts.as_tuple(), dist.as_tuple()):
            sigma = (p * (1 - p) / counts.n_total) ** 0.5
            assert abs(k / counts.n_total - p) < 5 * sigma

    def test_validation(self):
        dist = JointOutcomeDistribution(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(InputError):
            sample_pairs(dist, 0)
        with pytest.raises(InputError):
            sample_pairs(dist, 10.5)
        with pytest.raises(InputError):
            sample_pairs(dist, 10, seed=-3)
        with pytest.raises(InputError):
            sample_pairs((1.0, 0.0, 0.0, 0.0), 10)

    def test_sample_count_cap(self):
        # Checked before any draw: the cap itself passes, and one more is refused.
        for n in (montecarlo.MAX_SAMPLES, np.int64(montecarlo.MAX_SAMPLES)):
            assert montecarlo._check_positive_count(n) == montecarlo.MAX_SAMPLES
        for n in (montecarlo.MAX_SAMPLES + 1, 99999999999999999999999):
            with pytest.raises(InputError, match="sample count"):
                sample_pairs(JointOutcomeDistribution(1.0, 0.0, 0.0, 0.0), n)


class TestSimulateHV:
    def test_point_mass_model(self):
        model = HVModel(weights=[1.0], responses=[[1, 1]])
        counts = simulate_hv(model, 5000, seed=1)
        assert counts.as_tuple() == (5000, 0, 0, 0)

    def test_anticorrelated_model_pins_product(self):
        model = HVModel(weights=[0.5, 0.5], responses=[[1, -1], [-1, 1]])
        counts = simulate_hv(model, 100_000, seed=2)
        est = estimate(counts)
        assert est.triple_hat.ab_bar == -1.0
        assert counts.n_pp == 0 and counts.n_mm == 0

    def test_estimates_converge_to_ensemble_averages(self):
        from leggettlab import random_model

        model = random_model(100, seed=6)
        exact = ensemble_averages(model)
        est = estimate(simulate_hv(model, 1_000_000, seed=3))
        for hat, true, se in zip(
            est.triple_hat.as_tuple(), exact.as_tuple(), est.std_errors
        ):
            assert abs(hat - true) < 5 * max(se, 1e-6)

    def test_worker_count_is_invisible(self):
        model = HVModel(weights=[0.25, 0.75], responses=[[1, -1], [-1, 1]])
        n = 2 * BLOCK_SIZE + 99
        baseline = simulate_hv(model, n, seed=4, workers=1)
        assert simulate_hv(model, n, seed=4, workers=5) == baseline

    def test_type_check(self):
        with pytest.raises(InputError):
            simulate_hv("nope", 10)


def reference_label_counts(thresholds, n, seed, block_size):
    """Per-label counts of ``n`` draws, labelled by ``searchsorted`` and counted by ``bincount``."""
    counts = np.zeros(thresholds.size + 1, dtype=np.int64)
    for index in range(-(-n // block_size)):
        size = min(block_size, n - index * block_size)
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        labels = np.searchsorted(thresholds, gen.random(size), side="right")
        counts += np.bincount(labels, minlength=thresholds.size + 1)
    return counts


@st.composite
def sorted_thresholds(draw, max_size):
    """Sorted thresholds in [0, 1], often tied, often exactly 0.0 or 1.0, sometimes just above 1."""
    pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    pool += [0.0, 1.0, float(np.nextafter(1.0, 2.0))]
    values = draw(st.lists(st.one_of(st.sampled_from(pool), st.floats(0.0, 1.0)),
                           max_size=max_size))
    return np.sort(np.array(values, dtype=np.float64))


class TestLabelCounts:
    """Threshold counting against the searchsorted + bincount reference."""

    @settings(max_examples=120, deadline=None)
    @given(
        thresholds=sorted_thresholds(max_size=256),
        block_size=st.sampled_from([1, 7, 1000, 4096]),
        n=st.integers(1, 20_000),
        seed=st.integers(0, 2**64 - 1),
        workers=st.sampled_from([1, 2]),
    )
    def test_matches_reference(self, thresholds, block_size, n, seed, workers):
        n = min(n, 50 * block_size)
        with mock.patch.object(montecarlo, "BLOCK_SIZE", block_size):
            got = montecarlo._label_counts(thresholds, n, seed, workers)
        assert np.array_equal(got, reference_label_counts(thresholds, n, seed, block_size))

    @pytest.mark.parametrize("labels", [1, 4, 100, 130, 200])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_reference_at_block_size(self, labels, workers):
        gen = np.random.Generator(np.random.Philox(key=np.array([9, labels], dtype=np.uint64)))
        values = gen.random(labels - 1)
        values[::4] = gen.choice([0.0, 0.5, 1.0], size=values[::4].size)  # ties, and 0 and 1
        thresholds = np.sort(values)
        n = BLOCK_SIZE + 12345
        got = montecarlo._label_counts(thresholds, n, 17, workers)
        assert np.array_equal(got, reference_label_counts(thresholds, n, 17, BLOCK_SIZE))


class TestEstimate:
    def test_pure_cell(self):
        est = estimate(SampleCounts(100, 0, 0, 0, n_total=100))
        assert est.triple_hat.as_tuple() == (1.0, 1.0, 1.0)
        assert est.std_errors == (0.0, 0.0, 0.0)
        assert est.n == 100

    def test_uniform_counts(self):
        est = estimate(SampleCounts(25, 25, 25, 25, n_total=100))
        assert est.triple_hat.as_tuple() == (0.0, 0.0, 0.0)
        for se in est.std_errors:
            assert se == pytest.approx(0.1)

    def test_plain_frequencies(self):
        est = estimate(SampleCounts(60, 20, 10, 10, n_total=100))
        assert est.triple_hat.a_bar == pytest.approx(0.6)
        assert est.triple_hat.b_bar == pytest.approx(0.4)
        assert est.triple_hat.ab_bar == pytest.approx(0.4)

    def test_seed_propagates_from_counts(self):
        est = estimate(SampleCounts(10, 0, 0, 0, n_total=10, seed=77))
        assert isinstance(est, MCEstimate)
        assert est.seed == 77

    def test_zero_samples_rejected(self):
        with pytest.raises(InputError):
            estimate(SampleCounts(0, 0, 0, 0, n_total=0))
        with pytest.raises(InputError):
            estimate("counts")

    def test_wald_errors_bounded(self):
        gen = np.random.Generator(np.random.Philox(41))
        for _ in range(50):
            parts = gen.multinomial(10_000, [0.25, 0.25, 0.25, 0.25])
            est = estimate(SampleCounts(*(int(x) for x in parts), n_total=10_000))
            for se in est.std_errors:
                assert 0.0 <= se <= 1.0 / 10_000**0.5 + 1e-12
