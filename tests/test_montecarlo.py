"""Seeded sampling: determinism, worker invariance, and estimator arithmetic."""

import numpy as np
import pytest

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
