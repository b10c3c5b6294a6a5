"""State construction, exact probabilities, and closed-form agreement."""

import math

import numpy as np
import pytest

from leggettlab import (
    CorrelationTriple,
    InputError,
    JointOutcomeDistribution,
    MeasurementSettings,
    PureTwoPhotonState,
    correlation_triple,
    diagonal_joint,
    diagonal_marginal,
    diagonal_state,
    joint_distribution,
    marginals,
    positive_parity_state,
    singlet_state,
)
from leggettlab.quantum import analyzer_ket, joint_probabilities, orthogonal_ket
from reference import diagonal_closed_batch, diagonal_joint_probabilities

RT2 = 1.0 / math.sqrt(2.0)


def random_inputs(n, seed=0):
    gen = np.random.Generator(np.random.Philox(seed))
    return gen.random(n), gen.random(n) * math.pi, gen.random(n) * math.pi


class TestDomainTypes:
    def test_joint_distribution_requires_unit_sum(self):
        with pytest.raises(InputError):
            JointOutcomeDistribution(0.5, 0.5, 0.5, 0.5)

    def test_joint_distribution_rejects_negative_entries(self):
        with pytest.raises(InputError):
            JointOutcomeDistribution(-0.1, 0.5, 0.3, 0.3)

    def test_joint_distribution_tolerates_fp_dust(self):
        dist = JointOutcomeDistribution(1.0 + 5e-13, -5e-13, 0.0, 0.0)
        assert dist.marginal_a == pytest.approx(1.0)

    def test_correlation_triple_range(self):
        with pytest.raises(InputError):
            CorrelationTriple(1.1, 0.0, 0.0)
        CorrelationTriple(1.0 + 5e-13, 0.0, 0.0)  # within tolerance

    def test_settings_require_finite_angles(self):
        with pytest.raises(InputError):
            MeasurementSettings(alpha=math.nan, beta=0.0)


class TestPureState:
    def test_rejects_norm_off_by_1e9(self):
        bad = np.array([[RT2 * (1.0 + 1e-9), 0.0], [0.0, RT2]])
        with pytest.raises(InputError):
            PureTwoPhotonState(bad)

    def test_accepts_norm_off_by_1e13(self):
        PureTwoPhotonState(np.array([[RT2 * (1.0 + 1e-13), 0.0], [0.0, RT2]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(InputError):
            PureTwoPhotonState(np.eye(3))

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            PureTwoPhotonState(np.array([[math.inf, 0.0], [0.0, 0.0]]))

    def test_coefficients_are_frozen(self):
        state = singlet_state()
        with pytest.raises(ValueError):
            state.coeffs[0, 0] = 1.0

    def test_diagonal_weight_validation(self):
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(InputError):
                diagonal_state(bad)

    def test_named_states(self):
        assert diagonal_state(0.0).coeffs[0, 0] == 1.0
        assert diagonal_state(1.0).coeffs[1, 1] == 1.0
        s = singlet_state().coeffs
        assert s[0, 1].real == pytest.approx(RT2) and s[1, 0].real == pytest.approx(-RT2)
        p = positive_parity_state().coeffs
        assert p[0, 0].real == pytest.approx(RT2) and p[1, 1].real == pytest.approx(RT2)


class TestKets:
    def test_orthonormal(self):
        for angle in (0.0, 0.3, 1.1, math.pi / 2, 3.0):
            plus = analyzer_ket(angle)
            minus = orthogonal_ket(angle)
            assert plus @ plus == pytest.approx(1.0)
            assert minus @ minus == pytest.approx(1.0)
            assert plus @ minus == pytest.approx(0.0, abs=1e-15)

    def test_finite_angle_required(self):
        with pytest.raises(InputError):
            analyzer_ket(math.inf)


class TestJointDistribution:
    def test_product_state_aligned_analyzers(self):
        # c = 0.5: P(++) = 0.75 * 1, P(--) = 0.25 at alpha = beta = 0.
        dist = joint_distribution(diagonal_state(0.5), MeasurementSettings(0.0, 0.0))
        assert dist.p_pp == pytest.approx(0.75, abs=1e-15)
        assert dist.p_pm == pytest.approx(0.0, abs=1e-15)
        assert dist.p_mp == pytest.approx(0.0, abs=1e-15)
        assert dist.p_mm == pytest.approx(0.25, abs=1e-15)

    def test_singlet_same_outcome_probability(self):
        # p_pp = p_mm = sin^2(beta - alpha) / 2 for the antisymmetric state.
        state = singlet_state()
        for alpha, beta in [(0.0, 0.5), (0.3, 1.9), (1.0, 1.0)]:
            dist = joint_distribution(state, MeasurementSettings(alpha, beta))
            expected = 0.5 * math.sin(beta - alpha) ** 2
            assert dist.p_pp == pytest.approx(expected, abs=1e-14)
            assert dist.p_mm == pytest.approx(expected, abs=1e-14)

    def test_sums_to_one_across_random_inputs(self):
        cs, alphas, betas = random_inputs(500, seed=11)
        for c, a, b in zip(cs, alphas, betas):
            dist = joint_distribution(diagonal_state(c), MeasurementSettings(a, b))
            assert abs(sum(dist.as_tuple()) - 1.0) <= 1e-12

    def test_closed_form_matches_inner_products(self):
        cs, alphas, betas = random_inputs(500, seed=12)
        for c, a, b in zip(cs, alphas, betas):
            settings = MeasurementSettings(a, b)
            exact = joint_distribution(diagonal_state(c), settings)
            closed = diagonal_joint(c, settings)
            for x, y in zip(exact.as_tuple(), closed.as_tuple()):
                assert x == pytest.approx(y, abs=1e-13)


class TestMarginals:
    def test_marginals_match_cell_sums(self):
        cs, alphas, betas = random_inputs(300, seed=13)
        for c, a, b in zip(cs, alphas, betas):
            settings = MeasurementSettings(a, b)
            state = diagonal_state(c)
            p_a, p_b = marginals(state, settings)
            dist = joint_distribution(state, settings)
            assert p_a == pytest.approx(dist.marginal_a, abs=1e-13)
            assert p_b == pytest.approx(dist.marginal_b, abs=1e-13)

    def test_closed_form_marginal(self):
        cs, alphas, _ = random_inputs(300, seed=14)
        for c, a in zip(cs, alphas):
            expected = (1.0 - c * c) * math.cos(a) ** 2 + c * c * math.sin(a) ** 2
            assert diagonal_marginal(c, a) == pytest.approx(expected, abs=1e-15)

    def test_no_signalling_of_remote_setting(self):
        cs, alphas, betas = random_inputs(300, seed=15)
        _, _, betas2 = random_inputs(300, seed=16)
        for c, a, b1, b2 in zip(cs, alphas, betas, betas2):
            state = diagonal_state(c)
            p_a1, _ = marginals(state, MeasurementSettings(a, b1))
            p_a2, _ = marginals(state, MeasurementSettings(a, b2))
            assert abs(p_a1 - p_a2) <= 1e-12


class TestCorrelationTriple:
    def test_arithmetic_identities(self):
        dist = JointOutcomeDistribution(0.4, 0.3, 0.2, 0.1)
        triple = correlation_triple(dist)
        assert triple.a_bar == pytest.approx(2 * 0.7 - 1)
        assert triple.b_bar == pytest.approx(2 * 0.6 - 1)
        assert triple.ab_bar == pytest.approx(0.4 - 0.3 - 0.2 + 0.1)

    def test_two_routes_to_product_average(self):
        cs, alphas, betas = random_inputs(200, seed=17)
        for c, a, b in zip(cs, alphas, betas):
            dist = joint_distribution(diagonal_state(c), MeasurementSettings(a, b))
            triple = correlation_triple(dist)
            alt = 2.0 * (dist.p_pp + dist.p_mm) - 1.0
            assert triple.ab_bar == pytest.approx(alt, abs=1e-12)


class TestBatchEvaluation:
    def test_batch_closed_forms_match_scalars(self):
        cs, alphas, betas = random_inputs(64, seed=18)
        p_a, p_b, p_pp, p_mm = diagonal_closed_batch(cs, alphas, betas)
        for k in range(cs.size):
            settings = MeasurementSettings(alphas[k], betas[k])
            dist = diagonal_joint(cs[k], settings)
            assert p_pp[k] == pytest.approx(dist.p_pp, abs=1e-15)
            assert p_mm[k] == pytest.approx(dist.p_mm, abs=1e-15)
            assert p_a[k] == pytest.approx(diagonal_marginal(cs[k], alphas[k]), abs=1e-15)
            assert p_b[k] == pytest.approx(diagonal_marginal(cs[k], betas[k]), abs=1e-15)

    def test_batch_oracle_matches_scalar_inner_products(self):
        cs, alphas, betas = random_inputs(64, seed=19)
        probs = diagonal_joint_probabilities(cs, alphas, betas)
        for k in range(cs.size):
            dist = joint_distribution(diagonal_state(cs[k]), MeasurementSettings(alphas[k], betas[k]))
            np.testing.assert_allclose(probs[:, k], dist.as_tuple(), atol=1e-14)

    def test_fixed_state_batch(self):
        _, alphas, betas = random_inputs(64, seed=20)
        state = singlet_state()
        probs = joint_probabilities(state, alphas, betas)
        for k in range(alphas.size):
            dist = joint_distribution(state, MeasurementSettings(alphas[k], betas[k]))
            np.testing.assert_allclose(probs[:, k], dist.as_tuple(), atol=1e-14)

    def test_shape_validation(self):
        with pytest.raises(InputError):
            diagonal_closed_batch(np.zeros(3), np.zeros(4), np.zeros(3))
        with pytest.raises(InputError):
            joint_probabilities(singlet_state(), np.zeros(3), np.zeros(4))
        with pytest.raises(InputError):
            diagonal_joint_probabilities(np.array([1.5]), np.zeros(1), np.zeros(1))
