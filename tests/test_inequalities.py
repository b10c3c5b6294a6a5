"""Bound evaluation, the reduced one-parameter form, and series truncation audits."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from leggettlab import (
    CorrelationTriple,
    InputError,
    MeasurementSettings,
    correlation_triple,
    cross_term_identity,
    diagonal_joint,
    diagonal_state,
    expansion_audit,
    first_order_lhs,
    first_order_predicate,
    joint_distribution,
    leggett_bounds,
    reduced_evaluation,
    reduced_lhs_exact,
)
from leggettlab.scan import halving_ladder

RT2 = 1.0 / math.sqrt(2.0)

# Frozen reference values, computed once from the exact closed form / the
# verbatim first-order expression and pinned here so regressions are loud.
LHS_EXACT_C0005_EPS001 = 0.9999496710597618
LHS_FIRST_C0005_EPS001 = 1.0001509974999845


def reduced_settings(eps):
    root = math.sqrt(eps)
    return MeasurementSettings(alpha=root, beta=math.pi / 2.0 - root)


class TestLeggettBounds:
    def test_trivial_center(self):
        bounds = leggett_bounds(CorrelationTriple(0.0, 0.0, 0.0))
        assert bounds.lower == -1.0 and bounds.upper == 1.0
        assert bounds.satisfied and bounds.margin == pytest.approx(1.0)

    def test_boundary_is_satisfied(self):
        bounds = leggett_bounds(CorrelationTriple(1.0, 1.0, 1.0))
        assert bounds.upper == pytest.approx(1.0)
        assert bounds.satisfied and bounds.margin == pytest.approx(0.0, abs=1e-15)

    def test_violation_reports_negative_margin(self):
        bounds = leggett_bounds(CorrelationTriple(0.5, -0.5, 0.5))
        assert bounds.upper == pytest.approx(0.0)
        assert not bounds.satisfied
        assert bounds.margin == pytest.approx(-0.5)

    def test_upper_bound_takes_the_marginal_gap_of_either_sign(self):
        bounds = leggett_bounds((-0.5, 0.5, 0.1))
        assert bounds.upper == 0.0
        assert not bounds.satisfied

    def test_lower_bound_takes_the_marginal_sum_of_either_sign(self):
        bounds = leggett_bounds((-0.5, -0.5, -0.1))
        assert bounds.lower == 0.0
        assert not bounds.satisfied

    def test_accepts_plain_tuples(self):
        assert leggett_bounds((0.0, 0.0, 0.0)).upper == 1.0
        with pytest.raises(InputError):
            leggett_bounds((1.5, 0.0, 0.0))

    @given(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    def test_window_never_inverts(self, a_bar, b_bar):
        bounds = leggett_bounds(CorrelationTriple(a_bar, b_bar, 0.0))
        assert bounds.lower <= bounds.upper + 1e-15

    def test_quantum_singlet_compliance_pattern(self):
        # The antisymmetric state has flat marginals, so the window is the
        # full [-1, 1]; every setting pair satisfies the bounds.
        from leggettlab import singlet_state

        state = singlet_state()
        for alpha, beta in [(0.0, 0.3), (0.2, 2.0), (1.0, 2.5)]:
            triple = correlation_triple(joint_distribution(state, MeasurementSettings(alpha, beta)))
            bounds = leggett_bounds(triple)
            assert bounds.satisfied
            assert bounds.lower == pytest.approx(-1.0, abs=1e-12)


class TestReducedExact:
    def test_plateau_at_c_zero(self):
        value = reduced_lhs_exact(0.0, MeasurementSettings(0.0, math.pi / 2.0))
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_frozen_reference_point(self):
        value = reduced_lhs_exact(0.005, reduced_settings(0.01))
        assert value == pytest.approx(LHS_EXACT_C0005_EPS001, abs=1e-15)

    def test_balanced_weight_reduces_to_cosine(self):
        gen = np.random.Generator(np.random.Philox(21))
        for _ in range(200):
            a, b = gen.random(2) * math.pi
            value = reduced_lhs_exact(RT2, MeasurementSettings(a, b))
            assert value == pytest.approx(math.cos(a - b) ** 2, abs=1e-12)

    def test_matches_probability_assembly(self):
        gen = np.random.Generator(np.random.Philox(22))
        for _ in range(200):
            c = gen.random()
            a, b = gen.random(2) * math.pi
            settings = MeasurementSettings(a, b)
            dist = diagonal_joint(c, settings)
            direct = abs(dist.marginal_a - dist.marginal_b) + dist.p_pp + dist.p_mm
            assert reduced_lhs_exact(c, settings) == pytest.approx(direct, abs=1e-12)

    def test_never_exceeds_unity_beyond_rounding(self):
        gen = np.random.Generator(np.random.Philox(23))
        for _ in range(500):
            c = gen.random()
            a, b = gen.random(2) * math.pi
            assert reduced_lhs_exact(c, MeasurementSettings(a, b)) <= 1.0 + 1e-12

    def test_weight_validation(self):
        with pytest.raises(InputError):
            reduced_lhs_exact(1.2, MeasurementSettings(0.0, 0.0))


class TestFirstOrder:
    def test_value_at_c_zero_is_exactly_one(self):
        assert first_order_lhs(0.0, 0.01) == 1.0

    def test_frozen_reference_point(self):
        assert first_order_lhs(0.005, 0.01) == pytest.approx(LHS_FIRST_C0005_EPS001, abs=1e-15)

    def test_balanced_weight(self):
        # |1 - 2c^2| vanishes, leaving 2*eps + 4*c*sqrt(1-c^2)*eps = 4*eps.
        assert first_order_lhs(RT2, 0.01) == pytest.approx(0.04, abs=1e-12)

    def test_eps_validation(self):
        with pytest.raises(InputError):
            first_order_lhs(0.1, 0.0)
        with pytest.raises(InputError):
            first_order_predicate(0.1, -1e-3)

    def test_predicate_examples(self):
        assert first_order_predicate(0.5, 0.01) is True
        assert first_order_predicate(0.005, 0.01) is False
        assert first_order_predicate(0.02, 0.01) is False

    def test_predicate_false_below_twice_eps(self):
        for eps in (1e-2, 1e-3, 1e-4):
            for frac in (0.0, 0.25, 0.5, 0.9, 1.0, 1.5, 1.9):
                assert first_order_predicate(frac * eps, eps) is False

    def test_predicate_requires_dominant_first_term(self):
        with pytest.raises(InputError, match="1 > 2 c\\^2"):
            first_order_predicate(0.8, 0.01)

    def test_threshold_consistency_with_lhs(self):
        # Predicate True means the truncated bound is satisfied (S1 <= 1);
        # predicate False at c > 0 means the truncation claims S1 > 1.
        for c in (0.004, 0.01, 0.03, 0.1, 0.4, 0.7):
            for eps in (1e-2, 1e-3):
                if first_order_predicate(c, eps):
                    assert first_order_lhs(c, eps) <= 1.0 + 1e-12
                else:
                    assert first_order_lhs(c, eps) > 1.0 - 1e-12


class TestReducedEvaluation:
    def test_discrepancy_case(self):
        ev = reduced_evaluation(0.005, 0.01)
        assert ev.lhs_exact == pytest.approx(LHS_EXACT_C0005_EPS001, abs=1e-15)
        assert ev.lhs_first_order == pytest.approx(LHS_FIRST_C0005_EPS001, abs=1e-15)
        assert ev.first_order_holds is False
        assert ev.truncation_discrepancy is True
        assert ev.cross_gap == pytest.approx(1.0 - ev.lhs_exact, abs=1e-12)

    def test_no_discrepancy_when_first_order_stays_below_one(self):
        ev = reduced_evaluation(0.0, 0.01)
        assert ev.lhs_first_order == 1.0
        assert ev.truncation_discrepancy is False

    def test_predicate_undefined_outside_domain(self):
        ev = reduced_evaluation(0.8, 0.01)
        assert ev.first_order_holds is None
        assert ev.lhs_exact <= 1.0 + 1e-12


class TestExpansionAudit:
    def test_residual_ratio_near_four(self):
        audit = expansion_audit(0.3, halving_ladder(1e-2, 1e-5))
        assert all(3.5 <= r <= 4.5 for r in audit.ratios)

    def test_rows_align_with_scalar_ops(self):
        audit = expansion_audit(0.3, (1e-2, 5e-3))
        for eps, row in zip(audit.eps_ladder, audit.rows):
            assert row.lhs_exact == pytest.approx(
                reduced_lhs_exact(0.3, reduced_settings(eps)), abs=1e-15
            )
            assert row.lhs_first_order == pytest.approx(
                first_order_lhs(0.3, eps), abs=1e-15
            )

    def test_first_order_error_shrinks_to_noise(self):
        row = expansion_audit(0.3, (1e-6,)).rows[0]
        assert abs(row.lhs_exact - row.lhs_first_order) <= 1e-10

    def test_ladder_validation(self):
        with pytest.raises(InputError):
            expansion_audit(0.3, ())
        with pytest.raises(InputError):
            expansion_audit(0.3, (1e-3, 1e-2))
        with pytest.raises(InputError):
            expansion_audit(0.3, (1e-2, -1e-3))


class TestCrossTermIdentity:
    def test_equality_on_random_inputs(self):
        gen = np.random.Generator(np.random.Philox(24))
        for _ in range(300):
            c = gen.random()
            a, b = gen.random(2) * math.pi
            lhs, rhs = cross_term_identity(c, MeasurementSettings(a, b))
            assert abs(lhs - rhs) <= 1e-12

    def test_tight_case_has_zero_complement(self):
        lhs, rhs = cross_term_identity(0.0, MeasurementSettings(0.0, 0.0))
        assert lhs == pytest.approx(1.0, abs=1e-15)
        assert rhs == pytest.approx(1.0, abs=1e-15)
