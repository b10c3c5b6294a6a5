"""Two-sided realist bounds on pair correlations, exact and truncated.

For any single joint distribution of two ±1 outcomes, the product
average is pinched between marginal-determined bounds:

    -1 + |a_bar + b_bar|  <=  ab_bar  <=  1 - |a_bar - b_bar|.

Rewritten in probabilities, the upper bound reads

    |P_A - P_B| + p_pp + p_mm  <=  1,                       (*)

whose left-hand side we call ``S`` throughout.  For the diagonal state
family the closed form is

    S = |1 - 2 c^2| |cos^2(a) - cos^2(b)|
        + cos^2(a) cos^2(b) + sin^2(a) sin^2(b)
        + c sqrt(1 - c^2) sin(2a) sin(2b).

Along the near-orthogonal ray ``a = sqrt(eps)``, ``b = pi/2 - sqrt(eps)``
a first-order truncation in ``eps`` gives

    S1 = |1 - 2 c^2| (1 - 2 eps) + 2 eps + 4 c sqrt(1 - c^2) eps,

and (assuming ``1 > 2 c^2``) ``S1 <= 1`` reduces to the condition

    c >= 2 c eps + 2 sqrt(1 - c^2) eps.                     (**)

The truncation predicts ``S1 > 1`` for small ``c`` of order ``eps``;
exact evaluation gives ``S <= 1`` everywhere.  This module computes
both verbatim and audits the truncation error (which is second order in
``eps``, hence invisible to the first-order analysis), plus the exact
algebraic identity behind (*):

    |P_A - P_B| + p_pp + p_mm  =  1 - 2 min(p_pm, p_mp),

valid for every genuine four-cell distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import PROB_ATOL, CorrelationTriple, InputError, MeasurementSettings
from .quantum import _check_weight, _probability_lhs, diagonal_state, joint_distribution

__all__ = [
    "LeggettBounds",
    "ReducedEvaluation",
    "ExpansionAudit",
    "leggett_bounds",
    "reduced_lhs_exact",
    "first_order_lhs",
    "first_order_predicate",
    "reduced_evaluation",
    "expansion_audit",
    "cross_term_identity",
]

# Internal consistency tolerance between independent evaluation routes.
_CROSS_CHECK_ATOL = 1e-12


@dataclass(frozen=True)
class LeggettBounds:
    """The two-sided bound evaluated for one correlation triple.

    ``margin`` is the minimum signed distance of ``ab_bar`` to either
    bound (negative when a bound is exceeded); ``satisfied`` tolerates
    floating-point rounding at ``PROB_ATOL``.
    """

    lower: float
    upper: float
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class ReducedEvaluation:
    """Exact versus first-order evaluation at one point of the near-orthogonal ray.

    ``first_order_holds`` is the verbatim truncated condition (**): True
    when it holds (no predicted violation), False when the truncation
    predicts violation, and None when its standing assumption
    ``1 > 2 c^2`` fails so the condition is not defined.
    ``cross_gap`` is ``1 - lhs_exact``; nonnegative up to rounding for
    every quantum input.
    """

    lhs_exact: float
    lhs_first_order: float
    first_order_holds: Optional[bool]
    cross_gap: float

    @property
    def truncation_discrepancy(self) -> bool:
        """True when the truncation claims violation but exact evaluation denies it."""
        return self.lhs_first_order > 1.0 and self.lhs_exact <= 1.0 + PROB_ATOL


@dataclass(frozen=True)
class ExpansionAudit:
    """Truncation audit across a decreasing epsilon ladder at fixed ``c``.

    ``ratios[k]`` is ``|difference[k]| / |difference[k+1]|``; for a
    halving ladder a second-order residual makes every ratio approach 4.
    """

    c: float
    eps_ladder: tuple[float, ...]
    rows: tuple[ReducedEvaluation, ...]
    ratios: tuple[float, ...]


def leggett_bounds(corr: CorrelationTriple) -> LeggettBounds:
    """Evaluate the two-sided bound for a correlation triple."""
    if not isinstance(corr, CorrelationTriple):
        corr = CorrelationTriple(*corr)
    lower, upper, margin = (float(v) for v in _bounds(corr.a_bar, corr.b_bar, corr.ab_bar))
    return LeggettBounds(
        lower=lower,
        upper=upper,
        satisfied=margin >= -PROB_ATOL,
        margin=margin,
    )


def _bounds(a_bar, b_bar, ab_bar):
    """``(lower, upper, margin)`` of :func:`leggett_bounds`, elementwise over arrays.

    The margin is ``min(upper - ab_bar, ab_bar - lower)``, taking the
    first gap when the two are equal, as Python's ``min`` does.
    """
    upper = 1.0 - np.abs(a_bar - b_bar)
    lower = -1.0 + np.abs(a_bar + b_bar)
    above, below = upper - ab_bar, ab_bar - lower
    return lower, upper, np.where(below < above, below, above)


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise InputError(f"eps must be positive, got {eps!r}")
    return eps


def reduced_lhs_exact(c: float, settings: MeasurementSettings) -> float:
    """Exact ``S`` for the diagonal family, self-checked against probabilities.

    The closed form is evaluated directly, then confirmed within 1e-12
    against ``|P_A - P_B| + p_pp + p_mm`` assembled from inner-product
    probabilities.  The bound (*) is satisfied iff the result is <= 1.
    """
    c = _check_weight(c)
    a, b = settings.alpha, settings.beta
    ca2, sa2 = math.cos(a) ** 2, math.sin(a) ** 2
    cb2, sb2 = math.cos(b) ** 2, math.sin(b) ** 2
    closed = (
        abs(1.0 - 2.0 * c * c) * abs(ca2 - cb2)
        + ca2 * cb2
        + sa2 * sb2
        + c * math.sqrt(1.0 - c * c) * math.sin(2.0 * a) * math.sin(2.0 * b)
    )
    probability_form = _probability_lhs(diagonal_state(c), settings)
    if abs(closed - probability_form) > _CROSS_CHECK_ATOL:
        raise ArithmeticError(
            f"closed form {closed!r} and probability form {probability_form!r} "
            f"disagree beyond {_CROSS_CHECK_ATOL}"
        )
    return closed


def first_order_lhs(c: float, eps: float) -> float:
    """The truncated ``S1`` exactly as written, with no hidden extra terms."""
    c = _check_weight(c)
    eps = _check_eps(eps)
    return (
        abs(1.0 - 2.0 * c * c) * (1.0 - 2.0 * eps)
        + 2.0 * eps
        + 4.0 * c * math.sqrt(1.0 - c * c) * eps
    )


def first_order_predicate(c: float, eps: float) -> bool:
    """Verbatim truncated condition (**): True iff ``c >= 2 c eps + 2 sqrt(1-c^2) eps``.

    Defined only under the truncation's standing assumption ``1 > 2 c^2``.
    False means the first-order analysis predicts a violation of (*).
    """
    c = _check_weight(c)
    eps = _check_eps(eps)
    if not 1.0 > 2.0 * c * c:
        raise InputError(
            f"first-order condition assumes 1 > 2 c^2; got c = {c!r} with 2 c^2 = {2.0 * c * c!r}"
        )
    return c >= 2.0 * c * eps + 2.0 * math.sqrt(1.0 - c * c) * eps


def reduced_evaluation(c: float, eps: float) -> ReducedEvaluation:
    """Evaluate exact and truncated forms at ``a = sqrt(eps)``, ``b = pi/2 - sqrt(eps)``."""
    c = _check_weight(c)
    eps = _check_eps(eps)
    root = math.sqrt(eps)
    settings = MeasurementSettings(alpha=root, beta=0.5 * math.pi - root)
    lhs_exact = reduced_lhs_exact(c, settings)
    lhs_first_order = first_order_lhs(c, eps)
    holds: Optional[bool] = None
    if 1.0 > 2.0 * c * c:
        holds = first_order_predicate(c, eps)
    return ReducedEvaluation(
        lhs_exact=lhs_exact,
        lhs_first_order=lhs_first_order,
        first_order_holds=holds,
        cross_gap=1.0 - lhs_exact,
    )


def expansion_audit(c: float, eps_ladder: Sequence[float]) -> ExpansionAudit:
    """Audit the truncation across a strictly decreasing positive epsilon ladder.

    Successive ratios of ``|S - S1|`` expose the empirical order of the
    residual: a ratio near 4 under halving means a second-order term,
    i.e. exactly what the first-order truncation discards.
    """
    c = _check_weight(c)
    ladder = tuple(float(e) for e in eps_ladder)
    if not ladder:
        raise InputError("eps ladder must be non-empty")
    for e in ladder:
        _check_eps(e)
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise InputError("eps ladder must be strictly decreasing")
    rows = tuple(reduced_evaluation(c, e) for e in ladder)
    diffs = [row.lhs_exact - row.lhs_first_order for row in rows]
    ratios = []
    for first, second in zip(diffs, diffs[1:]):
        if second == 0.0:
            ratios.append(math.inf if first != 0.0 else math.nan)
        else:
            ratios.append(abs(first) / abs(second))
    return ExpansionAudit(c=c, eps_ladder=ladder, rows=rows, ratios=tuple(ratios))


def cross_term_identity(c: float, settings: MeasurementSettings) -> tuple[float, float]:
    """Both sides of ``|P_A - P_B| + p_pp + p_mm = 1 - 2 min(p_pm, p_mp)``.

    The left side is assembled from reduced-state marginals plus the
    equal-outcome cells; the right side uses only the unequal-outcome
    cells.  For genuine distributions the sides agree exactly, which
    caps ``S`` at 1 for every quantum input.
    """
    c = _check_weight(c)
    state = diagonal_state(c)
    dist = joint_distribution(state, settings)
    return (_probability_lhs(state, settings), 1.0 - 2.0 * min(dist.p_pm, dist.p_mp))
