"""Exact outcome statistics for two-photon polarization states.

A pure state of two photons is stored as a 2x2 complex coefficient
matrix ``C`` over the product basis ``{u, v} x {u, v}``, where ``u`` and
``v`` are orthogonal linear-polarization kets shared by both wings:

    |psi> = sum_jk C[j, k] |e_j> (x) |e_k>,   e_0 = u, e_1 = v.

Linear analyzers are parametrized by a single angle: the transmission
ket at angle ``t`` is ``cos(t) u + sin(t) v`` and the reflection ket is
its orthogonal complement.  All probabilities are computed from inner
products, so they are exact up to floating-point rounding.

The *diagonal family* ``C = diag(sqrt(1 - c^2), c)`` with a real weight
``0 <= c <= 1`` interpolates between a product state (``c = 0`` or
``c = 1``) and the maximally entangled positive-parity state
(``c = 1/sqrt(2)``).  Closed-form expressions for its marginals and for
the ``++``/``--`` joint probabilities are provided alongside the generic
inner-product route so each can be checked against the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    PROB_ATOL,
    CorrelationTriple,
    InputError,
    JointOutcomeDistribution,
    MeasurementSettings,
)

__all__ = [
    "PureTwoPhotonState",
    "diagonal_state",
    "singlet_state",
    "positive_parity_state",
    "analyzer_ket",
    "orthogonal_ket",
    "joint_distribution",
    "marginals",
    "correlation_triple",
    "diagonal_marginal",
    "diagonal_joint",
    "joint_probabilities",
]


@dataclass(frozen=True)
class PureTwoPhotonState:
    """A normalized two-photon polarization state.

    ``coeffs`` is the 2x2 complex coefficient matrix described in the
    module docstring.  The matrix is copied and frozen; its Frobenius
    norm must equal 1 within ``PROB_ATOL``.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.array(self.coeffs, dtype=np.complex128)
        if matrix.shape != (2, 2):
            raise InputError(f"coefficient matrix must be 2x2, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix.view(np.float64))):
            raise InputError("coefficient matrix contains non-finite entries")
        norm_sq = float(np.sum(matrix.real**2 + matrix.imag**2))
        if abs(math.sqrt(norm_sq) - 1.0) > PROB_ATOL:
            raise InputError(f"state norm is {math.sqrt(norm_sq)!r}, expected 1 within {PROB_ATOL}")
        matrix.setflags(write=False)
        object.__setattr__(self, "coeffs", matrix)


def _check_weight(c: float) -> float:
    c = float(c)
    if not math.isfinite(c) or c < 0.0 or c > 1.0:
        raise InputError(f"weight c must lie in [0, 1], got {c!r}")
    return c


def diagonal_state(c: float) -> PureTwoPhotonState:
    """The state ``sqrt(1 - c^2) uu + c vv`` for a weight ``0 <= c <= 1``."""
    c = _check_weight(c)
    return PureTwoPhotonState(np.array([[math.sqrt(1.0 - c * c), 0.0], [0.0, c]]))


def singlet_state() -> PureTwoPhotonState:
    """The rotationally invariant antisymmetric state ``(uv - vu)/sqrt(2)``."""
    r = 1.0 / math.sqrt(2.0)
    return PureTwoPhotonState(np.array([[0.0, r], [-r, 0.0]]))


def positive_parity_state() -> PureTwoPhotonState:
    """The symmetric maximally entangled state ``(uu + vv)/sqrt(2)``."""
    r = 1.0 / math.sqrt(2.0)
    return PureTwoPhotonState(np.array([[r, 0.0], [0.0, r]]))


def analyzer_ket(angle: float) -> np.ndarray:
    """Transmission ket of a linear analyzer at ``angle`` radians."""
    angle = float(angle)
    if not math.isfinite(angle):
        raise InputError(f"analyzer angle must be finite, got {angle!r}")
    return np.array([math.cos(angle), math.sin(angle)])


def orthogonal_ket(angle: float) -> np.ndarray:
    """Reflection ket of a linear analyzer at ``angle`` radians."""
    angle = float(angle)
    if not math.isfinite(angle):
        raise InputError(f"analyzer angle must be finite, got {angle!r}")
    return np.array([-math.sin(angle), math.cos(angle)])


def joint_distribution(
    state: PureTwoPhotonState, settings: MeasurementSettings
) -> JointOutcomeDistribution:
    """Exact joint outcome probabilities from amplitude inner products."""
    ka, ka_perp = analyzer_ket(settings.alpha), orthogonal_ket(settings.alpha)
    kb, kb_perp = analyzer_ket(settings.beta), orthogonal_ket(settings.beta)
    c = state.coeffs

    def prob(left: np.ndarray, right: np.ndarray) -> float:
        amp = complex(left @ c @ right)
        return amp.real * amp.real + amp.imag * amp.imag

    return JointOutcomeDistribution(
        p_pp=prob(ka, kb),
        p_pm=prob(ka, kb_perp),
        p_mp=prob(ka_perp, kb),
        p_mm=prob(ka_perp, kb_perp),
    )


def marginals(state: PureTwoPhotonState, settings: MeasurementSettings) -> tuple[float, float]:
    """``(P(A=+1), P(B=+1))`` computed from the reduced one-photon states."""
    ka = analyzer_ket(settings.alpha)
    kb = analyzer_ket(settings.beta)
    row = ka @ state.coeffs
    col = state.coeffs @ kb
    p_a = float(np.sum(row.real**2 + row.imag**2))
    p_b = float(np.sum(col.real**2 + col.imag**2))
    return (p_a, p_b)


def _probability_lhs(state: PureTwoPhotonState, settings: MeasurementSettings) -> float:
    """``S = |P_A - P_B| + p_pp + p_mm`` from :func:`marginals` and :func:`joint_distribution`."""
    p_a, p_b = marginals(state, settings)
    dist = joint_distribution(state, settings)
    return abs(p_a - p_b) + dist.p_pp + dist.p_mm


def correlation_triple(dist: JointOutcomeDistribution) -> CorrelationTriple:
    """The averages ``(a_bar, b_bar, ab_bar)`` of a joint outcome distribution."""
    return CorrelationTriple(
        a_bar=2.0 * (dist.p_pp + dist.p_pm) - 1.0,
        b_bar=2.0 * (dist.p_pp + dist.p_mp) - 1.0,
        ab_bar=dist.p_pp + dist.p_mm - dist.p_pm - dist.p_mp,
    )


# ---------------------------------------------------------------------------
# Closed forms for the diagonal family.
# ---------------------------------------------------------------------------


def diagonal_marginal(c: float, angle: float) -> float:
    """``P(+1) = (1 - c^2) cos^2(t) + c^2 sin^2(t)`` for either wing."""
    c = _check_weight(c)
    angle = float(angle)
    if not math.isfinite(angle):
        raise InputError(f"analyzer angle must be finite, got {angle!r}")
    ct, st = math.cos(angle), math.sin(angle)
    return (1.0 - c * c) * ct * ct + c * c * st * st


def diagonal_joint(c: float, settings: MeasurementSettings) -> JointOutcomeDistribution:
    """Closed-form joint distribution for the diagonal family.

    The equal-outcome cells carry the interference cross term
    ``+ (1/2) c sqrt(1 - c^2) sin(2 alpha) sin(2 beta)`` and the
    unequal-outcome cells carry its negative.
    """
    c = _check_weight(c)
    a, b = settings.alpha, settings.beta
    c2 = c * c
    q2 = 1.0 - c2
    ca, sa = math.cos(a) ** 2, math.sin(a) ** 2
    cb, sb = math.cos(b) ** 2, math.sin(b) ** 2
    cross = 0.5 * c * math.sqrt(q2) * math.sin(2.0 * a) * math.sin(2.0 * b)
    return JointOutcomeDistribution(
        p_pp=q2 * ca * cb + c2 * sa * sb + cross,
        p_pm=q2 * ca * sb + c2 * sa * cb - cross,
        p_mp=q2 * sa * cb + c2 * ca * sb - cross,
        p_mm=q2 * sa * sb + c2 * ca * cb + cross,
    )


# ---------------------------------------------------------------------------
# Vectorized probability evaluation (oracle sweeps and scanning support).
# ---------------------------------------------------------------------------


def _kets(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``(n, 2)`` transmission and reflection kets."""
    plus = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    minus = np.stack([-np.sin(angles), np.cos(angles)], axis=-1)
    return plus, minus


def joint_probabilities(
    state: PureTwoPhotonState, alphas: np.ndarray, betas: np.ndarray
) -> np.ndarray:
    """Joint probabilities of a fixed state on paired angle arrays.

    Returns a ``(4, n)`` array in outcome order ``(++, +-, -+, --)``.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    if alphas.shape != betas.shape or alphas.ndim != 1:
        raise InputError("alphas and betas must be 1-d arrays of equal length")
    ka_p, ka_m = _kets(alphas)
    kb_p, kb_m = _kets(betas)
    out = np.empty((4, alphas.size))
    for row, (left, right) in enumerate(
        [(ka_p, kb_p), (ka_p, kb_m), (ka_m, kb_p), (ka_m, kb_m)]
    ):
        amp = np.einsum("ni,ij,nj->n", left, state.coeffs, right)
        out[row] = amp.real**2 + amp.imag**2
    return out
