"""The certified ridge scans against the dense block engine, and the fixed-state float-error bound.

``tests/mutations.py`` runs this file and ``tests/test_kernels.py``
against deliberately broken copies of the kernels; each of its mutations
must make a test in one of them fail.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leggettlab import kernels
from leggettlab.domain import PROB_ATOL
from leggettlab.kernels import DiagonalScanner, PlaneScanner
from leggettlab.quantum import PureTwoPhotonState
from leggettlab.scan import _axis
from reference import dense_plane_scan

# The fixed-matrix state of the benchmark's toolkit workload at seed 0 (real).
TOOLKIT = np.array([[0.3018015947633647, 0.7228650868819381], [0.5339238809738273, 0.3182878459685576]])
# A complex state whose rows mostly have p_min > 0.
rng = np.random.default_rng(3)
COMPLEX = (rng.normal(size=4) + 1j * rng.normal(size=4)).reshape(2, 2)
COMPLEX /= np.linalg.norm(COMPLEX)


@pytest.mark.parametrize("coeffs, band", [(TOOLKIT, 1.0 - 1e-6), (COMPLEX, 1.0 - 1e-5)], ids=["toolkit", "complex"])
def test_certified_scan_matches_dense_at_toolkit_scale(coeffs, band):
    """Row maxima, first argmax, count and every hit on the 6284^2 grid, certified and dense.

    At ``1 - 1e-12`` every row is certified.  At ``band`` some rows'
    windows pass their stencils and those rows go to the block engine:
    5290 of the toolkit state's rows and 60 of the complex state's, some
    with points over the threshold beyond their stencils.
    """
    grid = _axis((0.0, math.pi, 5e-4))
    scanner = PlaneScanner(coeffs, grid, grid)
    full_rows = scanner._full_rows
    for threshold in (1.0 - 1e-12, band):
        fallback = []

        def counted(block, pending, u, w):
            fallback.extend(block.stop - block.start if mask is None else int(mask.sum()) for _, mask in pending)
            return full_rows(block, pending, u, w)

        want = dense_plane_scan(scanner, threshold)
        with mock.patch.object(scanner, "_full_rows", counted):
            got = scanner.scan(slice(None), threshold, want[2] + 1)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        for g, w in zip(got[3], want[3]):
            assert np.array_equal(g, w)
        if threshold == band:
            assert want[2] > 0 and 0 < sum(fallback) < grid.size
        else:
            assert sum(fallback) == 0


# Hits listed per scan below: all of them at 1 - 1e-12, the first few slices' at 1 - 1e-6.
CENSUS_LISTED = 2**17


@pytest.mark.parametrize("origin", [0.0, 0.37 * 1e-3])
def test_certified_diagonal_scan_matches_dense_at_census_scale(origin):
    """Per-c maxima, first argmax, counts and listed hits on the census grid (71 x 3142^2), certified and dense.

    The dense scan sends every row through the block engine.  At ``1 -
    1e-12`` every row is certified but those with R = 0 (alpha = 0 at c =
    0); at ``1 - 1e-6`` some windows pass their stencils, and about 15 % of
    the rows are evaluated in full (7637 and 1 196 437 points over the
    threshold at origin 0).  Both scans list at most ``CENSUS_LISTED``
    hits, which cuts the list only at ``1 - 1e-6``.
    """
    grid = _axis((origin, math.pi + origin, 1e-3))
    cs = _axis((0.0, 0.7, 1e-2))
    scanner = DiagonalScanner(grid, grid)
    full_rows = scanner._full_rows
    for threshold in (1.0 - 1e-12, 1.0 - 1e-6):
        fallback = []

        def counted(block, pending, u, w):
            fallback.extend(int(mask.sum()) for _, mask in pending)
            return full_rows(block, pending, u, w)

        with mock.patch.object(scanner, "_may_certify", lambda threshold: False):
            want = scanner.scan(cs, threshold, CENSUS_LISTED)
        count = int(want[3].sum())
        with mock.patch.object(scanner, "_full_rows", counted):
            got = scanner.scan(cs, threshold, CENSUS_LISTED)
        for g, w in zip(got[:4] + got[4], want[:4] + want[4]):
            assert np.array_equal(g, w)
        if threshold > 1.0 - 1e-9:
            assert 0 < count < CENSUS_LISTED and sum(fallback) <= 2
        else:
            assert count > CENSUS_LISTED and 0 < sum(fallback) < cs.size * grid.size // 4


# The kernels docstring's bound on |S_float - S*| for a fixed state's tables, 285 e.
ROUNDING = 285 * 2.0**-53


def _mp_roots(x, y):
    """R^2, phi mod pi and p_min of ``|x sin b - y cos b|^2`` in 50-digit arithmetic."""
    xx, yy, xy = abs(x) ** 2, abs(y) ** 2, x * mpmath.conj(y)
    r2 = mpmath.hypot(xx - yy, 2 * xy.real)
    phase = mpmath.atan2(2 * xy.real, xx - yy) / 2 % mpmath.pi
    return r2, phase, (xx + yy - r2) / 2


@settings(max_examples=150, deadline=None)
@given(
    re_im=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    complex_coeffs=st.booleans(),
    defect=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0),
    alpha=st.floats(-2.0 * math.pi, 2.0 * math.pi),
    beta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)
def test_fixed_state_float_error_bound_against_mpmath(re_im, complex_coeffs, defect, alpha, beta):
    """S, the identity S = 1 - 2 min p, and each row's roots within the bounds the scanner certifies with.

    The norm is off by up to ``PROB_ATOL``, as ``PureTwoPhotonState``
    allows: the identity then misses by up to 1.5 |N - 1|, which the
    scanner's slack must cover.
    """
    coeffs = np.array(re_im[:4]) + (1j * np.array(re_im[4:]) if complex_coeffs else 0.0)
    norm = np.linalg.norm(coeffs)
    assume(norm > 1e-3)
    state = PureTwoPhotonState(coeffs.reshape(2, 2) / norm * (1.0 + 0.99 * defect * PROB_ATOL))
    scanner = PlaneScanner(state.coeffs, np.array([alpha]), np.array([beta]))
    s_float = float(scanner.scan(slice(None), -math.inf, 1)[3][2][0])
    with mpmath.workdps(50):
        c00, c01, c10, c11 = (mpmath.mpc(complex(c)) for c in state.coeffs.ravel())
        ca, sa = mpmath.cos(alpha), mpmath.sin(alpha)
        cb, sb = mpmath.cos(beta), mpmath.sin(beta)
        n = sum(abs(c) ** 2 for c in (c00, c01, c10, c11))
        pairs = ((ca * c00 + sa * c10, ca * c01 + sa * c11), (ca * c11 - sa * c01, sa * c00 - ca * c10))
        p = [abs(x * sb - y * cb) ** 2 for x, y in pairs]
        # The tables' exact S: the affine split of E leaves out sin 2a (N - 1) / 2.
        s_exact = n - 2 * min(p) + mpmath.sin(2 * mpmath.mpf(alpha)) * (n - 1) / 2
        assert abs(s_float - s_exact) <= ROUNDING
        assert abs(s_float - (1 - 2 * min(p))) <= ROUNDING + 1.5 * abs(n - 1) <= scanner._slack
        with np.errstate(divide="ignore", invalid="ignore"):  # x = y = 0 on a row of a rank-one state
            roots = scanner._roots(slice(0, 1))[:, :, 0].T
        for (x, y), (r2_float, phase, floor, tolerance) in zip(pairs, roots):
            if not r2_float > 0.0:
                continue  # never certified
            r2, exact_phase, p_min = _mp_roots(x, y)
            assert floor <= p_min and r2_float <= r2
            gap = abs(mpmath.mpf(float(phase)) - exact_phase) % mpmath.pi
            assert min(gap, mpmath.pi - gap) <= tolerance - 1e-14
