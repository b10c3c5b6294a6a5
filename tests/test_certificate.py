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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leggettlab import kernels
from leggettlab.cli import main
from leggettlab.domain import PROB_ATOL
from leggettlab.kernels import DiagonalScanner, PlaneScanner
from leggettlab.quantum import PureTwoPhotonState
from leggettlab.scan import _axis
from reference import dense_diagonal_scan, dense_plane_scan
from test_kernels import PLACES, columns_around, evaluated_points, on_windows, root_bounds

# The fixed-matrix state of the benchmark's toolkit workload at seed 0 (real).
TOOLKIT = np.array([[0.3018015947633647, 0.7228650868819381], [0.5339238809738273, 0.3182878459685576]])
# A complex state whose rows mostly have p_min > 0.
rng = np.random.default_rng(3)
COMPLEX = (rng.normal(size=4) + 1j * rng.normal(size=4)).reshape(2, 2)
COMPLEX /= np.linalg.norm(COMPLEX)


@pytest.mark.parametrize("coeffs, band", [(TOOLKIT, 1.0 - 1e-6), (COMPLEX, 1.0 - 1e-5)], ids=["toolkit", "complex"])
def test_certified_scan_matches_dense_at_toolkit_scale(coeffs, band):
    """Row maxima, first argmax, count and every hit on the 6284^2 grid, certified and dense.

    At ``1 - 1e-12`` each row's windows at its own L0 hold one tile of
    8 columns.  At ``band`` some windows widen (110 016 points evaluated
    for the toolkit state, 50 776 for the complex one), some with points
    over the threshold.
    """
    grid = _axis((0.0, math.pi, 5e-4))
    scanner = PlaneScanner(coeffs, grid, grid)
    for threshold in (1.0 - 1e-12, band):
        want = dense_plane_scan(scanner, threshold)
        with on_windows(), evaluated_points() as points:
            got = scanner.scan(threshold, int(want[3][0]) + 1)
        for g, w in zip(got[:4] + got[4], want[:4] + want[4]):
            assert np.array_equal(g, w)
        if threshold == band:
            assert want[3][0] > 0 and 0 < sum(points) < 50 * grid.size
        else:
            assert sum(points) == kernels._TILE * grid.size


# Hits listed per scan below: all of them at 1 - 1e-12, the first few slices' at 1 - 1e-6.
CENSUS_LISTED = 2**17


@pytest.mark.parametrize("origin", [0.0, 0.37 * 1e-3])
def test_certified_diagonal_scan_matches_dense_at_census_scale(origin):
    """Per-c maxima, first argmax, counts and listed hits on the census grid (71 x 3142^2), certified and dense.

    The dense scan of ``tests/reference.py`` evaluates every point.  At
    ``1 - 1e-12`` a few rows per c are live, and each takes a tile or so
    of its windows; at origin 0 so does every row of c = 0, which has a
    root on the column b = 0, and its row of R = 0 (alpha = 0) is
    evaluated whole: 39 496 points, 9 856 at 0.37 of a step.  At ``1 -
    1e-6`` every row is live and takes a tile or two, about 3.7 M points
    (7637 and 1 196 437 points over the threshold at origin 0).
    Both scans list at most ``CENSUS_LISTED`` hits, which cuts the list
    only at ``1 - 1e-6``.
    """
    grid = _axis((origin, math.pi + origin, 1e-3))
    cs = _axis((0.0, 0.7, 1e-2))
    scanner = DiagonalScanner(grid, grid)
    for threshold in (1.0 - 1e-12, 1.0 - 1e-6):
        want = dense_diagonal_scan(scanner, cs, threshold, CENSUS_LISTED)
        count = int(want[3].sum())
        with on_windows(), evaluated_points() as points:
            got = scanner.scan(cs, threshold, CENSUS_LISTED)
        for g, w in zip(got[:4] + got[4], want[:4] + want[4]):
            assert np.array_equal(g, w)
        if threshold > 1.0 - 1e-9:
            assert 0 < count < CENSUS_LISTED and sum(points) <= 2 * kernels._TILE * grid.size
        else:
            assert count > CENSUS_LISTED and 0 < sum(points) < 20 * cs.size * grid.size


# The kernels docstring's bound on |S_float - S*| for a fixed state's tables, 285 e.
ROUNDING = 285 * 2.0**-53


def _mp_pairs(state, alpha):
    """``(x, y)`` of p_+- and p_-+ as ``|x sin b - y cos b|^2`` on the row ``alpha``, and the norm, at mpmath's precision."""
    c00, c01, c10, c11 = (mpmath.mpc(complex(c)) for c in state.coeffs.ravel())
    ca, sa = mpmath.cos(alpha), mpmath.sin(alpha)
    n = sum(abs(c) ** 2 for c in (c00, c01, c10, c11))
    return ((ca * c00 + sa * c10, ca * c01 + sa * c11), (ca * c11 - sa * c01, sa * c00 - ca * c10)), n


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
    s_float = float(scanner.scan(-math.inf, 1)[4][3][0])
    with mpmath.workdps(50):
        pairs, n = _mp_pairs(state, alpha)
        cb, sb = mpmath.cos(beta), mpmath.sin(beta)
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


# A product state: at alpha = fl(pi/2) its p_+- root has R^2 <= _ROOT_ERROR, at alpha = 0 its p_-+ sinusoid is 0.
PRODUCT = np.array([[0.6, 0.8], [0.0, 0.0]])


@settings(max_examples=200, deadline=None)
@given(
    re_im=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8) | st.just(None),
    complex_coeffs=st.booleans(),
    defect=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0),
    alpha=st.sampled_from([0.0, math.pi / 2.0]) | st.floats(-2.0 * math.pi, 2.0 * math.pi),
    place=st.sampled_from(PLACES),
    gap=st.floats(1e-9, 1.0),
)
@example(re_im=None, complex_coeffs=False, defect=0.0, alpha=3.241687722667735e-157, place="on", gap=1.0)
def test_fixed_state_lower_bound_against_mpmath(re_im, complex_coeffs, defect, alpha, place, gap):
    """Each root's L0 lies below the exact S at its nearest column by the rounding bound, and its bound of p above p there.

    ``re_im`` None is the product state, whose roots include ``R^2 <=
    _ROOT_ERROR`` and ``x = y = 0``; those bound nothing.  At a tiny alpha
    its p_-+ root has R^2 = sin^2 a and bounds nothing either: the underflow
    of the diagonal family's test cannot occur here, as a root that bounds
    has a bound of p of at least ``p_min + _ROOT_ERROR``.
    """
    if re_im is None:
        coeffs = PRODUCT
    else:
        coeffs = np.array(re_im[:4]) + (1j * np.array(re_im[4:]) if complex_coeffs else 0.0)
        assume(np.linalg.norm(coeffs) > 1e-3)
        coeffs = coeffs.reshape(2, 2) / np.linalg.norm(coeffs) * (1.0 + 0.99 * defect * PROB_ATOL)
    state = PureTwoPhotonState(coeffs)
    with np.errstate(divide="ignore", invalid="ignore"):  # x = y = 0
        phase = PlaneScanner(state.coeffs, np.array([alpha]), np.array([0.0]))._roots(slice(0, 1))[1, :, 0]
        betas = columns_around(phase, place, gap)
        scanner = PlaneScanner(state.coeffs, np.array([alpha]), betas)
        found = root_bounds(scanner, scanner._roots(slice(0, 1)))
    with mpmath.workdps(50):
        for r, (lower, bound, col) in enumerate(found):
            pairs, n = _mp_pairs(state, alpha)
            cb, sb = mpmath.cos(betas[col]), mpmath.sin(betas[col])
            p = [abs(x * sb - y * cb) ** 2 for x, y in pairs]
            assert bound >= p[r]
            s_exact = n - 2 * min(p) + mpmath.sin(2 * mpmath.mpf(alpha)) * (n - 1) / 2
            assert lower <= s_exact - ROUNDING


def test_fixed_state_lower_bound_far_from_the_origin():
    """Near beta = 1e7, ``b mod pi`` misses the exact phase by about 4e-10 (``b (pi - fl(pi)) / pi``), more than the
    slack covers in a fixed state's L0 on a coarse axis; the margin in its tolerance covers it, and the certified scan
    matches the dense one.  Without that tolerance some rows' L0 exceeds their maxima and the scan raises.
    """
    scanner = PlaneScanner(TOOLKIT, np.linspace(0.0, math.pi, 301), 1e7 + 0.3 * np.arange(11))
    want = dense_plane_scan(scanner, 1.0 + 1e-9)
    got = scanner.scan(1.0 + 1e-9, 1)
    for g, w in zip(got[:4], want[:4]):
        assert np.array_equal(g, w)
    assert want[3].tolist() == [0]


def test_an_l0_above_the_maximum_exits_4(capsys):
    """A slice's level raised above its maximum is a broken certificate: with every L0 1e-3 too high, both scanners
    raise ArithmeticError, and a scan command that exits 0 exits 4 with one ``error:`` line and no traceback."""
    grid = _axis((0.0, math.pi, 1e-2))
    argv = ["scan", "--step", "0.01", "--c-max", "0.1", "--no-refine"]
    assert main(argv) == 0
    capsys.readouterr()
    lower = kernels._RidgeScanner._lower
    with on_windows(), mock.patch.object(kernels._RidgeScanner, "_lower",
                                         lambda self, roots, out: lower(self, roots, out) + 1e-3):
        with pytest.raises(ArithmeticError):
            DiagonalScanner(grid, grid).scan(np.array([0.2, 0.5]), 1.0 + 1e-9, 10)
        with pytest.raises(ArithmeticError):
            PlaneScanner(TOOLKIT, grid, grid).scan(1.0 + 1e-9, 10)
        assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
