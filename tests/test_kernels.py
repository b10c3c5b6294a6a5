"""Diagonal scan engine against a pure-Python reference and a golden fixture; plane kernels."""

import contextlib
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leggettlab import kernels, positive_parity_state, singlet_state
from leggettlab.kernels import DiagonalScanner, PlaneScanner
from leggettlab.quantum import PureTwoPhotonState
from leggettlab.scan import _axis, _diagonal_lhs, _plane_lhs
from reference import _diagonal_scan_py, plane_reference, reference_scan, trig_tables

GOLDEN = Path(__file__).parent / "data" / "diagonal_golden.npz"


def random_state(seed, complex_coeffs):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=4) + (1j * rng.normal(size=4) if complex_coeffs else 0.0)
    return PureTwoPhotonState((coeffs / np.linalg.norm(coeffs)).reshape(2, 2))


FIXED_STATES = {
    "singlet": singlet_state(),
    "positive-parity": positive_parity_state(),
    **{f"real{seed}": random_state(seed, False) for seed in (1, 2)},
    **{f"complex{seed}": random_state(seed, True) for seed in (3, 4)},
}


def scan_grid(threshold=1.0 + 1e-9):
    cs = np.linspace(0.0, 0.7, 57)
    alphas = np.linspace(0.0, math.pi, 61)
    betas = np.linspace(0.0, math.pi, 59)
    scanner = DiagonalScanner(alphas, betas)
    return scanner.scan(cs, threshold, 0)[:4], (cs, alphas, betas)


def golden_cases():
    """``name -> (alphas, betas, cs, threshold)`` for every scan entry of the fixture."""
    coarse = _axis((0.0, math.pi, 0.05))
    fine = _axis((0.0, math.pi, 1e-2))
    paper = _axis((0.0, math.pi, 1e-3))
    special = np.array([0.0, 1.0 / math.sqrt(2.0), 1.0])
    return {
        "coarse": (coarse, coarse, _axis((0.0, 0.7, 0.05)), 1.0 + 1e-9),
        "negtol": (fine, fine, _axis((0.0, 0.7, 0.01)), 1.0 - 1e-12),
        "special_all": (fine, fine, special, -math.inf),
        "special_half": (fine, fine, special, 0.5),
        "paper15": (paper, paper, _axis((0.0, 0.7, 0.05)), 1.0 + 1e-9),
    }


# The collect entry of the fixture: the c = 0 plateau of the "negtol" grid.
GOLDEN_COLLECT_K = 0


def sizes(block_elems=None):
    """Blocks of ``block_elems`` points and stencil chunks of half as many candidates; None keeps both defaults."""
    if block_elems is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(kernels, _BLOCK_ELEMS=block_elems, _CHUNK_CANDIDATES=block_elems // 2)


class TestDiagonalScanner:
    def test_weights_formula(self):
        cs = np.array([0.0, 0.3, 1.0 / math.sqrt(2.0), 1.0])
        u, w = DiagonalScanner.weights(cs)
        np.testing.assert_allclose(u, np.abs(1.0 - 2.0 * cs**2), atol=1e-15)
        np.testing.assert_allclose(w, cs * np.sqrt(1.0 - cs**2), atol=1e-15)

    def test_numpy_matches_scalar_reference(self):
        (max_s, arg_i, arg_j, n_over), (cs, alphas, betas) = scan_grid()
        for k in (0, 13, 56):
            plane = np.array(
                [[_diagonal_lhs(cs[k], a, b) for b in betas] for a in alphas]
            )
            assert max_s[k] == pytest.approx(plane.max(), abs=1e-15)
            flat = int(np.argmax(plane))
            assert (arg_i[k], arg_j[k]) == divmod(flat, betas.size)

    def test_argmax_is_first_occurrence(self):
        # At c = 0, alpha = 0 the whole beta row sits at exactly 1, the
        # grid maximum; the reported argmax must be the first column.
        alphas = np.array([0.0, 0.5])
        betas = np.linspace(0.0, math.pi / 2.0, 11)
        scanner = DiagonalScanner(alphas, betas)
        max_s, arg_i, arg_j, _, _ = scanner.scan(np.array([0.0]), 1.0 + 1e-9, 0)
        assert max_s[0] == 1.0
        assert (arg_i[0], arg_j[0]) == (0, 0)

    def test_threshold_counts(self):
        alphas = np.linspace(0.0, math.pi, 21)
        betas = np.linspace(0.0, math.pi, 23)
        scanner = DiagonalScanner(alphas, betas)
        _, _, _, n_over, _ = scanner.scan(np.array([0.2, 0.5]), 0.9, 0)
        for k, c in enumerate((0.2, 0.5)):
            brute = sum(
                _diagonal_lhs(c, a, b) > 0.9 for a in alphas for b in betas
            )
            assert n_over[k] == brute

    def test_collect_matches_count_and_values(self):
        alphas = np.linspace(0.0, math.pi, 31)
        betas = np.linspace(0.0, math.pi, 29)
        scanner = DiagonalScanner(alphas, betas)
        _, _, _, n_over, (k_idx, i_idx, j_idx, s_vals) = scanner.scan(
            np.array([0.35]), 0.95, alphas.size * betas.size)
        assert i_idx.size == n_over[0] and not k_idx.any()
        for i, j, s in zip(i_idx, j_idx, s_vals):
            assert s == pytest.approx(
                _diagonal_lhs(0.35, alphas[i], betas[j]), abs=1e-15
            )
            assert s > 0.95
        # Row-major ordering
        keys = i_idx * betas.size + j_idx
        assert np.all(np.diff(keys) > 0)

    def test_block_seams_match_reference(self):
        # 23 alpha rows in blocks of 3 and stencil chunks of 2 leave a
        # partial last block; the c = 0 plateau puts equal maxima on both
        # sides of every seam.
        alphas = np.linspace(0.0, math.pi, 23)
        betas = np.linspace(0.0, math.pi, 19)
        cs = np.array([0.0, 0.35, 1.0 / math.sqrt(2.0), 1.0])
        with sizes(3 * betas.size + 1):
            scanner = DiagonalScanner(alphas, betas)
            assert len(list(scanner._chunks())) == 12
            got = scanner.scan(cs, 0.9, cs.size * alphas.size * betas.size)
        want = reference_scan(alphas, betas, cs, 0.9)
        for g, r in zip(got[:4] + got[4], want[:4] + want[4]):
            assert np.array_equal(g, r)

    def test_memory_is_bounded_by_the_block(self):
        cs = np.array([0.35])
        for na, nb, threshold, limit in (
            (2000, 2000, 1.0 + 1e-9, 4_000_000),
            (2000, 2000, 1.0 - 1e-12, 4_000_000),
            # Every row falls back and every point is over the threshold:
            # a scan with room for every point would return all 4 M.
            (2000, 2000, -math.inf, 10_000),
            (1 << 17, 16, 1.0 + 1e-9, 1 << 21),
            # One chunk of all 2^16 rows would hold 31 MB of buffers.
            (1 << 16, 512, 1.0 - 1e-12, 1 << 22),
        ):
            alphas = np.linspace(0.0, math.pi, na)
            betas = np.linspace(0.0, math.pi, nb)
            tracemalloc.start()
            try:
                scanner = DiagonalScanner(alphas, betas)
                scanner.scan(cs, threshold, limit)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, (na, nb, threshold)

    def test_hits_memory_is_bounded_by_the_limit(self):
        # 701 slices of 41 x 41 points, all over the threshold: holding
        # every slice's hits until the scan ends would take about 19 MB.
        grid = np.linspace(0.0, math.pi, 41)
        cs = np.linspace(0.0, 0.7, 701)
        scanner = DiagonalScanner(grid, grid)
        tracemalloc.start()
        try:
            _, _, _, n_over, hits = scanner.scan(cs, -math.inf, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n_over.sum() == cs.size * grid.size**2 and hits[0].size == 10_000
        assert peak < 2 * 2**20

    def test_slice_memory_is_a_few_arrays(self):
        # 2^16 slices of 4 x 4 points, none over the threshold: the scan's
        # per-slice arrays take about 3.5 MB, and no Python object per slice
        # (an empty list each would add about 4 MB) may join them.
        grid = np.linspace(0.0, math.pi, 4)
        cs = np.linspace(0.0, 1.0, 1 << 16)
        scanner = DiagonalScanner(grid, grid)
        tracemalloc.start()
        try:
            _, _, _, n_over, hits = scanner.scan(cs, 1.0 + 1e-9, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n_over.sum() == 0 and hits[0].size == 0
        assert peak < 6 * 2**20


def check_against_reference(alphas, betas, cs, threshold, block_elems=None):
    """Scan tuples and hits equal the pure-Python reference bit for bit, at every limit.

    With n hits in all, the limits 0, 1, n - 1, n and n + 5 cut the list
    inside a chunk, between slices, or not at all.
    """
    want = _diagonal_scan_py(*DiagonalScanner.weights(cs), *trig_tables(alphas), *trig_tables(betas), threshold)
    n = want[4][0].size
    with sizes(block_elems):
        scanner = DiagonalScanner(alphas, betas)
        for limit in sorted({0, 1, max(n - 1, 0), n, n + 5}):
            got = scanner.scan(cs, threshold, limit)
            for g, r in zip(got[:4], want[:4]):
                assert np.array_equal(g, r)
            for g, r in zip(got[4], want[4]):
                assert np.array_equal(g, r[:limit]), limit


def axis_strategy(n, layout):
    """Angles for ``n`` points: unsorted in [-2 pi, 2 pi], or a grid from any origin and step."""
    if layout == "random":
        angles = st.floats(-2.0 * math.pi, 2.0 * math.pi)
        return st.lists(angles, min_size=n, max_size=n).map(np.array)
    return st.tuples(st.floats(-math.pi, math.pi), st.floats(1e-3, 1.0)).map(
        lambda origin_step: origin_step[0] + origin_step[1] * np.arange(n)
    )


WEIGHTS = st.lists(st.sampled_from([0.0, 1.0 / math.sqrt(2.0), 1.0]) | st.floats(0.0, 1.0),
                   min_size=1, max_size=4).map(np.array)
THRESHOLDS = st.sampled_from([-math.inf, 0.5, 1.0 - 1e-12, 1.0 + 1e-9])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), na=st.integers(1, 9), nb=st.integers(1, 9),
       layout=st.sampled_from(["random", "grid", "plateau"]), cs=WEIGHTS,
       threshold=st.sampled_from([-math.inf, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-9]),
       block_elems=st.integers(1, 100))
def test_engine_matches_reference_bitwise(data, na, nb, layout, cs, threshold, block_elems):
    # Axes of 1-9 points are shorter than a root's stencil, so stencils wrap
    # around the phase circle and repeat columns; small sizes give stencil
    # chunks and full-row fallbacks seams.
    if layout == "plateau":  # exact ties at c = 0: the first row-major maximum must win
        alphas = np.linspace(0.0, math.pi, na)
        betas = np.linspace(0.0, math.pi / 2.0, nb)
    else:
        alphas = data.draw(axis_strategy(na, layout))
        betas = data.draw(axis_strategy(nb, layout))
    check_against_reference(alphas, betas, cs, threshold, block_elems)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), na=st.integers(10, 60), nb=st.integers(20, 90), cs=WEIGHTS,
       threshold=THRESHOLDS, block_elems=st.sampled_from([1, 100, 4096]))
def test_windows_match_reference_on_pruned_grids(data, na, nb, cs, threshold, block_elems):
    # Steps short enough for stencils to leave most columns out.
    alphas = data.draw(axis_strategy(na, "grid"))
    origin, step = data.draw(st.tuples(st.floats(-math.pi, math.pi), st.floats(0.005, 0.05)))
    betas = origin + step * np.arange(nb)
    check_against_reference(alphas, betas, cs, threshold, block_elems)


@pytest.mark.parametrize("origin", [0.0, 0.37 * 1e-2])
@pytest.mark.parametrize("threshold", [1.0 + 1e-9, 1.0 - 1e-12])
def test_windows_evaluate_a_small_part_of_the_grid(origin, threshold):
    grid = _axis((origin, math.pi + origin, 1e-2))
    cs = np.array([0.0, 0.05, 0.3, 1.0 / math.sqrt(2.0), 0.9, 1.0])
    scanner = DiagonalScanner(grid, grid)
    fallback = []
    full_rows = scanner._full_rows

    def counted(block, pending, u_k, w_k):
        fallback.extend(int(mask.sum()) for _, mask in pending)
        return full_rows(block, pending, u_k, w_k)

    with mock.patch.object(scanner, "_full_rows", counted):
        got = scanner.scan(cs, threshold, cs.size * grid.size**2)
    want = reference_scan(grid, grid, cs, threshold)
    for g, r in zip(got[:4] + got[4], want[:4] + want[4]):
        assert np.array_equal(g, r)
    # The stencils hold 12 of 315 columns per row; at most 2 rows per slice
    # (R = 0 at alpha = 0 when c is 0 or 1) are evaluated in full.
    assert sum(fallback) <= 2 * cs.size


@pytest.mark.parametrize("origin", [0.0, 0.37 * 1e-2])
@pytest.mark.parametrize("threshold", [1.0 + 1e-9, 1.0 - 1e-12])
def test_stencils_are_gathered_only_on_rows_whose_windows_hold_a_column(origin, threshold):
    # Each c's seed row sets a level; a row whose windows at that level hold
    # no grid column is below it throughout, and its stencils are skipped.
    # Not at c = 1/sqrt(2), whose roots sit at b = a on every row, nor at c = 0
    # or 1 on a grid that holds b = 0 or pi/2, every row's root.
    grid = _axis((origin, math.pi + origin, 1e-2))
    cs = np.array([0.05, 0.3, 0.5, 0.9])
    scanner = DiagonalScanner(grid, grid)
    gathered = []
    gather = kernels._gather

    def counted(rows, cols, block, idx, x, y, z):
        gathered.append(idx.shape[-1])
        return gather(rows, cols, block, idx, x, y, z)

    with mock.patch.object(kernels, "_gather", counted):
        got = scanner.scan(cs, threshold, cs.size * grid.size**2)
    want = reference_scan(grid, grid, cs, threshold)
    for g, r in zip(got[:4] + got[4], want[:4] + want[4]):
        assert np.array_equal(g, r)
    # Seeds and live rows together: at most 5 % of the 315 rows per c.
    assert 0 < sum(gathered) <= 0.05 * grid.size * cs.size


@pytest.mark.parametrize("cs", [(0.05, 0.0, 0.3), (0.0, 0.05, 0.3)])
def test_slices_sharing_full_rows_match_reference(cs):
    # At 1 - 1e-5 a window passes the stencil where R < 0.075: rows near
    # alpha = pi/2 and 0 for c = 0 and 0.05, but not the same rows, and
    # none for c = 0.3.  The slices of one scan share the full-row tables.
    grid = _axis((0.0, math.pi, 1e-2))
    cs = np.array(cs)
    scanner = DiagonalScanner(grid, grid)
    counts = []
    full_rows = scanner._full_rows

    def counted(block, pending, u_k, w_k):
        counts.append(sorted((k, int(mask.sum())) for k, mask in pending))
        return full_rows(block, pending, u_k, w_k)

    with mock.patch.object(scanner, "_full_rows", counted):
        scanner.scan(cs, 1.0 - 1e-5, 0)
    assert len({n for chunk in counts for _, n in chunk}) > 1
    check_against_reference(grid, grid, cs, 1.0 - 1e-5)


# D >= _SLACK / 2 - 2^-53, and a row is certified only where sqrt(D) / R <= 1/2.
CERTIFIABLE_RADIUS = 2.0 * math.sqrt(kernels._SLACK / 2.0 - 2.0**-53)
# The kernels docstring's bound on |S_float - S_exact| at the float angles, 99 e
# with e = 2^-53, rounded up.
ROUNDING = 100 * 2.0**-53
# Its bound on |S_exact - (1 - 2 min p)| at the float c and s: 4 e + 8 e + e.
IDENTITY_GAP = 13 * 2.0**-53


def mp_s(u, w, alpha, beta):
    """S at the float angles and weights in 50-digit arithmetic."""
    with mpmath.workdps(50):
        ca2, sa2 = mpmath.cos(alpha) ** 2, mpmath.sin(alpha) ** 2
        cb2, sb2 = mpmath.cos(beta) ** 2, mpmath.sin(beta) ** 2
        z = mpmath.sin(2 * mpmath.mpf(alpha)) * mpmath.sin(2 * mpmath.mpf(beta))
        return mpmath.mpf(u) * abs(ca2 - cb2) + (ca2 * cb2 + sa2 * sb2) + mpmath.mpf(w) * z


@settings(max_examples=200, deadline=None)
@given(
    c=st.sampled_from([0.0, 1e-9, 1.0 / math.sqrt(2.0), 1.0]) | st.floats(0.0, 1.0),
    alpha=st.floats(-2.0 * math.pi, 2.0 * math.pi),
    beta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
)
def test_float_error_bound_against_mpmath(c, alpha, beta):
    u, w = (float(v[0]) for v in DiagonalScanner.weights(np.array([c])))
    scanner = DiagonalScanner(np.array([alpha]), np.array([beta]))
    s_float = float(scanner.scan(np.array([c]), -math.inf, 1)[4][3][0])
    assert ROUNDING + IDENTITY_GAP < kernels._SLACK
    assert abs(s_float - mp_s(u, w, alpha, beta)) <= ROUNDING

    # The identity form at the float c and the s of w = c s.
    s_f = math.sqrt(1.0 - c * c)
    assert w == c * s_f
    with mpmath.workdps(50):
        c_mp, s_mp = mpmath.mpf(c), mpmath.mpf(s_f)
        ma, mb = mpmath.mpf(alpha), mpmath.mpf(beta)
        p = [(a * mpmath.cos(ma) * mpmath.sin(mb) - b * mpmath.sin(ma) * mpmath.cos(mb)) ** 2
             for a, b in ((s_mp, c_mp), (c_mp, s_mp))]
        assert abs(s_float - (1 - 2 * min(p))) <= ROUNDING + IDENTITY_GAP
        gap = abs(mpmath.mpf(float(np.remainder(beta, math.pi))) - mb) % mpmath.pi
        assert min(gap, mpmath.pi - gap) <= 1e-14 < kernels._ANGLE_MARGIN


# The kernels docstring's bounds on a diagonal root at the float angle, c and s:
# R^2 within 20 e relative, the phase within 3e-15 mod pi.
R2_ERROR = 20 * 2.0**-53
PHASE_ERROR = 3e-15
SPECIAL_ALPHAS = (0.0, math.pi / 2.0, math.pi)


@settings(max_examples=300, deadline=None)
@given(
    c=st.sampled_from([0.0, 1.0 / math.sqrt(2.0), 1.0]) | st.floats(0.0, 1.0),
    alpha=st.sampled_from(SPECIAL_ALPHAS) | st.sampled_from(SPECIAL_ALPHAS).flatmap(
        lambda a: st.floats(a - 1e-3, a + 1e-3)) | st.floats(-2.0 * math.pi, 2.0 * math.pi),
)
def test_root_error_bound_against_mpmath(c, alpha):
    # Phases arctan2(c T, s) and arctan2(s T, c) from T = tan a, R^2 from the squared tables.
    scanner = DiagonalScanner(np.array([alpha]), np.array([0.0]))
    sc = np.array([[math.sqrt(1.0 - c * c)], [c]])
    r2, phase, floor, tolerance = scanner._roots(sc, np.array([0]), slice(None), np.empty((3, 2, 1)))
    assert floor == 0.0 and tolerance == scanner._margin
    with mpmath.workdps(50):
        s_mp, c_mp, ma = mpmath.mpf(float(sc[0, 0])), mpmath.mpf(c), mpmath.mpf(alpha)
        for (a, b), r2_float, phase_float in zip(((s_mp, c_mp), (c_mp, s_mp)), r2[:, 0], phase[:, 0]):
            assert 0.0 <= phase_float <= math.pi
            x, y = a * mpmath.cos(ma), b * mpmath.sin(ma)
            exact = x * x + y * y
            if exact < CERTIFIABLE_RADIUS**2:
                # Never certified (sqrt(D) / R > 1/2); sin^2 may even underflow here.
                assert r2_float < 4 * CERTIFIABLE_RADIUS**2
                continue
            assert abs(r2_float - exact) <= R2_ERROR * exact
            gap = abs(mpmath.mpf(float(phase_float)) - mpmath.atan2(y, x)) % mpmath.pi
            assert min(gap, mpmath.pi - gap) <= PHASE_ERROR


def test_phase_fold_is_remainder_bit_for_bit():
    # arctan2 gives +-0, +-pi (y = +-0 or tiny, x < 0), subnormals, and tiny
    # negatives that fold to fl(pi); the fixed states fold half the angle.
    special = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-17, -1e-17, 1e300, -1e300])
    rng = np.random.default_rng(12)
    y = np.concatenate([np.repeat(special, special.size), rng.normal(size=4096), rng.normal(size=4096) * 1e-16])
    x = np.concatenate([np.tile(special, special.size), rng.normal(size=4096), rng.normal(size=4096)])
    phase = np.arctan2(y, x)
    assert {0.0, math.pi, -math.pi} <= set(phase.tolist()) and np.signbit(phase[phase == 0.0]).any()
    assert (np.abs(phase[phase != 0.0]) < 2.3e-308).any()
    for got, want in ((kernels._fold(phase.copy()), np.remainder(phase, math.pi)),
                      (kernels._fold(phase / 2.0), np.remainder(phase / 2.0, math.pi))):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _steps_around(values, steps):
    """``values`` moved by each of ``steps`` ulps, along a new last axis."""
    values = np.asarray(values, dtype=np.float64)[..., None]
    return values + np.spacing(np.abs(values)) * np.asarray(steps, dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nb=st.sampled_from([1, 2]) | st.integers(1, 40), na=st.integers(1, 30),
       layout=st.sampled_from(["random", "grid", "periods"]), cs=WEIGHTS)
def test_bucket_positions_and_live_screen(data, nb, na, layout, cs):
    """Bucketed column positions equal searchsorted's, and the screen kills no row the exact windows keep.

    Axes: random, shifted uniform grids, and beta over more than pi, whose
    phases repeat, of any length from one column.  Phases: every column's,
    the ulps around them, 0, fl(pi) and the roots of the weights ``cs``.
    The screen is checked at random depths and, where its float-error term
    decides, at depths within a few ulps of R^2 / 4 (x = 1/2) and near
    distances within a few ulps of the exact window.
    """
    if layout == "periods":
        origin, span = data.draw(st.tuples(st.floats(-math.pi, math.pi), st.floats(math.pi, 4.0 * math.pi)))
        betas = np.linspace(origin, origin + span, nb)
    else:
        betas = data.draw(axis_strategy(nb, layout))
    scanner = DiagonalScanner(data.draw(axis_strategy(na, "random")), betas)
    sc = np.stack([np.sqrt(1.0 - cs * cs), cs])
    r2, phase, _, tolerance = scanner._roots(sc, np.arange(cs.size)[:, None], slice(None),
                                             np.empty((3, 2, cs.size, na)))
    cols = scanner._sorted_phase
    phases = np.clip(np.concatenate([_steps_around(cols, [-1, 0, 1]).ravel(), [0.0, math.pi], phase.ravel()]),
                     0.0, math.pi)
    got = scanner._locate(phases, np.empty(phases.shape, dtype=np.int64), np.empty(phases.shape))
    assert np.array_equal(got, np.searchsorted(cols, phases, side="right"))

    # near: the distance to the nearest column on either side of each root.
    p = np.searchsorted(cols, phase, side="right")
    want = np.minimum(phase - scanner._phase[kernels._SIDE - 1 + p], scanner._phase[kernels._SIDE + p] - phase)
    near = scanner._near(phase.copy(), np.empty(phase.shape, dtype=np.int64), np.empty(phase.shape))
    assert np.all(np.abs(near - want) <= 1e-15)
    dips = scanner._dips(sc, np.arange(cs.size), slice(None), np.empty((2, 2, cs.size, na)))
    assert np.array_equal(dips, r2 * np.maximum(near - tolerance, 0.0) ** 2)

    def check(r2, near, depth):
        # As the scanner forms them, near is at most the largest half-gap; the
        # margin is positive, and 0 leaves the float error nothing to hide in.
        near = np.minimum(near, scanner._gap.max())
        for tol in (tolerance, 0.0):
            dip = r2 * np.maximum(near - tol, 0.0) ** 2
            live = ~(kernels._RidgeScanner._windows(r2, depth, tol) < near)
            assert not (scanner._dead(dip, depth) & live).any()

    with np.errstate(divide="ignore", invalid="ignore"):  # R = 0
        for depth in data.draw(st.lists(st.floats(1e-300, 1.0) | st.floats(1e-14, 1e-6) | st.just(0.0),
                                        min_size=1, max_size=3)):
            check(r2, near, depth)
        r2 = r2[r2 > 1e-200]
        depth = _steps_around(r2 / 4.0, np.arange(-6, 7))
        half = kernels._RidgeScanner._windows(r2[:, None], depth, tolerance)
        for near in (_steps_around(half, np.arange(-6, 7)), np.array([scanner._gap.max()])):
            check(r2[:, None, None], near, depth[:, :, None])


@pytest.mark.parametrize("origin", [0.0, 0.2])
def test_screen_holds_where_its_float_error_term_decides(origin):
    # Three columns pi/3 apart: the largest half-gap G is fl(pi/6), so a root
    # midway between two columns, with x = sqrt(D) / R a few ulps under 1/2,
    # sits within a few ulps of both the screen's limit and its exact window.
    scanner = DiagonalScanner(np.array([0.1]), origin + np.arange(3) * (math.pi / 3.0))
    r2 = np.random.default_rng(5).uniform(1e-3, 1.0, 4000)[:, None]
    depth = r2 / 4.0 * (1.0 + np.arange(-64, 1) * 2.0**-52)
    dead = 0
    for tolerance in (0.0, scanner._margin):
        for near in (scanner._gap.max(), np.nextafter(scanner._gap.max(), 0.0)):
            screened = scanner._dead(r2 * max(near - tolerance, 0.0) ** 2, depth)
            assert not (screened & ~(kernels._RidgeScanner._windows(r2, depth, tolerance) < near)).any()
            dead += int(screened.sum())
    assert dead > 0


@pytest.mark.parametrize("threshold", [1.0 - 1e-5, 1.0 - 1e-3, 0.9, -math.inf])
@pytest.mark.parametrize("block_elems", [None, 200])
def test_limited_collect_is_prefix_of_unlimited(threshold, block_elems):
    """A scan's hits at ``limit`` are the (k, i, j)-ordered prefix of length ``limit`` of all hits.

    At 1 - 1e-5, 3 of the 194 rows of both slices go to the block
    engine, at 1 - 1e-3 38 of them, at 0.9 and -inf all.  200-element
    blocks and 100-candidate chunks give many of both, so a limit is
    reached inside and between them, and inside either slice.
    """
    alphas = np.linspace(0.0, math.pi, 97)
    betas = np.linspace(0.1, math.pi + 0.1, 89)
    cs = np.array([0.0, 0.3])
    with sizes(block_elems):
        scanner = DiagonalScanner(alphas, betas)
        assert len(list(scanner._chunks())) == (1 if block_elems is None else 13)
        full = scanner.scan(cs, threshold, 2 * alphas.size * betas.size)
        n = full[4][0].size
        first = int(full[3][0])
        assert 0 < first < n == full[3].sum()
        assert np.array_equal(full[4][0], np.repeat([0, 1], full[3]))
        assert np.all(np.diff(full[4][1] * betas.size + full[4][2])[first:] > 0)
        for limit in sorted({0, 1, 2, 7, n // 3, first - 1, first, first + 1, n - 1, n, n + 5}):
            got = scanner.scan(cs, threshold, limit)
            for g, f in zip(got[:4], full[:4]):
                assert np.array_equal(g, f), limit
            for g, f in zip(got[4], full[4]):
                assert np.array_equal(g, f[:limit]), limit


def test_golden_fixture_bitwise():
    golden = np.load(GOLDEN)
    for name, (alphas, betas, cs, threshold) in golden_cases().items():
        scanner = DiagonalScanner(alphas, betas)
        got = scanner.scan(cs, threshold, 0)
        for field, value in zip(("max_s", "arg_i", "arg_j", "n_over"), got):
            assert np.array_equal(value, golden[f"{name}.{field}"]), (name, field)
    alphas, betas, cs, threshold = golden_cases()["negtol"]
    k = GOLDEN_COLLECT_K
    got = DiagonalScanner(alphas, betas).scan(cs[k:k + 1], threshold, alphas.size * betas.size)[4][1:]
    for field, value in zip(("i", "j", "s"), got):
        assert np.array_equal(value, golden[f"collect.{field}"]), field


class TestPlaneKernels:
    def test_singlet_rows_match_closed_form(self):
        alphas = np.linspace(0.0, math.pi, 41)
        betas = np.linspace(0.0, math.pi, 43)
        scanner = PlaneScanner(singlet_state().coeffs, alphas, betas)
        row_max, row_arg, count, hits = scanner.scan(slice(None), 1.0 + 1e-9, 10)
        # S = sin^2(beta - alpha) for the antisymmetric state.
        for i, a in enumerate(alphas):
            expected = max(math.sin(b - a) ** 2 for b in betas)
            assert row_max[i] == pytest.approx(expected, abs=1e-12)
        assert count == 0 and all(h.size == 0 for h in hits)

    def test_row_blocks_are_seamless(self):
        alphas = np.linspace(0.0, math.pi, 103)  # not a multiple of the block size
        betas = np.linspace(0.0, math.pi, 37)
        scanner = PlaneScanner(singlet_state().coeffs, alphas, betas)
        runs = []
        for rows in (16, 4096):
            with mock.patch.object(kernels, "_BLOCK_ELEMS", rows * betas.size):
                runs.append(scanner.scan(slice(None), 0.5, alphas.size * betas.size))
        small, big = runs
        assert small[2] == big[2] > 0
        for a, b in zip(small[:2] + small[3], big[:2] + big[3]):
            assert np.array_equal(a, b)

    def test_collect_is_row_major_and_complete(self):
        alphas = np.linspace(0.0, math.pi, 51)
        betas = np.linspace(0.0, math.pi, 53)
        scanner = PlaneScanner(singlet_state().coeffs, alphas, betas)
        threshold = 0.9
        with mock.patch.object(kernels, "_BLOCK_ELEMS", 8 * betas.size):
            _, _, count, (i_idx, j_idx, s_vals) = scanner.scan(slice(None), threshold, alphas.size * betas.size)
        assert i_idx.size == count
        keys = i_idx * betas.size + j_idx
        assert np.all(np.diff(keys) > 0)
        for i, j, s in zip(i_idx, j_idx, s_vals):
            assert s == pytest.approx(math.sin(betas[j] - alphas[i]) ** 2, abs=1e-12)
            assert s > threshold

    def test_memory_is_bounded_by_the_block(self):
        alphas = np.linspace(0.0, math.pi, 300)
        betas = np.linspace(0.0, math.pi, 5000)
        coeffs = singlet_state().coeffs
        tracemalloc.start()
        try:
            scanner = PlaneScanner(coeffs, alphas, betas)
            scanner.scan(slice(None), 1.0 + 1e-9, alphas.size * betas.size)
            scanner.scan(slice(None), -math.inf, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("threshold", [0.9, -math.inf])
    def test_limited_collect_is_prefix_of_unlimited(self, threshold):
        alphas = np.linspace(0.0, math.pi, 51)
        betas = np.linspace(0.0, math.pi, 53)
        scanner = PlaneScanner(random_state(3, complex_coeffs=True).coeffs, alphas, betas)
        with mock.patch.object(kernels, "_BLOCK_ELEMS", 4 * betas.size):
            full = scanner.scan(slice(None), threshold, alphas.size * betas.size)
            n = full[3][0].size
            assert n > 0 and n == full[2]
            for limit in sorted({0, 1, 2, 7, n // 3, n // 2, n - 1, n, n + 5}):
                got = scanner.scan(slice(None), threshold, limit)
                for g, f in zip(got[:2], full[:2]):
                    assert np.array_equal(g, f), limit
                assert got[2] == n
                for g, f in zip(got[3], full[3]):
                    assert np.array_equal(g, f[:limit]), limit

    def test_collect_empty_when_nothing_crosses(self):
        alphas = np.linspace(0.0, 1.0, 11)
        betas = np.linspace(0.0, 1.0, 11)
        scanner = PlaneScanner(singlet_state().coeffs, alphas, betas)
        _, _, count, (i_idx, j_idx, s_vals) = scanner.scan(slice(None), 2.0, alphas.size * betas.size)
        assert count == i_idx.size == j_idx.size == s_vals.size == 0


@pytest.mark.parametrize("name", sorted(FIXED_STATES))
def test_fixed_state_bits_independent_of_block_height(name):
    alphas = np.linspace(0.0, math.pi, 301)
    betas = np.linspace(0.0, math.pi, 307)
    scanner = PlaneScanner(FIXED_STATES[name].coeffs, alphas, betas)
    threshold = 0.9
    runs = []
    for block_elems in (betas.size, kernels._BLOCK_ELEMS):  # one-row blocks, then the default
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            row_max, row_arg, count, hits = scanner.scan(slice(None), threshold, alphas.size * betas.size)
            runs.append((row_max, row_arg, np.array(count)) + hits)
    one_row, default = runs
    assert one_row[3].size > 0
    for a, b in zip(one_row, default):
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(FIXED_STATES)), na=st.integers(1, 12),
       nb=st.integers(1, 24), threshold=st.sampled_from([-math.inf, 0.5, 0.9, 1.0 - 1e-12, 1.0]),
       block_rows=st.integers(1, 5))
def test_fixed_state_rows_and_hits_match_reference(data, name, na, nb, threshold, block_rows):
    """Row scans of any split of the rows equal the point-by-point reference, at every limit.

    With n hits in all, the limits 0, 1, n - 1, n and n + 5 cut the list
    inside a block of ``block_rows`` rows, inside a row range, or not at all.
    """
    alphas = data.draw(axis_strategy(na, "random"))
    betas = data.draw(axis_strategy(nb, "random"))
    scanner = PlaneScanner(FIXED_STATES[name].coeffs, alphas, betas)
    row_max, row_arg, n, hits = plane_reference(scanner, threshold)
    cut = data.draw(st.integers(0, na))
    with mock.patch.object(kernels, "_BLOCK_ELEMS", block_rows * nb):
        for limit in sorted({0, 1, max(n - 1, 0), n, n + 5}):
            got = scanner.scan(slice(None), threshold, limit)
            assert np.array_equal(got[0], row_max) and np.array_equal(got[1], row_arg)
            assert got[2] == n
            for g, r in zip(got[3], hits):
                assert np.array_equal(g, r[:limit]), limit
            head, tail = scanner.scan(slice(0, cut), threshold, limit), scanner.scan(slice(cut, na), threshold, limit)
            assert np.array_equal(np.concatenate([head[0], tail[0]]), row_max)
            assert np.array_equal(np.concatenate([head[1], tail[1]]), row_arg)
            assert head[2] + tail[2] == n
            for g_head, g_tail, r in zip(head[3], tail[3], hits):
                assert np.array_equal(np.concatenate([g_head, g_tail])[:limit], r[:limit]), limit


@settings(max_examples=60, deadline=None)
@given(
    re_im=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    complex_coeffs=st.booleans(),
    alphas=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1, max_size=6),
    betas=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1, max_size=6),
)
def test_fixed_state_matches_scalar_probability_form(re_im, complex_coeffs, alphas, betas):
    coeffs = np.array(re_im[:4]) + (1j * np.array(re_im[4:]) if complex_coeffs else 0.0)
    norm = np.linalg.norm(coeffs)
    assume(norm > 1e-3)
    state = PureTwoPhotonState((coeffs / norm).reshape(2, 2))
    scanner = PlaneScanner(state.coeffs, np.array(alphas), np.array(betas))
    _, _, _, (i_idx, j_idx, s_vals) = scanner.scan(slice(None), -math.inf, len(alphas) * len(betas))
    assert i_idx.size == len(alphas) * len(betas)
    for i, j, s in zip(i_idx, j_idx, s_vals):
        assert abs(s - _plane_lhs(state, alphas[i], betas[j])) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(FIXED_STATES)), na=st.integers(10, 50),
       nb=st.integers(20, 90), layout=st.sampled_from(["grid", "wrap"]),
       threshold=st.sampled_from([-math.inf, 0.5, 1.0 - 1e-3, 1.0 - 1e-12, 1.0, 1.0 + 1e-9]),
       block_elems=st.sampled_from([1, 100, 4096]))
def test_fixed_state_windows_match_reference_on_pruned_grids(data, name, na, nb, layout, threshold, block_elems):
    """Certified rows of singlet, positive-parity, real and complex states equal the point-by-point reference.

    Steps short enough for stencils to leave most columns out.  The
    ``wrap`` layout runs beta over two periods, so the columns b and b +
    pi of a root tie up to rounding and the first maximum must win.
    """
    alphas = data.draw(axis_strategy(na, "grid"))
    if layout == "wrap":
        betas = np.linspace(0.0, 2.0 * math.pi, nb)
    else:
        origin, step = data.draw(st.tuples(st.floats(-math.pi, math.pi), st.floats(0.005, 0.05)))
        betas = origin + step * np.arange(nb)
    scanner = PlaneScanner(FIXED_STATES[name].coeffs, alphas, betas)
    row_max, row_arg, n, hits = plane_reference(scanner, threshold)
    with sizes(block_elems):
        for limit in sorted({0, 1, max(n - 1, 0), n, n + 5}):
            got = scanner.scan(slice(None), threshold, limit)
            assert np.array_equal(got[0], row_max) and np.array_equal(got[1], row_arg)
            assert got[2] == n
            for g, r in zip(got[3], hits):
                assert np.array_equal(g, r[:limit]), limit


@pytest.mark.parametrize("name", sorted(FIXED_STATES))
def test_fixed_state_rows_are_certified(name):
    # At 1 - 1e-12 on a 1e-2 grid every row of these states is certified, so
    # only stencil points are evaluated, and the rows still match the reference.
    grid = _axis((0.0037, math.pi + 0.0037, 1e-2))
    scanner = PlaneScanner(FIXED_STATES[name].coeffs, grid, grid)
    fallback = []
    full_rows = scanner._full_rows

    def counted(block, pending, u_k, w_k):
        fallback.extend(int(block.stop - block.start if mask is None else mask.sum()) for _, mask in pending)
        return full_rows(block, pending, u_k, w_k)

    with mock.patch.object(scanner, "_full_rows", counted):
        got = scanner.scan(slice(None), 1.0 - 1e-12, grid.size**2)
    want = plane_reference(scanner, 1.0 - 1e-12)
    for g, r in zip(got[:3] + got[3], want[:3] + want[3]):
        assert np.array_equal(g, r)
    assert sum(fallback) == 0
