"""Diagonal scan engine against a pure-Python reference and a golden fixture; plane kernels."""

import contextlib
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    # A's photon is |H>: at alpha = fl(pi/2), p_+- is 0 up to rounding on the whole row.
    "product": PureTwoPhotonState(np.array([[0.6, 0.8], [0.0, 0.0]])),
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


@contextlib.contextmanager
def evaluated_points():
    """Collect, in the list this yields, the points of each evaluation.

    Those are the tiles of a row's windows, ``(_TILE, tiles)``, and the
    whole rows of the block engine, ``(slices, rows, nb)``.
    """
    points, evaluate = [], kernels._evaluate

    def counted(x, y, z, u_k, w_k, s, t):
        points.append(s.size)
        return evaluate(x, y, z, u_k, w_k, s, t)

    with mock.patch.object(kernels, "_evaluate", counted):
        yield points


def on_windows():
    """Every live row on its windows, whatever engine the rule would pick."""
    return mock.patch.object(kernels, "_WINDOW_COST", 0.0)


def engines():
    """Loop once with every live row on its windows, then once with every row from the block engine."""
    for engine in (on_windows(), mock.patch.object(kernels, "_WINDOW_COST", math.inf)):
        with engine:
            yield engine


def sizes(block_elems=None):
    """Blocks of ``block_elems`` points and chunks of ``block_elems // 24`` rows; None keeps both defaults."""
    if block_elems is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(kernels, _BLOCK_ELEMS=block_elems, _CHUNK_ROWS=block_elems // 24)


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

    def test_collect_is_the_hits_of_a_scan_of_one_c(self):
        # collect(c, ...) is (i, j, S) of scan([c], ...)'s hits at any limit, also where
        # the limit cuts the list.
        alphas = np.linspace(0.0, math.pi, 31)
        betas = np.linspace(0.0, math.pi, 29)
        scanner = DiagonalScanner(alphas, betas)
        for c, threshold in ((0.35, 0.95), (0.0, 1.0 - 1e-12)):
            n = int(scanner.scan(np.array([c]), threshold, 0)[3][0])
            assert n > 1
            for limit in (0, 1, n):
                got = scanner.collect(c, threshold, limit)
                want = scanner.scan(np.array([c]), threshold, limit)[4][1:]
                assert len(got) == 3 and got[0].size == min(limit, n)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)

    def test_block_seams_match_reference(self):
        # 23 alpha rows in blocks of 3 and chunks of 2 leave a
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
        for _ in engines():
            for limit in sorted({0, 1, max(n - 1, 0), n, n + 5}):
                got = scanner.scan(cs, threshold, limit)
                for g, r in zip(got[:4], want[:4]):
                    assert np.array_equal(g, r)
                for g, r in zip(got[4], want[4]):
                    assert np.array_equal(g, r[:limit]), limit


def check_plane_against_reference(scanner, threshold, block_elems=None):
    """A fixed state's row maxima, first argmax indices, count and hits equal :func:`plane_reference`'s, at every limit."""
    want = plane_reference(scanner, threshold)
    n = int(want[3][0])
    with sizes(block_elems):
        for _ in engines():
            for limit in sorted({0, 1, max(n - 1, 0), n, n + 5}):
                got = scanner.scan(threshold, limit)
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
    # Axes of 1-9 points are no wider than a tile or one more, so tiles wrap
    # around the phase circle and repeat columns; small sizes give chunk and
    # block seams.
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
    # Steps short enough for windows to leave most columns out.
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
    with on_windows(), evaluated_points() as points:
        got = scanner.scan(cs, threshold, cs.size * grid.size**2)
    want = reference_scan(grid, grid, cs, threshold)
    for g, r in zip(got[:4] + got[4], want[:4] + want[4]):
        assert np.array_equal(g, r)
    # Live rows take a tile of 8 of 315 columns or a few.  At origin 0 every row
    # of c = 0, 1/sqrt(2) and 1 has a root on a column (b = 0 or b = a), and
    # the rows with R = 0 (alpha = 0 when c is 0 or 1) are evaluated whole:
    # 8224 points there, 2600 at 0.37 of a step, of the grid's 595 350.
    assert sum(points) <= 4 * kernels._TILE * grid.size


@pytest.mark.parametrize("origin", [0.0, 0.37 * 1e-2])
@pytest.mark.parametrize("threshold", [1.0 + 1e-9, 1.0 - 1e-12])
def test_only_rows_whose_windows_hold_a_column_are_gathered(origin, threshold):
    # Each c's bound L0 at its row of smallest dip sets a level; a row whose windows
    # at that level hold no grid column is below it throughout, and is skipped.
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

    with on_windows(), mock.patch.object(kernels, "_gather", counted):
        got = scanner.scan(cs, threshold, cs.size * grid.size**2)
    want = reference_scan(grid, grid, cs, threshold)
    for g, r in zip(got[:4] + got[4], want[:4] + want[4]):
        assert np.array_equal(g, r)
    # Tiles of live rows: at most 5 % of the 315 rows per c.
    assert 0 < sum(gathered) <= 0.05 * grid.size * cs.size


@pytest.mark.parametrize("cs", [(0.05, 0.0, 0.3), (0.0, 0.05, 0.3)])
def test_slices_scanned_together_evaluate_the_points_of_each_alone(cs):
    # At 1 - 1e-5 a window spans its row where R is small: rows near alpha =
    # pi/2 and 0 for c = 0 and 0.05, but not the same rows, and none for c =
    # 0.3.  Each slice evaluates its own windows and whole rows: a scan of all
    # three evaluates the points of the three alone.
    grid = _axis((0.0, math.pi, 1e-2))
    scanner = DiagonalScanner(grid, grid)
    alone = []
    for c in cs:
        with on_windows(), evaluated_points() as points:
            scanner.scan(np.array([c]), 1.0 - 1e-5, 0)
        alone.append(sum(points))
    with on_windows(), evaluated_points() as points:
        scanner.scan(np.array(cs), 1.0 - 1e-5, 0)
    assert sum(points) == sum(alone) and min(alone) > 0
    assert alone[cs.index(0.0)] != alone[cs.index(0.05)]
    check_against_reference(grid, grid, np.array(cs), 1.0 - 1e-5)


# D >= _SLACK / 2 - 2^-53, and a window is narrower than its row only where sqrt(D) / R <= 1/2.
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
                # Its windows span the row (sqrt(D) / R > 1/2); sin^2 may even underflow here.
                assert r2_float < 4 * CERTIFIABLE_RADIUS**2
                continue
            assert abs(r2_float - exact) <= R2_ERROR * exact
            gap = abs(mpmath.mpf(float(phase_float)) - mpmath.atan2(y, x)) % mpmath.pi
            assert min(gap, mpmath.pi - gap) <= PHASE_ERROR


def root_bounds(scanner, roots):
    """Per root of a one-row scanner's ``roots``: its own L0, its bound of p, and its nearest column.

    The bound of p is L0 read with the slack at 1, where ``1 - 1 - 2 p``
    is ``-2 p`` exactly.
    """
    roots = [np.broadcast_to(v, (2, 1)) for v in roots]
    phase = roots[1]
    p = np.empty((2, 1), dtype=np.int64)
    scanner._near(phase.copy(), p, np.empty((2, 1)))
    found = []
    for r, at in enumerate(p[:, 0]):
        root = [v[r:r + 1] for v in roots]
        lower = float(scanner._lower(root, np.empty((3, 1, 1)))[0])
        with mock.patch.object(scanner, "_slack", 1.0):
            bound = -float(scanner._lower(root, np.empty((3, 1, 1)))[0]) / 2.0
        # Positions at and after p in the padded phase order hold the columns on either side.
        at += scanner._phase[at + 1] - phase[r, 0] < phase[r, 0] - scanner._phase[at]
        found.append((lower, bound, int(scanner._phase_col[at])))
    return found


# Where a test puts columns around each root of a row: on it, one ulp to
# either side of it, or a gap either side of it with the root midway.
PLACES = ("on", "ulp", "mid")


def columns_around(phase, place, gap):
    """Beta columns around the root phases ``phase`` as :data:`PLACES` names."""
    if place == "on":
        return np.asarray(phase, dtype=np.float64)
    if place == "ulp":
        return np.concatenate([np.nextafter(phase, -np.inf), np.nextafter(phase, np.inf)])
    return np.concatenate([phase - gap / 2.0, phase + gap / 2.0])


@settings(max_examples=300, deadline=None)
@given(
    c=st.sampled_from([0.0, 1.0 / math.sqrt(2.0), 1.0]) | st.floats(0.0, 1.0),
    alpha=st.sampled_from(SPECIAL_ALPHAS) | st.floats(-2.0 * math.pi, 2.0 * math.pi),
    place=st.sampled_from(PLACES),
    gap=st.floats(1e-9, 1.0),
)
@example(c=0.0, alpha=3.241687722667735e-157, place="on", gap=1.0)
def test_lower_bound_against_mpmath(c, alpha, place, gap):
    """Each root's L0 lies below the exact S at its nearest column by the rounding bound, and its bound of p above p there.

    c = 1 at alpha = 0 has a root with R = 0, and c = 1/sqrt(2) roots on b = a.  At c = 0 and a tiny alpha
    the root (0, sin a) has R^2 = sin^2 a near 1e-313, and its exact p at the column b = fl(pi/2), about
    1e-346, lies below the least subnormal: the bound's product ``R^2 (near + tolerance)^2`` rounds to 0
    there, which moves L0 by nothing.
    """
    sc = np.array([[math.sqrt(1.0 - c * c)], [c]])
    u, w = (float(v[0]) for v in DiagonalScanner.weights(np.array([c])))
    probe = DiagonalScanner(np.array([alpha]), np.array([0.0]))
    phase = probe._roots(sc, np.array([0]), slice(None), np.empty((3, 2, 1)))[1][:, 0]
    betas = columns_around(phase, place, gap)
    scanner = DiagonalScanner(np.array([alpha]), betas)
    roots = scanner._roots(sc, np.array([0]), slice(None), np.empty((3, 2, 1)))
    with mpmath.workdps(50):
        s_mp, c_mp, ma = mpmath.mpf(float(sc[0, 0])), mpmath.mpf(c), mpmath.mpf(alpha)
        for (a, b), (lower, bound, col) in zip(((s_mp, c_mp), (c_mp, s_mp)), root_bounds(scanner, roots)):
            mb = mpmath.mpf(float(betas[col]))
            p = (a * mpmath.cos(ma) * mpmath.sin(mb) - b * mpmath.sin(ma) * mpmath.cos(mb)) ** 2
            assert bound >= p or (bound == 0.0 and p < 2.0**-1074)
            assert lower <= mp_s(u, w, alpha, float(betas[col])) - ROUNDING


def test_phase_fold_is_remainder_bit_for_bit():
    # On the row alpha = 0 a fixed state's roots are (x, y) = (c00, c01) and (c11, -c10).  These give
    # arctan2 +-0, +-pi (2 x y = +-0 with x^2 < y^2), subnormals and tiny negatives that fold to fl(pi);
    # each phase must be the remainder of the half angle, in [+0, fl(pi)] as the column search needs.
    special = [0.0, -0.0, 0.6, -0.6, 0.8, 5e-324, -5e-324, 1e-310, -1e-310, 1e-17, -1e-17]
    x, y = np.array([(a, b) for a in special for b in special if a * a + b * b <= 1.0]).T
    raw = np.arctan2(2.0 * (x * y), x * x - y * y)
    assert {0.0, math.pi, -math.pi} <= set(raw.tolist()) and np.signbit(raw[raw == 0.0]).any()
    assert (np.abs(raw[raw != 0.0]) < 2.3e-308).any() and (np.remainder(raw / 2.0, math.pi) == math.pi).any()
    with np.errstate(divide="ignore", invalid="ignore"):  # x = y = 0
        phase = np.array([
            PlaneScanner(np.array([[a, b], [0.0, math.sqrt(max(1.0 - a * a - b * b, 0.0))]]), np.zeros(1), np.zeros(1))
            ._roots(np.zeros(1, dtype=np.int64))[1, 0, 0] for a, b in zip(x, y)])
    assert np.array_equal(phase.view(np.int64), np.remainder(raw / 2.0, math.pi).view(np.int64))
    assert ((phase >= 0.0) & (phase <= math.pi) & ~np.signbit(phase)).all()


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
    want = np.minimum(phase - scanner._phase[p], scanner._phase[1 + p] - phase)
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


# Every beta axis of the window-edge test holds this column, its largest |beta|,
# so that a scanner's angular margin is known before its other columns are.
EDGE_BETA = 4.0


def window_edge_betas(scanner, roots, threshold):
    """Columns on, and one ulp either side of, the edges of each root's window at the threshold.

    ``roots`` are ``(R^2, phase, floor, tolerance)`` arrays of ``scanner``,
    whose only column is ``EDGE_BETA``.  Three columns inside each window on
    each side of its root lift the row's L0 near its maximum, so the rows are
    evaluated on their windows at L = threshold where L0 reaches it.
    """
    r2, phase, floor, tolerance = (np.broadcast_to(v, np.shape(roots[0])).ravel() for v in roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = kernels._RidgeScanner._windows(r2, (1.0 - threshold + scanner._slack) / 2.0 - floor, tolerance)
    keep = half < math.pi / 2.0
    phase, half = phase[keep], half[keep]
    edges = np.concatenate([phase - half, phase + half])
    inside = phase + half * np.array([-0.75, -0.5, -0.25, 0.25, 0.5, 0.75])[:, None]
    betas = np.remainder(np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                                         inside.ravel()]), math.pi)
    return np.unique(np.append(betas, EDGE_BETA))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), family=st.sampled_from(["diagonal", *sorted(FIXED_STATES)]),
       threshold=st.floats(1.0 - 1e-3, 1.0), na=st.integers(1, 3), cs=WEIGHTS)
def test_window_edges_on_columns_match_reference(data, family, threshold, na, cs):
    """Rows evaluated on their windows, with a column on each window edge and one ulp either side, equal the reference."""
    alphas = data.draw(axis_strategy(na, "random"))
    if family == "diagonal":
        cs = cs[:2]
        sc = np.stack([np.sqrt(1.0 - cs * cs), cs])
        probe = DiagonalScanner(alphas, np.array([EDGE_BETA]))
        roots = probe._roots(sc, np.arange(cs.size)[:, None], slice(None), np.empty((3, 2, cs.size, na)))
        check_against_reference(alphas, window_edge_betas(probe, roots, threshold), cs, threshold)
        return
    coeffs = FIXED_STATES[family].coeffs
    probe = PlaneScanner(coeffs, alphas, np.array([EDGE_BETA]))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = probe._roots(slice(None))
    check_plane_against_reference(PlaneScanner(coeffs, alphas, window_edge_betas(probe, roots, threshold)), threshold)


def test_whole_row_windows_reach_their_antipodes():
    """A window of half ``pi/2`` or more spans its row, also where its two edges round apart.

    At c = 0.01 and alpha within 0.03 of pi/2 the p_+- root has R below 0.035,
    so its window at either threshold is wide and all of its row lies over
    1 - 2.5e-3.  Columns sit on the root's antipode ``phase + pi/2`` as each
    edge of a ``pi/2`` window rounds it, which differ by an ulp on 10 of
    these 101 rows, and one ulp either side.
    """
    alphas = math.pi / 2.0 + np.linspace(-0.03, 0.03, 101)
    cs = np.array([0.01])
    probe = DiagonalScanner(alphas, np.array([EDGE_BETA]))
    phase = probe._roots(np.stack([np.sqrt(1.0 - cs * cs), cs]), np.zeros((1, 1), dtype=np.int64),
                         slice(None), np.empty((3, 2, 1, alphas.size)))[1][0, 0]
    edges = np.concatenate([phase + math.pi / 2.0, phase - math.pi / 2.0, (phase - math.pi / 2.0) + math.pi])
    edges = np.remainder(np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]), math.pi)
    betas = np.unique(np.append(edges, 0.013 + np.linspace(0.0, math.pi, 40, endpoint=False)))
    for threshold in (1.0 - 2.5e-3, 1.0 - 1e-3):
        check_against_reference(alphas, betas, cs, threshold)


@pytest.mark.parametrize("threshold", [1.0 - 1e-5, 1.0 - 1e-3, 0.9, -math.inf])
@pytest.mark.parametrize("block_elems", [None, 200])
def test_limited_collect_is_prefix_of_unlimited(threshold, block_elems):
    """A scan's hits at ``limit`` are the (k, i, j)-ordered prefix of length ``limit`` of all hits.

    At 1 - 1e-5, 3 of the 194 rows of both slices have windows that span
    them, at 1 - 1e-3 7 of them; at 0.9 and -inf the block engine takes
    every row.  200-element blocks and 100-candidate chunks give many of
    both, so a limit is reached inside and between them, and inside either
    slice.
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
        row_max, _, _, counts, hits = scanner.scan(1.0 + 1e-9, 10)
        # S = sin^2(beta - alpha) for the antisymmetric state.
        for i, a in enumerate(alphas):
            expected = max(math.sin(b - a) ** 2 for b in betas)
            assert row_max[i] == pytest.approx(expected, abs=1e-12)
        assert counts.tolist() == [0] and all(h.size == 0 for h in hits)

    def test_row_blocks_are_seamless(self):
        alphas = np.linspace(0.0, math.pi, 103)  # not a multiple of the block size
        betas = np.linspace(0.0, math.pi, 37)
        scanner = PlaneScanner(singlet_state().coeffs, alphas, betas)
        runs = []
        for rows in (16, 4096):
            with mock.patch.object(kernels, "_BLOCK_ELEMS", rows * betas.size):
                runs.append(scanner.scan(0.5, alphas.size * betas.size))
        small, big = runs
        assert small[3].tolist() == big[3].tolist() and big[3][0] > 0
        for a, b in zip(small[:4] + small[4], big[:4] + big[4]):
            assert np.array_equal(a, b)

    def test_collect_is_row_major_and_complete(self):
        alphas = np.linspace(0.0, math.pi, 51)
        betas = np.linspace(0.0, math.pi, 53)
        scanner = PlaneScanner(singlet_state().coeffs, alphas, betas)
        threshold = 0.9
        with mock.patch.object(kernels, "_BLOCK_ELEMS", 8 * betas.size):
            _, _, _, counts, (k_idx, i_idx, j_idx, s_vals) = scanner.scan(threshold, alphas.size * betas.size)
        assert counts.tolist() == [i_idx.size] and not k_idx.any()
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
            scanner.scan(1.0 + 1e-9, alphas.size * betas.size)
            scanner.scan(-math.inf, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("threshold", [1.0 - 2e-3, 0.9, -math.inf])
    def test_limited_collect_is_prefix_of_unlimited(self, threshold):
        alphas = np.linspace(0.0, math.pi, 51)
        betas = np.linspace(0.0, math.pi, 53)
        scanner = PlaneScanner(random_state(3, complex_coeffs=True).coeffs, alphas, betas)
        with mock.patch.object(kernels, "_BLOCK_ELEMS", 4 * betas.size):
            full = scanner.scan(threshold, alphas.size * betas.size)
            n = full[4][0].size
            assert n > 0 and full[3].tolist() == [n]
            for limit in sorted({0, 1, 2, 7, n // 3, n // 2, n - 1, n, n + 5}):
                got = scanner.scan(threshold, limit)
                for g, f in zip(got[:4], full[:4]):
                    assert np.array_equal(g, f), limit
                for g, f in zip(got[4], full[4]):
                    assert np.array_equal(g, f[:limit]), limit

    def test_collect_empty_when_nothing_crosses(self):
        alphas = np.linspace(0.0, 1.0, 11)
        betas = np.linspace(0.0, 1.0, 11)
        scanner = PlaneScanner(singlet_state().coeffs, alphas, betas)
        _, _, _, counts, (k_idx, i_idx, j_idx, s_vals) = scanner.scan(2.0, alphas.size * betas.size)
        assert counts.tolist() == [0] and k_idx.size == i_idx.size == j_idx.size == s_vals.size == 0


@pytest.mark.parametrize("name", sorted(FIXED_STATES))
def test_fixed_state_bits_independent_of_block_height(name):
    # At 1 - 2e-3 every state's rows take their windows; at 0.9 some states go to the block engine.
    alphas = np.linspace(0.0, math.pi, 301)
    betas = np.linspace(0.0, math.pi, 307)
    scanner = PlaneScanner(FIXED_STATES[name].coeffs, alphas, betas)
    for threshold in (1.0 - 2e-3, 0.9):
        runs = []
        for block_elems in (betas.size, kernels._BLOCK_ELEMS):  # one-row blocks, then the default
            with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
                got = scanner.scan(threshold, alphas.size * betas.size)
                runs.append(got[:4] + got[4])
        one_row, default = runs
        assert one_row[-1].size > 0
        for a, b in zip(one_row, default):
            assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(FIXED_STATES)), na=st.integers(1, 12),
       nb=st.integers(1, 24), threshold=st.sampled_from([-math.inf, 0.5, 0.9, 1.0 - 2e-3, 1.0 - 1e-12, 1.0]),
       block_rows=st.integers(1, 5))
def test_fixed_state_rows_and_hits_match_reference(data, name, na, nb, threshold, block_rows):
    """Row scans equal the point-by-point reference, at every limit.

    With n hits in all, the limits 0, 1, n - 1, n and n + 5 cut the list
    inside a block of ``block_rows`` rows, or not at all.
    """
    alphas = data.draw(axis_strategy(na, "random"))
    betas = data.draw(axis_strategy(nb, "random"))
    scanner = PlaneScanner(FIXED_STATES[name].coeffs, alphas, betas)
    want = plane_reference(scanner, threshold)
    n = int(want[3][0])
    with mock.patch.object(kernels, "_BLOCK_ELEMS", block_rows * nb):
        for _ in engines():
            for limit in sorted({0, 1, max(n - 1, 0), n, n + 5}):
                got = scanner.scan(threshold, limit)
                for g, r in zip(got[:4], want[:4]):
                    assert np.array_equal(g, r)
                for g, r in zip(got[4], want[4]):
                    assert np.array_equal(g, r[:limit]), limit


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
    _, _, _, _, (_, i_idx, j_idx, s_vals) = scanner.scan(-math.inf, len(alphas) * len(betas))
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

    Steps short enough for windows to leave most columns out.  The
    ``wrap`` layout runs beta over two periods, so the columns b and b +
    pi of a root tie up to rounding and the first maximum must win.
    """
    alphas = data.draw(axis_strategy(na, "grid"))
    if layout == "wrap":
        betas = np.linspace(0.0, 2.0 * math.pi, nb)
    else:
        origin, step = data.draw(st.tuples(st.floats(-math.pi, math.pi), st.floats(0.005, 0.05)))
        betas = origin + step * np.arange(nb)
    check_plane_against_reference(PlaneScanner(FIXED_STATES[name].coeffs, alphas, betas), threshold, block_elems)


@pytest.mark.parametrize("threshold", [1.0 - 1e-6, 1.0 - 1e-3, 1.0 + 1e-9])
def test_fixed_state_row_of_no_root_is_evaluated_whole(threshold):
    # alpha = 4 fl(pi/8) = fl(pi/2): the product state's p_+- root there has
    # R^2 <= _ROOT_ERROR, so its window is nan, and the row is evaluated whole.
    alphas = np.arange(9) * (math.pi / 8.0)
    scanner = PlaneScanner(FIXED_STATES["product"].coeffs, alphas, _axis((0.0, math.pi, 1e-2)))
    assert alphas[4] == math.pi / 2.0 and scanner._roots(np.array([4]))[0, 0, 0] <= 0.0
    check_plane_against_reference(scanner, threshold)


@pytest.mark.parametrize("name, cs, threshold, dense", [
    ("diagonal", [0.2, 0.5], 1.0 - 1e-3, False),
    ("diagonal", [0.2, 0.5], 1.0 - 2e-2, True),
    ("real1", None, 1.0 - 1e-2, False),
    ("real1", None, 0.9, True),
    # A sampled share of 0.205 against 3 / 14 = 0.214: forming a block per row counts.
    ("positive-parity", None, 0.9, False),
])
def test_block_engine_takes_scans_whose_windows_are_wide(name, cs, threshold, dense):
    """A scan goes to the block engine when its sampled windows at the threshold hold more than
    ``(1 + 2 / slices) / _WINDOW_COST`` of their rows; either engine gives the same bits."""
    grid = np.linspace(0.0, math.pi, 301)
    if cs is None:
        scanner = PlaneScanner(FIXED_STATES[name].coeffs, grid, grid)
        scan = lambda: scanner.scan(threshold, 1000)  # noqa: E731
    else:
        scanner = DiagonalScanner(grid, grid)
        scan = lambda: scanner.scan(np.array(cs), threshold, 1000)  # noqa: E731
    with mock.patch.object(kernels, "_evaluate", wraps=kernels._evaluate) as spy:
        got = scan()
    # The block engine's evaluations are (slices, rows, nb); the others are tiles.
    shapes = [c.args[5].shape for c in spy.call_args_list]
    if dense:
        assert shapes and all(len(shape) == 3 for shape in shapes)
    else:
        assert all(len(shape) == 2 for shape in shapes) and (kernels._TILE,) in {shape[:1] for shape in shapes}
    with mock.patch.object(kernels, "_WINDOW_COST", 0.0 if dense else math.inf):
        other = scan()
    for g, o in zip(got[:-1] + got[-1], other[:-1] + other[-1]):
        assert np.array_equal(g, o)


@pytest.mark.parametrize("name", sorted(FIXED_STATES))
def test_fixed_state_rows_are_certified(name):
    # At 1 - 1e-12 on a 1e-2 grid each row of these states takes its windows at
    # its own L0, which hold one tile of 8 columns, and the rows match the reference.
    grid = _axis((0.0037, math.pi + 0.0037, 1e-2))
    scanner = PlaneScanner(FIXED_STATES[name].coeffs, grid, grid)
    with on_windows(), evaluated_points() as points:
        got = scanner.scan(1.0 - 1e-12, grid.size**2)
    want = plane_reference(scanner, 1.0 - 1e-12)
    for g, r in zip(got[:4] + got[4], want[:4] + want[4]):
        assert np.array_equal(g, r)
    assert sum(points) == kernels._TILE * grid.size
