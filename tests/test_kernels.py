"""Diagonal scan engine against a pure-Python reference and a golden fixture; plane kernels."""

import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leggettlab import kernels, positive_parity_state, singlet_state
from leggettlab.kernels import DiagonalScanner, plane_collect, plane_row_scan
from leggettlab.quantum import PureTwoPhotonState
from leggettlab.scan import _axis, _diagonal_lhs, _plane_lhs

GOLDEN = Path(__file__).parent / "data" / "diagonal_golden.npz"


def _diagonal_scan_py(u, w, ca2, sa2, s2a, cb2, sb2, s2b, threshold):
    """Reference implementation of the per-``c`` scan, one point at a time.

    For each c: fill one row of S at a time, reduce its maximum, rescan
    for the first attaining column, and count threshold crossings.  The
    expression is evaluated as ((u*x) + y) + (w*z) with x = |p - q|,
    y = p*q + sp*sq, z = za*zb, the operation order of the engine.
    """
    nc = u.shape[0]
    na = ca2.shape[0]
    nb = cb2.shape[0]
    max_s = np.empty(nc, dtype=np.float64)
    arg_i = np.zeros(nc, dtype=np.int64)
    arg_j = np.zeros(nc, dtype=np.int64)
    n_over = np.zeros(nc, dtype=np.int64)
    row = np.empty(nb, dtype=np.float64)
    for k in range(nc):
        uu = u[k]
        ww = w[k]
        best = -np.inf
        best_i = 0
        best_j = 0
        count = 0
        for i in range(na):
            p = ca2[i]
            sp = sa2[i]
            za = s2a[i]
            for j in range(nb):
                x = p - cb2[j]
                if x < 0.0:
                    x = -x
                row[j] = uu * x + (p * cb2[j] + sp * sb2[j]) + ww * (za * s2b[j])
            row_best = row[0]
            for j in range(1, nb):
                if row[j] > row_best:
                    row_best = row[j]
            if row_best > best:
                for j in range(nb):
                    if row[j] == row_best:
                        best = row_best
                        best_i = i
                        best_j = j
                        break
            if row_best > threshold:
                for j in range(nb):
                    if row[j] > threshold:
                        count += 1
        max_s[k] = best
        arg_i[k] = best_i
        arg_j[k] = best_j
        n_over[k] = count
    return max_s, arg_i, arg_j, n_over


def trig_tables(angles):
    """``(cos^2, sin^2, sin 2x)`` of an angle axis, as the engine builds them."""
    return np.cos(angles) ** 2, np.sin(angles) ** 2, np.sin(2.0 * angles)


def reference_scan(alphas, betas, cs, threshold):
    u, w = DiagonalScanner.weights(cs)
    return _diagonal_scan_py(u, w, *trig_tables(alphas), *trig_tables(betas), threshold)


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
    u, w = DiagonalScanner.weights(cs)
    return scanner.scan(u, w, threshold), (cs, alphas, betas)


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
        u, w = DiagonalScanner.weights(np.array([0.0]))
        max_s, arg_i, arg_j, _ = scanner.scan(u, w, 1.0 + 1e-9)
        assert max_s[0] == 1.0
        assert (arg_i[0], arg_j[0]) == (0, 0)

    def test_threshold_counts(self):
        alphas = np.linspace(0.0, math.pi, 21)
        betas = np.linspace(0.0, math.pi, 23)
        u, w = DiagonalScanner.weights(np.array([0.2, 0.5]))
        scanner = DiagonalScanner(alphas, betas)
        _, _, _, n_over = scanner.scan(u, w, 0.9)
        for k, c in enumerate((0.2, 0.5)):
            brute = sum(
                _diagonal_lhs(c, a, b) > 0.9 for a in alphas for b in betas
            )
            assert n_over[k] == brute

    def test_collect_matches_count_and_values(self):
        alphas = np.linspace(0.0, math.pi, 31)
        betas = np.linspace(0.0, math.pi, 29)
        scanner = DiagonalScanner(alphas, betas)
        cs = np.array([0.35])
        u, w = DiagonalScanner.weights(cs)
        _, _, _, n_over = scanner.scan(u, w, 0.95)
        i_idx, j_idx, s_vals = scanner.collect(float(u[0]), float(w[0]), 0.95)
        assert i_idx.size == n_over[0]
        for i, j, s in zip(i_idx, j_idx, s_vals):
            assert s == pytest.approx(
                _diagonal_lhs(0.35, alphas[i], betas[j]), abs=1e-15
            )
            assert s > 0.95
        # Row-major ordering
        keys = i_idx * betas.size + j_idx
        assert np.all(np.diff(keys) > 0)

    def test_block_seams_match_reference(self):
        # 23 alpha rows in blocks of 3 leave a partial last block; the
        # c = 0 plateau puts equal maxima on both sides of every seam.
        alphas = np.linspace(0.0, math.pi, 23)
        betas = np.linspace(0.0, math.pi, 19)
        cs = np.array([0.0, 0.35, 1.0 / math.sqrt(2.0), 1.0])
        with mock.patch.object(kernels, "_BLOCK_ELEMS", 3 * betas.size + 1):
            scanner = DiagonalScanner(alphas, betas)
            got = scanner.scan(*DiagonalScanner.weights(cs), 0.9)
        for g, want in zip(got, reference_scan(alphas, betas, cs, 0.9)):
            assert np.array_equal(g, want)

    def test_memory_is_bounded_by_the_block(self):
        grid = np.linspace(0.0, math.pi, 2000)
        u, w = DiagonalScanner.weights(np.array([0.35]))
        tracemalloc.start()
        try:
            scanner = DiagonalScanner(grid, grid)
            scanner.scan(u, w, 1.0 + 1e-9)
            scanner.collect(float(u[0]), float(w[0]), 1.0 + 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@settings(max_examples=60, deadline=None)
@given(
    na=st.integers(1, 9),
    nb=st.integers(1, 9),
    on_grid=st.booleans(),
    angles=st.lists(st.floats(0.0, math.pi), min_size=18, max_size=18),
    cs=st.lists(
        st.sampled_from([0.0, 1.0 / math.sqrt(2.0), 1.0]) | st.floats(0.0, 1.0),
        min_size=1,
        max_size=4,
    ),
    threshold=st.sampled_from([-math.inf, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-9]),
    block_elems=st.integers(1, 100),
)
def test_engine_matches_reference_bitwise(na, nb, on_grid, angles, cs, threshold, block_elems):
    if on_grid:  # regular grids from 0 give exact plateau ties at c = 0
        alphas = np.linspace(0.0, math.pi, na)
        betas = np.linspace(0.0, math.pi / 2.0, nb)
    else:
        alphas = np.array(angles[:na])
        betas = np.array(angles[9 : 9 + nb])
    cs = np.array(cs)
    u, w = DiagonalScanner.weights(cs)
    with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
        scanner = DiagonalScanner(alphas, betas)
        got = scanner.scan(u, w, threshold)
        collected = [scanner.collect(float(u[k]), float(w[k]), threshold) for k in range(cs.size)]
    want = reference_scan(alphas, betas, cs, threshold)
    for g, r in zip(got, want):
        assert np.array_equal(g, r)
    ca2, sa2, s2a = trig_tables(alphas)
    cb2, sb2, s2b = trig_tables(betas)
    for k, (i_idx, j_idx, s_vals) in enumerate(collected):
        assert i_idx.size == want[3][k]
        for i, j, s in zip(i_idx, j_idx, s_vals):
            x = abs(ca2[i] - cb2[j])
            ref = u[k] * x + (ca2[i] * cb2[j] + sa2[i] * sb2[j]) + w[k] * (s2a[i] * s2b[j])
            assert s == ref
        assert np.all(np.diff(i_idx * nb + j_idx) > 0)


def test_golden_fixture_bitwise():
    golden = np.load(GOLDEN)
    for name, (alphas, betas, cs, threshold) in golden_cases().items():
        scanner = DiagonalScanner(alphas, betas)
        got = scanner.scan(*DiagonalScanner.weights(cs), threshold)
        for field, value in zip(("max_s", "arg_i", "arg_j", "n_over"), got):
            assert np.array_equal(value, golden[f"{name}.{field}"]), (name, field)
    alphas, betas, cs, threshold = golden_cases()["negtol"]
    u, w = DiagonalScanner.weights(cs)
    k = GOLDEN_COLLECT_K
    got = DiagonalScanner(alphas, betas).collect(float(u[k]), float(w[k]), threshold)
    for field, value in zip(("i", "j", "s"), got):
        assert np.array_equal(value, golden[f"collect.{field}"]), field


class TestPlaneKernels:
    def test_singlet_rows_match_closed_form(self):
        alphas = np.linspace(0.0, math.pi, 41)
        betas = np.linspace(0.0, math.pi, 43)
        row_max, row_arg, count = plane_row_scan(
            singlet_state().coeffs, alphas, betas, 1.0 + 1e-9
        )
        # S = sin^2(beta - alpha) for the antisymmetric state.
        for i, a in enumerate(alphas):
            expected = max(math.sin(b - a) ** 2 for b in betas)
            assert row_max[i] == pytest.approx(expected, abs=1e-12)
        assert count == 0

    def test_row_blocks_are_seamless(self):
        alphas = np.linspace(0.0, math.pi, 103)  # not a multiple of the block size
        betas = np.linspace(0.0, math.pi, 37)
        coeffs = singlet_state().coeffs
        with mock.patch.object(kernels, "_BLOCK_ELEMS", 16 * betas.size):
            small = plane_row_scan(coeffs, alphas, betas, 2.0)
        with mock.patch.object(kernels, "_BLOCK_ELEMS", 4096 * betas.size):
            big = plane_row_scan(coeffs, alphas, betas, 2.0)
        assert np.array_equal(small[0], big[0])
        assert np.array_equal(small[1], big[1])
        assert small[2] == big[2]

    def test_collect_is_row_major_and_complete(self):
        alphas = np.linspace(0.0, math.pi, 51)
        betas = np.linspace(0.0, math.pi, 53)
        coeffs = singlet_state().coeffs
        threshold = 0.9
        with mock.patch.object(kernels, "_BLOCK_ELEMS", 8 * betas.size):
            i_idx, j_idx, s_vals = plane_collect(coeffs, alphas, betas, threshold)
            _, _, count = plane_row_scan(coeffs, alphas, betas, threshold)
        assert i_idx.size == count
        keys = i_idx * betas.size + j_idx
        assert np.all(np.diff(keys) > 0)
        for i, j, s in zip(i_idx, j_idx, s_vals):
            assert s == pytest.approx(math.sin(betas[j] - alphas[i]) ** 2, abs=1e-12)

    def test_memory_is_bounded_by_the_block(self):
        alphas = np.linspace(0.0, math.pi, 300)
        betas = np.linspace(0.0, math.pi, 5000)
        coeffs = singlet_state().coeffs
        tracemalloc.start()
        try:
            plane_row_scan(coeffs, alphas, betas, 1.0 + 1e-9)
            plane_collect(coeffs, alphas, betas, 1.0 + 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_collect_empty_when_nothing_crosses(self):
        alphas = np.linspace(0.0, 1.0, 11)
        betas = np.linspace(0.0, 1.0, 11)
        i_idx, j_idx, s_vals = plane_collect(singlet_state().coeffs, alphas, betas, 2.0)
        assert i_idx.size == j_idx.size == s_vals.size == 0


@pytest.mark.parametrize("name", sorted(FIXED_STATES))
def test_fixed_state_bits_independent_of_block_height(name):
    coeffs = FIXED_STATES[name].coeffs
    alphas = np.linspace(0.0, math.pi, 301)
    betas = np.linspace(0.0, math.pi, 307)
    threshold = 0.9
    runs = []
    for block_elems in (betas.size, kernels._BLOCK_ELEMS):  # one-row blocks, then the default
        with mock.patch.object(kernels, "_BLOCK_ELEMS", block_elems):
            runs.append(
                plane_row_scan(coeffs, alphas, betas, threshold)
                + plane_collect(coeffs, alphas, betas, threshold)
            )
    one_row, default = runs
    assert one_row[3].size > 0
    for a, b in zip(one_row, default):
        assert np.array_equal(a, b)


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
    i_idx, j_idx, s_vals = plane_collect(state.coeffs, np.array(alphas), np.array(betas), -math.inf)
    assert i_idx.size == len(alphas) * len(betas)
    for i, j, s in zip(i_idx, j_idx, s_vals):
        assert abs(s - _plane_lhs(state, alphas[i], betas[j])) <= 1e-14
