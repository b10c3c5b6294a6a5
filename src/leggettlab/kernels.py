"""Hot evaluation kernels for grid scans.

Every scan family evaluates ``S = |P_A - P_B| + p_pp + p_mm`` on an
(alpha, beta) grid through one block engine.  A family is four tables
over alpha rows (``r``), four over beta columns (``k``) and per-slice
weights ``(u, w)``:

    S_ij = ((u |r0_i - k0_j|) + (r1_i k1_j + r2_i k2_j)) + (w (r3_i k3_j)).

* Diagonal family: ``r = (cos^2 a, cos^2 a, sin^2 a, sin 2a)``, ``k`` the
  same in ``b``, ``u = |1 - 2 c^2|`` and ``w = c sqrt(1 - c^2)`` per ``c``.
* A fixed state: ``u = w = 1``, ``r = (P_A(a), cos^2 a, sin^2 a, sin 2a)``
  and ``k = (P_B(b), E(0, b), E(pi/2, b), E(pi/4, b) - 1/2)`` with
  ``E = p_pp + p_mm``.  A linear analyzer's projector is
  ``(I + cos 2a Z + sin 2a X) / 2``, so for fixed ``b`` the sum ``E`` is
  affine in ``(cos 2a, sin 2a)``; turning the analyzer by pi/2 swaps
  its outcomes, so ``E(a + pi/2, b) = 1 - E(a, b)`` and the constant
  term is 1/2.  Hence ``E(a, b) = cos^2 a E(0, b) + sin^2 a E(pi/2, b)
  + sin 2a (E(pi/4, b) - 1/2)`` exactly.

A block holds about ``_BLOCK_ELEMS`` points (``_BLOCK_ELEMS // n_beta``
alpha rows): a fixed number of points, not of rows, keeps its five
arrays inside a per-core L2 cache for any beta axis, and memory stays
O(block) for any grid.  The arithmetic is real and elementwise, with no
BLAS call, so every S is the same double for any block height and
thread count.

:class:`DiagonalScanner` reuses each block for every ``c`` and reports
per ``c`` the grid maximum of S, the first (lexicographically smallest)
index pair attaining it, and the number of points with
``S > threshold``; :func:`plane_row_scan` reports per-row maxima of a
fixed state.  Violation *collection* walks the same blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .quantum import PureTwoPhotonState, joint_probabilities

__all__ = [
    "DiagonalScanner",
    "plane_row_scan",
    "plane_collect",
]

# Points per alpha-row block: 32 K float64 values are 256 KB per array,
# 1.3 MB for the five arrays of a block.
_BLOCK_ELEMS = 32 * 1024


def _trig(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cos^2 t, sin^2 t, sin 2t)`` tables of an angle axis."""
    angles = np.ascontiguousarray(angles, dtype=np.float64)
    return np.cos(angles) ** 2, np.sin(angles) ** 2, np.sin(2.0 * angles)


def _blocks(rows, cols):
    """Yield ``(row_offset, x, y, z, s, t)`` for consecutive blocks of alpha rows.

    ``rows`` and ``cols`` are the four alpha and four beta tables.  x, y
    and z hold the block's angle terms; s and t are temporaries of the
    same shape.  All five are views of buffers allocated once per call
    and overwritten by the next block: reusing them avoids allocating
    and faulting in fresh pages for every block.
    """
    r0, r1, r2, r3 = rows
    k0, k1, k2, k3 = cols
    na, nb = r0.size, k0.size
    height = max(1, _BLOCK_ELEMS // nb)
    x, y, z, s, t = (np.empty((height, nb)) for _ in range(5))
    for start in range(0, na, height):
        n = min(height, na - start)
        block = slice(start, start + n)
        xb, yb, zb, tb = x[:n], y[:n], z[:n], t[:n]
        np.subtract(r0[block, None], k0, out=xb)
        np.abs(xb, out=xb)
        np.multiply(r1[block, None], k1, out=yb)
        np.multiply(r2[block, None], k2, out=tb)
        yb += tb
        np.multiply(r3[block, None], k3, out=zb)
        yield start, xb, yb, zb, s[:n], tb


def _evaluate(x, y, z, s, t, u_k, w_k) -> np.ndarray:
    """S = ((u*x) + y) + (w*z) into ``s``, using ``t`` as a temporary."""
    np.multiply(x, u_k, out=s)
    s += y
    np.multiply(z, w_k, out=t)
    s += t
    return s


def _collect_blocks(blocks, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ``(i, j, S)`` with ``S > threshold`` from ``(row_offset, S_block)`` pairs, row-major."""
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for start, s in blocks:
        mask = s > threshold
        if mask.any():
            i_idx, j_idx = np.nonzero(mask)
            rows.append(i_idx + start)
            cols.append(j_idx)
            vals.append(s[mask])
    if not rows:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy(), np.empty(0)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


class DiagonalScanner:
    """Reusable scanner over a fixed (alpha, beta) grid for the diagonal family.

    Construction precomputes the 1-D trigonometric tables only.
    :meth:`scan` is thread-safe: worker threads may process disjoint
    ``c`` slabs concurrently against the shared read-only tables, each
    with its own block buffers.
    """

    def __init__(self, alphas: np.ndarray, betas: np.ndarray):
        ca2, sa2, s2a = _trig(alphas)
        cb2, sb2, s2b = _trig(betas)
        self._rows = (ca2, ca2, sa2, s2a)
        self._cols = (cb2, cb2, sb2, s2b)

    @staticmethod
    def weights(cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(u, w) = (|1 - 2c^2|, c sqrt(1 - c^2))`` for a weight axis."""
        cs = np.asarray(cs, dtype=np.float64)
        return np.abs(1.0 - 2.0 * cs * cs), cs * np.sqrt(1.0 - cs * cs)

    def scan(
        self, u: np.ndarray, w: np.ndarray, threshold: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-``c`` grid maxima, first argmax indices, and threshold counts."""
        u = np.ascontiguousarray(u, dtype=np.float64)
        w = np.ascontiguousarray(w, dtype=np.float64)
        threshold = float(threshold)
        nc = u.shape[0]
        nb = self._cols[0].size
        max_s = np.full(nc, -np.inf)
        arg_i = np.zeros(nc, dtype=np.int64)
        arg_j = np.zeros(nc, dtype=np.int64)
        n_over = np.zeros(nc, dtype=np.int64)
        for start, x, y, z, s, t in _blocks(self._rows, self._cols):
            flat_s = s.reshape(-1)
            for k in range(nc):
                _evaluate(x, y, z, s, t, u[k], w[k])
                flat = int(np.argmax(flat_s))
                best = flat_s[flat]
                # Strict ">" keeps the earlier block's maximum on ties,
                # so the first maximum in row-major order wins.
                if best > max_s[k]:
                    max_s[k] = best
                    arg_i[k] = start + flat // nb
                    arg_j[k] = flat % nb
                if best > threshold:
                    n_over[k] += int(np.count_nonzero(s > threshold))
        return max_s, arg_i, arg_j, n_over

    def collect(
        self, u_k: float, w_k: float, threshold: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All ``(i, j, S)`` with ``S > threshold`` for one ``c``, row-major order."""
        return _collect_blocks(
            (
                (start, _evaluate(x, y, z, s, t, u_k, w_k))
                for start, x, y, z, s, t in _blocks(self._rows, self._cols)
            ),
            threshold,
        )


def _plane_blocks(coeffs: np.ndarray, alphas: np.ndarray, betas: np.ndarray):
    """Yield ``(row_offset, S_block)``, about ``_BLOCK_ELEMS`` points each, for a fixed state."""
    state = PureTwoPhotonState(coeffs)
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    # Joint probabilities (++, +-, -+, --) along beta at alpha = 0, pi/2
    # and pi/4, and along alpha at beta = 0.
    at_0, at_90, at_45 = (
        joint_probabilities(state, np.full_like(betas, a), betas)
        for a in (0.0, math.pi / 2.0, math.pi / 4.0)
    )
    along_a = joint_probabilities(state, alphas, np.zeros_like(alphas))
    ca2, sa2, s2a = _trig(alphas)
    rows = (along_a[0] + along_a[1], ca2, sa2, s2a)
    cols = (at_0[0] + at_0[2], at_0[0] + at_0[3], at_90[0] + at_90[3], (at_45[0] + at_45[3]) - 0.5)
    for start, x, y, z, s, t in _blocks(rows, cols):
        yield start, _evaluate(x, y, z, s, t, 1.0, 1.0)


def plane_row_scan(
    coeffs: np.ndarray,
    alphas: np.ndarray,
    betas: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-alpha-row maxima, first attaining column, and total threshold count."""
    na = np.asarray(alphas).size
    row_max = np.empty(na)
    row_arg = np.zeros(na, dtype=np.int64)
    count = 0
    for start, s in _plane_blocks(coeffs, alphas, betas):
        stop = start + s.shape[0]
        row_arg[start:stop] = np.argmax(s, axis=1)
        row_max[start:stop] = s[np.arange(s.shape[0]), row_arg[start:stop]]
        if float(s.max(initial=-np.inf)) > threshold:
            count += int(np.count_nonzero(s > threshold))
    return row_max, row_arg, count


def plane_collect(
    coeffs: np.ndarray,
    alphas: np.ndarray,
    betas: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ``(i, j, S)`` with ``S > threshold`` for a fixed state, row-major order."""
    return _collect_blocks(_plane_blocks(coeffs, alphas, betas), threshold)
