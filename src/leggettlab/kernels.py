"""Hot evaluation kernels for grid scans.

The adjudication scan evaluates

    S(c, a, b) = u |cos^2 a - cos^2 b|
                 + (cos^2 a cos^2 b + sin^2 a sin^2 b)
                 + w (sin 2a sin 2b),
    u = |1 - 2 c^2|,   w = c sqrt(1 - c^2),

over grids with billions of points.  :class:`DiagonalScanner` does it
in numpy, one block of alpha rows at a time: the angle-only terms
x = |cos^2 a - cos^2 b|, y and z = sin 2a sin 2b of a block are built
from 1-D trigonometric tables and then reused for every ``c`` before
the next block is built.  The block holds about ``_BLOCK_ELEMS``
points, so its row count is ``_BLOCK_ELEMS // n_beta``: a fixed number
of points, not of rows, keeps the five block-sized arrays (x, y, z and
two temporaries) inside a per-core L2 cache for any beta axis, and
memory stays O(block) for any grid.  S is evaluated as
``((u*x) + y) + (w*z)`` in every path, so scan maxima and collected
values agree bit for bit.

Per weight value ``c`` the scan reports the grid maximum of S, the
first (lexicographically smallest) index pair attaining it, and the
number of grid points with ``S > threshold``.  Violation *collection*
(materializing the offending points) walks the same blocks for one
``c``.

General states beyond the diagonal family have no closed form here;
:func:`plane_row_scan` evaluates the probability form ``|P_A - P_B| +
p_pp + p_mm`` from amplitude matrices in row blocks of the same size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import _kets

__all__ = [
    "DiagonalScanner",
    "plane_row_scan",
    "plane_collect",
]

# Points per alpha-row block of the diagonal scan and of the plane
# kernels: 32 K float64 values are 256 KB per array, 1.3 MB for the
# five arrays of a diagonal block.
_BLOCK_ELEMS = 32 * 1024


@dataclass(frozen=True)
class _AngleTables:
    ca2: np.ndarray
    sa2: np.ndarray
    s2a: np.ndarray
    cb2: np.ndarray
    sb2: np.ndarray
    s2b: np.ndarray


def _angle_tables(alphas: np.ndarray, betas: np.ndarray) -> _AngleTables:
    alphas = np.ascontiguousarray(alphas, dtype=np.float64)
    betas = np.ascontiguousarray(betas, dtype=np.float64)
    return _AngleTables(
        ca2=np.cos(alphas) ** 2,
        sa2=np.sin(alphas) ** 2,
        s2a=np.sin(2.0 * alphas),
        cb2=np.cos(betas) ** 2,
        sb2=np.sin(betas) ** 2,
        s2b=np.sin(2.0 * betas),
    )


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
        self._t = _angle_tables(alphas, betas)

    def _blocks(self):
        """Yield ``(row_offset, x, y, z, s, t)`` for consecutive blocks of alpha rows.

        x, y and z hold the block's angle terms; s and t are temporaries of
        the same shape.  All five are views of buffers allocated once
        per call and overwritten by the next block: reusing them avoids
        allocating and faulting in fresh pages for every block.
        """
        tab = self._t
        na, nb = tab.ca2.size, tab.cb2.size
        height = max(1, _BLOCK_ELEMS // nb)
        x, y, z, s, t = (np.empty((height, nb)) for _ in range(5))
        for start in range(0, na, height):
            n = min(height, na - start)
            rows = slice(start, start + n)
            xb, yb, zb, tb = x[:n], y[:n], z[:n], t[:n]
            ca2 = tab.ca2[rows, None]
            np.subtract(ca2, tab.cb2, out=xb)
            np.abs(xb, out=xb)
            np.multiply(ca2, tab.cb2, out=yb)
            np.multiply(tab.sa2[rows, None], tab.sb2, out=tb)
            yb += tb
            np.multiply(tab.s2a[rows, None], tab.s2b, out=zb)
            yield start, xb, yb, zb, s[:n], tb

    @staticmethod
    def _evaluate(x, y, z, s, t, u_k, w_k) -> np.ndarray:
        """S = ((u*x) + y) + (w*z) into ``s``, using ``t`` as a temporary."""
        np.multiply(x, u_k, out=s)
        s += y
        np.multiply(z, w_k, out=t)
        s += t
        return s

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
        nb = self._t.cb2.size
        max_s = np.full(nc, -np.inf)
        arg_i = np.zeros(nc, dtype=np.int64)
        arg_j = np.zeros(nc, dtype=np.int64)
        n_over = np.zeros(nc, dtype=np.int64)
        for start, x, y, z, s, t in self._blocks():
            flat_s = s.reshape(-1)
            for k in range(nc):
                self._evaluate(x, y, z, s, t, u[k], w[k])
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
                (start, self._evaluate(x, y, z, s, t, u_k, w_k))
                for start, x, y, z, s, t in self._blocks()
            ),
            threshold,
        )


def _plane_blocks(coeffs: np.ndarray, alphas: np.ndarray, betas: np.ndarray):
    """Yield ``(row_offset, S_block)``, about ``_BLOCK_ELEMS`` points each, for a fixed state."""
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    block = max(1, _BLOCK_ELEMS // betas.size)
    kb_p, kb_m = _kets(betas)
    right_p = coeffs @ kb_p.T  # (2, nb)
    right_m = coeffs @ kb_m.T
    p_b = np.sum(right_p.real**2 + right_p.imag**2, axis=0)
    for start in range(0, alphas.size, block):
        chunk = alphas[start : start + block]
        ka_p, ka_m = _kets(chunk)
        left_p = ka_p @ coeffs  # (m, 2)
        p_a = np.sum(left_p.real**2 + left_p.imag**2, axis=1)
        amp_pp = ka_p @ right_p
        amp_mm = ka_m @ right_m
        s = np.abs(p_a[:, None] - p_b[None, :])
        s += amp_pp.real**2 + amp_pp.imag**2
        s += amp_mm.real**2 + amp_mm.imag**2
        yield start, s


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
