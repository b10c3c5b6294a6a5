"""Hot evaluation kernels for grid scans.

Every scan family evaluates ``S = |P_A - P_B| + p_pp + p_mm`` on an
(alpha, beta) grid with one arithmetic.  A family is four tables over
alpha rows (``r``), four over beta columns (``k``) and per-slice
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

The block engine (:func:`_blocks`, :func:`_evaluate`) forms S for
blocks of about ``_BLOCK_ELEMS`` points (``_BLOCK_ELEMS // n_beta``
alpha rows): a fixed number of points, not of rows, keeps its three
arrays inside a per-core L2 cache for any beta axis, and memory stays
O(block) for any grid.  The arithmetic is real and elementwise, with no
BLAS call, so every S is the same double for any block height, thread
count, or subset of points evaluated.  :class:`PlaneScanner` walks a
range of a fixed state's alpha rows this way.

A scan lists the points over its threshold where it counts them: each
returns its maxima, its counts and its first ``limit`` such points, in
one walk over the grid.  A diagonal scan walks chunks of rows in the
outer loop and ``c`` slices in the inner one, so it lists a slice's
points only while fewer than ``limit`` counted points rank before them,
and cuts what it holds back to the first ``limit`` whenever it holds
more than twice that.  Memory stays O(``limit`` + block) at any
threshold.

Ridge certification (diagonal family)
-------------------------------------
For ``psi = s|HH> + c|VV>`` the identity ``S = 1 - 2 min(p_+-, p_-+)``
holds, and on an alpha row both probabilities are sinusoids in beta:

    p_+- = R1^2 sin^2(b - phi1),  R1 (cos phi1, sin phi1) = (s cos a, c sin a),
    p_-+ = R2^2 sin^2(b - phi2),  R2 (cos phi2, sin phi2) = (c cos a, s sin a).

A slice is given its ``c``; ``s = sqrt(1 - c^2)`` and the weights ``(u,
w)`` follow (:meth:`DiagonalScanner.weights`).  Let L be ``min(M,
threshold)``, where M is the largest S evaluated so far in the slice,
and ``D = (1 - L + _SLACK) / 2``.  A point with ``S_float >= L`` has
``min(p_+-, p_-+) <= D``, so its beta lies within ``arcsin(sqrt(D) /
R)`` of ``phi + k pi`` for one of the two roots.
:class:`DiagonalScanner` evaluates a stencil of ``_SIDE`` beta columns
on each side of each root (columns sorted once by ``b mod pi``, the
order padded circularly) with the block engine's tables and operation
order, and certifies a row when both stencils reach past their windows
plus ``_ANGLE_MARGIN``.  Every point of a certified row outside its
stencils then has ``S_float < L``: strictly below the maximum, so the
first maximum in row-major order is among the evaluated points, and
not above the threshold, so it is not counted.  A row that is not
certified (R near 0, or windows wider than the stencil at low
thresholds) is evaluated in full by the block engine.  Windows are read
in chunks of whole alpha rows, at most ``_CHUNK_CANDIDATES`` candidate
points, with reused buffers, so memory is O(chunk + axes).  Each ``c``
makes a fixed number of numpy calls per chunk, both roots of every row
in one ``(2, n)`` array: on a paper axis of 3142 rows, one chunk, calls
long enough for worker threads to run them side by side.  Chunks are
sized apart from the block engine's blocks, whose smaller size suits
evaluating full rows.
:meth:`DiagonalScanner.scan` walks the chunks in the outer loop and the
``c`` slices in the inner one, so the block engine builds the tables of
a chunk's uncertified rows once and evaluates them for every ``c`` that
needs them.  How much is skipped depends on the window depth against
the stencil's reach.  With L within about 1e-13 of 1, a window is some
3e-7 / R rad wide, far inside ``_SIDE`` columns of any practical step h.
At ``L = 1 - t`` it is about ``sqrt(t / 2) / R``, which passes the
stencil once ``t > 2 (_SIDE h R)^2`` (1.8e-5 R^2 at h = 1e-3): at lower
thresholds, or in slices whose maximum stays that far below 1, most
rows are evaluated in full, at about the cost of the dense engine (a
scan whose threshold alone rules out every row skips its stencils).

Float error.  With unit roundoff e = 2^-53 and numpy's float64 sin/cos
within 4 ulp (8e relative), the tables carry relative errors of at most
18e (squares) and 8e (``sin 2t``).  For ``0 <= u <= 1`` and ``|w| <= 1``
the five operations then give ``|x - x*| <= 37e``, ``|y - y*| <= 38e``,
``|z - z*| <= 17e``, ``|u x + y - (.)*| <= 78e`` and ``|S_float - S*|
<= 99e``, where ``*`` marks exact values at the float angles and
weights.  The windows are those of ``p_+-`` and ``p_-+`` at the float c
and ``s = fl(sqrt(fl(1 - fl(c^2))))``, the s of ``w = fl(c s)``.  At any
c and s, with ``N = c^2 + s^2``, ``X = |cos^2 a - cos^2 b|``, ``Y =
cos^2 a cos^2 b + sin^2 a sin^2 b`` and ``Z = sin 2a sin 2b``, S is
``|s^2 - c^2| X + N Y + c s Z = N - 2 min(p_+-, p_-+)``, so

    S* - (1 - 2 min p) = (u - |s^2 - c^2|) X + (N - 1)(1 - Y) + (w - c s) Z.

X and Y lie in [0, 1] and ``|Z| <= 1``.  ``|N - 1| < 4e``: the rounding
of ``c^2``, of ``1 - c^2`` and of the square root.  ``|u - |1 - 2c^2||
< 4e`` (``2 c^2`` is exact once ``c^2`` is rounded), so ``|u - |s^2 -
c^2|| < 8e``; and ``|w - c s| < e``.  Hence ``|S_float - (1 - 2 min
p)| < 112e = 1.25e-14``, which ``_SLACK = 1e-13`` covers with a factor
of 8.  The roots come from the float s and c times ``sqrt(cos^2 a)``
and ``copysign(sqrt(sin^2 a), sin 2a)`` (10e relative), ``arctan2`` (4
ulp) and ``remainder(., pi)`` (2e-16, plus ``|pi - fl(pi)| = 1.3e-16``
per period of the angle), so phases are exact to within 3e-15 plus
``4e-17 |beta|``; radii to within 20e relative, which moves a window of
``arcsin(x)``, ``x <= 1/2``, by at most 30e.  These bounds hold for ``R
>= 2 sqrt(D) >= 4e-7``, the only rows that can be certified: below
that, where ``sin^2`` may even underflow, a row is evaluated in full
whatever its computed root.  ``_ANGLE_MARGIN * max(1, max |beta|)``
covers these errors more than 300 times over.  Windows wider than
``pi/6`` (``sqrt(D) / R > 1/2``) are taken as the whole half-period, so
a row with one is certified only when its stencil already holds every
column.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .quantum import PureTwoPhotonState, joint_probabilities

__all__ = [
    "DiagonalScanner",
    "PlaneScanner",
]

# Points per alpha-row block: 32 K float64 values are 256 KB per array,
# 768 KB for the three arrays of a block.
_BLOCK_ELEMS = 32 * 1024

# Stencil columns on each side of a root; a row holds two roots.
_SIDE = 3
_WIDTH = 4 * _SIDE
# Stencil candidates per chunk of whole alpha rows: a chunk's four
# buffers take 32 bytes per candidate, at most 1.5 MB.
_CHUNK_CANDIDATES = 48 * 1024
# The slack of the window depth D and the angular margin of a window
# (module docstring).
_SLACK = 1e-13
_ANGLE_MARGIN = 1e-12
# Two index arrays and a value array with nothing in them.
_NO_HITS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))


def _trig(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cos^2 t, sin^2 t, sin 2t)`` tables of an angle axis."""
    angles = np.ascontiguousarray(angles, dtype=np.float64)
    return np.cos(angles) ** 2, np.sin(angles) ** 2, np.sin(2.0 * angles)


def _blocks(rows, cols):
    """Yield ``(row_offset, x, y, z)`` for consecutive blocks of alpha rows.

    ``rows`` and ``cols`` are the four alpha and four beta tables; x, y
    and z hold the block's angle terms.  All three are views of buffers
    allocated once per call and overwritten by the next block: reusing
    them avoids allocating and faulting in fresh pages for every block.
    """
    r0, r1, r2, r3 = rows
    k0, k1, k2, k3 = cols
    na, nb = r0.size, k0.size
    height = max(1, min(na, _BLOCK_ELEMS // nb))
    x, y, z = (np.empty((height, nb)) for _ in range(3))
    for start in range(0, na, height):
        n = min(height, na - start)
        block = slice(start, start + n)
        xb, yb, zb = x[:n], y[:n], z[:n]
        np.subtract(r0[block, None], k0, out=xb)
        np.abs(xb, out=xb)
        np.multiply(r1[block, None], k1, out=yb)
        np.multiply(r2[block, None], k2, out=zb)
        yb += zb
        np.multiply(r3[block, None], k3, out=zb)
        yield start, xb, yb, zb


def _gather(rows, cols, block: slice, idx: np.ndarray, x, y, z) -> None:
    """x, y and z of :func:`_blocks` at entries ``idx[i]`` of the column tables for the rows ``block``, in place.

    Only the diagonal family gathers, and its ``k1`` is ``k0``: one
    gather serves both.
    """
    r0, r1, r2, r3 = (r[block, None] for r in rows)
    k0, _, k2, k3 = cols
    np.take(k0, idx, out=z, mode="clip")
    np.subtract(r0, z, out=x)
    np.abs(x, out=x)
    np.multiply(r1, z, out=y)
    np.take(k2, idx, out=z, mode="clip")
    np.multiply(r2, z, out=z)
    y += z
    np.take(k3, idx, out=z, mode="clip")
    np.multiply(r3, z, out=z)


def _evaluate(x, y, z, u_k, w_k, s, t) -> np.ndarray:
    """S = ((u*x) + y) + (w*z), formed in ``s`` with ``t`` as scratch.

    ``s`` and ``t`` may be ``x`` and ``z``, which then are overwritten.
    """
    np.multiply(x, u_k, out=s)
    s += y
    np.multiply(z, w_k, out=t)
    s += t
    return s


def _root(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius R and phase phi mod pi of the points ``(x, y)``: ``R^2 sin^2(b - phi)`` is 0 at phi."""
    return np.hypot(x, y), np.remainder(np.arctan2(y, x), math.pi)


class DiagonalScanner:
    """Reusable scanner over a fixed (alpha, beta) grid for the diagonal family.

    Construction precomputes the 1-D trigonometric tables and the beta
    columns sorted by phase ``b mod pi``.  :meth:`scan` evaluates the
    certified stencils around the two roots of each row and every row
    that cannot be certified (module docstring).  It is thread-safe:
    worker threads may process disjoint ``c`` slabs concurrently against
    the shared read-only tables, each with its own buffers.
    """

    def __init__(self, alphas: np.ndarray, betas: np.ndarray):
        ca2, sa2, s2a = _trig(alphas)
        cb2, sb2, s2b = _trig(betas)
        self._rows = (ca2, ca2, sa2, s2a)
        self._cols = (cb2, cb2, sb2, s2b)
        # Columns in phase order, padded by _SIDE on each side with their
        # images one period away (repeating when the axis is shorter).
        betas = np.ascontiguousarray(betas, dtype=np.float64).reshape(-1)
        phase = np.remainder(betas, math.pi)
        order = np.argsort(phase, kind="stable")
        wrap, pos = np.divmod(np.arange(-_SIDE, betas.size + _SIDE), betas.size)
        self._phase = phase[order][pos] + math.pi * wrap
        self._sorted_phase = self._phase[_SIDE:_SIDE + betas.size]
        self._phase_col = order[pos]
        # The beta tables in that order, so that stencils gather by position.
        cb2s, sb2s, s2bs = (t[self._phase_col] for t in (cb2, sb2, s2b))
        self._stencil_cols = (cb2s, cb2s, sb2s, s2bs)
        self._margin = _ANGLE_MARGIN * float(np.max(np.abs(betas), initial=1.0))
        # No stencil reaches farther from its root than half its span.
        self._span = float(np.max(self._phase[2 * _SIDE - 1:] - self._phase[:1 - 2 * _SIDE])) / 2.0

    @staticmethod
    def weights(cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(u, w) = (|1 - 2c^2|, c sqrt(1 - c^2))`` for a weight axis."""
        cs = np.asarray(cs, dtype=np.float64)
        return np.abs(1.0 - 2.0 * cs * cs), cs * np.sqrt(1.0 - cs * cs)

    def _chunks(self):
        """Yield ``(block, trig, buffers)`` for chunks of whole alpha rows, at most ``_CHUNK_CANDIDATES`` candidates each.

        ``block`` is a slice of alpha rows and ``trig`` their ``(cos a, sin
        a)``.  Every chunk shares ``buffers = (idx, x, y, z)``, all views
        of one allocation of at most 1.5 MB.  The rows are split
        into as few chunks as the cap allows, of equal height: a paper
        axis of 3142 rows is one chunk of 1.2 MB, so each ``c`` makes one
        pass of long numpy calls, which run while other workers hold the
        interpreter.  That raised the peak RSS of ``scan --eps-preset
        --workers 2`` by 1.9 MB and of the census scan by 0.5 MB, against
        chunks of at most 16 K candidates.  The cap keeps memory
        O(chunk + axes) on any axis.
        """
        ca2, _, sa2, s2a = self._rows
        na = ca2.size
        chunks = max(1, -(-na // max(1, _CHUNK_CANDIDATES // _WIDTH)))
        height = max(1, -(-na // chunks))
        store = np.empty((4, height, _WIDTH))
        buffers = (store[0].view(np.int64), *store[1:])
        for start in range(0, na, height):
            block = slice(start, min(na, start + height))
            trig = np.sqrt(ca2[block]), np.copysign(np.sqrt(sa2[block]), s2a[block])
            yield block, trig, buffers

    def _stencil(self, block: slice, trig, roots: np.ndarray, u_k: float, w_k: float, buffers):
        """``(idx, S, radii, covers)`` of the stencils of the alpha rows ``block``.

        ``roots`` is ``(s, c)``: the two roots of a row are those of
        ``(s cos a, c sin a)`` and ``(c cos a, s sin a)``, taken in one
        ``(2, n)`` pass.  ``idx[i]`` holds the phase-order positions of
        the stencil columns of row ``block.start + i`` around both roots
        (``_phase_col[idx[i]]`` are the columns) and ``S[i]`` their
        values; ``radii`` and ``covers`` hold per root and row the radius
        R and the angular distance from the root to the farthest stencil
        column on the nearer side.
        """
        n = block.stop - block.start
        idx_buf, x, y, z = buffers
        cos_a, sin_a = trig
        radii, phase = _root(np.multiply.outer(roots, cos_a), np.multiply.outer(roots[::-1], sin_a))
        p = np.searchsorted(self._sorted_phase, phase, side="right")
        covers = self._phase[p]
        np.subtract(phase, covers, out=covers)
        far = self._phase[p + (2 * _SIDE - 1)]
        np.subtract(far, phase, out=far)
        np.minimum(covers, far, out=covers)
        idx = idx_buf[:n]
        np.add(p.T[:, :, None], np.arange(2 * _SIDE), out=idx.reshape(n, 2, 2 * _SIDE))
        xb, yb, zb = x[:n], y[:n], z[:n]
        _gather(self._rows, self._stencil_cols, block, idx, xb, yb, zb)
        return idx, _evaluate(xb, yb, zb, u_k, w_k, xb, zb), radii, covers

    def _certified(self, radii, covers, level: float) -> np.ndarray:
        """Rows whose stencils reach past both windows of depth ``(1 - level + _SLACK) / 2``.

        R = 0 divides by zero and a subnormal R overflows: :meth:`scan`
        ignores divide, overflow and invalid floating-point errors, once
        per call.
        """
        ratio = math.sqrt(max((1.0 - level + _SLACK) / 2.0, 0.0)) / radii
        half = np.arcsin(np.minimum(ratio, 0.5))
        half[ratio > 0.5] = math.pi / 2.0
        half += self._margin
        return (half < covers).all(axis=0)

    def _may_certify(self, threshold: float) -> bool:
        """Whether any row could be certified at the threshold's window depth D.

        Every level is at most the threshold and every R at most 1, so
        every window is at least ``arcsin(sqrt(D) / 2)`` wide (the 2
        leaves room for rounding).  When that reaches the widest
        stencil's half-span, no row can be certified: every row of the
        scan is evaluated in full, and its stencils need not be.
        """
        reach = math.sqrt(max((1.0 - threshold + _SLACK) / 2.0, 0.0))
        return math.asin(min(reach / 2.0, 0.5)) < self._span

    def _full_rows(self, block: slice, pending, u, w):
        """Yield ``(k, rows, S block)`` for the rows of ``block`` that slice k left uncertified.

        ``pending`` holds ``(k, mask)`` pairs, ``mask`` over the rows of
        ``block``, or None for all of them.  The block engine builds the
        tables of all those rows once per block and evaluates them for
        every k that needs them; rows outside k's mask read -inf, so they
        neither win nor count.
        """
        if not pending:
            return
        masks = [mask for _, mask in pending if mask is not None]
        rows = np.arange(block.stop - block.start)
        if len(masks) == len(pending):
            rows = np.flatnonzero(np.logical_or.reduce(masks))
        sub = tuple(r[block][rows] for r in self._rows)
        out = None
        for start, x, y, z in _blocks(sub, self._cols):
            if out is None:
                out = np.empty_like(x), np.empty_like(x)
            n = x.shape[0]
            part = rows[start:start + n]
            s, t, at = out[0][:n], out[1][:n], block.start + part
            for k, mask in pending:
                keep = None if mask is None else mask[part]
                if keep is not None and not keep.any():
                    continue
                _evaluate(x, y, z, u[k], w[k], s, t)
                if keep is not None and not keep.all():
                    s[~keep] = -np.inf
                yield k, at, s

    def _hits(self, start, idx, vals, sure, threshold, nb) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct keys ``i * nb + j`` and values of the stencil points over threshold.

        Only certified rows count: the others are evaluated in full.
        """
        mask = vals > threshold
        mask &= sure[:, None]
        i_idx, m_idx = np.nonzero(mask)
        cols = self._phase_col[idx[i_idx, m_idx]]
        keys, first = np.unique((start + i_idx) * nb + cols, return_index=True)
        return keys, vals[i_idx, m_idx][first]

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # R near 0 in _certified
    def scan(
        self, cs: np.ndarray, threshold: float, limit: int,
        budget: Optional[Callable[[int], int]] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Per-``c`` grid maxima, first argmax indices, threshold counts, and the first hits.

        ``cs`` holds the weights ``0 <= c <= 1``.  The hits are ``(k, i,
        j, S)`` arrays of the first ``limit`` points with ``S >
        threshold`` in (k, i, j) order, recorded where they are counted:
        the certified stencil points and every point of a full row.  ``budget``, if given, is called with the points
        counted so far and returns how many the caller may still keep in
        all, a number that may only shrink; the scan then lists at most
        that many (:func:`_listable`).
        """
        cs = np.ascontiguousarray(cs, dtype=np.float64)
        u, w = self.weights(cs)
        threshold = float(threshold)
        nc = cs.shape[0]
        nb = self._cols[0].size
        max_s, key = [-math.inf] * nc, [0] * nc
        n_over = np.zeros(nc, dtype=np.int64)
        # Per slice, parts of (keys i * nb + j, values), each sorted by key,
        # of the hits that may still rank among the first `listable`.
        held: list[list] = [[] for _ in range(nc)]
        n_held, spent, listable = 0, nc, limit

        def offer(k, value, at):
            # Ties go to the smaller key: the first maximum in row-major order.
            value = float(value)
            if value > max_s[k] or (value == max_s[k] and at < key[k]):
                max_s[k], key[k] = value, at

        def room(k, found):
            # How many of the hits slice k has just counted may still rank
            # among the first `listable`: every counted hit of an earlier slice
            # ranks before them.  It only shrinks, and it is at most the room
            # of an earlier slice, so once it is spent no later slice lists a
            # hit.  The budget hears the `found` hits at once, and by the time
            # the room is spent it has heard a count that fills it.
            nonlocal spent, listable
            if k >= spent:
                return 0
            listable = _listable(limit, budget, int(n_over.sum()) + found)
            left = listable - int(n_over[:k].sum()) - int(ahead[k])
            if left <= 0:
                spent = k
            return left

        def hold(k, keys, vals):
            nonlocal n_held
            held[k].append((keys, vals))
            n_held += keys.size
            if n_held > 2 * listable:
                n_held = _keep_first(held, listable)

        # (s, c) per slice, s as in the weights w = c s.
        roots = np.stack([np.sqrt(1.0 - cs * cs), cs], axis=1)
        hopeful = self._may_certify(threshold)
        for block, trig, buffers in self._chunks():
            # Hits of each slice known to rank before its next full-row hits.
            ahead = n_over.copy()
            pending = [] if hopeful else [(k, None) for k in range(nc)]
            for k in range(nc) if hopeful else ():
                idx, vals, radii, covers = self._stencil(block, trig, roots[k], u[k], w[k], buffers)
                top = vals.max()
                if top >= max_s[k]:
                    # The first row holding the top holds its smallest key.
                    i = int(np.argmax(vals == top)) // _WIDTH
                    j = int(self._phase_col[idx[i][vals[i] == top]].min())
                    offer(k, top, (block.start + i) * nb + j)
                sure = self._certified(radii, covers, min(max_s[k], threshold))
                if top > threshold:
                    keys, hit_vals = self._hits(block.start, idx, vals, sure, threshold, nb)
                    left = room(k, keys.size)
                    if left > 0:
                        hold(k, keys[:left], hit_vals[:left])
                    n_over[k] += keys.size
                if not sure.all():
                    pending.append((k, ~sure if sure.any() else None))
            for k, rows, s in self._full_rows(block, pending, u, w):
                flat = int(np.argmax(s))
                top = s.flat[flat]
                offer(k, top, int(rows[flat // nb]) * nb + flat % nb)
                if top > threshold:
                    over = s > threshold
                    found = int(np.count_nonzero(over))
                    left = room(k, found)
                    if left > 0:
                        # Each kept hit has fewer than `left` of these before it.
                        at = np.flatnonzero(over)[:left]
                        hold(k, rows[at // nb] * nb + at % nb, s.ravel()[at])
                    n_over[k] += found
                    ahead[k] += found
        _keep_first(held, listable)
        kept = [(np.full(keys.size, k), keys, vals) for k, parts in enumerate(held) for keys, vals in parts]
        hit_k, keys, hit_s = (np.concatenate(part) for part in zip(_NO_HITS, *kept))
        hit_i, hit_j = np.divmod(keys, nb)
        arg_i, arg_j = np.divmod(np.array(key, dtype=np.int64), nb)
        return np.array(max_s), arg_i, arg_j, n_over, (hit_k, hit_i, hit_j, hit_s)

    def collect(self, c: float, threshold: float, limit: int) -> tuple[np.ndarray, ...]:
        """The ``(i, j, S)`` hits of :meth:`scan` for one ``c``; kept for tooling that wraps it by name."""
        return self.scan(np.array([c]), threshold, limit)[4][1:]


def _listable(limit: int, budget: Optional[Callable[[int], int]], counted: int) -> int:
    """How many hits a scan may list in all: ``limit``, or less when its ``budget`` says so.

    ``budget`` hears the ``counted`` points over the threshold so far,
    so that a caller running several scans at once can tell the later
    ones when the earlier ones have filled what it keeps.
    """
    return limit if budget is None else min(limit, budget(counted))


def _keep_first(held: list, limit: int) -> int:
    """Keep the first ``limit`` hits of per-slice ``(keys, values)`` lists, in place; return how many.

    Each part is sorted by key; a slice's parts are merged into one.  A
    hit is dropped only when ``limit`` found hits rank before it, so
    later finds never bring it back.
    """
    room = limit
    for k, parts in enumerate(held):
        if len(parts) > 1:
            keys, vals = (np.concatenate(part) for part in zip(*parts))
            order = np.argsort(keys)
            parts = [(keys[order], vals[order])]
        held[k] = [(keys[:room], vals[:room]) for keys, vals in parts if room > 0]
        room -= sum(keys.size for keys, _ in held[k])
    return limit - room


class PlaneScanner:
    """Reusable scanner over a fixed state's (alpha, beta) grid.

    Construction builds the state's eight tables once.  :meth:`scan`
    runs the block engine over a range of alpha rows, so worker threads
    may scan disjoint ranges against the shared read-only tables, and
    every S keeps its bits however the rows are split.
    """

    def __init__(self, coeffs: np.ndarray, alphas: np.ndarray, betas: np.ndarray):
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
        self._rows = (along_a[0] + along_a[1], ca2, sa2, s2a)
        self._cols = (at_0[0] + at_0[2], at_0[0] + at_0[3], at_90[0] + at_90[3],
                      (at_45[0] + at_45[3]) - 0.5)

    def scan(
        self, rows: slice, threshold: float, limit: int,
        budget: Optional[Callable[[int], int]] = None,
    ) -> tuple[np.ndarray, np.ndarray, int, tuple[np.ndarray, ...]]:
        """Maxima and first attaining columns of the alpha rows ``rows``, their threshold count, and the first hits.

        The hits are ``(i, j, S)`` arrays of the first ``limit`` points
        with ``S > threshold`` in row-major order; ``i`` counts from the
        grid's first row.  ``budget`` may lower the limit as in
        :meth:`DiagonalScanner.scan`.
        """
        start, stop, _ = rows.indices(self._rows[0].size)
        nb = self._cols[0].size
        sub = tuple(r[start:stop] for r in self._rows)
        row_max = np.empty(stop - start)
        row_arg = np.zeros(stop - start, dtype=np.int64)
        count, listed, hits = 0, 0, [_NO_HITS]
        for offset, x, y, z in _blocks(sub, self._cols):
            s = _evaluate(x, y, z, 1.0, 1.0, x, z)
            at = slice(offset, offset + s.shape[0])
            row_arg[at] = np.argmax(s, axis=1)
            row_max[at] = s[np.arange(s.shape[0]), row_arg[at]]
            if row_max[at].max() > threshold:
                over = s > threshold
                count += int(np.count_nonzero(over))
                room = _listable(limit, budget, count) - listed
                if room > 0:
                    flat = np.flatnonzero(over)[:room]
                    hits.append((flat // nb + (start + offset), flat % nb, s.ravel()[flat]))
                    listed += flat.size
        return row_max, row_arg, count, tuple(np.concatenate(part) for part in zip(*hits))

