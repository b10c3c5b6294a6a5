"""Hot evaluation kernels for grid scans.

Every scan family evaluates ``S = |P_A - P_B| + p_pp + p_mm`` on an
(alpha, beta) grid with one arithmetic.  A family is four tables over
alpha rows (``r``), four over beta columns (``k``) and per-slice
weights ``(u, w)``:

    S_ij = ((u |r0_i - k0_j|) + (r1_i k1_j + r2_i k2_j)) + (w (r3_i k3_j)).

* Diagonal family: ``r = (cos^2 a, cos^2 a, sin^2 a, sin 2a)``, ``k`` the
  same in ``b``, ``u = |1 - 2 c^2|`` and ``w = c sqrt(1 - c^2)`` per ``c``.
* A fixed state with coefficient matrix C: ``u = w = 1``, ``r = (P_A(a),
  cos^2 a, sin^2 a, sin 2a)`` and ``k = (P_B(b), E(0, b), E(pi/2, b),
  E(pi/4, b) - 1/2)`` with ``E = p_pp + p_mm``.  A linear analyzer's
  projector is ``(I + cos 2a Z + sin 2a X) / 2``, so for fixed ``b`` the
  sum ``E`` is affine in ``(cos 2a, sin 2a)`` with constant term ``N / 2``,
  ``N = ||C||^2``.  Hence ``E(a, b) = cos^2 a E(0, b) + sin^2 a E(pi/2, b)
  + sin 2a (E(pi/4, b) - 1/2) - sin 2a (N - 1) / 2``: the tables omit the
  last term, which is 0 for ``N = 1``.

The block engine (:func:`_blocks`, :func:`_evaluate`) forms S for
blocks of about ``_BLOCK_ELEMS`` points (``_BLOCK_ELEMS // n_beta``
alpha rows): a fixed number of points, not of rows, keeps its three
arrays inside a per-core L2 cache for any beta axis, and memory stays
O(block) for any grid.  The arithmetic is real and elementwise, with no
BLAS call, so every S is the same double for any block height, thread
count, or subset of points evaluated.

Ridge certification
-------------------
For any state ``S = N - 2 min(p_+-, p_-+)``, as ``P_A - P_B = p_+- -
p_-+``, and on an alpha row each of the two is a sinusoid in beta,
``p = p_min + R^2 sin^2(b - phi)``:

* diagonal family, ``s = sqrt(1 - c^2)``: ``p_min = 0`` and ``R (cos phi,
  sin phi)`` is ``(s cos a, c sin a)`` for p_+-, ``(c cos a, s sin a)``
  for p_-+;
* a fixed state: ``p = |x sin b - y cos b|^2`` with ``(x, y) = (v0, v1)``
  for p_+- and ``(w1, -w0)`` for p_-+, where ``v = (cos a, sin a) C`` and
  ``w = (-sin a, cos a) C``.  Then ``R^2 = hypot(|x|^2 - |y|^2, 2 Re xy*)``,
  ``2 phi = atan2(2 Re xy*, |x|^2 - |y|^2)`` and ``p_min = 2 (Im xy*)^2 /
  (|x|^2 + |y|^2 + R^2)``, which is 0 for a real C.

A slice is one ``c`` of the diagonal family, or one alpha row of a fixed
state (the report lists each row's maximum).  With M the largest S
evaluated so far in the slice, ``L = min(M, threshold)`` and ``D = (1 -
L + slack) / 2``, a point with ``S_float >= L`` has ``p <= D`` for one
of its sinusoids: its beta lies within ``arcsin(sqrt((D - p_min) /
R^2))`` of ``phi + k pi`` (nowhere when ``D < p_min``).  A scanner
evaluates ``_SIDE`` beta columns on each side of each root (columns
sorted once by ``b mod pi``, the order padded circularly) with the block
engine's tables and operation order, and certifies a row when both
stencils reach past their windows plus a margin.  Every other point of
the row then has ``S_float < L``: below the maximum, so the first
maximum in row-major order is among the evaluated points, and not over
the threshold.  Other rows (R near 0, or windows wider than the stencil
at low thresholds) go to the block engine, which builds a chunk's
uncertified rows once for every ``c`` that needs them.  Scans list the
points over the threshold where they count them, in one flat list that
one sort on (slice, key) trims to its first ``limit`` whenever it passes
``2 limit``: memory is O(``limit`` + chunk + axes) at any threshold, plus
the per-slice maxima, keys and counts, three arrays of O(slices).
A chunk's stencils are laid out root-major, ``(2 roots, 2 _SIDE
columns, rows)``: each stencil column is one contiguous run over the
rows, along which every alpha table broadcasts.

Most rows of a diagonal slice need no stencil at all.  Per ``c`` the
scanner first evaluates one seed row, the row whose nearest column lies
deepest in a sinusoid (smallest ``R near``, ``near`` the angular distance
from a root to its nearest column on either side), and takes ``L =
min(max(M, top), threshold)`` with ``top`` the seed's stencil maximum.  A
row whose windows at that L hold no column (``half + margin < near`` at
both roots) has ``S_float < L`` at every point: it is the cover test with
a stencil of no columns, so the same float-error bound holds with
``near`` in place of the distance to the farthest stencil column.  Such a
row holds neither the first maximum nor a hit, and none of its points is
evaluated; the seed row itself either reaches L or is such a row.  The
other (live) rows of a batch of ``c`` are gathered in one call, offered
slice by slice, and certified as above at the level they raise, never
below the seed's.  A ``c`` whose rows are all live (low thresholds) is
taken in runs of whole rows.  On the paper grid about 6 of 3142 rows per
``c`` are live.  Fixed states skip no row: each row is a slice of its own.
With L within about 1e-13 of 1, a window is some 3e-7 / R rad wide.  At
``L = 1 - t`` it is about ``sqrt(t / 2) / R``, which passes the stencil
once ``t > 2 (_SIDE h R)^2`` (1.8e-5 R^2 at step h = 1e-3): at lower
thresholds most rows are evaluated in full, at about the dense engine's
cost (a diagonal scan whose threshold rules out every row skips its
stencils).  A fixed state's row whose maximum lies far below 1 has L at
its top, and a window about as wide as the top's distance from its root.

A walk (:meth:`_RidgeScanner._walk`) holds one budget of a chunk's
stencil buffers, 32 bytes per candidate (1.2 MB on the paper axis), or on
an axis of a few rows 8 bytes per row a chunk may hold (32 KB).  A
pass of b slices takes 10 values per slice and row: R, phase and their
column positions, kept until its last stencil call, and two arrays for
the live test.  So ``b = budget / (10 rows + 4 _WIDTH)``, the second term
for the seeds' stencils: 4 slices on the paper axis, 46 on an axis of 4
rows.  The live rows' stencils, 4 ``_WIDTH`` values per pair,
then fill the budget past R and phase, over the live test's arrays: 1571
pairs per call on the paper axis, so a slice whose rows are all live
takes two calls.  Each call's windows reuse its spent stencil buffers.

Float error, diagonal family.  With unit roundoff e = 2^-53 and numpy's
float64 sin/cos within 4 ulp (8e relative), the tables carry relative
errors of at most 18e (squares) and 8e (``sin 2t``), and for ``0 <= u <=
1``, ``|w| <= 1`` the five operations give ``|S_float - S*| <= 99e``,
``*`` marking exact values at the float angles and weights.  With the
float c, the s of ``w = fl(c s)``, ``N = c^2 + s^2``, ``X =
|cos^2 a - cos^2 b|``, ``Y = cos^2 a cos^2 b + sin^2 a sin^2 b`` and ``Z =
sin 2a sin 2b``:

    S* - (1 - 2 min p) = (u - |s^2 - c^2|) X + (N - 1)(1 - Y) + (w - c s) Z,

with ``|N - 1| < 4e``, ``|u - |s^2 - c^2|| < 8e`` and ``|w - c s| < e``,
so ``|S_float - (1 - 2 min p)| < 112e = 1.25e-14``: the slack is
``_SLACK = 1e-13``.  The roots come from s, c, ``sqrt(cos^2 a)`` and
``copysign(sqrt(sin^2 a), sin 2a)`` (10e relative), ``arctan2`` (4 ulp)
and its fold mod pi by one masked add, equal to ``remainder(., pi)``
bit for bit (2e-16, plus ``|pi - fl(pi)| = 1.3e-16`` per
period): phases are exact to within 3e-15 plus ``4e-17 |beta|``, radii
to within 20e relative, which moves a window of ``arcsin(x)``, ``x <=
1/2``, by at most 30e, for ``R >= 2 sqrt(D) >= 4e-7``, the only rows
that can be certified.  ``_ANGLE_MARGIN * max(1, max |beta|)`` covers
them 300 times over.  A window wider than ``pi/6`` (``sqrt(D) / R >
1/2``) counts as the whole half-period.

Float error, fixed states.  ``joint_probabilities`` multiplies float
kets (8e relative) into C and sums four terms, so an amplitude lies
within ``21e ||C||`` and a probability within 44e of its value at the
float angles; ``fl(pi/2)`` and ``fl(pi/4)`` move ``E`` by less than 1e.
Each table sum of two probabilities is then within 63e, and the five
operations give ``|S_float - S*| <= 285e = 3.2e-14``, ``*`` marking the
exact tables at the float angles.  By the affine split, ``|S* - (1 - 2
min p)| <= 1.5 |N - 1|``, where ``PureTwoPhotonState`` allows ``|N - 1|``
up to 2e-12: a fixed state's slack is ``_SLACK + 2 |N - 1|``.  x and y
lie within 10.1e of their values, so ``|x|^2 - |y|^2`` and ``2 Re xy*``
lie within 32e, R^2 within 46e, p_min within 72e and phi within ``23e /
R^2`` plus 3e-15.  ``_ROOT_ERROR = 1e-14`` (90e) covers these: a row's
windows take ``p_min - _ROOT_ERROR`` and ``R^2 - _ROOT_ERROR``, and its
margin adds ``_ROOT_ERROR / (R^2 - _ROOT_ERROR)``, which grows where a
complex C's two extremes nearly meet and phi is ill-conditioned; a row
with ``R^2 <= _ROOT_ERROR`` is evaluated in full.
"""

from __future__ import annotations

import math

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
# The slack of the window depth D, the angular margin of a window, and the
# error bound of a fixed state's R^2 and p_min (module docstring).
_SLACK = 1e-13
_ANGLE_MARGIN = 1e-12
_ROOT_ERROR = 1e-14
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
    """x, y and z of :func:`_blocks` at entries ``idx[:, i]`` of the column tables for the rows ``block``, in place.

    Rows run along the last axis, so each alpha table broadcasts along
    it; the diagonal family's ``k1`` is its ``k0``: one gather serves both.
    """
    r0, r1, r2, r3 = (r[block] for r in rows)
    k0, k1, k2, k3 = cols
    np.take(k0, idx, out=z, mode="clip")
    np.subtract(r0, z, out=x)
    np.abs(x, out=x)
    if k1 is not k0:
        np.take(k1, idx, out=z, mode="clip")
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


def _fold(phase: np.ndarray) -> np.ndarray:
    """``np.remainder(phase, pi)`` of ``phase`` in [-pi, pi], bit for bit, in place: -pi + pi and -0 + 0 are +0."""
    phase[phase == math.pi] = 0.0
    np.add(phase, math.pi, out=phase, where=phase < 0.0)
    phase += 0.0
    return phase


def _root(x: np.ndarray, y: np.ndarray, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Radius R and phase phi mod pi of the points ``(x, y)``: ``R^2 sin^2(b - phi)`` is 0 at phi.

    ``out`` may name buffers for R and phi; phi's may be y's.
    """
    return np.hypot(x, y, out=out[0]), _fold(np.arctan2(y, x, out=out[1]))


class _RidgeScanner:
    """A family's tables and its beta columns in phase order, walked by :meth:`_walk` (module docstring).

    Thread-safe: workers may walk disjoint slices against the shared
    read-only tables, each with its own buffers.
    """

    def __init__(self, rows, cols, betas: np.ndarray, slack: float):
        self._rows, self._cols, self._slack = rows, cols, slack
        # Columns in phase order, padded by _SIDE on each side with their
        # images one period away (repeating when the axis is shorter).
        betas = np.ascontiguousarray(betas, dtype=np.float64).reshape(-1)
        phase = np.remainder(betas, math.pi)
        order = np.argsort(phase, kind="stable")
        wrap, pos = np.divmod(np.arange(-_SIDE, betas.size + _SIDE), betas.size)
        self._phase = phase[order][pos] + math.pi * wrap
        self._sorted_phase = self._phase[_SIDE:_SIDE + betas.size]
        self._phase_col = order[pos]
        # The beta tables in that order, so that stencils gather by
        # position; a table that serves twice is taken once.
        taken: dict = {}
        self._stencil_cols = tuple(taken.setdefault(id(k), k[self._phase_col]) for k in cols)
        self._margin = _ANGLE_MARGIN * float(np.max(np.abs(betas), initial=1.0))

    def _chunks(self, rows: slice = slice(None)):
        """Yield as few equal chunks of the alpha rows ``rows`` as hold at most ``_CHUNK_CANDIDATES`` candidates each.

        A paper axis of 3142 rows is one chunk.  :meth:`_walk` forms a
        chunk's roots for a batch of slices at a time, in long numpy calls
        that run while other workers hold the interpreter.
        """
        start, stop, _ = rows.indices(self._rows[0].size)
        chunks = max(1, -(-(stop - start) // max(1, _CHUNK_CANDIDATES // _WIDTH)))
        height = max(1, -(-(stop - start) // chunks))
        for first in range(start, stop, height):
            yield slice(first, min(stop, first + height))

    def _reach(self, phase: np.ndarray, p: np.ndarray, m: int, out=(None, None)) -> np.ndarray:
        """Per root, the angular distance to its m-th column on the nearer side (m = 1: the nearest column).

        ``p`` holds the roots' phase-order positions (``searchsorted``);
        ``out`` may name two buffers of their shape, the first for the result.
        """
        left = np.take(self._phase[_SIDE - m:], p, out=out[0], mode="clip")
        np.subtract(phase, left, out=left)
        right = np.take(self._phase[_SIDE - 1 + m:], p, out=out[1], mode="clip")
        np.subtract(right, phase, out=right)
        return np.minimum(left, right, out=left)

    @staticmethod
    def _windows(radii, depth, tolerance, out=None) -> np.ndarray:
        """Half-widths ``arcsin(sqrt(depth) / R)`` plus ``tolerance`` of the windows around roots of radius R.

        R = 0 divides by zero and a subnormal R overflows: the scans ignore those errors.
        """
        ratio = np.divide(np.sqrt(np.maximum(depth, 0.0)), radii, out=out)
        wide = ratio > 0.5
        half = np.arcsin(np.minimum(ratio, 0.5, out=ratio), out=ratio)
        half[wide] = math.pi / 2.0
        half += tolerance
        return half

    def _full_rows(self, block: slice, pending, u, w):
        """Yield ``(k, rows, S block)`` for the rows of ``block`` that slice k left uncertified.

        ``pending`` holds ``(k, mask)`` pairs, ``mask`` over the rows of ``block`` or None
        for all.  Each block's tables serve every k that needs them; rows outside k's mask
        read -inf, so they neither win nor count.
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

    def _walk(self, rows: slice, u, w, threshold: float, limit: int, hopeful: bool, roots, per_row: bool):
        """Maxima, first argmax keys, threshold counts and first hits of the weights ``(u[k], w[k])`` over the alpha rows ``rows``.

        A slice is one k, or with ``per_row`` one alpha row (k is then 0);
        keys are ``i * nb + j``, and each slice's key is that of its first
        maximum in row-major order.  Per chunk and batch ``ks`` of k,
        ``roots(ks, block, out)`` gives ``(R, phase, floor, tolerance)`` of
        each row's two roots: R and phase ``(2, len(ks), rows)`` arrays that
        may use the ``(4, 2, len(ks), rows)`` buffer ``out``, floor and
        tolerance broadcasting to them.  Without ``per_row``, a seed row per
        k sets a level and only the rows whose windows hold a column are
        evaluated.  A row is certified when its stencils reach past windows
        of depth ``(1 - L + slack) / 2 - floor``; with ``hopeful`` false no
        stencil is evaluated.  Returns ``(maxima, keys, counts, hits)``, the
        hits ``(k, key, S)`` arrays of the first ``limit`` in (k, key) order.

        Hits arrive in no global order: a chunk's full rows follow its
        stencils, and a slice's stencil hits may follow a later slice's.  A
        listing call's hits share one k and rise in key, so it holds at most
        its first ``limit``.  Past ``2 limit`` held hits one sort on (k, key)
        keeps the first ``limit``, and the last of them becomes ``cut``: no
        hit after it can rank, so a later call whose first ``(k, key)`` lies
        past ``cut`` lists nothing.
        """
        u, w = np.asarray(u, dtype=np.float64), np.asarray(w, dtype=np.float64)
        nc, na, nb = u.size, self._rows[0].size, self._cols[0].size
        start, stop, _ = rows.indices(na)
        max_s = np.full(stop - start if per_row else nc, -np.inf)
        key = np.zeros(max_s.size, dtype=np.int64)
        n_over = np.zeros(nc, dtype=np.int64)
        # Parts (k, keys i * nb + j, values) of the hits that may still rank among
        # the first `limit`, and `cut`: (k, key) past which none can.  Before any
        # trim every hit ranks before `cut`; with no room, none does.
        parts: list[tuple] = []
        n_held, cut = 0, (nc if limit else -1, 0)

        def hold(k, keys, vals):
            # The hits `keys`, ascending, of slice k: only the first `limit` may rank.
            nonlocal n_held, cut
            keys, vals = keys[:limit], vals[:limit]
            parts.append((np.full(keys.size, k), keys, vals))
            n_held += keys.size
            if n_held > 2 * limit:
                parts[:] = [_first(parts, limit)]
                n_held = limit
                cut = (int(parts[0][0][-1]), int(parts[0][1][-1]))

        def merge(slices, tops, keys):
            # Each of the distinct `slices` keeps the larger maximum; ties go to the smaller key.
            now = max_s[slices]
            win = (tops > now) | ((tops == now) & (keys < key[slices]))
            max_s[slices[win]], key[slices[win]] = tops[win], keys[win]

        def offer(slices, at, vals, idx):
            # The stencils `vals` at positions `idx` of pairs sorted by slice and row: a
            # slice's first maximum lies in the first of its rows that reaches the
            # slice's top, at the smallest column there.
            tops = vals.max(axis=0)
            starts = np.flatnonzero(np.diff(slices, prepend=-1))
            reach = np.repeat(np.maximum.reduceat(tops, starts), np.diff(starts, append=tops.size))
            attained = np.flatnonzero(tops == reach)
            first = attained[np.searchsorted(attained, starts)]
            best = tops[first]
            cols = np.where(vals[:, first] == best, self._phase_col[idx[:, first]], nb).min(axis=0)
            merge(slices[first], best, at[first] * nb + cols)
            return tops

        def count(k, keys, vals):
            # Count and hold the hits `keys` of slice k, each once (short axes repeat columns in a stencil).
            keys, first = np.unique(keys, return_index=True)
            if (k, int(keys[0])) < cut:
                hold(k, keys, vals[first])
            n_over[k] += keys.size

        blocks = list(self._chunks(rows))
        height = max((b.stop - b.start for b in blocks), default=0)
        # One budget per walk: a chunk's stencil buffers, 4 _WIDTH values per row;
        # on short axes, one value per row a chunk may hold; at least one slice's
        # pass.  A pass of `batch` slices takes 10 values per slice and row: R,
        # phase and their positions, which it keeps, and two (2, slices, rows)
        # arrays for its live test; each seed's stencil takes 4 _WIDTH.  Stencil
        # calls then fill the store past R and phase.
        budget = max(4 * _WIDTH * height, _CHUNK_CANDIDATES // _WIDTH, 10 * height + 4 * _WIDTH)
        batch = max(1, min(nc, budget // (10 * height + 4 * _WIDTH)))
        cap = (budget - 6 * batch * height) // (4 * _WIDTH)
        # The positions are searchsorted's own array, the rest of the budget.
        store = np.empty(budget - 2 * batch * height) if hopeful else None

        for block in blocks:
            n = block.stop - block.start
            at_block = np.arange(block.start, block.stop)
            pending = [] if hopeful else [(k, None) for k in range(nc)]
            for lo in range(0, nc, batch) if hopeful else ():
                ks = np.arange(lo, min(nc, lo + batch))
                out = store[:8 * ks.size * n].reshape(4, 2, ks.size, n)
                radii, phase, floor, tolerance = roots(ks, block, out)
                p = np.searchsorted(self._sorted_phase, phase, side="right")

                def stencil(sel, rows, at, region):
                    # The (_WIDTH, pairs) stencils of the pairs `sel` = (batch index, row
                    # offset) on the alpha rows `rows` (numbered `at`), root-major, in
                    # `region`; returns (idx, S, y), y free for the caller.
                    idx, x, y, z = region[:4 * _WIDTH * at.size].reshape(4, _WIDTH, at.size)
                    idx = idx.view(np.int64)
                    np.add(p[(slice(None),) + sel][:, None, :], np.arange(2 * _SIDE)[:, None],
                           out=idx.reshape(2, 2 * _SIDE, at.size))
                    _gather(self._rows, self._stencil_cols, rows, idx, x, y, z)
                    return idx, _evaluate(x, y, z, u[ks[sel[0]]], w[ks[sel[0]]], x, z), y

                if per_row:
                    whole, live, seeded = [0], np.zeros((1, n), dtype=bool), np.full(1, -np.inf)
                else:
                    near = self._reach(phase, p, 1, out[2:])
                    # Each k's seed row, whose nearest column lies deepest in a
                    # sinusoid (R near is about sqrt(p) there), sets a level its
                    # top point reaches or passes.  Its stencils take the store's
                    # end, clear of near and the scratch array.
                    dip = np.multiply(radii, near, out=out[3])
                    seeds = np.minimum(*dip, out=dip[0]).argmin(axis=1)
                    top = stencil((np.arange(ks.size), seeds), block.start + seeds, block.start + seeds,
                                  store[-4 * _WIDTH * ks.size:])[1].max(axis=0)
                    seeded = np.maximum(max_s[ks], top)
                    level = np.minimum(seeded, threshold)
                    half = self._windows(radii, (1.0 - level[:, None] + self._slack) / 2.0 - floor, tolerance,
                                         out[3])
                    # Rows whose windows hold no column are below the level throughout.
                    live = ~(half < near).all(axis=0)
                    whole = np.flatnonzero(live.all(axis=1)).tolist()
                    live[whole] = False
                # Calls (sel, rows, at) of at most `cap` pairs: runs of a slice's rows
                # where all are live, then the other live pairs.
                b_live, i_live = np.nonzero(live)
                calls = [((b, slice(r, r + cap)), slice(block.start + r, block.start + min(n, r + cap)),
                          at_block[r:r + cap]) for b in whole for r in range(0, n, cap)]
                calls += [((b_live[r:r + cap], i_live[r:r + cap]),) + (block.start + i_live[r:r + cap],) * 2
                          for r in range(0, b_live.size, cap)]
                full = np.zeros((ks.size, n), dtype=bool)
                for sel, rows_sel, at in calls:
                    sub = (slice(None),) + sel
                    idx, vals, free = stencil(sel, rows_sel, at, store[4 * batch * height:])
                    # A slice per pair: its k, or with per_row its row.
                    k_at = np.full(at.shape, ks[sel[0]])
                    slices = at - start if per_row else k_at
                    tops = offer(slices, at, vals, idx)
                    level = np.minimum(np.maximum(max_s[slices], seeded[sel[0]]), threshold)
                    half = self._windows(radii[sub], (1.0 - level + self._slack) / 2.0 - _at(floor, sub),
                                         _at(tolerance, sub), free[4:6])
                    covers = self._reach(phase[sub], p[sub], _SIDE, (free[:2], free[2:4]))
                    sure = (half < covers).all(axis=0)
                    if tops.max() > threshold:
                        # Only certified rows count here: the others are evaluated in full.
                        # Taken pair by pair, each slice's hits form one run.
                        i_idx, m_idx = np.nonzero(((vals > threshold) & sure).T)
                        keys = at[i_idx] * nb + self._phase_col[idx[m_idx, i_idx]]
                        hit_k, hit_s = k_at[i_idx], vals[m_idx, i_idx]
                        runs = np.flatnonzero(np.diff(hit_k, prepend=-1)).tolist() + [hit_k.size]
                        for a, b in zip(runs, runs[1:]):
                            count(int(hit_k[a]), keys[a:b], hit_s[a:b])
                    full[sel] = ~sure
                for b in np.flatnonzero(full.any(axis=1)).tolist():
                    pending.append((int(ks[b]), None if full[b].all() else full[b]))
            for k, rows_k, s in self._full_rows(block, pending, u, w):
                if per_row:
                    cols = np.argmax(s, axis=1)
                    tops = s[np.arange(cols.size), cols]
                    merge(rows_k - start, tops, rows_k * nb + cols)
                    top = tops.max()
                else:
                    # One candidate per k and block, compared as scalars: through `merge`
                    # it cost the all-rows-in-full scan about a quarter more time.
                    i, j = divmod(int(np.argmax(s)), nb)
                    top, at_key = s[i, j], int(rows_k[i]) * nb + j
                    if top > max_s[k] or (top == max_s[k] and at_key < key[k]):
                        max_s[k], key[k] = top, at_key
                if top > threshold:
                    over = s > threshold
                    n_over[k] += int(np.count_nonzero(over))
                    if (k, int(rows_k[0]) * nb) < cut:
                        # Row-major, so the block's hits rise in key: its first `limit` may rank.
                        flat = np.flatnonzero(over)[:limit]
                        hold(k, rows_k[flat // nb] * nb + flat % nb, s.ravel()[flat])
        return max_s, key, n_over, _first(parts, limit)


def _at(values, sub):
    """``values[sub]``, or ``values`` itself when it is a scalar."""
    return values[sub] if np.ndim(values) else values


class DiagonalScanner(_RidgeScanner):
    """Reusable scanner over a fixed (alpha, beta) grid for the diagonal family.

    Construction precomputes the 1-D trigonometric tables and the beta
    columns sorted by phase ``b mod pi``; the tables serve every ``c``.
    """

    def __init__(self, alphas: np.ndarray, betas: np.ndarray):
        ca2, sa2, s2a = _trig(alphas)
        cb2, sb2, s2b = _trig(betas)
        super().__init__((ca2, ca2, sa2, s2a), (cb2, cb2, sb2, s2b), betas, _SLACK)
        self._cos_a, self._sin_a = np.sqrt(ca2), np.copysign(np.sqrt(sa2), s2a)
        # No stencil reaches farther from its root than half its span.
        self._span = float(np.max(self._phase[2 * _SIDE - 1:] - self._phase[:1 - 2 * _SIDE])) / 2.0

    @staticmethod
    def weights(cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(u, w) = (|1 - 2c^2|, c sqrt(1 - c^2))`` for a weight axis."""
        cs = np.asarray(cs, dtype=np.float64)
        return np.abs(1.0 - 2.0 * cs * cs), cs * np.sqrt(1.0 - cs * cs)

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

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # R near 0 in _windows
    def scan(
        self, cs: np.ndarray, threshold: float, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Per-``c`` grid maxima, first argmax indices, threshold counts, and the first hits.

        ``cs`` holds the weights ``0 <= c <= 1``.  The hits are ``(k, i,
        j, S)`` arrays of the first ``limit`` points with ``S > threshold``
        in (k, i, j) order.
        """
        cs = np.ascontiguousarray(cs, dtype=np.float64)
        # (s, c) per slice, s as in the weights w = c s.
        sc = np.stack([np.sqrt(1.0 - cs * cs), cs])

        def root(ks, block, out):
            # The roots of (s cos a, c sin a) and (c cos a, s sin a), (2, len(ks), rows) in one pass.
            x = np.multiply(sc[:, ks, None], self._cos_a[block], out=out[2])
            y = np.multiply(sc[::-1, ks, None], self._sin_a[block], out=out[1])
            return (*_root(x, y, out[:2]), 0.0, self._margin)

        max_s, key, n_over, (hit_k, keys, hit_s) = self._walk(
            slice(None), *self.weights(cs), float(threshold), limit, self._may_certify(threshold), root, False)
        nb = self._cols[0].size
        return max_s, *np.divmod(key, nb), n_over, (hit_k, *np.divmod(keys, nb), hit_s)

    def collect(self, c: float, threshold: float, limit: int) -> tuple[np.ndarray, ...]:
        """The ``(i, j, S)`` hits of :meth:`scan` for one ``c``; kept for tooling that wraps it by name."""
        return self.scan(np.array([c]), threshold, limit)[4][1:]


def _first(parts: list, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first ``limit`` hits in (k, key) order of the ``(k, key, S)`` arrays ``parts``."""
    ks, keys, vals = (np.concatenate(part) for part in zip(_NO_HITS, *parts))
    order = np.lexsort((keys, ks))[:limit]
    return ks[order], keys[order], vals[order]


class PlaneScanner(_RidgeScanner):
    """Reusable scanner over a fixed state's (alpha, beta) grid.

    Construction builds the state's eight tables once; a scan forms the
    two sinusoids of each chunk's rows.  Each alpha row is a slice of its
    own: its level is the top of its stencils, or the threshold if lower.
    """

    def __init__(self, coeffs: np.ndarray, alphas: np.ndarray, betas: np.ndarray):
        state = PureTwoPhotonState(coeffs)
        alphas, betas = (np.asarray(a, dtype=np.float64) for a in (alphas, betas))
        # Joint probabilities (++, +-, -+, --) along beta at alpha = 0, pi/2
        # and pi/4, and along alpha at beta = 0.
        at_0, at_90, at_45 = (
            joint_probabilities(state, np.full_like(betas, a), betas)
            for a in (0.0, math.pi / 2.0, math.pi / 4.0)
        )
        along_a = joint_probabilities(state, alphas, np.zeros_like(alphas))
        norm = float(np.sum(state.coeffs.real**2 + state.coeffs.imag**2))
        super().__init__(
            (along_a[0] + along_a[1], *_trig(alphas)),
            (at_0[0] + at_0[2], at_0[0] + at_0[3], at_90[0] + at_90[3], (at_45[0] + at_45[3]) - 0.5),
            betas, _SLACK + 2.0 * abs(norm - 1.0))
        self._alphas, self._coeffs = alphas, state.coeffs

    def _roots(self, block: slice) -> np.ndarray:
        """``(R, phase, floor, tolerance)`` of p_+- and p_-+ as ``|x sin b - y cos b|^2`` on the alpha rows ``block``."""
        cos_a, sin_a = np.cos(self._alphas[block]), np.sin(self._alphas[block])
        (c00, c01), (c10, c11) = self._coeffs
        x = np.stack([cos_a * c00 + sin_a * c10, cos_a * c11 - sin_a * c01])
        y = np.stack([cos_a * c01 + sin_a * c11, sin_a * c00 - cos_a * c10])
        xx, yy, xy = x.real**2 + x.imag**2, y.real**2 + y.imag**2, x * y.conj()
        r2 = np.hypot(xx - yy, 2.0 * xy.real)
        return np.stack([
            np.sqrt(r2 - _ROOT_ERROR),
            _fold(np.arctan2(2.0 * xy.real, xx - yy) / 2.0),
            2.0 * xy.imag**2 / ((xx + yy) + r2) - _ROOT_ERROR,  # x = y = 0: nan, never certified
            self._margin + _ROOT_ERROR / (r2 - _ROOT_ERROR),
        ])

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # R near 0 in _windows
    def scan(
        self, rows: slice, threshold: float, limit: int
    ) -> tuple[np.ndarray, np.ndarray, int, tuple[np.ndarray, ...]]:
        """Maxima and first attaining columns of the alpha rows ``rows``, their threshold count, and the first hits.

        The hits are ``(i, j, S)`` arrays of the first ``limit`` points
        with ``S > threshold`` in row-major order; ``i`` counts from the
        grid's first row.
        """
        nb = self._cols[0].size
        # A beta axis no wider than a row's stencils is cheaper to walk dense.
        row_max, key, n_over, (_, keys, vals) = self._walk(
            rows, (1.0,), (1.0,), float(threshold), limit, nb > _WIDTH,
            lambda ks, block, out: self._roots(block)[:, :, None], True)
        return row_max, key % nb, int(n_over[0]), (*np.divmod(keys, nb), vals)
