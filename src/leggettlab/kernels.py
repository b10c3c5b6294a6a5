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
points over the threshold where they count them, keeping the first
``limit``: memory is O(``limit`` + chunk + axes) at any threshold.
A chunk's stencils are laid out root-major, ``(2 roots, 2 _SIDE
columns, rows)``: each stencil column is one contiguous run over the
rows, along which every alpha table broadcasts.
With L within about 1e-13 of 1, a window is some 3e-7 / R rad wide.  At
``L = 1 - t`` it is about ``sqrt(t / 2) / R``, which passes the stencil
once ``t > 2 (_SIDE h R)^2`` (1.8e-5 R^2 at step h = 1e-3): at lower
thresholds most rows are evaluated in full, at about the dense engine's
cost (a diagonal scan whose threshold rules out every row skips its
stencils).  A fixed state's row whose maximum lies far below 1 has L at
its top, and a window about as wide as the top's distance from its root.

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
    phase += (phase < 0.0) * math.pi
    return phase


def _root(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius R and phase phi mod pi of the points ``(x, y)``: ``R^2 sin^2(b - phi)`` is 0 at phi."""
    return np.hypot(x, y), _fold(np.arctan2(y, x))


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
        """Yield ``(block, buffers)`` for as few equal chunks of the alpha rows ``rows`` as hold at most ``_CHUNK_CANDIDATES`` candidates each.

        ``buffers = (idx, x, y, z)`` are ``(_WIDTH, rows)`` views of one
        allocation of at most 1.5 MB that every chunk shares.  A paper axis
        of 3142 rows is one chunk, so each ``c`` makes one pass of long
        numpy calls, which run while other workers hold the interpreter.
        """
        start, stop, _ = rows.indices(self._rows[0].size)
        chunks = max(1, -(-(stop - start) // max(1, _CHUNK_CANDIDATES // _WIDTH)))
        height = max(1, -(-(stop - start) // chunks))
        store = np.empty((4, _WIDTH * height))
        for first in range(start, stop, height):
            block = slice(first, min(stop, first + height))
            idx, x, y, z = store[:, :_WIDTH * (block.stop - first)].reshape(4, _WIDTH, -1)
            yield block, (idx.view(np.int64), x, y, z)

    def _stencil(self, block: slice, phase: np.ndarray, u_k: float, w_k: float, buffers):
        """``(idx, S, covers)`` of the stencils around the ``(2, n)`` root phases of the alpha rows ``block``.

        Root-major, ``(_WIDTH, n)``: ``idx[m, i]`` is the phase-order
        position (``_phase_col[idx[m, i]]``) of stencil column m of row
        ``block.start + i``, m < ``2 _SIDE`` around its first root, and
        ``S[m, i]`` its value.  ``covers`` holds per root and row the
        angular distance to the farthest stencil column on the nearer side.
        """
        n = block.stop - block.start
        p = np.searchsorted(self._sorted_phase, phase, side="right")
        covers = self._phase[p]
        np.subtract(phase, covers, out=covers)
        far = self._phase[p + (2 * _SIDE - 1)]
        np.subtract(far, phase, out=far)
        np.minimum(covers, far, out=covers)
        idx, x, y, z = buffers
        np.add(p[:, None, :], np.arange(2 * _SIDE)[:, None], out=idx.reshape(2, 2 * _SIDE, n))
        _gather(self._rows, self._stencil_cols, block, idx, x, y, z)
        return idx, _evaluate(x, y, z, u_k, w_k, x, z), covers

    @staticmethod
    def _certified(radii, covers, depth, tolerance) -> np.ndarray:
        """Rows whose stencils reach past both windows ``arcsin(sqrt(depth) / R)`` plus ``tolerance``.

        R = 0 divides by zero and a subnormal R overflows: the scans ignore those errors.
        """
        ratio = np.sqrt(np.maximum(depth, 0.0)) / radii
        half = np.arcsin(np.minimum(ratio, 0.5))
        half[ratio > 0.5] = math.pi / 2.0
        half += tolerance
        return (half < covers).all(axis=0)

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

    def _walk(self, rows: slice, u, w, threshold: float, limit: int, hopeful: bool, roots, offer):
        """Per-k threshold counts and first hits of the weights ``(u[k], w[k])`` over the alpha rows ``rows``.

        Per chunk and k, ``roots(k, block)`` gives ``(R, phase, floor, tolerance)`` of each
        row's two roots; ``offer(k, at, S, idx)`` records the maxima of rows ``at``, S
        either ``(rows, nb)`` with idx None or a ``(_WIDTH, rows)`` stencil at positions
        ``idx``, and returns their level L and whether any S is over the threshold.  A row
        is certified when its stencils reach past windows of depth ``(1 - L + slack) / 2 -
        floor``; with ``hopeful`` false no stencil is evaluated.  The first ``limit`` hits
        come as ``(k, keys i * nb + j, S)`` arrays in (k, key) order.
        """
        nc, nb = len(u), self._cols[0].size
        n_over = np.zeros(nc, dtype=np.int64)
        # Per slice, parts of (keys i * nb + j, values), each sorted by key,
        # of the hits that may still rank among the first `limit`.
        held: list[list] = [[] for _ in range(nc)]
        n_held, spent = 0, nc

        def room(k):
            # How many of the hits slice k has just counted may still rank among
            # the first `limit`, after every counted hit of an earlier slice.
            # It only shrinks and is at most an earlier slice's room, so once it
            # is spent no later slice lists a hit.
            nonlocal spent
            if k >= spent:
                return 0
            left = limit - int(n_over[:k].sum()) - int(ahead[k])
            if left <= 0:
                spent = k
            return left

        def hold(k, keys, vals):
            nonlocal n_held
            held[k].append((keys, vals))
            n_held += keys.size
            if n_held > 2 * limit:
                n_held = _keep_first(held, limit)

        for block, buffers in self._chunks(rows):
            at = np.arange(block.start, block.stop)
            # Hits of each slice known to rank before its next full-row hits.
            ahead = n_over.copy()
            pending = [] if hopeful else [(k, None) for k in range(nc)]
            for k in range(nc) if hopeful else ():
                radii, phase, floor, tolerance = roots(k, block)
                idx, vals, covers = self._stencil(block, phase, u[k], w[k], buffers)
                level, over = offer(k, at, vals, idx)
                sure = self._certified(radii, covers, (1.0 - level + self._slack) / 2.0 - floor, tolerance)
                if over:
                    # Only certified rows count here: the others are evaluated in full.
                    m_idx, i_idx = np.nonzero((vals > threshold) & sure)
                    cols = self._phase_col[idx[m_idx, i_idx]]
                    keys, first = np.unique((block.start + i_idx) * nb + cols, return_index=True)
                    left = room(k)
                    if left > 0:
                        hold(k, keys[:left], vals[m_idx, i_idx][first][:left])
                    n_over[k] += keys.size
                if not sure.all():
                    pending.append((k, ~sure if sure.any() else None))
            for k, rows_k, s in self._full_rows(block, pending, u, w):
                if offer(k, rows_k, s, None)[1]:
                    over = s > threshold
                    found = int(np.count_nonzero(over))
                    left = room(k)
                    if left > 0:
                        # Each kept hit has fewer than `left` of these before it.
                        flat = np.flatnonzero(over)[:left]
                        hold(k, rows_k[flat // nb] * nb + flat % nb, s.ravel()[flat])
                    n_over[k] += found
                    ahead[k] += found
        _keep_first(held, limit)
        kept = [(np.full(keys.size, k), keys, vals) for k, parts in enumerate(held) for keys, vals in parts]
        return n_over, tuple(np.concatenate(part) for part in zip(_NO_HITS, *kept))


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

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # R near 0 in _certified
    def scan(
        self, cs: np.ndarray, threshold: float, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Per-``c`` grid maxima, first argmax indices, threshold counts, and the first hits.

        ``cs`` holds the weights ``0 <= c <= 1``.  The hits are ``(k, i,
        j, S)`` arrays of the first ``limit`` points with ``S > threshold``
        in (k, i, j) order.
        """
        cs = np.ascontiguousarray(cs, dtype=np.float64)
        threshold = float(threshold)
        nb = self._cols[0].size
        max_s, key = [-math.inf] * cs.size, [0] * cs.size
        # (s, c) per slice, s as in the weights w = c s.
        roots = np.stack([np.sqrt(1.0 - cs * cs), cs], axis=1)

        def root(k, block):
            # The roots of (s cos a, c sin a) and (c cos a, s sin a) in one (2, n) pass.
            radii, phase = _root(np.multiply.outer(roots[k], self._cos_a[block]),
                                 np.multiply.outer(roots[k][::-1], self._sin_a[block]))
            return radii, phase, 0.0, self._margin

        def offer(k, at, s, idx):
            # The first maximum in row-major order: its first row, and its
            # smallest column there; ties go to the smaller key.
            if idx is None:
                i, j = divmod(int(np.argmax(s)), s.shape[1])
                top = float(s[i, j])
            else:
                tops = s.max(axis=0)
                i = int(np.argmax(tops))
                top = float(tops[i])
                j = int(self._phase_col[idx[:, i][s[:, i] == top]].min())
            at_key = int(at[i]) * nb + j
            if top > max_s[k] or (top == max_s[k] and at_key < key[k]):
                max_s[k], key[k] = top, at_key
            return min(max_s[k], threshold), top > threshold

        n_over, (hit_k, keys, hit_s) = self._walk(slice(None), *self.weights(cs), threshold, limit,
                                                  self._may_certify(threshold), root, offer)
        hit_i, hit_j = np.divmod(keys, nb)
        arg_i, arg_j = np.divmod(np.array(key, dtype=np.int64), nb)
        return np.array(max_s), arg_i, arg_j, n_over, (hit_k, hit_i, hit_j, hit_s)

    def collect(self, c: float, threshold: float, limit: int) -> tuple[np.ndarray, ...]:
        """The ``(i, j, S)`` hits of :meth:`scan` for one ``c``; kept for tooling that wraps it by name."""
        return self.scan(np.array([c]), threshold, limit)[4][1:]


def _keep_first(held: list, limit: int) -> int:
    """Keep the first ``limit`` hits of per-slice ``(keys, values)`` lists, in place; return how many.

    Each part is sorted by key; a slice's parts are merged into one.  A hit is dropped
    only when ``limit`` found hits rank before it, so later finds never bring it back.
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

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # R near 0 in _certified
    def scan(
        self, rows: slice, threshold: float, limit: int
    ) -> tuple[np.ndarray, np.ndarray, int, tuple[np.ndarray, ...]]:
        """Maxima and first attaining columns of the alpha rows ``rows``, their threshold count, and the first hits.

        The hits are ``(i, j, S)`` arrays of the first ``limit`` points
        with ``S > threshold`` in row-major order; ``i`` counts from the
        grid's first row.
        """
        start, stop, _ = rows.indices(self._rows[0].size)
        threshold = float(threshold)
        nb = self._cols[0].size
        row_max, row_arg = np.empty(stop - start), np.zeros(stop - start, dtype=np.int64)

        def offer(k, at, s, idx):
            if idx is None:
                j = np.argmax(s, axis=1)
                top = s[np.arange(j.size), j]
            else:
                top = s.max(axis=0)
                j = np.where(s == top, self._phase_col[idx], nb).min(axis=0)
            row_max[at - start], row_arg[at - start] = top, j
            return np.minimum(top, threshold), top.max() > threshold

        # A beta axis no wider than a row's stencils is cheaper to walk dense.
        n_over, (_, keys, vals) = self._walk(slice(start, stop), (1.0,), (1.0,), threshold, limit, nb > _WIDTH,
                                             lambda k, block: self._roots(block), offer)
        return row_max, row_arg, int(n_over[0]), (*np.divmod(keys, nb), vals)
