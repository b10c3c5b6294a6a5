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
state (the report lists each row's maximum).  With M the largest S evaluated
so far in the slice, ``L = min(M, threshold)`` and ``D = (1 - L + slack) /
2``, a point with ``S_float >= L`` has ``p <= D`` for one of its sinusoids:
its beta lies within ``arcsin(sqrt((D - p_min) / R^2))`` of ``phi + k pi``
(nowhere when ``D < p_min``), the root's window.  Every other point has
``S_float < L``: below the maximum, so the first maximum in row-major order
lies in the windows, and not over the threshold.  Columns are sorted once by
``b mod pi``, the order padded circularly.  A scanner evaluates ``_SIDE``
columns on each side of each root with the block engine's tables and
operation order, and certifies a row when both stencils reach past their
windows plus a margin.  Other rows are evaluated on their two windows at that
L, each column once, in tiles of ``_TILE``; a window of ``pi/2`` or more (R
near 0, a low L) takes the whole row from the block engine, as do all rows
when every window at the threshold spans the half-period (a threshold below
1/2) or the beta axis is no wider than the stencils.  Stencils and tiles are
laid out ``(columns, pairs)``.  Scans list the points over the threshold
where they count them, in one flat list that one sort on (slice, key) trims
to its first ``limit`` whenever it passes ``2 limit``: memory is O(``limit``
+ chunk + axes) at any threshold, plus three arrays of O(slices).

Most rows of a diagonal slice need no stencil at all.  Per ``c`` the
scanner first evaluates one seed row, the row whose nearest column lies
deepest in a sinusoid (smallest ``dip = R^2 max(near - margin, 0)^2``,
``near`` the angular distance from a root to its nearest column on either
side), and takes ``L = min(max(M, top), threshold)`` with ``top`` the
seed's stencil maximum.  A row whose windows at that L hold no column at
either root has ``S_float < L`` at every point: it is the cover test with a
stencil of no columns, so the same float-error bound holds with ``near`` in
place of the distance to the farthest stencil column.  Such a row holds
neither the first maximum nor a hit, and none of its points is evaluated;
the seed row itself either reaches L or is such a row.  A screen finds
these rows with no arcsin (:meth:`DiagonalScanner._dead`).  The other
(live) rows of a batch of ``c`` are gathered as (slice, row) pairs, offered
slice by slice, and certified as above at the level they raise, never below
the seed's.  On the paper grid about 7 of 3142 rows per ``c`` are live.
Fixed states skip no row: each row is a slice, and a live pair, of its own.
With L within about 1e-13 of 1, a window is some 3e-7 / R rad wide.  At
``L = 1 - t`` it is about ``sqrt(t / 2) / R``, which passes the stencil
once ``t > 2 (_SIDE h R)^2`` (1.8e-5 R^2 at step h = 1e-3); a row then
costs its windows, about ``2 sqrt(2 t) / (R h)`` columns, so a scan slows
as its windows widen.  A fixed state's row whose maximum lies far below 1 has L at
its top, and a window about as wide as the top's distance from its root.

Float error, diagonal family.  With unit roundoff e = 2^-53 and numpy's
float64 sin, cos and tan within 4 ulp (8e relative), the tables carry relative
errors of at most 18e (squares) and 8e (``sin 2t``), and for ``0 <= u <=
1``, ``|w| <= 1`` the five operations give ``|S_float - S*| <= 99e``,
``*`` marking exact values at the float angles and weights.  With the
float c, the s of ``w = fl(c s)``, ``N = c^2 + s^2``, ``X =
|cos^2 a - cos^2 b|``, ``Y = cos^2 a cos^2 b + sin^2 a sin^2 b`` and ``Z =
sin 2a sin 2b``:

    S* - (1 - 2 min p) = (u - |s^2 - c^2|) X + (N - 1)(1 - Y) + (w - c s) Z,

with ``|N - 1| < 4e``, ``|u - |s^2 - c^2|| < 8e`` and ``|w - c s| < e``,
so ``|S_float - (1 - 2 min p)| < 112e = 1.25e-14``: the slack is
``_SLACK = 1e-13``.  Phases (``arctan2``, 4 ulp, of ``c T`` or ``s T``
against s or c, T = tan a) are within 3e-15, and near within 1e-15 more
plus ``4e-17 |beta|``; R^2 is within 20e, which moves a window of
``arcsin(x)``, ``x <= 1/2``, by under 10e for ``R >= 2 sqrt(D) >= 4e-7``,
the only rows that can be certified.  ``_ANGLE_MARGIN * max(1, max
|beta|)`` covers them 200 times over.  A window wider than ``pi/6``
counts as the whole half-period.  The screen's factor ``1 + 1e-14``
covers its own rounding and that of :meth:`_windows` (under 40e).

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
# Columns per tile of an uncertified row's windows.
_TILE = 8
# Stencil candidates per chunk of whole alpha rows, 4096 rows of _WIDTH.
_CHUNK_CANDIDATES = 48 * 1024
# Slices per pass of a ridge walk, 4 store values per row each: 12 were faster
# but raised the census scan's peak RSS by 0.5 MB over 8.
_PASS = 8
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


def _gather(rows, cols, at: np.ndarray, idx: np.ndarray, x, y, z) -> None:
    """x, y and z of :func:`_blocks` at entries ``idx[:, i]`` of the column tables for the alpha rows ``at[i]``, in place.

    Rows arrive as an index array and run along the last axis, so each
    alpha table broadcasts along it; the diagonal family's ``k1`` is its
    ``k0``: one gather serves both.
    """
    r0, r1, r2, r3 = (r[at] for r in rows)
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


class _RidgeScanner:
    """A family's tables and its beta columns in phase order, walked by :meth:`_walk` (module docstring).

    Thread-safe: workers may walk disjoint slices against the shared
    read-only tables, each with its own buffers.
    """

    def __init__(self, rows, cols, betas: np.ndarray, slack: float):
        self._rows, self._cols, self._slack = rows, cols, slack
        # Columns in phase order, padded by _SIDE on the left and _SIDE + _TILE on
        # the right with their images one period away (repeating when the axis is shorter).
        betas = np.ascontiguousarray(betas, dtype=np.float64).reshape(-1)
        phase = np.remainder(betas, math.pi)
        order = np.argsort(phase, kind="stable")
        wrap, pos = np.divmod(np.arange(-_SIDE, betas.size + _SIDE + _TILE), betas.size)
        self._phase = phase[order][pos] + math.pi * wrap
        self._sorted_phase = self._phase[_SIDE:_SIDE + betas.size]
        self._phase_col = order[pos]
        # The beta tables in that order, so that stencils gather by
        # position; a table that serves twice is taken once.
        taken: dict = {}
        self._stencil_cols = tuple(taken.setdefault(id(k), k[self._phase_col]) for k in cols)
        self._margin = _ANGLE_MARGIN * float(np.max(np.abs(betas), initial=1.0))
        # The first position of each of `buckets` equal buckets of [0, pi], at most
        # 1 MB: a phase's bucket is floor(phase * scale), the same float map for
        # columns and roots, so no column of a later bucket lies at or below it.
        buckets = min(2 * betas.size, 2**17 - 2)
        self._scale = buckets / math.pi
        self._bucket = np.searchsorted((self._sorted_phase * self._scale).astype(np.int64), np.arange(buckets + 2))
        self._steps = int(np.diff(self._bucket).max())
        self._upper = np.append(self._sorted_phase, np.inf)

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

    def _locate(self, phase: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """``np.searchsorted(sorted column phases, phase, side="right")`` for phases in [0, fl(pi)], in the int64 ``out``.

        From the first position of the phase's bucket, each step passes one
        more column at or below it; no bucket holds more than ``_steps``.
        """
        np.multiply(phase, self._scale, out=out, casting="unsafe")  # truncation, the floor of a phase >= 0
        np.take(self._bucket, out, out=out, mode="clip")
        for _ in range(self._steps):
            np.take(self._upper, out, out=scratch, mode="clip")
            out += np.less_equal(scratch, phase, out=scratch.view(np.int64))
        return out

    def _reach(self, phase: np.ndarray, p: np.ndarray, out) -> np.ndarray:
        """Per root at position ``p``, the distance to its ``_SIDE``-th column on the nearer side, in ``out[0]`` (``out[1]`` scratch)."""
        left = np.take(self._phase, p, out=out[0], mode="clip")
        np.subtract(phase, left, out=left)
        right = np.take(self._phase[2 * _SIDE - 1:], p, out=out[1], mode="clip")
        np.subtract(right, phase, out=right)
        return np.minimum(left, right, out=left)

    @staticmethod
    def _windows(r2, depth, tolerance, out=None) -> np.ndarray:
        """Half-widths ``arcsin(sqrt(depth) / R)`` plus ``tolerance`` of the windows around roots of radius ``R = sqrt(r2)``.

        R = 0 divides by zero and a subnormal R overflows: the scans ignore those errors.
        """
        ratio = np.divide(np.sqrt(np.maximum(depth, 0.0)), np.sqrt(r2, out=out), out=out)
        wide = ratio > 0.5
        half = np.arcsin(np.minimum(ratio, 0.5, out=ratio), out=ratio)
        half[wide] = math.pi / 2.0
        half += tolerance
        return half

    def _runs(self, phase: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The columns of each pair's windows ``phase +- half`` (``(2, pairs)``, ``half < pi/2``), each once, as
        ``(first, size)``, ``(2, pairs)``: two runs of positions in circular phase order, the second empty where they meet."""
        nb, lo, hi = self._sorted_phase.size, phase - half, phase + half
        below, above = lo < 0.0, hi > math.pi
        lo = self._locate(np.where(below, lo + math.pi, lo), np.empty(lo.shape, np.int64), lo) - nb * below
        hi = self._locate(np.where(above, hi - math.pi, hi), np.empty(hi.shape, np.int64), hi) + nb * above
        # Run a starts first, run b joins it where it starts within a or runs on past a's start.
        swap = lo[1] % nb < lo[0] % nb
        (sa, sb), (la, lb) = np.where(swap, lo[::-1] % nb, lo % nb), np.minimum(np.where(swap, (hi - lo)[::-1], hi - lo), nb)
        ea, eb = sa + la, sb + lb
        joined, one = sb <= ea, (sb <= ea) | (eb >= sa + nb)
        size = np.minimum(np.where(joined, np.maximum(ea, eb) - sa, np.maximum(eb, ea + nb) - sb), nb)
        return np.stack([np.where(joined | ~one, sa, sb), sb]), np.stack([np.where(one, size, la), np.where(one, 0, lb)])

    def _walk(self, rows: slice, u, w, threshold: float, limit: int, roots, screen):
        """Maxima, first argmax keys, threshold counts and first hits of the weights ``(u[k], w[k])`` over the alpha rows ``rows``.

        A slice is one k, or without a ``screen`` one alpha row (k is then 0); keys are
        ``i * nb + j``, and each slice's key is that of its first maximum in row-major
        order.  ``roots(k, at, out)`` gives ``(R^2, phase, floor, tolerance)`` of the pairs
        of weights ``k[i]`` and alpha rows ``at[i]``, R^2 and phase ``(2, pairs)`` arrays in
        the first two of the three buffers ``out``.  ``screen(ks, block, out)`` gives the
        dips (:meth:`DiagonalScanner._dips`) of a batch in ``out``; a seed row per k then
        sets a level and only live rows are evaluated.  Returns ``(maxima, keys, counts,
        hits)``, the hits ``(k, key, S)`` arrays of the first ``limit`` in (k, key) order.
        """
        u, w = np.asarray(u, dtype=np.float64), np.asarray(w, dtype=np.float64)
        nc, na, nb = u.size, self._rows[0].size, self._cols[0].size
        per_row = screen is None
        start, stop, _ = rows.indices(na)
        max_s = np.full(stop - start if per_row else nc, -np.inf)
        key = np.zeros(max_s.size, dtype=np.int64)
        n_over = np.zeros(nc, dtype=np.int64)
        # Parts (k, keys i * nb + j, values) of the hits that may still rank among
        # the first `limit`, in no global order, and `cut`: (k, key) past which none
        # can.  Before any trim every hit ranks before `cut`; with no room, none does.
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

        def offer(slices, at, tops, vals, idx):
            # The values `vals` in columns `_phase_col[idx]`, (points, pairs), of pairs sorted by slice and
            # row (a row may span pairs), their maxima `tops`: a slice's first maximum lies in the
            # first of its rows that reaches the slice's top, at the smallest column there.
            head = np.ones(tops.size, dtype=bool)
            np.not_equal(slices[1:], slices[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            reach = np.repeat(np.maximum.reduceat(tops, starts), np.append(starts[1:], tops.size) - starts)
            attained = np.flatnonzero(tops == reach)
            first = attained[np.searchsorted(attained, starts)]
            owner = np.searchsorted(starts, attained, side="right") - 1
            lead = at[attained] == at[first[owner]]
            owner, lead = owner[lead], attained[lead]
            cols = np.where(vals[:, lead] == tops[lead], self._phase_col[idx[:, lead]], nb).min(axis=0)
            cols = np.minimum.reduceat(cols, np.flatnonzero(np.append(True, owner[1:] != owner[:-1])))
            merge(slices[first], tops[first], at[first] * nb + cols)

        def tally(k_at, at, over, vals, idx):
            # Count the hits `over` (points, pairs; each column once) of pairs sorted by slice
            # and row, and hold those of pairs that may rank, each slice's in one run.
            head = np.flatnonzero(np.append(True, k_at[1:] != k_at[:-1]))
            n_over[k_at[head]] += np.add.reduceat(over.sum(axis=0, dtype=np.int32), head)
            may = np.flatnonzero((k_at < cut[0]) | ((k_at == cut[0]) & (at * nb < cut[1])))
            i_idx, m_idx = np.nonzero(over[:, may].T)
            hit_k, i_idx = k_at[may[i_idx]], may[i_idx]
            keys, hit_s = at[i_idx] * nb + self._phase_col[idx[m_idx, i_idx]], vals[m_idx, i_idx]
            runs = (np.flatnonzero(hit_k[1:] != hit_k[:-1]) + 1).tolist()
            for a, b in zip([0] + runs, runs + [hit_k.size]) if hit_k.size else ():
                rank = a + np.argsort(keys[a:b], kind="stable")
                hold(int(hit_k[a]), keys[rank], hit_s[rank])

        blocks = list(self._chunks(rows))
        height = max((b.stop - b.start for b in blocks), default=0)
        # One store per walk: a pass of _PASS slices, each root's dip and scratch per
        # row, 4 values per slice and row (0.8 MB on the paper axis); on short axes,
        # one value per row a chunk may hold.  A stencil call takes its pairs' roots,
        # positions and stencils there, 8 + 4 _WIDTH values per pair, up to 1795
        # pairs on the paper axis.  Column positions come from a bucket table.
        pair = 8 + 4 * _WIDTH
        budget = max(4 * _PASS * height, _CHUNK_CANDIDATES // _WIDTH, 2 * height + pair)
        batch = max(1, min(nc, budget // max(4 * height, 2 * height + pair)))
        cap = budget // pair
        store = np.empty(budget)
        # Every row whole: every window at the threshold spans the half-period, or stencils span the axis.
        dense = nb <= _WIDTH or 1.0 - threshold + self._slack > 0.5

        def evaluate(k_at, at, region):
            # Roots, positions and (_WIDTH, pairs) root-major stencils of the pairs
            # (k_at, at) in `region`; y is returned free.
            m = at.size
            state = region[:8 * m].reshape(4, 2, m)
            found = roots(k_at, at, state[:3])
            p = self._locate(found[1], state[3].view(np.int64), state[2])
            idx, x, y, z = region[8 * m:pair * m].reshape(4, _WIDTH, m)
            idx = idx.view(np.int64)
            np.add(p[:, None, :], np.arange(2 * _SIDE)[:, None], out=idx.reshape(2, 2 * _SIDE, m))
            _gather(self._rows, self._stencil_cols, at, idx, x, y, z)
            return found, p, idx, _evaluate(x, y, z, u[k_at], w[k_at], x, z), y

        def windows(k_at, at, slices, first, size):
            # The runs (first, size) of each pair in tiles of _TILE positions, (_TILE, tiles)
            # like the stencils, in calls of at most _BLOCK_ELEMS points.
            tiles = -(-size.T.ravel() // _TILE)
            run = np.repeat(np.arange(tiles.size), tiles)
            tile = np.arange(run.size) - np.repeat(np.cumsum(tiles) - tiles, tiles)
            pos = (first.T.ravel()[run] + _TILE * tile) % nb + _SIDE
            valid, pair, lane = size.T.ravel()[run] - _TILE * tile, run // 2, np.arange(_TILE)[:, None]
            step = max(1, _BLOCK_ELEMS // _TILE)
            buf = np.empty((4, _TILE, min(run.size, step)))
            for lo in range(0, run.size, step):
                e, p_e = slice(lo, lo + step), pair[lo:lo + step]
                idx, (x, y, z) = np.add(lane, pos[e], out=buf[0, :, :p_e.size].view(np.int64)), buf[1:, :, :p_e.size]
                _gather(self._rows, self._stencil_cols, at[p_e], idx, x, y, z)
                vals = _evaluate(x, y, z, u[k_at[p_e]], w[k_at[p_e]], x, z)
                vals[lane >= valid[e]] = -np.inf
                tops = vals.max(axis=0)
                top = np.flatnonzero(tops >= max_s[slices[p_e]])  # only these can reach their slice's maximum
                if top.size:
                    offer(slices[p_e[top]], at[p_e[top]], tops[top], vals[:, top], idx[:, top])
                if tops.max() > threshold:
                    tally(k_at[p_e], at[p_e], vals > threshold, vals, idx)

        def whole(ks, block, mask=None):
            # Every column of the pairs `mask` (ks, ascending, by the rows of `block`; None: all) from the block
            # engine: a block of rows serves as many k at a time as hold its points, merged 4096 slices at a time.
            wanted = np.arange(block.stop - block.start) if mask is None else np.flatnonzero(mask.any(axis=0))
            for first, x, y, z in _blocks(tuple(r[block][wanted] for r in self._rows), self._cols):
                h, part = x.shape[0], wanted[first:first + x.shape[0]]
                step, span = max(1, _BLOCK_ELEMS // x.size), nb if per_row else x.size
                s_all, t_all = np.empty((2, min(step, ks.size), *x.shape))
                lines, group = np.arange(s_all.size // span), step * max(1, _BLOCK_ELEMS // (8 * step))
                for lo in range(0, ks.size, group):
                    found = []
                    for g in range(lo, min(ks.size, lo + group), step):
                        kk = ks[g:g + step]
                        s = _evaluate(x, y, z, u[kk, None, None], w[kk, None, None], s_all[:kk.size], t_all[:kk.size])
                        if mask is not None:
                            s[~mask[g:g + step, part]] = -np.inf
                        at = s.reshape(-1, span).argmax(axis=1)
                        found.append((at, s.reshape(-1, span)[lines[:at.size], at]))
                        for j, k in enumerate(kk.tolist() if found[-1][1].max() > threshold else ()):
                            over = s[j] > threshold
                            hits = int(np.count_nonzero(over))
                            n_over[k] += hits
                            if hits and k <= cut[0] and (k, int(block.start + part[over.argmax() // nb]) * nb) < cut:
                                # Row-major, so the block's hits rise in key: its first `limit` may rank.
                                flat = np.flatnonzero(over)[:limit]
                                hold(k, (block.start + part[flat // nb]) * nb + flat % nb, s[j].ravel()[flat])
                    at, tops = (np.concatenate(c) for c in zip(*found))
                    keep = np.flatnonzero(tops > -np.inf)
                    at, tops = at[keep] + keep * span, tops[keep]
                    rows_at = block.start + part[at // nb % h]
                    merge(rows_at - start if per_row else ks[lo + at // x.size], tops, rows_at * nb + at % nb)

        for block in blocks:
            n = block.stop - block.start
            for lo in range(0, 0 if dense else nc, batch):
                ks = np.arange(lo, min(nc, lo + batch))
                if per_row:
                    live, seeded = np.ones((1, n), dtype=bool), np.full(1, -np.inf)
                else:
                    # Each k's seed row, whose nearest column lies deepest in a sinusoid
                    # (the smallest dip, about p there), sets a level its top point
                    # reaches or passes.  The seeds, then the dead flags, follow the dips.
                    dip = screen(ks, block, store[:4 * ks.size * n].reshape(2, 2, ks.size, n))
                    spare = store[2 * ks.size * n:]
                    seeds = np.minimum(*dip, out=spare[:ks.size * n].reshape(ks.size, n)).argmin(axis=1)
                    top = evaluate(ks, block.start + seeds, spare)[3].max(axis=0)
                    seeded = np.maximum(max_s[ks], top)
                    level = np.minimum(seeded, threshold)
                    # Rows whose windows hold no column are below the level throughout.
                    dead = self._dead(dip, (1.0 - level[:, None] + self._slack) / 2.0,
                                      spare.view(np.bool_)[:dip.size].reshape(dip.shape))
                    live = ~dead.all(axis=0)
                # Calls of at most `cap` live pairs (batch index, row), sorted by slice and row.
                b_live, i_live = np.nonzero(live)
                for r in range(0, b_live.size, cap):
                    b_sel, at = b_live[r:r + cap], block.start + i_live[r:r + cap]
                    k_at = ks[b_sel]
                    (r2, phase, floor, tolerance), p, idx, vals, free = evaluate(k_at, at, store)
                    # A slice per pair: its k, or with per_row its row.
                    slices = at - start if per_row else k_at
                    tops = vals.max(axis=0)
                    offer(slices, at, tops, vals, idx)
                    level = np.minimum(np.maximum(max_s[slices], seeded[b_sel]), threshold)
                    half = self._windows(r2, (1.0 - level + self._slack) / 2.0 - floor, tolerance, free[4:6])
                    covers = self._reach(phase, p, (free[:2], free[2:4]))
                    sure = (half < covers).all(axis=0)
                    if tops.max() > threshold:
                        # Certified rows count here, a column of both stencils once; the others on their windows.
                        over = (vals > threshold) & sure
                        over[2 * _SIDE:] &= (idx[2 * _SIDE:] - p[0]) % nb >= 2 * _SIDE
                        tally(k_at, at, over, vals, idx)
                    # Uncertified rows take their windows, or whole rows for windows of half pi/2 or more.
                    wide = ~sure & ~(half < math.pi / 2.0).all(axis=0)
                    narrow = np.flatnonzero(~sure & ~wide)
                    if narrow.size:
                        windows(k_at[narrow], at[narrow], slices[narrow], *self._runs(phase[:, narrow], half[:, narrow]))
                    if wide.any():
                        b_wide, b_at = np.unique(b_sel[wide], return_inverse=True)
                        mask = np.zeros((b_wide.size, n), dtype=bool)
                        mask[b_at, at[wide] - block.start] = True
                        whole(ks[b_wide], block, mask)
            if dense:
                whole(np.arange(nc), block)
        return max_s, key, n_over, _first(parts, limit)


class DiagonalScanner(_RidgeScanner):
    """Reusable scanner over a fixed (alpha, beta) grid for the diagonal family.

    Construction precomputes the 1-D trigonometric tables and the beta
    columns sorted by phase ``b mod pi``; the tables serve every ``c``.
    """

    def __init__(self, alphas: np.ndarray, betas: np.ndarray):
        ca2, sa2, s2a = _trig(alphas)
        cb2, sb2, s2b = _trig(betas)
        super().__init__((ca2, ca2, sa2, s2a), (cb2, cb2, sb2, s2b), betas, _SLACK)
        self._tan_a = np.tan(np.asarray(alphas, dtype=np.float64))
        # Midpoints and half-gaps of the gaps between columns, indexed by the position
        # of the column on the right, and the screen's factor (:meth:`_dead`).
        nb = cb2.size
        left, right = self._phase[_SIDE - 1:_SIDE + nb], self._phase[_SIDE:_SIDE + nb + 1]
        self._mid, self._gap = (left + right) / 2.0, (right - left) / 2.0
        self._screen = max((math.pi / 3.0) ** 2, 4.0 * float(self._gap.max()) ** 2) * (1.0 + 1e-14)

    @staticmethod
    def weights(cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(u, w) = (|1 - 2c^2|, c sqrt(1 - c^2))`` for a weight axis."""
        cs = np.asarray(cs, dtype=np.float64)
        return np.abs(1.0 - 2.0 * cs * cs), cs * np.sqrt(1.0 - cs * cs)

    def _phases(self, sc: np.ndarray, k, rows, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Phases in [0, pi] of the roots ``(s cos a, c sin a)`` and ``(c cos a, s sin a)``, ``(s, c) = sc[:, k]``, in ``out``.

        ``arctan2(c T, s)`` and ``arctan2(s T, c)``, ``T = tan a``, with both
        arguments negated where the first is negative; ``scratch`` is float.
        """
        np.multiply(sc[::-1, k], self._tan_a[rows], out=out)
        np.copysign(sc[:, k], out, out=scratch)
        return np.arctan2(np.abs(out, out=out), scratch, out=out)

    def _roots(self, sc: np.ndarray, k, rows, out) -> tuple:
        """``(R^2, phase, floor, tolerance)`` of the roots of :meth:`_phases`, R^2 and phase in ``out[0]`` and ``out[1]``, ``out[2]`` scratch."""
        r2, phase, scratch = out
        sc2 = sc[:, k] ** 2
        np.multiply(sc2, self._rows[0][rows], out=r2)
        r2 += np.multiply(sc2[::-1], self._rows[2][rows], out=scratch)
        return r2, self._phases(sc, k, rows, phase, scratch), 0.0, self._margin

    def _near(self, phase: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Per root, in place of its ``phase``, the distance ``gap[p] - |phase - mid[p]|`` to its nearest column.

        The position p fills the int64 ``out``; ``scratch`` is float.
        """
        self._locate(phase, out, scratch)
        np.subtract(phase, np.take(self._mid, out, out=scratch, mode="clip"), out=phase)
        np.abs(phase, out=phase)
        return np.subtract(np.take(self._gap, out, out=scratch, mode="clip"), phase, out=phase)

    def _dips(self, sc: np.ndarray, ks: np.ndarray, block: slice, out) -> np.ndarray:
        """``R^2 max(near - margin, 0)^2`` per root of the weights ``ks`` on the alpha rows ``block``, in ``out[0]`` (``out[1]`` scratch)."""
        dip, scratch = out
        k = ks[:, None]
        self._phases(sc, k, block, dip, scratch)
        for r in range(2):
            self._near(dip[r], scratch[0].view(np.int64), scratch[1])
        np.maximum(np.subtract(dip, self._margin, out=dip), 0.0, out=dip)
        np.square(dip, out=dip)
        sc2 = sc[:, k] ** 2
        for r in range(2):
            np.multiply(sc2[r], self._rows[0][block], out=scratch[0])
            scratch[0] += np.multiply(sc2[1 - r], self._rows[2][block], out=scratch[1])
            dip[r] *= scratch[0]
        return dip

    def _dead(self, dip: np.ndarray, depth, out=None) -> np.ndarray:
        """Where a root's window (:meth:`_windows`) surely holds no column, from its ``dip`` (:meth:`_dips`).

        For ``x = sqrt(depth) / R <= 1/2``, ``arcsin x <= (pi / 3) x``: the
        window is narrower than near when ``R^2 >= 4 depth`` and ``dip > (pi /
        3)^2 depth``.  near is at most the largest half-gap G, so ``dip > 4
        G^2 depth`` implies the first.  The factor ``1 + 1e-14`` covers the
        float error of both tests against :meth:`_windows` (module docstring).
        """
        return np.greater(dip, self._screen * np.maximum(depth, 0.0), out=out)

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

        max_s, key, n_over, (hit_k, keys, hit_s) = self._walk(
            slice(None), *self.weights(cs), float(threshold), limit,
            lambda k, at, out: self._roots(sc, k, at, out), lambda ks, block, out: self._dips(sc, ks, block, out))
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
        # and pi/4, and P_A along alpha at beta = 0, a block of rows at a time.
        at_0, at_90, at_45 = (
            joint_probabilities(state, np.full_like(betas, a), betas)
            for a in (0.0, math.pi / 2.0, math.pi / 4.0)
        )
        p_a = np.empty(alphas.size)
        for lo in range(0, alphas.size, _BLOCK_ELEMS):
            part = joint_probabilities(state, alphas[lo:lo + _BLOCK_ELEMS], np.zeros(p_a[lo:lo + _BLOCK_ELEMS].size))
            np.add(part[0], part[1], out=p_a[lo:lo + _BLOCK_ELEMS])
        norm = float(np.sum(state.coeffs.real**2 + state.coeffs.imag**2))
        super().__init__(
            (p_a, *_trig(alphas)),
            (at_0[0] + at_0[2], at_0[0] + at_0[3], at_90[0] + at_90[3], (at_45[0] + at_45[3]) - 0.5),
            betas, _SLACK + 2.0 * abs(norm - 1.0))
        self._alphas, self._coeffs = alphas, state.coeffs

    def _roots(self, at: np.ndarray) -> np.ndarray:
        """``(R^2, phase, floor, tolerance)`` of p_+- and p_-+ as ``|x sin b - y cos b|^2`` on the alpha rows ``at``."""
        cos_a, sin_a = np.cos(self._alphas[at]), np.sin(self._alphas[at])
        (c00, c01), (c10, c11) = self._coeffs
        x = np.stack([cos_a * c00 + sin_a * c10, cos_a * c11 - sin_a * c01])
        y = np.stack([cos_a * c01 + sin_a * c11, sin_a * c00 - cos_a * c10])
        xx, yy, xy = x.real**2 + x.imag**2, y.real**2 + y.imag**2, x * y.conj()
        r2 = np.hypot(xx - yy, 2.0 * xy.real)
        return np.stack([
            r2 - _ROOT_ERROR,
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
        row_max, key, n_over, (_, keys, vals) = self._walk(
            rows, (1.0,), (1.0,), float(threshold), limit, lambda k, at, out: self._roots(at), None)
        return row_max, key % nb, int(n_over[0]), (*np.divmod(keys, nb), vals)
