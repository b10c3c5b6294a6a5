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
state (the report lists each row's maximum).  With M the slice's level, the
largest of the S evaluated and the L0 (below) entered, ``L = min(M,
threshold)`` and ``D = (1 - L + slack) / 2``, a point with ``S_float >=
L`` has ``p <= D`` for one of its sinusoids: its beta lies within
``arcsin(sqrt((D - p_min) / R^2))`` of ``phi + k pi`` (nowhere when ``D <
p_min``), the root's window.  Every other point has ``S_float < L``: below
the maximum, so the first maximum in row-major order lies in the windows,
and not over the threshold.  Columns are sorted once by ``b mod pi``, the
order padded circularly.  A row is evaluated on its two windows, each column
once, in tiles of ``_TILE`` laid out ``(columns, tiles)``, with the block
engine's tables and operation order; a window of ``pi/2`` or more, or nan (R
near 0, a low L), spans the row.  A tile whose top is below M
holds no maximum and is not offered.  The block engine takes every row when
the beta axis is no wider than a tile, or when the windows at the threshold
of a sample of pairs hold more than ``(1 + 2 / slices) / _WINDOW_COST`` of
their rows' columns.  Scans list the points over the threshold where they
count them, in one flat list that one sort on (slice, key) trims to its first
``limit`` whenever it passes ``2 limit``: memory is O(``limit`` + chunk +
axes) at any threshold, plus three arrays of O(slices).

L0 needs no evaluation.  A root's beta lies within ``near + tolerance`` of
its nearest column's, ``near`` the angular distance from its phase to that
column and ``tolerance`` its phase's margin (below).  As ``sin x <= x``, there
``p <= p_min + R^2 (near + tolerance)^2`` and ``S_float >= 1 - 2 p - slack``:
``L0 = 1 - slack - 2 p`` of either root of a row is at most its maximum.  It
enters M with no key (``_NO_KEY``), and the windows hold the first maximum, so
a slice that ends with no key had an L0 above its maximum: ArithmeticError.  Per
``c`` the diagonal scanner takes L0 at the row whose nearest column lies
deepest in a sinusoid (smallest ``dip = R^2 max(near - margin, 0)^2``).  A
row whose windows at that L hold no column has ``S_float < L`` throughout
and is not evaluated; a screen finds these rows with no arcsin
(:meth:`DiagonalScanner._dead`).  The other (live) rows of several passes of
``c`` are gathered as (slice, row) pairs in any order, each entering its
own L0 into M before its windows: about 8 of 3142 rows per ``c``
on the paper grid.  Fixed states skip no row: each row is a slice, and a live
pair, of its own.  A window at ``L = 1 - t`` is about ``sqrt(t / 2) / R`` rad
wide (some 3e-7 / R at L0 near 1), so a row costs a tile or about ``2 sqrt(2
t) / (R h)`` columns at step h, and a scan slows as windows widen until the
block engine takes it: past ``t`` of about 2e-3 for the diagonal family,
2e-2 for a real fixed state, and lower on a coarse axis (1e-3 or below at h
= 2e-3), as the rule leaves out each live pair's own cost.

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
the only windows narrower than a row.  ``_ANGLE_MARGIN * max(1, max
|beta|)`` exceeds them 200 times over.  In L0, R^2's 20e and L0's own
rounding move S by under 60e where ``L0 > -1``, within the slack with the
112e above; a lower L0 lies below every S.  A window wider than ``pi/6``
counts as the whole half-period, and is evaluated as a window of half ``pi``:
edges of half ``pi/2`` can round an ulp apart and leave out a column on the
antipode.  The screen's factor ``1 + 1e-14`` bounds its own rounding and that
of :meth:`_windows` (under 40e).

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
R^2`` plus 3e-15.  ``_ROOT_ERROR = 1e-14`` (90e) exceeds these: a row's
windows take ``p_min - _ROOT_ERROR`` and ``R^2 - _ROOT_ERROR``, and its
margin adds ``_ROOT_ERROR / (R^2 - _ROOT_ERROR)``, which grows where a
complex C's two extremes nearly meet and phi is ill-conditioned; a row
with ``R^2 <= _ROOT_ERROR`` is evaluated in full.  L0 takes the other side
of both bounds, ``p_min + _ROOT_ERROR`` and ``R^2 + _ROOT_ERROR`` (``_pad``),
and a root with ``R^2 <= _ROOT_ERROR`` bounds nothing there.  In L0 phi's and
near's errors add at most ``(2 near + 1) 5.6e-15 + pi (1e-15 + 4e-17 |beta|)``
to p, within the slack's spare 3.4e-14 where ``|beta| <= 50``, the margin past.
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

# Columns per tile of a row's windows.
_TILE = 8
# Block-engine points a window column costs (measured); the engine forms a
# block at about 2 points a point, once per walk of all its slices.
_WINDOW_COST = 14
# Alpha rows per chunk.
_CHUNK_ROWS = 4096
# Slices per pass of a ridge walk, 4 store values per row each: 12 were faster
# but raised the census scan's peak RSS by 0.5 MB over 8.
_PASS = 8
# The slack of the window depth D, the angular margin of a window, and the
# error bound of a fixed state's R^2 and p_min (module docstring).
_SLACK = 1e-13
_ANGLE_MARGIN = 1e-12
_ROOT_ERROR = 1e-14
_NO_HITS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
_NO_KEY = np.iinfo(np.int64).max  # the key of a slice whose level no evaluated point attains (module docstring)
# What both scanners' scan return: per slice its maximum and the grid indices (arg_i, arg_j) of its first
# maximum, the counts of points over the threshold per weight k, and the first hits as (k, i, j, S) arrays.
ScanResult = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]


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


class _RidgeScanner:
    """A family's tables and its beta columns in phase order, walked by :meth:`_walk` (module docstring).

    Thread-safe: workers may walk disjoint slices against the shared
    read-only tables, each with its own buffers.
    """

    _pad = 0.0  # what L0 adds to a root's p_min and R^2 (module docstring)

    def __init__(self, rows, cols, betas: np.ndarray, slack: float):
        self._rows, self._cols, self._slack = rows, cols, slack
        # Columns in phase order, padded by one on the left and _TILE on the
        # right with their images one period away (repeating when the axis is shorter).
        betas = np.ascontiguousarray(betas, dtype=np.float64).reshape(-1)
        nb = betas.size
        phase = np.remainder(betas, math.pi)
        order = np.argsort(phase, kind="stable")
        wrap, pos = np.divmod(np.arange(-1, nb + _TILE), nb)
        self._phase = phase[order][pos] + math.pi * wrap
        self._sorted_phase = self._phase[1:1 + nb]
        self._phase_col = order[pos]
        # The beta tables in that order, so that windows gather by
        # position; a table that serves twice is taken once.
        taken: dict = {}
        self._by_phase = tuple(taken.setdefault(id(k), k[self._phase_col]) for k in cols)
        self._margin = _ANGLE_MARGIN * float(np.max(np.abs(betas), initial=1.0))
        # Midpoints and half-gaps of the gaps between columns, indexed by the
        # position of the column on the right (:meth:`_near`).
        left, right = self._phase[:nb + 1], self._phase[1:nb + 2]
        self._mid, self._gap = (left + right) / 2.0, (right - left) / 2.0
        # The first position of each of `buckets` equal buckets of [0, pi], at most
        # 1 MB: a phase's bucket is floor(phase * scale), the same float map for
        # columns and roots, so no column of a later bucket lies at or below it.
        buckets = min(2 * nb, 2**17 - 2)
        self._scale = buckets / math.pi
        self._bucket = np.searchsorted((self._sorted_phase * self._scale).astype(np.int64), np.arange(buckets + 2))
        self._steps = int(np.diff(self._bucket).max())
        self._upper = np.append(self._sorted_phase, np.inf)

    def _chunks(self):
        """Yield as few equal chunks of the alpha rows as hold at most ``_CHUNK_ROWS`` rows each.

        A paper axis of 3142 rows is one chunk, screened a batch of slices at a time.
        """
        na = self._rows[0].size
        chunks = max(1, -(-na // max(1, _CHUNK_ROWS)))
        height = max(1, -(-na // chunks))
        for first in range(0, na, height):
            yield slice(first, min(na, first + height))

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

    def _near(self, phase: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Per root, in place of its ``phase``, its distance ``gap[p] - |phase - mid[p]|`` to its nearest column; p in ``out``."""
        self._locate(phase, out, scratch)
        np.subtract(phase, np.take(self._mid, out, out=scratch, mode="clip"), out=phase)
        np.abs(phase, out=phase)
        return np.subtract(np.take(self._gap, out, out=scratch, mode="clip"), phase, out=phase)

    def _lower(self, roots, out) -> np.ndarray:
        """Per pair of ``roots`` ``(R^2, phase, floor, tolerance)``, ``L0 = 1 - slack - 2 p``, ``p <= (p_min + pad) + (R^2 +
        pad) (near + tolerance)^2`` at a root's nearest column unless ``R^2 <= 0``; ``out`` is 3 ``(2, pairs)`` buffers."""
        r2, phase, floor, tolerance = roots
        out[0] = phase
        near = self._near(out[0], out[1].view(np.int64), out[2])
        p = (floor + self._pad) + (r2 + self._pad) * (near + tolerance) ** 2
        return 1.0 - self._slack - 2.0 * np.where(r2 > 0.0, p, np.inf).min(axis=0)

    @staticmethod
    def _windows(r2, depth, tolerance, out=None) -> np.ndarray:
        """Half-widths ``arcsin(sqrt(depth) / R)`` plus ``tolerance`` of the windows around roots of radius ``R = sqrt(r2)``;
        R = 0 divides by zero and a subnormal R overflows, errors the scans ignore."""
        ratio = np.divide(np.sqrt(np.maximum(depth, 0.0)), np.sqrt(r2, out=out), out=out)
        wide = ratio > 0.5
        half = np.arcsin(np.minimum(ratio, 0.5, out=ratio), out=ratio)
        half[wide] = math.pi / 2.0
        half += tolerance
        return half

    def _runs(self, phase: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The columns of each pair's windows ``phase +- half`` (``(2, pairs)``), each once, as ``(first, size)``, ``(2, pairs)``:
        two runs of positions in circular phase order, the second empty where they meet.  A half of ``pi/2`` or more, or
        nan, spans the row as ``pi``, whose edges a rounding cannot bring inside a period."""
        half = np.where(half < math.pi / 2.0, half, math.pi)
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

    def _share(self, roots, nc: int, threshold: float) -> float:
        """The share of their rows' columns that the windows at ``threshold`` hold, over a grid of at most
        32 of the slices ``range(nc)`` by the alpha rows, 1024 pairs in all."""
        na = self._rows[0].size
        ks = np.linspace(0, nc - 1, min(nc, 32), dtype=np.int64)
        at = np.linspace(0, na - 1, min(na, 1024 // max(ks.size, 1)), dtype=np.int64)
        r2, phase, floor, tolerance = roots(np.repeat(ks, at.size), np.tile(at, ks.size), np.empty((3, 2, ks.size * at.size)))
        half = self._windows(r2, (1.0 - threshold + self._slack) / 2.0 - floor, tolerance)
        size = self._runs(phase, half)[1]
        return float(size.sum()) / max(size.size // 2 * self._sorted_phase.size, 1)

    def _walk(self, u, w, threshold: float, limit: int, roots, screen):
        """The :data:`ScanResult` ``(maxima, arg_i, arg_j, counts, hits)`` of the weights ``(u[k], w[k])`` over every row.

        A slice is one k, or without a ``screen`` one alpha row (k is then 0); its argmax is its first maximum
        in row-major order.  Counts are per k, and the hits the first ``limit`` in (k, i, j) order.
        ``roots(k, at, out)`` gives ``(R^2, phase, floor, tolerance)`` of the pairs of weights ``k[i]`` and alpha
        rows ``at[i]``, R^2 and phase ``(2, pairs)`` arrays in the first two of the three buffers ``out``.
        ``screen(ks, block, out)`` gives the dips (:meth:`DiagonalScanner._dips`) of a batch in ``out``, and
        only live rows are evaluated.
        """
        u, w = np.asarray(u, dtype=np.float64), np.asarray(w, dtype=np.float64)
        nc, na, nb = u.size, self._rows[0].size, self._cols[0].size
        per_row = screen is None
        max_s = np.full(na if per_row else nc, -np.inf)
        key = np.full(max_s.size, _NO_KEY)
        n_over = np.zeros(nc, dtype=np.int64)
        # Parts (k, keys i * nb + j, values) of the hits that may still rank among
        # the first `limit`, in no global order, and `cut`: (k, key) past which none
        # can.  Before any trim every hit ranks before `cut`; with no room, none does.
        parts: list[tuple] = []
        n_held, cut = 0, (nc if limit else -1, 0)

        def hold(ks, keys, vals):
            # Hits (k, key, S) of any slices, in any order.
            nonlocal n_held, cut
            parts.append((ks, keys, vals))
            n_held += keys.size
            if n_held > 2 * limit:
                parts[:] = [_first(parts, limit)]
                n_held = limit
                cut = (int(parts[0][0][-1]), int(parts[0][1][-1]))

        def merge(slices, tops, keys):
            # Candidates of any slices, repeated or not: each slice keeps the largest of its maximum
            # and its tops, with the smallest key that attains it; a slice whose maximum rises drops its key.
            now = max_s[slices]
            np.maximum.at(max_s, slices, tops)
            top = max_s[slices]
            key[slices[top > now]] = _NO_KEY
            hit = tops == top
            np.minimum.at(key, slices[hit], keys[hit])

        def offer(slices, at, tops, vals, idx):
            # The values `vals` in columns `_phase_col[idx]`, (points, pairs), and their maxima `tops`: each pair's
            # first maximum is at its smallest column that attains its top.
            merge(slices, tops, at * nb + np.where(vals == tops, self._phase_col[idx], nb).min(axis=0))

        def tally(k_at, at, over, vals, idx):
            # Count the hits `over` (points, pairs; each column once), and hold those of pairs that may rank.
            np.add.at(n_over, k_at, over.sum(axis=0))
            may = np.flatnonzero((k_at < cut[0]) | ((k_at == cut[0]) & (at * nb < cut[1])))
            i_idx, m_idx = np.nonzero(over[:, may].T)
            i_idx = may[i_idx]
            hold(k_at[i_idx], at[i_idx] * nb + self._phase_col[idx[m_idx, i_idx]], vals[m_idx, i_idx])

        blocks = list(self._chunks())
        height = max((b.stop - b.start for b in blocks), default=1)
        # One store per walk: a pass of _PASS slices, each root's dip and scratch per row
        # (0.8 MB on the paper axis), or on short axes one value per row a chunk may hold.
        # A windows call takes its pairs' roots there, 10 values a pair, then its tiles; calls
        # of `cap` pairs (1571 there) keep their temporaries, up to 36 values a pair, below it.
        budget = max(4 * _PASS * height, _CHUNK_ROWS, 64)
        batch = max(1, min(nc, budget // (4 * height)))
        cap = budget // 64
        store = np.empty(budget)
        # Every row whole where a tile spans the axis, or where the sampled windows at _WINDOW_COST points
        # a column would cost more than the block engine at 1 + 2 / nc points a point.
        dense = nb <= _TILE or nc * _WINDOW_COST * self._share(roots, nc, threshold) > nc + 2

        def windows(k_at, at):
            # Each pair's windows at its slice's level, in tiles of _TILE positions, (_TILE, tiles),
            # in steps of as many tiles as the store holds once the runs are known.
            m = at.size
            slices = at if per_row else k_at
            buf = store[:10 * m].reshape(5, 2, m)
            r2, phase, floor, tolerance = found = roots(k_at, at, buf[:3])
            merge(slices, self._lower(found, buf[2:]), np.full(m, _NO_KEY))
            level = np.minimum(max_s[slices], threshold)
            half = self._windows(r2, (1.0 - level + self._slack) / 2.0 - floor, tolerance, buf[3])
            first, size = (v.T.ravel() for v in self._runs(phase, half))
            tiles = -(-size // _TILE)
            ends, total = np.cumsum(tiles), int(tiles.sum())
            step, lane = max(1, min(_BLOCK_ELEMS, budget // 4) // _TILE), np.arange(_TILE)[:, None]
            buf = store[:4 * _TILE * step].reshape(4, _TILE, step)
            for lo in range(0, total, step):
                # This step's tiles, each with its run and its place in that run.
                tile = np.arange(lo, min(lo + step, total))
                run = np.searchsorted(ends, tile, side="right")
                tile, p_e = tile - (ends[run] - tiles[run]), run // 2
                idx, (x, y, z) = buf[0, :, :tile.size].view(np.int64), buf[1:, :, :tile.size]
                np.add(lane, (first[run] + _TILE * tile) % nb + 1, out=idx)
                _gather(self._rows, self._by_phase, at[p_e], idx, x, y, z)
                vals = _evaluate(x, y, z, u[k_at[p_e]], w[k_at[p_e]], x, z)
                vals[lane >= size[run] - _TILE * tile] = -np.inf
                tops = vals.max(axis=0)
                top = np.flatnonzero(tops >= max_s[slices[p_e]])  # a tile below its slice's level holds no maximum
                if top.size:
                    offer(slices[p_e[top]], at[p_e[top]], tops[top], vals[:, top], idx[:, top])
                if tops.max() > threshold:
                    tally(k_at[p_e], at[p_e], vals > threshold, vals, idx)

        def whole(block):
            # Every point of the rows `block` from the block engine: a block of rows serves as
            # many k at a time as hold its points, merged 4096 slices at a time.
            for first, x, y, z in _blocks(tuple(r[block] for r in self._rows), self._cols):
                h, row = x.shape[0], block.start + first
                step, span = max(1, _BLOCK_ELEMS // x.size), nb if per_row else x.size
                s_all, t_all = np.empty((2, min(step, nc), *x.shape))
                lines, group = np.arange(s_all.size // span), step * max(1, _BLOCK_ELEMS // (8 * step))
                for lo in range(0, nc, group):
                    found = []
                    for g in range(lo, min(nc, lo + group), step):
                        kk = np.arange(g, min(nc, g + step))
                        s = _evaluate(x, y, z, u[kk, None, None], w[kk, None, None], s_all[:kk.size], t_all[:kk.size])
                        at = s.reshape(-1, span).argmax(axis=1)
                        found.append((at, s.reshape(-1, span)[lines[:at.size], at]))
                        for j, k in enumerate(kk.tolist() if found[-1][1].max() > threshold else ()):
                            over = s[j] > threshold
                            hits = int(np.count_nonzero(over))
                            n_over[k] += hits
                            if hits and k <= cut[0] and (k, (row + int(over.argmax()) // nb) * nb) < cut:
                                # Row-major, so the block's hits rise in key: its first `limit` may rank.
                                flat = np.flatnonzero(over)[:limit]
                                hold(np.full(flat.size, k), row * nb + flat, s[j].ravel()[flat])
                    at, tops = (np.concatenate(c) for c in zip(*found))
                    at += np.arange(at.size) * span
                    rows_at = row + at // nb % h
                    merge(rows_at if per_row else lo + at // x.size, tops, rows_at * nb + at % nb)

        def flush():
            # The gathered live pairs' windows, in calls of at most `cap`.
            k_at, at = (np.concatenate(part) for part in zip(*pending))
            pending[:] = [_NO_HITS[:2]]
            for r in range(0, at.size, cap):
                windows(k_at[r:r + cap], at[r:r + cap])

        # Live pairs (k, row) of several passes, gathered for their windows, and how many since the last call.
        pending, held = [_NO_HITS[:2]], 0
        for block in blocks:
            n = block.stop - block.start
            for lo in range(0, 0 if dense else nc, batch):
                ks = np.arange(lo, min(nc, lo + batch))
                if per_row:
                    k_live, i_live = np.zeros(n, dtype=np.int64), np.arange(n)
                else:
                    # L0 at each k's row of smallest dip sets a level; the smallest dips, then the dead flags, follow the dips.
                    dip = screen(ks, block, store[:4 * ks.size * n].reshape(2, 2, ks.size, n))
                    spare, buf = store[2 * ks.size * n:], np.empty((5, 2, ks.size))
                    deepest = np.minimum(*dip, out=spare[:ks.size * n].reshape(ks.size, n)).argmin(axis=1)
                    merge(ks, self._lower(roots(ks, block.start + deepest, buf[:3]), buf[2:]), np.full(ks.size, _NO_KEY))
                    level = np.minimum(max_s[ks], threshold)
                    # Rows whose windows hold no column are below the level throughout.
                    dead = self._dead(dip, (1.0 - level[:, None] + self._slack) / 2.0,
                                      spare.view(np.bool_)[:dip.size].reshape(dip.shape))
                    b_live, i_live = np.nonzero(~dead.all(axis=0))
                    k_live = ks[b_live]
                pending.append((k_live, block.start + i_live))
                held += i_live.size
                if held >= cap:
                    flush()
                    held = 0
            if dense:
                whole(block)
        flush()
        if (key == _NO_KEY).any():
            raise ArithmeticError("certificate check failed: a slice's proven lower bound L0 exceeds every point evaluated in it")
        hit_k, keys, hit_s = _first(parts, limit)
        return max_s, *np.divmod(key, nb), n_over, (hit_k, *np.divmod(keys, nb), hit_s)


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
        # The screen's factor (:meth:`_dead`).
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
        G^2 depth`` implies the first.  The factor ``1 + 1e-14`` absorbs the
        float error of both tests against :meth:`_windows` (module docstring).
        """
        return np.greater(dip, self._screen * np.maximum(depth, 0.0), out=out)

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # R near 0 in _windows
    def scan(self, cs: np.ndarray, threshold: float, limit: int) -> ScanResult:
        """The :data:`ScanResult` of :meth:`_walk` with one slice and one count per weight ``cs[k]``.

        ``cs`` holds the weights ``0 <= c <= 1``.  The hits are ``(k, i,
        j, S)`` arrays of the first ``limit`` points with ``S > threshold``
        in (k, i, j) order.
        """
        cs = np.ascontiguousarray(cs, dtype=np.float64)
        # (s, c) per slice, s as in the weights w = c s.
        sc = np.stack([np.sqrt(1.0 - cs * cs), cs])
        return self._walk(
            *self.weights(cs), float(threshold), limit,
            lambda k, at, out: self._roots(sc, k, at, out), lambda ks, block, out: self._dips(sc, ks, block, out))

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

    Construction builds the state's eight tables once; a scan forms the two
    sinusoids of each chunk's rows.  Each alpha row is a slice of its own.
    """

    _pad = 2.0 * _ROOT_ERROR  # the bounds of p_min and R^2 are _ROOT_ERROR over _roots' values

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
            np.remainder(np.arctan2(2.0 * xy.real, xx - yy) / 2.0, math.pi),
            2.0 * xy.imag**2 / ((xx + yy) + r2) - _ROOT_ERROR,  # x = y = 0: nan, with R^2 <= 0
            self._margin + _ROOT_ERROR / (r2 - _ROOT_ERROR),
        ])

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")  # R near 0 in _windows
    def scan(self, threshold: float, limit: int) -> ScanResult:
        """The :data:`ScanResult` of :meth:`_walk` with one slice per alpha row, all in one walk.

        The state is one weight k = 0, with one count.  The hits are the first
        ``limit`` points with ``S > threshold`` in row-major order.
        """
        return self._walk((1.0,), (1.0,), float(threshold), limit, lambda k, at, out: self._roots(at), None)
