"""Brute-force references that the tests compare the package against.

Each evaluates one point at a time, in the operation order of the
engine it checks, so that agreement can be required bit for bit; the
vectorised diagonal-family probabilities are the independent oracle of
the closed forms.
"""

from dataclasses import replace
from time import perf_counter

import numpy as np

from leggettlab import kernels
from leggettlab.domain import InputError
from leggettlab.kernels import DiagonalScanner
from leggettlab.quantum import _kets
from leggettlab.scan import ScanPoint, _axis, _diagonal_lhs, _family_state, _line_max, _plane_lhs


def _diagonal_scan_py(u, w, ca2, sa2, s2a, cb2, sb2, s2b, threshold):
    """Reference implementation of the per-``c`` scan, one point at a time.

    For each c: fill one row of S at a time, reduce its maximum, rescan
    for the first attaining column, and count and list threshold
    crossings.  The expression is evaluated as ((u*x) + y) + (w*z) with
    x = |p - q|, y = p*q + sp*sq, z = za*zb, the operation order of the
    engine.  Returns ``(max_s, arg_i, arg_j, n_over, hits)``, ``hits``
    holding ``(k, i, j, S)`` arrays of every crossing in (k, i, j) order.
    """
    nc = u.shape[0]
    na = ca2.shape[0]
    nb = cb2.shape[0]
    max_s = np.empty(nc, dtype=np.float64)
    arg_i = np.zeros(nc, dtype=np.int64)
    arg_j = np.zeros(nc, dtype=np.int64)
    n_over = np.zeros(nc, dtype=np.int64)
    hits = []
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
            for j in range(nb):
                if row[j] > threshold:
                    count += 1
                    hits.append((k, i, j, row[j]))
        max_s[k] = best
        arg_i[k] = best_i
        arg_j[k] = best_j
        n_over[k] = count
    return max_s, arg_i, arg_j, n_over, _hit_arrays(hits, 4)


def _hit_arrays(hits, width):
    """``width`` arrays, integer indices then the S values, of a list of hit tuples."""
    columns = list(zip(*hits)) or [()] * width
    return tuple(np.array(col, dtype=np.float64 if n == width - 1 else np.int64)
                 for n, col in enumerate(columns))


def trig_tables(angles):
    """``(cos^2, sin^2, sin 2x)`` of an angle axis, as the engine builds them."""
    return np.cos(angles) ** 2, np.sin(angles) ** 2, np.sin(2.0 * angles)


def reference_scan(alphas, betas, cs, threshold):
    u, w = DiagonalScanner.weights(cs)
    return _diagonal_scan_py(u, w, *trig_tables(alphas), *trig_tables(betas), threshold)


def plane_reference(scanner, threshold):
    """``(row_max, row_i, row_arg, counts, hits)`` of a :class:`~leggettlab.kernels.PlaneScanner`, point by point.

    The scanner's result shape: ``row_i`` is each row's own index,
    ``counts`` the one count of the state's one weight, and ``hits``
    ``(k, i, j, S)`` arrays, k = 0, of every crossing in row-major order.
    S is formed from the scanner's tables as ``(|r0 - k0| + (r1 k1 + r2 k2))
    + r3 k3``, the engine's order with ``u = w = 1``.
    """
    r0, r1, r2, r3 = (t.tolist() for t in scanner._rows)
    k0, k1, k2, k3 = (t.tolist() for t in scanner._cols)
    row_max, row_arg, hits = [], [], []
    for i in range(len(r0)):
        row = [abs(r0[i] - k0[j]) + (r1[i] * k1[j] + r2[i] * k2[j]) + r3[i] * k3[j]
               for j in range(len(k0))]
        best = max(row)
        row_max.append(best)
        row_arg.append(row.index(best))
        hits.extend((0, i, j, s) for j, s in enumerate(row) if s > threshold)
    return (np.array(row_max), np.arange(len(r0)), np.array(row_arg, dtype=np.int64),
            np.array([len(hits)]), _hit_arrays(hits, 4))


def dense_plane_scan(scanner, threshold):
    """``(row_max, row_i, row_arg, counts, hits)`` of a :class:`~leggettlab.kernels.PlaneScanner` from the block engine
    over every row, in :func:`plane_reference`'s shape.

    The dense walk the scanner ran before its rows were certified: each
    block of rows from ``kernels._blocks``, S from ``kernels._evaluate``
    with ``u = w = 1``, and ``hits`` holding ``(k, i, j, S)`` arrays, k = 0,
    of every crossing in row-major order.
    """
    nb = scanner._cols[0].size
    row_max, row_arg, hits = [], [], []
    for offset, x, y, z in kernels._blocks(scanner._rows, scanner._cols):
        s = kernels._evaluate(x, y, z, 1.0, 1.0, x, z)
        arg = np.argmax(s, axis=1)
        row_arg.append(arg)
        row_max.append(s[np.arange(s.shape[0]), arg])
        flat = np.flatnonzero(s > threshold)
        hits.append((flat // nb + offset, flat % nb, s.ravel()[flat]))
    i, j, s = (np.concatenate(part) for part in zip(*hits))
    row_max = np.concatenate(row_max)
    return row_max, np.arange(row_max.size), np.concatenate(row_arg), np.array([i.size]), (np.zeros_like(i), i, j, s)


def dense_diagonal_scan(scanner, cs, threshold, limit):
    """``(max_s, arg_i, arg_j, n_over, hits)`` of a :class:`~leggettlab.kernels.DiagonalScanner` from the block engine over every row.

    Each block of rows from ``kernels._blocks`` serves every c, S from
    ``kernels._evaluate``; ``hits`` holds ``(k, i, j, S)`` arrays of the
    first ``limit`` crossings in (k, i, j) order.
    """
    u, w = DiagonalScanner.weights(cs)
    nb = scanner._cols[0].size
    max_s, key = np.full(cs.size, -np.inf), np.zeros(cs.size, dtype=np.int64)
    n_over = np.zeros(cs.size, dtype=np.int64)
    hits = [[] for _ in range(cs.size)]
    s = t = None
    for offset, x, y, z in kernels._blocks(scanner._rows, scanner._cols):
        if s is None:
            s, t = np.empty_like(x), np.empty_like(x)
        n = x.shape[0]
        for k in range(cs.size):
            v = kernels._evaluate(x, y, z, u[k], w[k], s[:n], t[:n])
            flat = int(np.argmax(v))
            if v.flat[flat] > max_s[k]:  # row-major blocks: ties keep the first maximum
                max_s[k], key[k] = v.flat[flat], offset * nb + flat
            if v.flat[flat] > threshold:
                over = np.flatnonzero(v > threshold)
                n_over[k] += over.size
                room = limit - sum(part.size for part, _ in hits[k])
                hits[k].append((offset * nb + over[:room], v.ravel()[over[:room]]))
    listed = [(np.full(keys.size, k), keys, vals) for k in range(cs.size) for keys, vals in hits[k]]
    ks, keys, vals = (np.concatenate(part)[:limit] for part in zip(kernels._NO_HITS, *listed))
    return max_s, *np.divmod(key, nb), n_over, (ks, *np.divmod(keys, nb), vals)


def refine_reference(report, spec):
    """:func:`leggettlab.scan.refine` as it ran before it stopped at a cycle: every one of its 40 rounds.

    Returns the refined report and the number of objective calls.
    """
    calls = [0]
    if spec.family == "diagonal":
        ranges, coords = (spec.c_range, spec.alpha_range, spec.beta_range), list(report.argmax[:3])

        def objective(pt):
            calls[0] += 1
            return _diagonal_lhs(pt[0], pt[1], pt[2])

    else:
        state = _family_state(spec)
        ranges, coords = (spec.alpha_range, spec.beta_range), list(report.argmax[1:3])

        def objective(pt):
            calls[0] += 1
            return _plane_lhs(state, pt[0], pt[1])

    brackets = []
    for grid, coord in zip(map(_axis, ranges), coords):
        idx = int(np.argmin(np.abs(grid - coord)))
        brackets.append((float(grid[max(idx - 1, 0)]), float(grid[min(idx + 1, grid.size - 1)])))
    if all(lo == hi for lo, hi in brackets):
        return report, 0
    started = perf_counter()
    value = report.max_s
    for _ in range(40):
        improved = 0.0
        moved = 0.0
        for k, (lo, hi) in enumerate(brackets):
            if lo == hi:
                continue

            def along(t, k=k):
                probe = list(coords)
                probe[k] = t
                return objective(probe)

            new_x, new_f = _line_max(along, lo, hi, coords[k], value)
            improved += new_f - value
            moved += abs(new_x - coords[k])
            coords[k] = new_x
            value = new_f
        if improved < 1e-15 and moved < 1e-11:
            break
    argmax = ScanPoint(*coords, value) if spec.family == "diagonal" else ScanPoint(None, *coords, value)
    return replace(report, max_s=max(report.max_s, value), argmax=argmax, refined=True,
                   wall_time=report.wall_time + (perf_counter() - started)), calls[0]


def diagonal_joint_probabilities(
    cs: np.ndarray, alphas: np.ndarray, betas: np.ndarray
) -> np.ndarray:
    """Inner-product joint probabilities for per-sample diagonal states.

    Independent route from :func:`diagonal_closed_batch`: amplitudes are
    contracted against explicit coefficient matrices and squared, with
    no expansion into double-angle terms.  Returns ``(4, n)``.
    """
    cs = np.asarray(cs, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    if not (cs.shape == alphas.shape == betas.shape) or cs.ndim != 1:
        raise InputError("cs, alphas and betas must be 1-d arrays of equal length")
    if cs.size and (cs.min() < 0.0 or cs.max() > 1.0):
        raise InputError("weights c must lie in [0, 1]")
    coeffs = np.zeros((cs.size, 2, 2))
    coeffs[:, 0, 0] = np.sqrt(1.0 - cs * cs)
    coeffs[:, 1, 1] = cs
    ka_p, ka_m = _kets(alphas)
    kb_p, kb_m = _kets(betas)
    out = np.empty((4, cs.size))
    for row, (left, right) in enumerate(
        [(ka_p, kb_p), (ka_p, kb_m), (ka_m, kb_p), (ka_m, kb_m)]
    ):
        amp = np.einsum("ni,nij,nj->n", left, coeffs, right)
        out[row] = amp * amp
    return out


def diagonal_closed_batch(
    cs: np.ndarray, alphas: np.ndarray, betas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized closed forms ``(p_a, p_b, p_pp, p_mm)`` for the diagonal family."""
    cs = np.asarray(cs, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    betas = np.asarray(betas, dtype=np.float64)
    if not (cs.shape == alphas.shape == betas.shape) or cs.ndim != 1:
        raise InputError("cs, alphas and betas must be 1-d arrays of equal length")
    if cs.size and (cs.min() < 0.0 or cs.max() > 1.0):
        raise InputError("weights c must lie in [0, 1]")
    c2 = cs * cs
    q2 = 1.0 - c2
    ca2, sa2 = np.cos(alphas) ** 2, np.sin(alphas) ** 2
    cb2, sb2 = np.cos(betas) ** 2, np.sin(betas) ** 2
    cross = 0.5 * cs * np.sqrt(q2) * np.sin(2.0 * alphas) * np.sin(2.0 * betas)
    p_a = q2 * ca2 + c2 * sa2
    p_b = q2 * cb2 + c2 * sb2
    p_pp = q2 * ca2 * cb2 + c2 * sa2 * sb2 + cross
    p_mm = q2 * sa2 * sb2 + c2 * ca2 * cb2 + cross
    return (p_a, p_b, p_pp, p_mm)
