"""Exhaustive and refined search for the supremum of the bound's left-hand side.

A :class:`ScanSpec` names a state family and closed coordinate ranges
with steps; :func:`grid_scan` decides S at every grid point (bit for
bit as evaluating it everywhere would) and reports the maximum, its
first (lexicographically smallest) attaining point, every point
exceeding ``1 + tolerance``, and — when an epsilon
ladder is attached — the ``(c, eps)`` pairs where the first-order
truncated condition predicts a violation.  :func:`refine` then polishes
the argmax inside its bracketing grid cells with derivative-free
coordinate search (golden-section bracketing plus parabolic steps; the
objective has absolute-value kinks, so no gradients).

Families:

* ``diagonal`` — the two-parameter entangled family over a ``c`` axis,
  on :class:`~leggettlab.kernels.DiagonalScanner`.
* ``singlet`` and ``positive-parity`` — fixed maximally entangled
  states, angle grid only.
* ``fixed-matrix`` — any supplied :class:`~leggettlab.quantum.PureTwoPhotonState`.

The fixed states run on :class:`~leggettlab.kernels.PlaneScanner`.  Both
scanners evaluate each alpha row only on the windows around its two
roots that a closed-form bound cannot exclude; a scan whose windows
would hold too much of its rows goes to the block engine, which
evaluates every point.

The diagonal family shards its ``c`` axis across worker threads, which share
its tables; a fixed state is one walk of all its alpha rows on the calling
thread, as splitting them was never measured faster.  Each shard is one
``scan`` call, whose result both scanners shape alike: slice maxima, their
first argmax indices, counts per weight (a fixed state has one) and the
first ``VIOLATION_CAP`` hits ``(k, i, j, S)``.  One loop fills the curve in
axis order, shifts each shard's k by its first slice and sums the counts, so
reports are identical for every worker count.  Shards share no mutable
state: listed violations take O(workers x ``VIOLATION_CAP``) memory, and the
merge keeps the first ``VIOLATION_CAP`` of them as packed columns, with no
object per point.
"""

from __future__ import annotations

import contextlib
import math
from array import array
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._json import FLOAT, format_rows
from .config import resolve_workers, shard_map
from .domain import InputError, MeasurementSettings
from .inequalities import _check_ladder, _first_order
from .kernels import DiagonalScanner, PlaneScanner
from .quantum import PureTwoPhotonState, _probability_lhs, positive_parity_state, singlet_state

__all__ = [
    "FAMILIES",
    "MAX_AXIS_POINTS",
    "VIOLATION_CAP",
    "ScanPoint",
    "ScanSpec",
    "ScanReport",
    "halving_ladder",
    "grid_scan",
    "refine",
    "write_csv",
]

FAMILIES = ("diagonal", "singlet", "positive-parity", "fixed-matrix")

# Stored violation rows are capped (the count stays exact); only scans
# run with a deliberately lowered tolerance can produce large lists.
VIOLATION_CAP = 10_000

# Points per scanned axis.  Axis tables and block buffers grow with the
# axis length, so a runaway step (say 1e-12) is refused before anything
# is allocated.
MAX_AXIS_POINTS = 1 << 20


class ScanPoint(NamedTuple):
    """One evaluated point, or packed columns of points (:class:`ScanReport`); ``c`` is None without a weight axis."""

    c: Optional[float]
    alpha: float
    beta: float
    s: float


def _check_range(name: str, rng, lo: float | None = None, hi: float | None = None):
    try:
        start, stop, step = (float(v) for v in rng)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be (start, stop, step), got {rng!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise InputError(f"{name} must be finite, got {rng!r}")
    if step <= 0.0:
        raise InputError(f"{name} step must be > 0, got {step!r}")
    if stop < start:
        raise InputError(f"{name} is empty: stop {stop!r} < start {start!r}")
    if lo is not None and (start < lo or stop > hi):
        raise InputError(f"{name} must lie within [{lo}, {hi}], got {rng!r}")
    # Compare the quotient first: it can overflow to inf, which has no integer size.
    if not (stop - start) / step < MAX_AXIS_POINTS or _axis_size((start, stop, step)) > MAX_AXIS_POINTS:
        raise InputError(f"{name} has more than {MAX_AXIS_POINTS} points, got {rng!r}")
    return (start, stop, step)


@dataclass(frozen=True)
class ScanSpec:
    """Grid description for one scan.

    Ranges are closed: the grid runs ``start, start + step, ...`` and
    includes ``stop`` when it is a whole number of steps away
    (commensurability judged at relative slack 1e-9) and holds at most
    ``MAX_AXIS_POINTS`` points.  ``tolerance`` sets the violation
    threshold ``S > 1 + tolerance``; negative values are permitted to
    exercise the collection path.  ``eps_ladder`` (diagonal family only)
    marks first-order predicted violations.
    """

    family: str = "diagonal"
    c_range: tuple[float, float, float] = (0.0, 0.7, 1e-3)
    alpha_range: tuple[float, float, float] = (0.0, math.pi, 1e-3)
    beta_range: tuple[float, float, float] = (0.0, math.pi, 1e-3)
    tolerance: float = 1e-9
    state: Optional[PureTwoPhotonState] = None
    eps_ladder: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        object.__setattr__(self, "c_range", _check_range("c_range", self.c_range, 0.0, 1.0))
        object.__setattr__(self, "alpha_range", _check_range("alpha_range", self.alpha_range))
        object.__setattr__(self, "beta_range", _check_range("beta_range", self.beta_range))
        if not math.isfinite(self.tolerance) or self.tolerance <= -2.0:
            raise InputError(f"tolerance must be finite and > -2, got {self.tolerance!r}")
        if self.family == "fixed-matrix":
            if not isinstance(self.state, PureTwoPhotonState):
                raise InputError("family 'fixed-matrix' requires a PureTwoPhotonState")
        elif self.state is not None:
            raise InputError(f"family {self.family!r} does not take an explicit state")
        ladder = tuple(self.eps_ladder)
        if ladder and self.family != "diagonal":
            raise InputError("eps_ladder applies only to the diagonal family")
        object.__setattr__(self, "eps_ladder", _check_ladder(ladder))


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a grid scan (optionally refined).

    ``violations`` lists at most ``VIOLATION_CAP`` points in canonical
    (c, alpha, beta) order; ``violation_count`` is always the exact total.
    ``slice_maxima`` is the curve the CSV export writes, one entry per c
    (diagonal family) or per alpha (fixed states).  Both are a
    :class:`ScanPoint` of packed ``array("d")`` columns, ``c`` None for
    fixed states; they compare by value, so reports compare with ``==``.
    """

    family: str
    max_s: float
    argmax: ScanPoint
    grid_points: int
    violations: ScanPoint
    violation_count: int
    first_order_predicted_violations: tuple[tuple[float, float], ...]
    slice_maxima: ScanPoint
    tolerance: float
    wall_time: float
    refined: bool = False


def halving_ladder(start: float = 1e-2, stop: float = 1e-5) -> tuple[float, ...]:
    """``start, start/2, start/4, ...`` down to the last value >= ``stop``."""
    start, stop = float(start), float(stop)
    if not (math.isfinite(start) and math.isfinite(stop)) or not 0.0 < stop <= start:
        raise InputError(f"need 0 < stop <= start, got start={start!r} stop={stop!r}")
    out = []
    eps = start
    while eps >= stop * (1.0 - 1e-12):
        out.append(eps)
        eps *= 0.5
    return tuple(out)


def _axis_size(rng: tuple[float, float, float]) -> int:
    """Point count of a closed-interval grid; endpoint included at relative slack 1e-9."""
    start, stop, step = rng
    quotient = (stop - start) / step
    return int(math.floor(quotient + 1e-9 * (abs(quotient) + 1.0))) + 1


def _axis(rng: tuple[float, float, float]) -> np.ndarray:
    """Closed-interval grid of :func:`_axis_size` points."""
    start, stop, step = rng
    values = start + step * np.arange(_axis_size(rng))
    return np.minimum(np.maximum(values, start), stop)


def _diagonal_lhs(c: float, alpha: float, beta: float) -> float:
    """Scalar S for the diagonal family (same closed form as the kernels)."""
    u = abs(1.0 - 2.0 * c * c)
    w = c * math.sqrt(1.0 - c * c)
    ca2, sa2 = math.cos(alpha) ** 2, math.sin(alpha) ** 2
    cb2, sb2 = math.cos(beta) ** 2, math.sin(beta) ** 2
    return (
        u * abs(ca2 - cb2)
        + (ca2 * cb2 + sa2 * sb2)
        + w * (math.sin(2.0 * alpha) * math.sin(2.0 * beta))
    )


def _plane_lhs(state: PureTwoPhotonState, alpha: float, beta: float) -> float:
    """Scalar probability-form S for a fixed state."""
    return _probability_lhs(state, MeasurementSettings(alpha=alpha, beta=beta))


def _family_state(spec: ScanSpec) -> PureTwoPhotonState:
    if spec.family == "singlet":
        return singlet_state()
    if spec.family == "positive-parity":
        return positive_parity_state()
    return spec.state  # fixed-matrix; validated at spec construction


def _predicted_violations(cs: np.ndarray, ladder: tuple[float, ...]) -> tuple[tuple[float, float], ...]:
    """(c, eps) grid points where the truncated condition predicts violation.

    The condition is :func:`~leggettlab.inequalities.first_order_predicate`'s,
    elementwise; points off its domain ``1 > 2 c^2`` are skipped rather than guessed."""
    marks = [(eps, *_first_order(cs, eps)) for eps in ladder]
    return tuple(sorted((float(c), eps) for eps, holds, in_domain in marks for c in cs[in_domain & ~holds]))


def grid_scan(spec: ScanSpec, *, workers: Optional[int] = None) -> ScanReport:
    """Scan every point of the grid ``spec`` describes; deterministic for any worker count."""
    started = perf_counter()
    workers = resolve_workers(workers)
    alphas = _axis(spec.alpha_range)
    betas = _axis(spec.beta_range)
    threshold = 1.0 + spec.tolerance
    if spec.family == "diagonal":
        cs, scanner = _axis(spec.c_range), DiagonalScanner(alphas, betas)
        parts = shard_map(lambda sl: scanner.scan(cs[sl], threshold, VIOLATION_CAP), cs.size, workers)
    else:
        cs, parts = None, [PlaneScanner(_family_state(spec).coeffs, alphas, betas).scan(threshold, VIOLATION_CAP)]
    size = alphas.size if cs is None else cs.size
    # The curve's packed columns, filled in place shard by shard.
    slice_maxima = ScanPoint(*(None if cs is None and n == 0 else array("d", [0.0]) * size for n in range(4)))
    c_col, a_col, b_col, s_col = (None if v is None else np.frombuffer(v) for v in slice_maxima)
    if cs is not None:
        c_col[:] = cs
    lo = 0
    for max_s, arg_i, arg_j, _, hits in parts:
        hi = lo + max_s.size
        np.take(alphas, arg_i, out=a_col[lo:hi])
        np.take(betas, arg_j, out=b_col[lo:hi])
        s_col[lo:hi] = max_s
        hits[0][:] += lo  # a shard's k counts from its first slice; read only with a c axis
        lo = hi
    # The first VIOLATION_CAP hits in shard order, as packed columns like the curve's.
    k, i, j, s = (np.concatenate(hits)[:VIOLATION_CAP] for hits in zip(*(part[4] for part in parts)))
    violations = ScanPoint(*(None if axis is None else array("d", np.take(axis, idx).tobytes())
                             for axis, idx in ((cs, k), (alphas, i), (betas, j))), array("d", s.tobytes()))
    best = int(np.argmax(s_col))
    return ScanReport(
        family=spec.family,
        max_s=float(s_col[best]),
        argmax=ScanPoint(*(None if v is None else v[best] for v in slice_maxima)),
        grid_points=alphas.size * betas.size * (1 if cs is None else cs.size),
        violations=violations,
        violation_count=int(sum(part[3].sum() for part in parts)),
        first_order_predicted_violations=() if cs is None else _predicted_violations(cs, spec.eps_ladder),
        slice_maxima=slice_maxima,
        tolerance=spec.tolerance,
        wall_time=perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Derivative-free refinement.
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _line_max(
    f: Callable[[float], float], lo: float, hi: float, seed_x: float, seed_f: float
) -> tuple[float, float]:
    """Golden-section bracketing plus parabolic polish on [lo, hi].

    Tracks the best evaluated point, seeded with the incumbent so the
    result never regresses.  The parabolic steps use wide finite
    differences (1e-4, then 1e-6) to see through the floating-point
    flatness at quadratic maxima, where bracketing alone stalls at
    sqrt(eps)-scale accuracy.
    """
    best_x, best_f = seed_x, seed_f
    a, b = lo, hi
    c = a + _INVPHI2 * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    if fc > best_f:
        best_x, best_f = c, fc
    if fd > best_f:
        best_x, best_f = d, fd
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = a + _INVPHI2 * (b - a)
            fc = f(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if fd > best_f:
                best_x, best_f = d, fd
        if b - a < 1e-12:
            break
    for h in (1e-4, 1e-6):
        if hi - lo <= 2.0 * h:
            continue
        x = min(max(best_x, lo + h), hi - h)
        f0, fp, fm = f(x), f(x + h), f(x - h)
        denom = (fp - f0) + (fm - f0)
        if denom < 0.0:  # concave along this line: parabola vertex is a max
            step = 0.5 * h * (fm - fp) / denom
            cand = min(max(x + step, lo), hi)
            f_cand = f(cand)
            if f_cand >= best_f:
                best_x, best_f = cand, f_cand
    return best_x, best_f


def refine(report: ScanReport, spec: ScanSpec) -> ScanReport:
    """Polish the argmax inside its bracketing grid cells.

    Coordinate-wise line maximization cycles over the active axes for at
    most 40 rounds, until positions move < 1e-11 and the value improves
    < 1e-15, and ends where round 40 would once a round repeats an earlier
    state.  max_s never decreases; the argmax stays within one grid step
    of the original.  A grid of one point on every active axis is returned as-is.
    """
    if not isinstance(report, ScanReport):
        raise InputError("refine expects a ScanReport")
    if spec.family != report.family:
        raise InputError(
            f"spec family {spec.family!r} does not match report family {report.family!r}"
        )
    started = perf_counter()

    if spec.family == "diagonal":
        ranges, coords = (spec.c_range, spec.alpha_range, spec.beta_range), list(report.argmax[:3])

        def objective(pt: Sequence[float]) -> float:
            return _diagonal_lhs(pt[0], pt[1], pt[2])

    else:
        state = _family_state(spec)
        ranges, coords = (spec.alpha_range, spec.beta_range), list(report.argmax[1:3])

        def objective(pt: Sequence[float]) -> float:
            return _plane_lhs(state, pt[0], pt[1])

    brackets = []
    for grid, coord in zip(map(_axis, ranges), coords):
        idx = int(np.argmin(np.abs(grid - coord)))
        brackets.append((float(grid[max(idx - 1, 0)]), float(grid[min(idx + 1, grid.size - 1)])))
    if all(lo == hi for lo, hi in brackets):
        return report

    value = report.max_s
    # Each round is a pure function of (coords, value): a repeat cycles on.
    seen: dict = {}
    for round_ in range(40):
        first = seen.setdefault(tuple(map(float.hex, (*coords, value))), round_)
        if first < round_:
            *coords, value = map(float.fromhex, list(seen)[first + (40 - first) % (round_ - first)])
            break
        improved = 0.0
        moved = 0.0
        for k, (lo, hi) in enumerate(brackets):
            if lo == hi:
                continue

            def along(t: float, k: int = k) -> float:
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

    return replace(
        report,
        max_s=max(report.max_s, value),
        argmax=ScanPoint(*coords, value) if spec.family == "diagonal" else ScanPoint(None, *coords, value),
        refined=True,
        wall_time=report.wall_time + (perf_counter() - started),
    )


def write_csv(report: ScanReport, path):
    """Write the slice-maxima curve as ``c,alpha,beta,S`` rows, a chunk at a time, to a path or an open text file."""
    fields = [v for v in report.slice_maxima if v is not None]
    row = ("" if report.slice_maxima.c is None else FLOAT) + f",{FLOAT},{FLOAT},{FLOAT}\n"
    with contextlib.nullcontext(path) if hasattr(path, "write") else open(path, "w", encoding="utf-8") as fh:
        fh.write("c,alpha,beta,S\n")
        fh.writelines(format_rows(row, fields))
    return path
