"""Grid scans, argmax refinement, predicted-violation marking, and CSV export."""

import csv
import io
import math
import os
import sys
import threading
import tracemalloc
from array import array
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leggettlab import (
    InputError,
    PureTwoPhotonState,
    ScanPoint,
    ScanReport,
    ScanSpec,
    expansion_audit,
    first_order_predicate,
    grid_scan,
    halving_ladder,
    refine,
    singlet_state,
    write_csv,
)
from leggettlab import kernels
from leggettlab import scan as scan_module
from leggettlab.config import resolve_workers, shard_map
from leggettlab.kernels import DiagonalScanner, PlaneScanner
from leggettlab._json import CHUNK
from leggettlab.scan import MAX_AXIS_POINTS, VIOLATION_CAP, _axis, _axis_size
from reference import plane_reference, reference_scan, refine_reference


class TestScanSpec:
    def test_defaults_are_valid(self):
        spec = ScanSpec()
        assert spec.family == "diagonal"
        assert spec.tolerance == 1e-9

    def test_unknown_family(self):
        with pytest.raises(InputError):
            ScanSpec(family="triplet")

    def test_refinement_is_no_field(self):
        # Whether to refine is the caller's choice of refine(); the grid does not carry it.
        with pytest.raises(TypeError):
            ScanSpec(refine=False)

    def test_range_validation(self):
        with pytest.raises(InputError):
            ScanSpec(c_range=(0.0, 0.7, -1e-3))
        with pytest.raises(InputError):
            ScanSpec(c_range=(0.5, 0.2, 1e-3))
        with pytest.raises(InputError):
            ScanSpec(c_range=(0.0, 1.5, 1e-3))
        with pytest.raises(InputError):
            ScanSpec(alpha_range=(0.0, math.nan, 1e-3))
        with pytest.raises(InputError, match=r"must be \(start, stop, step\)"):
            ScanSpec(c_range=(0, 1))

    def test_axis_point_budget(self):
        at_cap = (0.0, float(MAX_AXIS_POINTS - 1), 1.0)
        assert _axis_size(at_cap) == MAX_AXIS_POINTS
        ScanSpec(family="singlet", alpha_range=at_cap)  # accepted, never scanned
        for rng in ((0.0, float(MAX_AXIS_POINTS), 1.0), (0.0, math.pi, 1e-12),
                    (0.0, math.pi, 5e-324), (-1e308, 1e308, 1.0)):
            with pytest.raises(InputError, match="points"):
                ScanSpec(family="singlet", beta_range=rng)
        with pytest.raises(InputError, match="points"):
            ScanSpec(c_range=(0.0, 0.7, 1e-9))

    def test_tolerance_bounds(self):
        ScanSpec(tolerance=-0.5)  # negative allowed for collection testing
        with pytest.raises(InputError):
            ScanSpec(tolerance=-2.0)
        with pytest.raises(InputError):
            ScanSpec(tolerance=math.inf)

    def test_state_only_for_fixed_matrix(self):
        with pytest.raises(InputError):
            ScanSpec(family="fixed-matrix")
        with pytest.raises(InputError):
            ScanSpec(family="singlet", state=singlet_state())
        ScanSpec(family="fixed-matrix", state=singlet_state())

    def test_eps_ladder_rules(self):
        ScanSpec(eps_ladder=(1e-2, 1e-3))
        with pytest.raises(InputError):
            ScanSpec(family="singlet", eps_ladder=(1e-2,))
        with pytest.raises(InputError):
            ScanSpec(eps_ladder=(1e-3, 1e-2))
        with pytest.raises(InputError):
            ScanSpec(eps_ladder=(1e-2, 0.0))

    @pytest.mark.parametrize("ladder", [
        (1e-2, 0.0), (1e-2, -1e-3), (math.nan,), (math.inf, 1e-2), (1e-2, 1e-2), (1e-3, 1e-2),
    ])
    def test_eps_ladder_rules_are_expansion_audits(self, ladder):
        # One ladder rule: a scan refuses every ladder the audit refuses, with the audit's message.
        with pytest.raises(InputError) as spec_error:
            ScanSpec(eps_ladder=ladder)
        with pytest.raises(InputError) as audit_error:
            expansion_audit(0.3, ladder)
        assert str(spec_error.value) == str(audit_error.value)


class TestAxis:
    def test_endpoint_included_despite_rounding(self):
        grid = _axis((0.0, 0.7, 1e-3))
        assert grid.size == 701
        assert grid[0] == 0.0 and grid[-1] == 0.7

    def test_angle_axis_size(self):
        # pi is not a whole number of 1e-3 steps away, so the last grid
        # value is 3.141; the closed endpoint only joins commensurate grids.
        grid = _axis((0.0, math.pi, 1e-3))
        assert grid.size == 3142
        assert grid[-1] == pytest.approx(3.141, abs=1e-12)
        assert grid[-1] <= math.pi

    def test_incommensurate_stop_excluded(self):
        grid = _axis((0.0, 0.25, 0.1))
        assert grid.size == 3
        assert grid[-1] == pytest.approx(0.2)

    def test_single_point(self):
        grid = _axis((0.3, 0.3, 1.0))
        assert grid.tolist() == [0.3]

    def test_values_clamped_to_range(self):
        grid = _axis((0.0, 1.0, 0.1))
        assert grid[0] >= 0.0 and grid[-1] <= 1.0
        assert grid.size == 11


class TestHalvingLadder:
    def test_default_ladder(self):
        ladder = halving_ladder()
        assert len(ladder) == 10
        assert ladder[0] == 1e-2
        assert ladder[-1] == pytest.approx(1e-2 / 2**9)
        assert all(b == a / 2 for a, b in zip(ladder, ladder[1:]))

    def test_stop_is_inclusive(self):
        assert halving_ladder(8e-3, 1e-3) == (8e-3, 4e-3, 2e-3, 1e-3)

    def test_stop_within_rounding_is_inclusive(self):
        # (0.1 + 0.2) / 4 lies one ulp above 0.3 / 4, the third rung.
        assert halving_ladder(0.3, (0.1 + 0.2) / 4) == (0.3, 0.15, 0.075)

    def test_validation(self):
        with pytest.raises(InputError):
            halving_ladder(1e-5, 1e-2)
        with pytest.raises(InputError):
            halving_ladder(1e-2, 0.0)


COARSE = dict(
    c_range=(0.0, 0.7, 0.05),
    alpha_range=(0.0, math.pi, 0.05),
    beta_range=(0.0, math.pi, 0.05),
)
# No listed violations: four empty packed columns, or three with c None for a fixed state.
NONE_LISTED = ScanPoint(array("d"), array("d"), array("d"), array("d"))
NONE_LISTED_PLANE = NONE_LISTED._replace(c=None)


class TestGridScanDiagonal:
    def test_never_exceeds_unity(self):
        report = grid_scan(ScanSpec(**COARSE))
        assert report.max_s <= 1.0 + 1e-12
        assert report.violations == NONE_LISTED
        assert report.violation_count == 0
        assert report.family == "diagonal"

    def test_grid_point_count(self):
        report = grid_scan(ScanSpec(**COARSE))
        assert report.grid_points == 15 * 63 * 63

    def test_argmax_prefers_lexicographically_smallest(self):
        report = grid_scan(ScanSpec(**COARSE))
        # S = 1 exactly at (c=0, alpha=0, beta=0) and on a whole plateau;
        # the first grid point in (c, alpha, beta) order must win.
        assert report.max_s == 1.0
        assert report.argmax == ScanPoint(0.0, 0.0, 0.0, 1.0)

    def test_worker_count_does_not_change_results(self):
        one = grid_scan(ScanSpec(**COARSE), workers=1)
        many = grid_scan(ScanSpec(**COARSE), workers=4)
        assert replace(one, wall_time=0.0) == replace(many, wall_time=0.0)

    @pytest.mark.parametrize("tolerance", [1e-9, -1e-12, -1e-5])
    def test_workers_agree_across_row_chunks(self, monkeypatch, tolerance):
        # 158 alpha rows in chunks of at most 40: four chunks, cut mid-grid,
        # under each of the two shards of c slices.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(kernels, "_CHUNK_ROWS", 40)
        spec = ScanSpec(c_range=(0.0, 0.7, 0.05), alpha_range=(0.0, math.pi, 0.02),
                        beta_range=(0.0, math.pi, 0.02), tolerance=tolerance)
        assert len(list(DiagonalScanner(_axis(spec.alpha_range), _axis(spec.beta_range))._chunks())) == 4
        one = grid_scan(spec, workers=1)
        two = grid_scan(spec, workers=2)
        assert replace(one, wall_time=0.0) == replace(two, wall_time=0.0)
        assert (one.violation_count > 0) == (tolerance < 0)

    def test_each_shard_lists_at_most_the_cap(self, monkeypatch):
        # Nearly every point is over 0.1, so each of the two shards counts
        # more than the cap; each lists only its own first VIOLATION_CAP.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = ScanSpec(c_range=(0.0, 0.1, 0.01), alpha_range=(0.0, math.pi, 0.05),
                        beta_range=(0.0, math.pi, 0.05), tolerance=-0.9)
        listed = []
        scan = DiagonalScanner.scan

        def recorded(self, cs, *args):
            result = scan(self, cs, *args)
            listed.append((int(result[3].sum()), result[4][0].size))
            return result

        monkeypatch.setattr(DiagonalScanner, "scan", recorded)
        two = grid_scan(spec, workers=2)
        assert len(listed) == 2 and sum(counted for counted, _ in listed) == two.violation_count
        assert all(counted > VIOLATION_CAP == size for counted, size in listed)
        monkeypatch.undo()
        assert replace(two, wall_time=0.0) == replace(grid_scan(spec, workers=1), wall_time=0.0)

    def test_capped_listing_under_thread_switches(self, monkeypatch):
        # Six shards on any host, switching threads every microsecond: the
        # merge keeps the first violations in axis order whichever shard
        # finishes first.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.setattr(scan_module, "VIOLATION_CAP", 700)
        spec = ScanSpec(c_range=(0.0, 0.5, 0.05), alpha_range=(0.0, math.pi, 0.05),
                        beta_range=(0.0, math.pi, 0.05), tolerance=-0.5)
        one = grid_scan(spec, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = grid_scan(spec, workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert replace(one, wall_time=0.0) == replace(many, wall_time=0.0)
        assert {len(v) for v in one.violations if v is not None} == {700} and 700 < one.violation_count

    def test_worker_request_capped_at_cpu_count(self, monkeypatch):
        # Only resolved here: a pool of this size is never started.
        cap = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        assert resolve_workers(10**6) == cap
        assert resolve_workers(1) == resolve_workers() == 1
        # A taskset or cpuset run sees fewer CPUs than the machine has.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        assert resolve_workers(4) == 1
        # Without an affinity mask the machine's CPU count caps, 1 when unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_workers(4) == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(4) == 1

    def test_shard_map_slices(self):
        n = 10**15
        shards = shard_map(lambda sl: sl, n, 4)  # returns the slices; no work per item
        assert len(shards) == 4
        assert shards[0].start == 0 and shards[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(shards, shards[1:]))
        assert shard_map(lambda sl: (sl.start, sl.stop), 3, 4) == [(0, 1), (1, 2), (2, 3)]
        assert shard_map(lambda sl: threading.get_ident(), n, 1) == [threading.get_ident()]

    def test_slice_maxima_cover_c_axis(self):
        report = grid_scan(ScanSpec(**COARSE))
        curve = report.slice_maxima
        assert len(curve.c) == len(curve.s) == 15
        assert report.max_s == max(curve.s)
        assert list(curve.c) == sorted(curve.c)

    def test_lowered_tolerance_collects_ordered_violations(self):
        spec = ScanSpec(
            tolerance=-0.2,
            c_range=(0.0, 0.2, 0.1),
            alpha_range=(0.0, math.pi, 0.1),
            beta_range=(0.0, math.pi, 0.1),
        )
        report = grid_scan(spec)
        listed = report.violations
        assert all(type(v) is array and len(v) == len(listed.s) for v in listed)
        assert report.violation_count == len(listed.s) > 0
        for s in listed.s:
            assert s > 1.0 + spec.tolerance
        keys = list(zip(listed.c, listed.alpha, listed.beta))
        assert keys == sorted(keys)

    def test_violation_rows_capped_count_exact(self):
        spec = ScanSpec(
            tolerance=-1.5,
            c_range=(0.0, 0.2, 0.05),
            alpha_range=(0.0, math.pi, 0.02),
            beta_range=(0.0, math.pi, 0.02),
        )
        report = grid_scan(spec)
        assert [len(v) for v in report.violations] == [VIOLATION_CAP] * 4
        assert report.violation_count > VIOLATION_CAP

    def test_predicted_violations_marked(self):
        spec = ScanSpec(
            c_range=(0.0, 0.1, 1e-3),
            alpha_range=(0.0, 0.2, 0.1),
            beta_range=(0.0, 0.2, 0.1),
            eps_ladder=(1e-2, 5e-3),
        )
        report = grid_scan(spec)
        predicted = report.first_order_predicted_violations
        assert predicted
        assert any(abs(c - 0.005) < 1e-12 and eps == 1e-2 for c, eps in predicted)
        assert list(predicted) == sorted(predicted)
        # Every flagged c is small: the truncated condition only fails
        # when c is of order eps.
        for c, eps in predicted:
            assert c <= 2.0 * eps / (1.0 - 2.0 * eps) + 1e-12
        # And the scan itself found no actual violation anywhere.
        assert report.violation_count == 0

    @pytest.mark.parametrize("eps", [0.004950740141778044, 0.004950740141778043])
    def test_predicted_violations_agree_with_the_predicate(self, eps):
        # At c = 0.01 the first eps breaks the truncated condition by an ulp;
        # at the second its right side rounds to c exactly, so it holds.
        predicted = scan_module._predicted_violations(np.array([0.01]), (eps,))
        assert predicted == (() if first_order_predicate(0.01, eps) else ((0.01, eps),))
        assert first_order_predicate(0.01, eps) == (eps == 0.004950740141778043)

    def test_predicted_violations_agree_with_the_predicate_near_equality(self):
        rng = np.random.default_rng(7)
        for c in rng.uniform(1e-6, 0.7, 500):
            eps = c / (2.0 * c + 2.0 * math.sqrt(1.0 - c * c)) * (1.0 + int(rng.integers(-3, 4)) * 2.0**-52)
            predicted = scan_module._predicted_violations(np.array([c]), (eps,))
            assert (predicted == ()) == first_order_predicate(float(c), eps), (c, eps)

    def test_empty_ladder_marks_nothing(self):
        report = grid_scan(ScanSpec(**COARSE))
        assert report.first_order_predicted_violations == ()


class TestGridScanPlanes:
    def test_singlet_max_and_count(self):
        spec = ScanSpec(
            family="singlet",
            alpha_range=(0.0, math.pi, 0.02),
            beta_range=(0.0, math.pi, 0.02),
        )
        report = grid_scan(spec)
        assert report.max_s <= 1.0 + 1e-12
        assert report.max_s == pytest.approx(1.0, abs=1e-3)
        assert report.argmax.c is None
        assert report.grid_points == 158 * 158
        assert report.violations == NONE_LISTED_PLANE

    def test_positive_parity_closed_form(self):
        spec = ScanSpec(
            family="positive-parity",
            alpha_range=(0.0, math.pi, 0.05),
            beta_range=(0.0, math.pi, 0.05),
        )
        curve = grid_scan(spec).slice_maxima
        assert curve.c is None and len(curve.s) == _axis_size(spec.alpha_range)
        for alpha, s in zip(curve.alpha, curve.s):
            best = max(math.cos(alpha - b) ** 2 for b in _axis(spec.beta_range))
            assert s == pytest.approx(best, abs=1e-12)

    def test_fixed_matrix_reproduces_named_family(self):
        angle_kw = dict(
            alpha_range=(0.0, math.pi, 0.1),
            beta_range=(0.0, math.pi, 0.1),
        )
        named = grid_scan(ScanSpec(family="singlet", **angle_kw))
        supplied = grid_scan(
            ScanSpec(family="fixed-matrix", state=singlet_state(), **angle_kw)
        )
        assert named.max_s == supplied.max_s
        assert named.argmax.alpha == supplied.argmax.alpha
        assert named.argmax.beta == supplied.argmax.beta

    def test_a_fixed_state_is_one_walk_on_the_calling_thread(self, monkeypatch):
        # Four CPUs and four workers still make one scan of every row on this thread.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        spec = ScanSpec(family="positive-parity", alpha_range=(0.0, math.pi, 0.05),
                        beta_range=(0.0, math.pi, 0.05), tolerance=-0.5)
        threads = []
        scan = PlaneScanner.scan

        def recorded(self, *args):
            threads.append(threading.get_ident())
            return scan(self, *args)

        monkeypatch.setattr(PlaneScanner, "scan", recorded)
        four = grid_scan(spec, workers=4)
        assert threads == [threading.get_ident()]
        assert replace(four, wall_time=0.0) == replace(grid_scan(spec, workers=1), wall_time=0.0)


def _spec_state(family, seed):
    """``(family, state)`` of a ScanSpec: a named family, or a random real or complex state."""
    if family not in ("real", "complex"):
        return family, None
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=4) + (1j * rng.normal(size=4) if family == "complex" else 0.0)
    return "fixed-matrix", PureTwoPhotonState((coeffs / np.linalg.norm(coeffs)).reshape(2, 2))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["diagonal", "singlet", "positive-parity", "real", "complex"]),
       seed=st.integers(0, 2**16), nc=st.integers(1, 6), na=st.integers(1, 8), nb=st.integers(1, 8),
       step=st.floats(0.05, 0.8), tolerance=st.sampled_from([-1.5, -0.5, -1e-3, -1e-12, 1e-9]),
       workers=st.integers(1, 3))
def test_violations_match_reference_across_shards(family, seed, nc, na, nb, step, tolerance, workers):
    """Slice maxima, count and capped violations equal the point-by-point reference.

    Slices are c values, split into up to 3 shards, or the alpha rows of a
    fixed state's one walk, which starts no thread and so runs at 1 worker.
    With n violations in all, caps of 0, 1, n - 1, n and n + 5 cut the list
    inside a slice, between slices or shards, or not at all.
    """
    family, state = _spec_state(family, seed)
    workers = workers if family == "diagonal" else 1
    spec = ScanSpec(family=family, c_range=(0.0, (nc - 1) * 0.1, 0.1),
                    alpha_range=(0.0, (na - 1) * step, step),
                    beta_range=(0.3, 0.3 + (nb - 1) * step, step),
                    tolerance=tolerance, state=state)
    alphas, betas = _axis(spec.alpha_range), _axis(spec.beta_range)
    threshold = 1.0 + tolerance
    if family == "diagonal":
        cs = _axis(spec.c_range)
        max_s, arg_i, arg_j, n_over, (k, i, j, s) = reference_scan(alphas, betas, cs, threshold)
        weight = [float(c) for c in cs]
    else:
        scanner = PlaneScanner(scan_module._family_state(spec).coeffs, alphas, betas)
        max_s, arg_i, arg_j, n_over, (k, i, j, s) = plane_reference(scanner, threshold)
        weight = [None] * alphas.size
    count = int(n_over.sum())
    maxima = [ScanPoint(weight[n], float(alphas[arg_i[n]]), float(betas[arg_j[n]]), float(max_s[n]))
              for n in range(len(weight))]
    hits = [ScanPoint(weight[a], float(alphas[b]), float(betas[c]), float(d))
            for a, b, c, d in zip(k, i, j, s)]
    assert count == len(hits)
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1, 2}, create=True), \
            mock.patch.object(os, "cpu_count", lambda: 3):
        for cap in sorted({0, 1, max(count - 1, 0), count, count + 5}):
            with mock.patch.object(scan_module, "VIOLATION_CAP", cap):
                report = grid_scan(spec, workers=workers)
            curve = report.slice_maxima
            assert (curve.c is None) == (family != "diagonal")
            assert all(type(v) is array for v in curve if v is not None)
            assert [ScanPoint(*(None if v is None else v[n] for v in curve)) for n in range(len(curve.s))] == maxima
            assert report.argmax == maxima[int(np.argmax(max_s))]
            assert report.violation_count == count
            listed = report.violations
            assert all(type(v) is array for v in listed if v is not None)
            assert listed == ScanPoint(*(None if weight[0] is None and n == 0 else array("d", [p[n] for p in hits[:cap]])
                                         for n in range(4))), cap


class TestRefine:
    def test_singlet_argmax_lands_on_quarter_turn(self):
        spec = ScanSpec(
            family="singlet",
            alpha_range=(0.0, math.pi, 0.1),
            beta_range=(0.0, math.pi, 0.1),
        )
        report = refine(grid_scan(spec), spec)
        assert report.refined
        assert abs(report.max_s - 1.0) <= 1e-9
        assert abs(abs(report.argmax.beta - report.argmax.alpha) - math.pi / 2.0) <= 1e-8

    def test_never_decreases_max(self):
        spec = ScanSpec(**COARSE)
        coarse = grid_scan(spec)
        polished = refine(coarse, spec)
        assert polished.max_s >= coarse.max_s
        assert polished.max_s <= 1.0 + 1e-12

    def test_argmax_stays_within_bracket(self):
        spec = ScanSpec(**COARSE)
        coarse = grid_scan(spec)
        polished = refine(coarse, spec)
        assert abs(polished.argmax.c - coarse.argmax.c) <= 0.05 + 1e-12
        assert abs(polished.argmax.alpha - coarse.argmax.alpha) <= 0.05 + 1e-12
        assert abs(polished.argmax.beta - coarse.argmax.beta) <= 0.05 + 1e-12

    @pytest.mark.parametrize("step", [5e-4, 1e-2])
    def test_stops_at_its_cycle_with_the_40_round_result(self, monkeypatch, step):
        # On the benchmark toolkit's fixed-matrix state at step 5e-4 the
        # ascent alternates between two points from round 1 to round 40; at
        # 1e-2 it meets its stop rule.  Either way the result is the 40-round
        # loop's, bit for bit.
        coeffs = np.array([[0.3018015947633647, 0.7228650868819381], [0.5339238809738273, 0.3182878459685576]])
        spec = ScanSpec(family="fixed-matrix", state=PureTwoPhotonState(coeffs),
                        alpha_range=(0.0, math.pi, step), beta_range=(0.0, math.pi, step))
        report = grid_scan(spec)
        want, want_calls = refine_reference(report, spec)
        calls = []
        plane_lhs = scan_module._plane_lhs
        monkeypatch.setattr(scan_module, "_plane_lhs", lambda *args: calls.append(args) or plane_lhs(*args))
        got = refine(report, spec)
        assert replace(got, wall_time=0.0) == replace(want, wall_time=0.0)
        assert len(calls) * (10 if step == 5e-4 else 1) == want_calls

    def test_cycle_entered_at_an_odd_round_ends_where_round_40_would(self):
        # Here the ascent alternates between two points from round 1, so the
        # 40-round loop ends on the second of them, not on the first.
        spec = ScanSpec(c_range=(0.0, 1.0, 0.1), alpha_range=(0.009249947371056753, math.pi, 0.15),
                        beta_range=(0.009249947371056753, math.pi, 0.15))
        report = grid_scan(spec)
        want, _ = refine_reference(report, spec)
        assert replace(refine(report, spec), wall_time=0.0) == replace(want, wall_time=0.0)

    def test_one_point_c_axis_stays_put(self):
        # The c bracket is a point, so only the angles move; c keeps its one value.
        spec = ScanSpec(c_range=(0.3, 0.3, 0.1), alpha_range=(0.0, math.pi, 0.1), beta_range=(0.0, math.pi, 0.1))
        report = grid_scan(spec)
        polished = refine(report, spec)
        assert polished.refined and polished.argmax.c == report.argmax.c == 0.3
        assert polished.max_s >= report.max_s

    def test_brackets_of_a_5e_5_grid_take_no_1e_4_step(self, monkeypatch):
        # Each bracket spans at most two cells of 5e-5, no wider than 2e-4: _line_max skips its
        # 1e-4 parabola step, whose probes x +- 1e-4 would leave the bracket, and every probe stays in it.
        spec = ScanSpec(family="singlet", alpha_range=(0.3, 0.301, 5e-5), beta_range=(1.87, 1.871, 5e-5))
        report = grid_scan(spec)
        probes = []
        plane_lhs = scan_module._plane_lhs
        monkeypatch.setattr(scan_module, "_plane_lhs", lambda state, a, b: probes.append((a, b)) or plane_lhs(state, a, b))
        polished = refine(report, spec)
        assert probes and polished.max_s >= report.max_s
        for start, got in zip((report.argmax.alpha, report.argmax.beta), zip(*probes)):
            assert np.max(np.abs(np.array(got) - start)) <= 5e-5 * (1.0 + 1e-9)

    def test_family_mismatch_rejected(self):
        report = grid_scan(ScanSpec(**COARSE))
        with pytest.raises(InputError):
            refine(report, ScanSpec(family="singlet"))
        with pytest.raises(InputError):
            refine("report", ScanSpec(**COARSE))

    def test_degenerate_grid_returned_unchanged(self):
        spec = ScanSpec(
            c_range=(0.3, 0.3, 1.0),
            alpha_range=(0.5, 0.5, 1.0),
            beta_range=(1.0, 1.0, 1.0),
        )
        report = grid_scan(spec)
        assert refine(report, spec) is report


def _thin_spec(family, slices):
    """``slices`` c values of a 4 x 4 grid (diagonal), or as many alpha rows against 4 beta columns."""
    axis, four = (0.0, (slices - 1) / slices, 1.0 / slices), (0.0, math.pi, math.pi / 3)
    if family == "diagonal":
        return ScanSpec(c_range=axis, alpha_range=four, beta_range=four)
    return ScanSpec(family=family, alpha_range=axis, beta_range=four)


class TestWriteCsv:
    def test_header_and_rows(self, tmp_path):
        report = grid_scan(ScanSpec(**COARSE))
        path = str(tmp_path / "curve.csv")
        assert write_csv(report, path) == path
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c", "alpha", "beta", "S"]
        curve = report.slice_maxima
        assert len(rows) == 1 + len(curve.s)
        for row, c, s in zip(rows[1:], curve.c, curve.s):
            assert float(row[0]) == c
            assert float(row[3]) == s

    def test_plane_families_leave_c_empty(self, tmp_path):
        spec = ScanSpec(
            family="singlet",
            alpha_range=(0.0, 1.0, 0.5),
            beta_range=(0.0, 1.0, 0.5),
        )
        path = str(tmp_path / "plane.csv")
        write_csv(grid_scan(spec), path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c", "alpha", "beta", "S"]
        for row in rows[1:]:
            assert row[0] == ""

    @pytest.mark.parametrize("family", ["diagonal", "singlet"])
    def test_rows_across_a_chunk_boundary(self, tmp_path, family):
        # One chunk plus 3 rows: the last chunk is short.
        rows = CHUNK + 3
        report = grid_scan(_thin_spec(family, rows))
        curve = report.slice_maxima
        assert len(curve.s) == rows
        want = ["c,alpha,beta,S\n"]
        for n in range(rows):
            c = "" if curve.c is None else format(curve.c[n], ".17g")
            want.append(f"{c},{format(curve.alpha[n], '.17g')},{format(curve.beta[n], '.17g')},"
                        f"{format(curve.s[n], '.17g')}\n")
        path = tmp_path / "curve.csv"
        write_csv(report, str(path))
        assert path.read_bytes() == "".join(want).encode()
        text = io.StringIO()
        write_csv(report, text)
        assert text.getvalue() == "".join(want)


@pytest.mark.parametrize("family", ["diagonal", "singlet"])
def test_curve_memory_stays_bounded(tmp_path, family):
    """2^16 c values of a 4 x 4 grid, or singlet alpha rows of 4 points: no Python object per slice.

    One ScanPoint per slice peaked at 13.6 MB (diagonal) and 15.1 MB
    (singlet) in grid_scan, and formatting the whole curve at once at
    8.1 and 14.4 MB in write_csv.  Concatenated copies of the shards'
    columns peaked at 8.1 MB (diagonal); filled in place, 5.3 MB.  The
    singlet's 9.7 MB was PlaneScanner's tables, built from P_A over the
    whole alpha axis at once; built a block of rows at a time, 6.8 MB."""
    spec = _thin_spec(family, 1 << 16)
    peaks = []
    tracemalloc.start()
    try:
        report = grid_scan(spec, workers=1)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_csv(report, str(tmp_path / "curve.csv"))
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert len(report.slice_maxima.s) == 1 << 16
    assert peaks[0] < (6.5 if family == "diagonal" else 7.5) * 2**20 and peaks[1] < 4 * 2**20, peaks


class TestScanReportShape:
    def test_report_is_a_frozen_record(self):
        report = grid_scan(ScanSpec(**COARSE))
        assert isinstance(report, ScanReport)
        with pytest.raises(Exception):
            report.max_s = 2.0

    def test_wall_time_recorded(self):
        report = grid_scan(ScanSpec(**COARSE))
        assert report.wall_time > 0.0
        assert not report.refined
