"""Acceptance gate: nine criteria, one test (and one printed verdict line) each.

Run ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion; add ``-s`` to see each criterion's measured-detail line.
Every tolerance and runtime budget is stated inline with the assertion.
"""

import json
import math
import time

import numpy as np
import pytest

from leggettlab import (
    MeasurementSettings,
    ScanSpec,
    collapse_sequential,
    cross_term_identity,
    diagonal_joint,
    ensemble_averages,
    estimate,
    expansion_audit,
    frechet_range,
    grid_scan,
    halving_ladder,
    leggett_bounds,
    marginals,
    pointwise_identity,
    random_model,
    reduced_evaluation,
    reduced_lhs_exact,
    refine,
    sample_pairs,
    SequentialHVModel,
    diagonal_state,
)
from leggettlab.cli import main
from leggettlab.kernels import DiagonalScanner
from leggettlab.scan import _axis
from reference import diagonal_closed_batch, diagonal_joint_probabilities

SAMPLE = 100_000


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} -- {detail}")
    assert passed, f"criterion {number}: {detail}"


def random_triplets(n: int, seed: int):
    gen = np.random.Generator(np.random.Philox(seed))
    return gen.random(n), gen.random(n) * math.pi, gen.random(n) * math.pi


def test_criterion_1_closed_forms_match_inner_product_oracle():
    started = time.perf_counter()
    cs, alphas, betas = random_triplets(SAMPLE, seed=101)
    p_a, p_b, p_pp, p_mm = diagonal_closed_batch(cs, alphas, betas)
    probs = diagonal_joint_probabilities(cs, alphas, betas)
    worst = max(
        float(np.max(np.abs(p_pp - probs[0]))),
        float(np.max(np.abs(p_mm - probs[3]))),
        float(np.max(np.abs(p_a - (probs[0] + probs[1])))),
        float(np.max(np.abs(p_b - (probs[0] + probs[2])))),
    )
    elapsed = time.perf_counter() - started
    verdict(
        1,
        worst <= 1e-12 and elapsed < 5.0,
        f"closed forms vs inner products: max|delta| = {worst:.3e} (<= 1e-12) "
        f"over {SAMPLE} random (c, alpha, beta); runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_distribution_sanity_and_no_signalling():
    cs, alphas, betas = random_triplets(SAMPLE, seed=102)
    probs = diagonal_joint_probabilities(cs, alphas, betas)
    sum_error = float(np.max(np.abs(probs.sum(axis=0) - 1.0)))
    min_entry = float(probs.min())
    # Marginal consistency: cell sums against the reduced-state closed form.
    marginal_a = (1.0 - cs * cs) * np.cos(alphas) ** 2 + cs * cs * np.sin(alphas) ** 2
    marginal_error = float(np.max(np.abs((probs[0] + probs[1]) - marginal_a)))
    for c, a, b in zip(cs[:300], alphas[:300], betas[:300]):
        p_a, p_b = marginals(diagonal_state(c), MeasurementSettings(a, b))
        dist = diagonal_joint(c, MeasurementSettings(a, b))
        marginal_error = max(marginal_error, abs(p_a - dist.marginal_a),
                             abs(p_b - dist.marginal_b))
    # No-signalling: P_A must not budge when the remote setting changes.
    _, _, betas_alt = random_triplets(SAMPLE, seed=103)
    probs_alt = diagonal_joint_probabilities(cs, alphas, betas_alt)
    signalling = float(np.max(np.abs((probs[0] + probs[1]) - (probs_alt[0] + probs_alt[1]))))
    ok = (
        sum_error <= 1e-12
        and min_entry >= -1e-12
        and marginal_error <= 1e-12
        and signalling <= 1e-12
    )
    verdict(
        2,
        ok,
        f"distribution sanity over {SAMPLE} samples: max|sum-1| = {sum_error:.3e}, "
        f"min entry = {min_entry:.3e} (>= -1e-12), marginal consistency {marginal_error:.3e}, "
        f"no-signalling {signalling:.3e} (all <= 1e-12)",
    )


def test_criterion_3_hidden_variable_property_suite():
    started = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(104))
    sizes = gen.integers(1, 1001, size=10_000)
    sizes[0], sizes[1] = 1, 1000  # pin the advertised extremes
    worst_overshoot = 0.0
    for index, size in enumerate(sizes):
        model = random_model(int(size), seed=104, stream=index)
        bounds = leggett_bounds(ensemble_averages(model))
        worst_overshoot = max(worst_overshoot, -min(bounds.margin, 0.0))
    identity_exact = all(
        len({*pointwise_identity(a, b)}) == 1
        for a in (1, -1) for b in (1, -1)
    )
    collapse_exact = True
    for k in range(200):
        n = int(gen.integers(1, 300))
        raw = gen.random(n)
        first = (gen.integers(0, 2, n) * 2 - 1).astype(np.int8)
        sgf = (gen.integers(0, 2, (n, 2)) * 2 - 1).astype(np.int8)
        model = SequentialHVModel(weights=raw / raw.sum(), first=first,
                                  second_given_first=sgf)
        collapsed = ensemble_averages(collapse_sequential(model))
        b_eff = np.where(first == 1, sgf[:, 0], sgf[:, 1])
        w = model.weights
        direct = (float(w @ first), float(w @ b_eff), float(w @ (first * b_eff)))
        collapse_exact = collapse_exact and collapsed.as_tuple() == direct
    elapsed = time.perf_counter() - started
    ok = worst_overshoot <= 1e-12 and identity_exact and collapse_exact and elapsed < 30.0
    verdict(
        3,
        ok,
        f"10000 random models (1-1000 labels): max bound overshoot = {worst_overshoot:.3e} "
        f"(<= 1e-12); pointwise identity exact on all 4 sign pairs: {identity_exact}; "
        f"sequential collapse preserves averages bit-exactly on 200 models: {collapse_exact}; "
        f"runtime {elapsed:.1f}s < 30s",
    )


_ENUM_STEP = 1e-3


def _enumeration_range(a_bar: float, b_bar: float) -> tuple[float, float]:
    """Reference range of ``ab_bar``: sweep the one free cell ``p_pp``.

    The sweep covers the feasible interval of ``p_pp`` at step 1e-3,
    endpoints included; the objective is linear in ``p_pp``, so the
    endpoints already realize the extremes.
    """
    p_a = min(max(0.5 * (1.0 + float(a_bar)), 0.0), 1.0)
    p_b = min(max(0.5 * (1.0 + float(b_bar)), 0.0), 1.0)
    low = max(0.0, p_a + p_b - 1.0)
    high = min(p_a, p_b)
    interior = np.arange(low, high, _ENUM_STEP)
    grid = np.concatenate([interior, [low, high]])
    ab = 4.0 * grid - 2.0 * p_a - 2.0 * p_b + 1.0
    return (float(ab.min()), float(ab.max()))


def test_criterion_4_frechet_range_matches_bounds():
    started = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 101)
    a_bars, b_bars = np.meshgrid(grid, grid, indexing="ij")
    lows, highs = frechet_range(a_bars, b_bars)
    worst = max(
        float(np.max(np.abs(lows - (-1.0 + np.abs(a_bars + b_bars))))),
        float(np.max(np.abs(highs - (1.0 - np.abs(a_bars - b_bars))))),
    )
    spot_worst = 0.0
    for a_bar in np.linspace(-1.0, 1.0, 21):
        for b_bar in np.linspace(-1.0, 1.0, 21):
            low, high = frechet_range(float(a_bar), float(b_bar))
            enum_low, enum_high = _enumeration_range(a_bar, b_bar)
            spot_worst = max(
                spot_worst,
                abs(low - (-1.0 + abs(a_bar + b_bar))),
                abs(high - (1.0 - abs(a_bar - b_bar))),
                abs(low - enum_low),
                abs(high - enum_high),
            )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and spot_worst <= 1e-9 and elapsed < 60.0
    verdict(
        4,
        ok,
        f"attainable-range oracle on 101x101 marginal grid: max LP error = {worst:.3e} "
        f"(<= 1e-9), scalar spot check on 21x21 against closed form and enumeration: "
        f"{spot_worst:.3e}; runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_5_truncation_residual_is_second_order():
    ladder = halving_ladder(1e-2, 1e-5)
    summary = []
    ok = True
    for c in (0.1, 0.3, 0.6):
        ratios = expansion_audit(c, ladder).ratios
        ok = ok and all(3.5 <= r <= 4.5 for r in ratios)
        summary.append(f"c={c}: ratios in [{min(ratios):.3f}, {max(ratios):.3f}]")
    verdict(
        5,
        ok,
        "per-halving shrink factor of |S_exact - S_1| within [3.5, 4.5] across "
        f"the 1e-2 -> 1e-5 ladder; {'; '.join(summary)}",
    )


def test_criterion_6_adjudication_of_the_violation_claim():
    started = time.perf_counter()
    spec = ScanSpec(eps_ladder=halving_ladder())  # full default grid, step 1e-3
    report = refine(grid_scan(spec, workers=4), spec)
    elapsed = time.perf_counter() - started

    predicted = report.first_order_predicted_violations
    has_flagged_example = any(
        abs(c - 0.005) < 1e-12 and eps == 1e-2 for c, eps in predicted
    )
    example = reduced_evaluation(0.005, 0.01)
    discrepancy_flagged = bool(predicted) and report.violation_count == 0
    ok = (
        abs(report.max_s - 1.0) <= 1e-9
        and report.violations == ()
        and report.violation_count == 0
        and report.grid_points == 701 * 3142 * 3142
        and has_flagged_example
        and abs(example.lhs_first_order - 1.000151) < 5e-7
        and abs(example.lhs_exact - 0.99994967) < 5e-9
        and example.truncation_discrepancy
        and discrepancy_flagged
        and report.refined
        and elapsed < 60.0
    )
    verdict(
        6,
        ok,
        f"full scan ({report.grid_points} grid points, refined): sup S = {report.max_s!r} "
        f"(|sup S - 1| <= 1e-9), violations list empty; first-order truncation predicts "
        f"{len(predicted)} violations incl. (c=0.005, eps=0.01) where S_1 = "
        f"{example.lhs_first_order:.6f} but S_exact = {example.lhs_exact:.8f}; "
        f"discrepancy flagged: {discrepancy_flagged}; runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_7_cross_term_identity_caps_s():
    cs, alphas, betas = random_triplets(SAMPLE, seed=107)
    probs = diagonal_joint_probabilities(cs, alphas, betas)
    p_a = probs[0] + probs[1]
    p_b = probs[0] + probs[2]
    lhs = np.abs(p_a - p_b) + probs[0] + probs[3]
    rhs = 1.0 - 2.0 * np.minimum(probs[1], probs[2])
    worst = float(np.max(np.abs(lhs - rhs)))
    s_max = float(lhs.max())
    for c, a, b in zip(cs[:1000], alphas[:1000], betas[:1000]):
        left, right = cross_term_identity(c, MeasurementSettings(a, b))
        worst = max(worst, abs(left - right))
    ok = worst <= 1e-12 and s_max <= 1.0 + 1e-12
    verdict(
        7,
        ok,
        f"|P_A - P_B| + p_pp + p_mm = 1 - 2*min(p_pm, p_mp): max|delta| = {worst:.3e} "
        f"(<= 1e-12) over {SAMPLE} random inputs; hence S <= 1 (max observed {s_max!r})",
    )


def test_criterion_8_special_states():
    spec = ScanSpec(
        family="singlet",
        alpha_range=(0.0, math.pi, 0.01),
        beta_range=(0.0, math.pi, 0.01),
    )
    report = refine(grid_scan(spec), spec)
    gap = abs(abs(report.argmax.beta - report.argmax.alpha) - math.pi / 2.0)

    alphas = _axis((0.0, math.pi, 0.01))
    betas = _axis((0.0, math.pi, 0.01))
    scanner = DiagonalScanner(alphas, betas)
    c = 1.0 / math.sqrt(2.0)
    _, _, _, _, (_, i_idx, j_idx, s_vals) = scanner.scan(np.array([c]), -math.inf, alphas.size * betas.size)
    expected = np.cos(alphas[i_idx] - betas[j_idx]) ** 2
    balanced_error = float(np.max(np.abs(s_vals - expected)))
    for k in range(0, i_idx.size, 9973):
        settings = MeasurementSettings(float(alphas[i_idx[k]]), float(betas[j_idx[k]]))
        balanced_error = max(
            balanced_error,
            abs(reduced_lhs_exact(c, settings) - math.cos(settings.alpha - settings.beta) ** 2),
        )
    ok = (
        abs(report.max_s - 1.0) <= 1e-9
        and gap <= 1e-8
        and report.violations == ()
        and balanced_error <= 1e-12
    )
    verdict(
        8,
        ok,
        f"singlet scan: max S = {report.max_s!r} at ||beta - alpha| - pi/2| = {gap:.3e} "
        f"(<= 1e-8), no violations; balanced family (c = 1/sqrt(2)): "
        f"max|S - cos^2(alpha - beta)| = {balanced_error:.3e} (<= 1e-12) "
        f"on a {alphas.size}x{betas.size} grid",
    )


def test_criterion_9_monte_carlo_calibration_and_determinism(capsys):
    started = time.perf_counter()
    dist = diagonal_joint(0.3, MeasurementSettings(0.7, 1.1))
    exact = (dist.marginal_a * 2 - 1, dist.marginal_b * 2 - 1,
             dist.p_pp + dist.p_mm - dist.p_pm - dist.p_mp)
    within = 0
    total = 0
    for seed in range(200):
        est = estimate(sample_pairs(dist, 1_000_000, seed=seed))
        for hat, true, se in zip(est.triple_hat.as_tuple(), exact, est.std_errors):
            total += 1
            if abs(hat - true) <= 4.0 * se:
                within += 1
    fraction = within / total

    counts_single = sample_pairs(dist, 3_000_000, seed=7, workers=1)
    counts_multi = sample_pairs(dist, 3_000_000, seed=7, workers=5)
    args = ("mc", "--c", "0.3", "--alpha", "0.7", "--beta", "1.1",
            "--n", "1000000", "--seed", "7")
    main([*args, "--workers", "1"])
    report_single = capsys.readouterr().out
    main([*args, "--workers", "4"])
    report_multi = capsys.readouterr().out
    byte_identical = counts_single == counts_multi and report_single == report_multi
    json.loads(report_single)  # well-formed
    elapsed = time.perf_counter() - started
    ok = fraction >= 0.99 and byte_identical
    verdict(
        9,
        ok,
        f"n = 1e6, 200 seeded runs: {within}/{total} = {fraction:.1%} of triple components "
        f"within 4 standard errors (>= 99%); byte-identical counts and CLI report across "
        f"worker counts: {byte_identical}; runtime {elapsed:.1f}s",
    )
