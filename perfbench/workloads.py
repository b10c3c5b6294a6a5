"""The benchmark's workloads: seeded CLI inputs and the checks on their outputs.

A workload is a list of :class:`Command` objects that one closed-loop
client issues in order, each in a fresh interpreter.  Every input that
varies is drawn from the run's seed, so the same seed gives the same
commands.  Each command carries its expected exit code and a check that
returns the problems it found in the command's JSON report (an empty
list means the output is correct).

The checks import ``leggettlab`` from the checkout only for reference
values (the first-order predicate, the epsilon ladder, the exact S);
they never call the code path they check.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from leggettlab.domain import MeasurementSettings
from leggettlab.inequalities import first_order_lhs, first_order_predicate, reduced_lhs_exact
from leggettlab.scan import halving_ladder

NAMES = ("adjudicate", "census", "toolkit")

PAPER_STEP = 1e-3
C_MAX = 0.7
MAX_S_TOL = 1e-9
CENSUS_TOLERANCE = -1e-12
CENSUS_S_TOL = 1e-15
EVAL_S_TOL = 1e-15
MC_SAMPLES = 100_000_000
MC_Z_LIMIT = 5.0
HV_FRECHET_GRID = 31
FRECHET_TOL = 1e-9
PLANE_STEP = 5e-4
EVAL_POINTS = 3

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``label`` names its latency metric group."""

    label: str
    argv: tuple
    exit_code: int
    check: Check
    points: int = 0


def axis(start: float, stop: float, step: float) -> list:
    """The CLI's closed grid axis: ``start + step*k``, endpoint at relative slack 1e-9."""
    quotient = (stop - start) / step
    n = int(math.floor(quotient + 1e-9 * (abs(quotient) + 1.0))) + 1
    return [min(max(start + step * k, start), stop) for k in range(n)]


def closed_form_s(c: float, alpha: float, beta: float) -> float:
    """S for the diagonal family, written out independently of the package."""
    ca2, sa2 = math.cos(alpha) ** 2, math.sin(alpha) ** 2
    cb2, sb2 = math.cos(beta) ** 2, math.sin(beta) ** 2
    return (abs(1.0 - 2.0 * c * c) * abs(ca2 - cb2) + ca2 * cb2 + sa2 * sb2
            + c * math.sqrt(1.0 - c * c) * math.sin(2.0 * alpha) * math.sin(2.0 * beta))


def _require(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _angle_flags(shift: float, step: float) -> tuple:
    """Alpha and beta over [0, pi] moved by ``shift`` of a step; the count is unchanged."""
    lo, hi = shift * step, math.pi + shift * step
    flags = []
    for name in ("alpha", "beta"):
        flags += [f"--{name}-min", repr(lo), f"--{name}-max", repr(hi), f"--{name}-step", repr(step)]
    return tuple(flags), len(axis(lo, hi, step))


def check_adjudication(report: dict, cs: list, points: int) -> list:
    """The paper's verdict: sup S = 1, no violation, the truncation's predictions flagged."""
    r = report["results"]
    problems: list = []
    _require(problems, abs(r["max_S"] - 1.0) <= MAX_S_TOL, f"max_S {r['max_S']!r} is not 1")
    _require(problems, r["violation_count"] == 0, f"{r['violation_count']} violations")
    _require(problems, r["grid_points"] == points, f"grid_points {r['grid_points']} != {points}")
    expected = {(c, eps) for c in cs if 1.0 > 2.0 * c * c
                for eps in halving_ladder() if not first_order_predicate(c, eps)}
    got = [(p["c"], p["eps"]) for p in r["first_order_predicted_violations"]]
    _require(problems, len(got) == len(expected) and set(got) == expected,
             f"{len(got)} predicted pairs, expected {len(expected)}")
    _require(problems, r["truncation_discrepancy"] is True, "truncation_discrepancy is not true")
    return problems


def check_census(report: dict, csv_path: Path, c_count: int, points: int) -> list:
    """Every stored near-1 point is exact, ordered and complete; the CSV has one row per c."""
    r = report["results"]
    problems: list = []
    rows = r["violations"]
    _require(problems, r["violation_count"] == len(rows),
             f"violation_count {r['violation_count']} != {len(rows)} stored")
    _require(problems, len(rows) > 0, "no near-1 points found")
    _require(problems, r["grid_points"] == points, f"grid_points {r['grid_points']} != {points}")
    keys = [(p["c"], p["alpha"], p["beta"]) for p in rows]
    _require(problems, all(a < b for a, b in zip(keys, keys[1:])), "violations out of order")
    worst = 0.0
    for p in rows:
        _require(problems, p["S"] > 1.0 + CENSUS_TOLERANCE, f"stored S {p['S']!r} below threshold")
        exact = reduced_lhs_exact(p["c"], MeasurementSettings(p["alpha"], p["beta"]))
        worst = max(worst, abs(p["S"] - exact))
    _require(problems, worst <= CENSUS_S_TOL, f"stored S off the exact S by {worst!r}")
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        return problems + [f"cannot read the CSV: {exc}"]
    _require(problems, table[:1] == [["c", "alpha", "beta", "S"]], "CSV header is wrong")
    _require(problems, len(table) - 1 == c_count, f"CSV has {len(table) - 1} rows, expected {c_count}")
    return problems


def check_eval(report: dict, c: float, alpha: float, beta: float) -> list:
    s = report["results"]["S"]
    expected = closed_form_s(c, alpha, beta)
    return [] if abs(s - expected) <= EVAL_S_TOL else [f"S {s!r} != closed form {expected!r}"]


def check_expand(report: dict, c: float) -> list:
    rows = report["results"]["rows"]
    problems: list = []
    _require(problems, len(rows) == len(halving_ladder()), f"{len(rows)} ladder rows")
    for row in rows:
        _require(problems, row["lhs_first_order"] == first_order_lhs(c, row["eps"]),
                 f"first-order S wrong at eps {row['eps']!r}")
        _require(problems, row["lhs_exact"] <= 1.0 + 1e-12, f"exact S {row['lhs_exact']!r} > 1")
    return problems


def check_mc(report: dict, n: int) -> list:
    r = report["results"]
    problems: list = []
    _require(problems, r["counts"]["n_total"] == n, f"n_total {r['counts']['n_total']} != {n}")
    _require(problems, all(z is not None and abs(z) < MC_Z_LIMIT for z in r["z_scores"]),
             f"z-scores {r['z_scores']!r}")
    return problems


def check_hv(report: dict, models: int) -> list:
    r = report["results"]
    problems: list = []
    _require(problems, r["models"] == models, f"{r['models']} models")
    _require(problems, r["all_within_bounds"] is True, "a model breaks the bounds")
    f = r["frechet"]
    _require(problems, f is not None and max(f["max_lower_error"], f["max_upper_error"]) <= FRECHET_TOL,
             f"Frechet errors {f!r}")
    return problems


def check_plane_scan(report: dict, points: int) -> list:
    r = report["results"]
    problems: list = []
    _require(problems, r["max_S"] <= 1.0 + MAX_S_TOL, f"max_S {r['max_S']!r} > 1")
    _require(problems, r["violation_count"] == 0, f"{r['violation_count']} violations")
    _require(problems, r["grid_points"] == points, f"grid_points {r['grid_points']} != {points}")
    return problems


def build(name: str, seed: int, workers: int, work: Path, smoke: bool = False) -> list:
    """The commands of workload ``name`` for ``seed``; ``smoke`` shrinks them for self-tests."""
    rng = random.Random(f"{name}:{seed}")
    if name == "adjudicate":
        c_step, step = (1e-2, 2e-2) if smoke else (PAPER_STEP, PAPER_STEP)
        flags, n_angle = _angle_flags(rng.random(), step)
        cs = axis(0.0, C_MAX, c_step)
        points = len(cs) * n_angle * n_angle
        argv = ("scan", "--eps-preset", "--workers", str(workers),
                "--c-min", "0", "--c-max", repr(C_MAX), "--c-step", repr(c_step)) + flags
        return [Command("scan", argv, 0, lambda rep: check_adjudication(rep, cs, points), points)]
    if name == "census":
        c_step = 1e-1 if smoke else 1e-2
        # Coarser angle grids miss every point within 1e-12 of S = 1.
        flags, n_angle = _angle_flags(rng.random(), PAPER_STEP)
        c_count = len(axis(0.0, C_MAX, c_step))
        points = c_count * n_angle * n_angle
        csv_path = work / "census.csv"
        argv = ("scan", f"--tolerance={CENSUS_TOLERANCE!r}", "--workers", str(workers),
                "--c-min", "0", "--c-max", repr(C_MAX), "--c-step", repr(c_step),
                "--csv", str(csv_path)) + flags
        return [Command("scan", argv, 3,
                        lambda rep: check_census(rep, csv_path, c_count, points), points)]
    if name == "toolkit":
        return _toolkit(rng, workers, smoke)
    raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")


def _toolkit(rng: random.Random, workers: int, smoke: bool) -> list:
    commands = []
    for _ in range(EVAL_POINTS):
        c, alpha, beta = rng.random(), rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
        argv = ("eval", "--c", repr(c), "--alpha", repr(alpha), "--beta", repr(beta))
        commands.append(Command("eval", argv, 0,
                                lambda rep, p=(c, alpha, beta): check_eval(rep, *p)))
    c_expand = rng.uniform(0.0, C_MAX)
    commands.append(Command("expand", ("expand", "--c", repr(c_expand)), 0,
                            lambda rep: check_expand(rep, c_expand)))

    n = 100_000 if smoke else MC_SAMPLES
    c, alpha, beta = rng.random(), rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
    argv = ("mc", "--c", repr(c), "--alpha", repr(alpha), "--beta", repr(beta),
            "--n", str(n), "--workers", str(workers), "--seed", str(rng.randrange(2**32)))
    commands.append(Command("mc", argv, 0, lambda rep: check_mc(rep, n)))

    models, grid = (100, 5) if smoke else (10_000, HV_FRECHET_GRID)
    argv = ("hv", "--models", str(models), "--frechet-grid", str(grid),
            "--seed", str(rng.randrange(2**32)))
    commands.append(Command("hv", argv, 0, lambda rep: check_hv(rep, models)))

    raw = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(v * v for v in raw))
    coeffs = ",".join(repr(v / norm) for v in raw)
    step = 2e-2 if smoke else PLANE_STEP
    points = len(axis(0.0, math.pi, step)) ** 2
    argv = ("scan", "--family", "fixed-matrix", f"--coeffs={coeffs}", "--step", repr(step),
            "--workers", str(workers))
    commands.append(Command("plane_scan", argv, 0, lambda rep: check_plane_scan(rep, points), points))
    return commands
