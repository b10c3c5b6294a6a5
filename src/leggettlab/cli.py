"""Command-line surface: evaluation, scanning, sampling, model properties, audit.

Every command prints one JSON report envelope to stdout:

    {"command": ..., "inputs": ..., "results": ..., "artifact_version": ...}

plus a top-level ``"seed"`` where randomness is involved.  Floats carry
17 significant digits (exact round-trip).  Angles are radians unless
``--degrees`` is given; reports always store radians.

Exit codes: 0 success; 1 stdout was closed before the report was
written (a reader such as ``head`` left early; nothing more is printed);
2 invalid flags or domain errors, including an output file that cannot be
written (checked before the work starts); 3 a scan found a bound
violation above tolerance (so scripts can detect one without parsing
output); 4 an internal check failed (the LP solver reported a failure, an
exact evaluation disagreed with its cross-check, a listed violation is not
finite, or a scan's proven lower bound L0 exceeded a slice's maximum) or
the process ran out of memory.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from argparse import ArgumentParser
from typing import Optional

import numpy as np

from . import __version__
from ._json import Rows, render
from .config import resolve_workers
from .domain import CorrelationTriple, InputError, MeasurementSettings
from .hidden_variables import (
    _averages,
    _check_model_keys,
    _model_chunks,
    _model_pieces,
    ensemble_averages,
    frechet_range,
    model_from_json,
)
from .inequalities import _bounds, expansion_audit, leggett_bounds, reduced_lhs_exact
from .montecarlo import MAX_SAMPLES, estimate, sample_pairs, simulate_hv
from .quantum import (
    PureTwoPhotonState,
    correlation_triple,
    diagonal_state,
    joint_distribution,
    marginals,
)
from .scan import FAMILIES, ScanSpec, grid_scan, halving_ladder, refine, write_csv

__all__ = ["main", "console_main"]

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4

# Points per axis of the hv Frechet check; one LP call solves each row.
_MAX_FRECHET_GRID = 1 << 12


class _ArgumentError(Exception):
    pass


class _Parser(ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _ArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="leggettlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="probabilities, correlation triple, bounds and S at one point")
    p.add_argument("--c", type=float, required=True, help="diagonal-family weight in [0, 1]")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("scan", help="grid scan for sup S with optional refinement")
    p.add_argument("--family", choices=FAMILIES, default="diagonal")
    p.add_argument("--c-min", type=float, default=0.0)
    p.add_argument("--c-max", type=float, default=0.7)
    p.add_argument("--c-step", type=float, default=None)
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=math.pi)
    p.add_argument("--alpha-step", type=float, default=None)
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=math.pi)
    p.add_argument("--beta-step", type=float, default=None)
    p.add_argument("--step", type=float, default=None,
                   help="shared default for --c-step/--alpha-step/--beta-step (default 1e-3)")
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="violation threshold: S > 1 + tolerance")
    p.add_argument("--eps-preset", action="store_true",
                   help="mark first-order predicted violations on the default epsilon ladder")
    p.add_argument("--eps-ladder", metavar="START:STOP", default=None,
                   help="halving ladder for the first-order marking (implies --eps-preset)")
    p.add_argument("--coeffs", default=None, metavar="R00,R01,R10,R11",
                   help="real coefficient matrix for --family fixed-matrix (must be normalized)")
    p.add_argument("--csv", default=None, help="write slice maxima as c,alpha,beta,S rows")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("mc", help="seeded Monte Carlo sampling with analytic comparison")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--model", default=None, metavar="PATH",
                   help="sample a serialized hidden-variable model instead of a quantum state")
    p.add_argument("--n", type=int, default=1_000_000,
                   help=f"sample count, at most {MAX_SAMPLES}; with --model, n x (labels - 1) at most {99 * MAX_SAMPLES} (exit 2 above)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("hv", help="bound-satisfaction property run over random models")
    p.add_argument("--models", type=int, default=10_000)
    p.add_argument("--labels", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frechet-grid", type=int, default=21,
                   help="marginal grid size for the attainable-range check (0 skips)")
    p.add_argument("--emit-model", default=None, metavar="PATH",
                   help="write the first generated model as JSON")
    p.set_defaults(handler=_cmd_hv)

    p = sub.add_parser("expand", help="audit the first-order truncation against exact evaluation")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--eps", type=float, default=None, help="single epsilon")
    p.add_argument("--eps-ladder", metavar="START:STOP", default=None,
                   help="halving ladder (default 1e-2:1e-5)")
    p.set_defaults(handler=_cmd_expand)

    return parser


def _angles(args) -> tuple[float, float]:
    alpha, beta = args.alpha, args.beta
    if args.degrees:
        alpha, beta = math.radians(alpha), math.radians(beta)
    return alpha, beta


def _parse_ladder(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 2:
        raise InputError(f"expected START:STOP, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
    except ValueError:
        raise InputError(f"expected numeric START:STOP, got {text!r}") from None
    return halving_ladder(start, stop)


def _emit(command: str, inputs: dict, results: dict, seed: Optional[int] = None) -> None:
    envelope = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "artifact_version": __version__,
    }
    if seed is not None:
        envelope["seed"] = seed
    try:
        print(render(envelope), flush=True)
    except BrokenPipeError:
        # The reader closed stdout.  What is left goes to os.devnull, so that the
        # flush at exit finds no broken pipe; main exits EXIT_CLOSED.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


@contextlib.contextmanager
def _output(path: Optional[str], what: str):
    """The text file ``path`` opened for writing, or None without a path; failing to write it is a usage error."""
    try:
        with contextlib.nullcontext() if path is None else open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {what} file: {exc}") from None


def _triple_dict(triple) -> dict:
    return {"a_bar": triple.a_bar, "b_bar": triple.b_bar, "ab_bar": triple.ab_bar}


def _cmd_eval(args) -> int:
    alpha, beta = _angles(args)
    settings = MeasurementSettings(alpha=alpha, beta=beta)
    state = diagonal_state(args.c)
    dist = joint_distribution(state, settings)
    p_a, p_b = marginals(state, settings)
    triple = correlation_triple(dist)
    bounds = leggett_bounds(triple)
    s_value = reduced_lhs_exact(args.c, settings)
    _emit(
        "eval",
        inputs={"c": args.c, "alpha": alpha, "beta": beta},
        results={
            "marginals": {"p_a_plus": p_a, "p_b_plus": p_b},
            "joint": {"p_pp": dist.p_pp, "p_pm": dist.p_pm,
                      "p_mp": dist.p_mp, "p_mm": dist.p_mm},
            "triple": _triple_dict(triple),
            "bounds": {"lower": bounds.lower, "upper": bounds.upper,
                       "satisfied": bounds.satisfied, "margin": bounds.margin},
            "S": s_value,
        },
    )
    return EXIT_OK


def _parse_coeffs(text: str) -> PureTwoPhotonState:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(f"--coeffs expects four comma-separated reals, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise InputError(f"--coeffs entries must be numeric, got {text!r}") from None
    return PureTwoPhotonState([[values[0], values[1]], [values[2], values[3]]])


def _cmd_scan(args) -> int:
    default_step = args.step if args.step is not None else 1e-3
    state = _parse_coeffs(args.coeffs) if args.coeffs is not None else None
    if args.family != "fixed-matrix" and state is not None:
        raise InputError("--coeffs is only meaningful with --family fixed-matrix")
    ladder: tuple[float, ...] = ()
    if args.eps_ladder is not None:
        ladder = _parse_ladder(args.eps_ladder)
    elif args.eps_preset:
        ladder = halving_ladder()
    spec = ScanSpec(
        family=args.family,
        c_range=(args.c_min, args.c_max,
                 args.c_step if args.c_step is not None else default_step),
        alpha_range=(args.alpha_min, args.alpha_max,
                     args.alpha_step if args.alpha_step is not None else default_step),
        beta_range=(args.beta_min, args.beta_max,
                    args.beta_step if args.beta_step is not None else default_step),
        tolerance=args.tolerance,
        state=state,
        eps_ladder=ladder,
    )
    workers = resolve_workers(args.workers)  # checked before the CSV file is truncated
    with _output(args.csv, "CSV") as csv_file:
        report = grid_scan(spec, workers=workers)
        if not args.no_refine:
            report = refine(report, spec)
        if csv_file is not None:
            write_csv(report, csv_file)

    inputs = {
        "family": spec.family,
        "c_range": list(spec.c_range),
        "alpha_range": list(spec.alpha_range),
        "beta_range": list(spec.beta_range),
        "refine": not args.no_refine,
        "tolerance": spec.tolerance,
        "eps_ladder": list(spec.eps_ladder),
    }
    if args.coeffs is not None:
        inputs["coeffs"] = args.coeffs
    results = {
        "family": report.family,
        "max_S": report.max_s,
        "argmax": {"c": report.argmax.c, "alpha": report.argmax.alpha,
                   "beta": report.argmax.beta, "S": report.argmax.s},
        "grid_points": report.grid_points,
        "violation_count": report.violation_count,
        "violations": Rows(("c", "alpha", "beta", "S"), report.violations),
        "first_order_predicted_violations": [
            {"c": c, "eps": eps} for c, eps in report.first_order_predicted_violations
        ],
        "truncation_discrepancy": bool(
            report.first_order_predicted_violations and report.violation_count == 0
        ),
        "refined": report.refined,
        "tolerance": report.tolerance,
        "wall_time": report.wall_time,
    }
    if args.csv is not None:
        results["csv_path"] = args.csv
    _emit("scan", inputs=inputs, results=results)
    return EXIT_VIOLATION if report.violation_count > 0 else EXIT_OK


def _cmd_mc(args) -> int:
    if args.model is not None:
        if any(v is not None for v in (args.c, args.alpha, args.beta)):
            raise InputError("--model cannot be combined with --c/--alpha/--beta")
        try:
            with open(args.model, "r", encoding="utf-8") as fh:
                model = model_from_json(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read model file: {exc}") from None
        counts = simulate_hv(model, args.n, args.seed, workers=args.workers)
        analytic = ensemble_averages(model)
        inputs = {"model": args.model, "n": args.n}
    else:
        if any(v is None for v in (args.c, args.alpha, args.beta)):
            raise InputError("mc requires --c, --alpha and --beta (or --model)")
        alpha, beta = _angles(args)
        settings = MeasurementSettings(alpha=alpha, beta=beta)
        dist = joint_distribution(diagonal_state(args.c), settings)
        counts = sample_pairs(dist, args.n, args.seed, workers=args.workers)
        analytic = correlation_triple(dist)
        inputs = {"c": args.c, "alpha": alpha, "beta": beta, "n": args.n}

    est = estimate(counts)
    z_scores = []
    for hat, exact, err in zip(est.triple_hat.as_tuple(), analytic.as_tuple(), est.std_errors):
        if err > 0.0:
            z_scores.append((hat - exact) / err)
        else:
            z_scores.append(0.0 if hat == exact else None)
    _emit(
        "mc",
        inputs=inputs,
        results={
            "counts": {"n_pp": counts.n_pp, "n_pm": counts.n_pm,
                       "n_mp": counts.n_mp, "n_mm": counts.n_mm, "n_total": counts.n_total},
            "estimate": {"triple": _triple_dict(est.triple_hat),
                         "std_errors": list(est.std_errors), "n": est.n},
            "analytic": {"triple": _triple_dict(analytic)},
            "z_scores": z_scores,
        },
        seed=args.seed,
    )
    return EXIT_OK


def _cmd_hv(args) -> int:
    if args.models < 1:
        raise InputError(f"--models must be >= 1, got {args.models}")
    if not 0 <= args.frechet_grid <= _MAX_FRECHET_GRID:
        raise InputError(f"--frechet-grid must be in [0, {_MAX_FRECHET_GRID}], got {args.frechet_grid}")
    _check_model_keys(args.labels, args.seed, 0)  # before the model file is truncated
    max_overshoot = 0.0
    first_triple = None
    # Models come in chunks of streams 0, 1, ...; row 0 of the first chunk
    # is the model random_model(--labels, --seed, stream=0) returns.
    with _output(args.emit_model, "model") as model_file:
        for offset, weights, responses in _model_chunks(args.labels, args.seed, 0, args.models):
            if offset == 0 and model_file is not None:
                model_file.writelines(_model_pieces(weights[0], responses[0]))
                model_file.write("\n")
            a_bar, b_bar, ab_bar = _averages(weights, responses)
            if first_triple is None:
                first_triple = CorrelationTriple(float(a_bar[0]), float(b_bar[0]), float(ab_bar[0]))
            _, _, margin = _bounds(a_bar, b_bar, ab_bar)
            max_overshoot = max(max_overshoot, float(np.max(-margin)))

    frechet = None
    if args.frechet_grid > 0:
        grid = np.linspace(-1.0, 1.0, args.frechet_grid)
        max_lower_error = 0.0
        max_upper_error = 0.0
        # One oracle call per grid row keeps memory O(--frechet-grid).
        for a_bar in grid:
            low, high = frechet_range(a_bar, grid)
            lower, upper, _ = _bounds(a_bar, grid, 0.0)
            max_lower_error = max(max_lower_error, float(np.max(np.abs(low - lower))))
            max_upper_error = max(max_upper_error, float(np.max(np.abs(high - upper))))
        frechet = {
            "grid_size": args.frechet_grid,
            "max_lower_error": max_lower_error,
            "max_upper_error": max_upper_error,
        }

    results = {
        "models": args.models,
        "labels": args.labels,
        "max_overshoot": max_overshoot,
        "all_within_bounds": max_overshoot <= 1e-12,
        "first_triple": _triple_dict(first_triple),
        "frechet": frechet,
    }
    if args.emit_model is not None:
        results["model_path"] = args.emit_model
    _emit(
        "hv",
        inputs={"models": args.models, "labels": args.labels,
                "frechet_grid": args.frechet_grid},
        results=results,
        seed=args.seed,
    )
    return EXIT_OK


def _cmd_expand(args) -> int:
    if args.eps is not None and args.eps_ladder is not None:
        raise InputError("--eps and --eps-ladder are mutually exclusive")
    if args.eps is not None:
        ladder: tuple[float, ...] = (args.eps,)
    elif args.eps_ladder is not None:
        ladder = _parse_ladder(args.eps_ladder)
    else:
        ladder = halving_ladder()
    audit = expansion_audit(args.c, ladder)
    rows = []
    for eps, row in zip(audit.eps_ladder, audit.rows):
        rows.append({
            "eps": eps,
            "lhs_exact": row.lhs_exact,
            "lhs_first_order": row.lhs_first_order,
            "difference": row.lhs_exact - row.lhs_first_order,
            "first_order_holds": row.first_order_holds,
            "cross_gap": row.cross_gap,
            "discrepancy": row.truncation_discrepancy,
        })
    _emit(
        "expand",
        inputs={"c": args.c, "eps_ladder": list(audit.eps_ladder)},
        results={
            "c": audit.c,
            "rows": rows,
            "ratios": list(audit.ratios),
            "any_discrepancy": any(r.truncation_discrepancy for r in audit.rows),
        },
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("error: out of memory; use a coarser grid or fewer points", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        return EXIT_CLOSED


def console_main() -> None:
    raise SystemExit(main())
