"""The leggettlab benchmark: one closed-loop client driving the CLI in fresh interpreters.

    python3 perfbench/run.py --workload adjudicate|census|toolkit|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it uses the sources under ``src/`` next to this
directory.  A run times ``import leggettlab.cli`` in fresh interpreters
(``setup_s``, sampled before and after the cycles) and issues the
workload's commands one after another, each in a fresh interpreter,
checking every report.  It repeats the command cycle until ``--seconds``
have passed, finishing the cycle under way.  A command whose exit code
or output check fails counts as failed, and its cycle is not used as a
timing.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric.  With ``--trace 1`` each cycle is issued twice, once
plain and once under ``tracer.py``, and the JSON holds the per-layer
metrics from the traced cycles.  The lines before it print every metric
by name and unit, the toolkit's per-command latencies, the error rate
and the machine record.  ``--workload all`` runs the three workloads in
turn and ends with one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from importlib import metadata, util
from pathlib import Path
from time import perf_counter

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(tracer.__file__).resolve()
CLI_CODE = "import sys; from leggettlab.cli import console_main; console_main()"
IMPORT_CODE = "import leggettlab.cli"
# Set-up is sampled before and after the command cycles, so that its median
# spans the run rather than one moment of a machine whose speed drifts.
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Operations and bytes of the numpy kernel per point, computed from its passes
# over plane-sized float64 arrays: s = x*u (read x, write s), s += y (3 arrays),
# t = z*w (2), s += t (3) and argmax(s) (1), i.e. two multiplies, two adds and a
# compare; a slice over threshold adds s > threshold (read s, write a bool mask)
# and count_nonzero (read the mask).
KERNEL_PASS_OPS, KERNEL_PASS_BYTES = 5, 11 * 8
KERNEL_OVER_OPS, KERNEL_OVER_BYTES = 2, 8 + 1 + 1
CLI_COMMANDS = ("scan", "eval", "expand", "mc", "hv")

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_optimize_s": "s",
    **{f"cli.main_s.{command}": "s" for command in CLI_COMMANDS},
    "kernels.scanner_init_s": "s",
    "kernels.scan_calls": "count",
    "kernels.scan_points": "count",
    "kernels.scan_busy_s": "s",
    "kernels.points_per_busy_s": "1/s",
    "kernels.ops_per_point_computed": "count",
    "kernels.bytes_per_point_computed": "B",
    "kernels.collect_calls": "count",
    "kernels.collect_s": "s",
    "kernels.collect_hit_ratio": "ratio",
    "kernels.plane_row_scan_s": "s",
    "kernels.self_s": "s",
    "scan.grid_scan_s": "s",
    "scan.self_s": "s",
    "scan.refine_s": "s",
    "scan.write_csv_s": "s",
    "scan.parallel_eff": "ratio",
    "scan.shard_imbalance": "ratio",
    "hidden_variables.frechet_calls": "count",
    "hidden_variables.frechet_s": "s",
    "hidden_variables.lp_solves_per_s": "1/s",
    "hidden_variables.random_model_s": "s",
    "hidden_variables.ensemble_averages_s": "s",
    "montecarlo.samples": "count",
    "montecarlo.sample_pairs_s": "s",
    "montecarlo.samples_per_s": "1/s",
    "inequalities.reduced_lhs_exact_s": "s",
    "inequalities.expansion_audit_s": "s",
    # The _json module's layer; a metric name may not start with "_".
    "json.render_s": "s",
    "json.render_bytes": "B",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}


@dataclass
class Outcome:
    """One issued command: its wall time, the problems found, and its spans if traced."""

    label: str
    seconds: float
    points: int
    problems: list
    spans: list = field(default_factory=list)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LEGGETTLAB_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def time_import(env: dict) -> float:
    started = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT, check=True,
                   timeout=COMMAND_TIMEOUT_S)
    return perf_counter() - started


def scipy_optimize_import_s(env: dict) -> float:
    """Cumulative ``scipy.optimize`` import time reported by ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE], env=env,
                          cwd=ROOT, check=True, capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if match and match.group(2) == "scipy.optimize":
            return int(match.group(1)) * 1e-6
    return 0.0


def issue(command, env: dict, spans_path: Path | None, run_id: str) -> Outcome:
    """Run one command in a fresh interpreter, time it and check its report."""
    if spans_path is None:
        argv = [sys.executable, "-c", CLI_CODE, *command.argv]
    else:
        argv = [sys.executable, str(TRACER), str(spans_path), run_id, "--", *command.argv]
    started = perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(command.label, perf_counter() - started, command.points,
                       [f"timed out after {COMMAND_TIMEOUT_S} s"])
    seconds = perf_counter() - started
    spans = []
    if spans_path is not None and spans_path.is_file():
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
    if proc.returncode != command.exit_code:
        tail = proc.stderr.decode(errors="replace").strip()[-300:]
        problems = [f"exit code {proc.returncode}, expected {command.exit_code}: {tail}"]
    else:
        try:
            problems = command.check(json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable report: {exc!r}"]
    return Outcome(command.label, seconds, command.points, problems, spans)


def run_cycle(commands: list, env: dict, work: Path | None, cycle: int) -> list:
    """Issue every command once, in order; trace them when ``work`` is given."""
    outcomes = []
    for index, command in enumerate(commands):
        run_id = f"{cycle}.{index}"
        spans_path = None if work is None else work / f"spans-{run_id}.json"
        outcomes.append(issue(command, env, spans_path, run_id))
    return outcomes


def cycle_wall(cycle: list) -> float:
    return sum(o.seconds for o in cycle)


def end_to_end(cycles: list, setup: list) -> dict:
    scans = [[o for o in c if o.points] for c in cycles]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(cycle_wall(c) for c in cycles),
        "points_per_s": statistics.median(
            _ratio(sum(o.points for o in s), sum(o.seconds for o in s)) for s in scans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def command_latencies(cycles: list) -> dict:
    """Median fresh-process latency of each command label (the toolkit's eval_s, mc_s, ...)."""
    by_label: dict = {}
    for cycle in cycles:
        for o in cycle:
            by_label.setdefault(f"{o.label}_s", []).append(o.seconds)
    return {name: statistics.median(values) for name, values in by_label.items()}


def layer_metrics(cycle: list, workers: int, setup_s: float) -> dict:
    """Per-layer metrics of one traced cycle (one span list per issued command)."""
    spans = [s for o in cycle for s in o.spans]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum((s["end"] - s["start"] for s in named(name)), 0.0)

    def counted(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    layers: dict = {}
    for o in cycle:
        for layer, seconds in tracer.layer_self_s(o.spans).items():
            layers[layer] = layers.get(layer, 0.0) + seconds

    scan_points = counted("kernels.DiagonalScanner.scan", "points")
    scan_busy = busy("kernels.DiagonalScanner.scan")

    def per_point(pass_cost, over_cost):  # computed from the kernel's passes, not measured
        total = sum(pass_cost * s["counts"]["points"]
                    + over_cost * s["counts"]["over_slices"] * s["counts"]["plane_points"]
                    for s in named("kernels.DiagonalScanner.scan"))
        return _ratio(total, scan_points)

    parallel_busy = parallel_wall = 0.0
    imbalance = []
    for o in cycle:
        for index, span in enumerate(o.spans):
            if span["name"] != "scan.grid_scan":
                continue
            shards = [s for s in o.spans
                      if s["name"] == "kernels.DiagonalScanner.scan" and s["parent"] == index]
            if shards:
                durations = [s["end"] - s["start"] for s in shards]
                parallel_busy += sum(durations)
                parallel_wall += max(s["end"] for s in shards) - min(s["start"] for s in shards)
                imbalance.append(max(durations) / statistics.mean(durations))

    main_by_command = {}
    for s in named("cli.main"):
        main_by_command.setdefault(s["counts"]["command"], []).append(s["end"] - s["start"])
    frechet_s = busy("hidden_variables.frechet_range")
    sample_s = busy("montecarlo.sample_pairs") + busy("montecarlo.simulate_hv")
    samples = counted("montecarlo.sample_pairs", "samples") + counted("montecarlo.simulate_hv", "samples")
    traced_wall = cycle_wall(cycle)
    return {
        "cli.import_s": _median(s["end"] - s["start"] for s in named("cli.import")),
        **{f"cli.main_s.{c}": _median(main_by_command.get(c, ())) for c in CLI_COMMANDS},
        "kernels.scanner_init_s": busy("kernels.DiagonalScanner.__init__"),
        "kernels.scan_calls": len(named("kernels.DiagonalScanner.scan")),
        "kernels.scan_points": scan_points,
        "kernels.scan_busy_s": scan_busy,
        "kernels.points_per_busy_s": _ratio(scan_points, scan_busy),
        "kernels.ops_per_point_computed": per_point(KERNEL_PASS_OPS, KERNEL_OVER_OPS),
        "kernels.bytes_per_point_computed": per_point(KERNEL_PASS_BYTES, KERNEL_OVER_BYTES),
        "kernels.collect_calls": len(named("kernels.DiagonalScanner.collect")),
        "kernels.collect_s": busy("kernels.DiagonalScanner.collect"),
        "kernels.collect_hit_ratio": _ratio(counted("kernels.DiagonalScanner.collect", "returned"),
                                            counted("kernels.DiagonalScanner.collect", "points")),
        "kernels.plane_row_scan_s": busy("kernels.plane_row_scan"),
        "kernels.self_s": layers.get("kernels", 0.0),
        "scan.grid_scan_s": busy("scan.grid_scan"),
        "scan.self_s": layers.get("scan", 0.0),
        "scan.refine_s": busy("scan.refine"),
        "scan.write_csv_s": busy("scan.write_csv"),
        "scan.parallel_eff": _ratio(parallel_busy, workers * parallel_wall),
        "scan.shard_imbalance": statistics.mean(imbalance) if imbalance else 0.0,
        "hidden_variables.frechet_calls": len(named("hidden_variables.frechet_range")),
        "hidden_variables.frechet_s": frechet_s,
        "hidden_variables.lp_solves_per_s": _ratio(
            counted("hidden_variables.frechet_range", "lp_solves"), frechet_s),
        "hidden_variables.random_model_s": busy("hidden_variables.random_model"),
        "hidden_variables.ensemble_averages_s": busy("hidden_variables.ensemble_averages"),
        "montecarlo.samples": samples,
        "montecarlo.sample_pairs_s": sample_s,
        "montecarlo.samples_per_s": _ratio(samples, sample_s),
        "inequalities.reduced_lhs_exact_s": busy("inequalities.reduced_lhs_exact"),
        "inequalities.expansion_audit_s": busy("inequalities.expansion_audit"),
        "json.render_s": busy("_json.render"),
        "json.render_bytes": counted("_json.render", "bytes"),
        "trace.accounted_frac": _ratio(sum(layers.values()), traced_wall - len(cycle) * setup_s),
        "layer_self_s": layers,
        "traced_wall_s": traced_wall,
    }


def machine_record(workers: int) -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": workers,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": util.find_spec("numba") is not None,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 out=sys.stdout) -> dict:
    """One benchmark run of one workload; returns the object printed as the last line."""
    import leggettlab.cli  # noqa: F401 - fills the byte-code cache the timed imports read
    import workloads

    workers = len(os.sched_getaffinity(0))
    env = child_env()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=Path(__file__).parent) as tmp:
        work = Path(tmp)
        commands = workloads.build(name, seed, workers, work, smoke=smoke)
        setup = [time_import(env) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        scipy_s = scipy_optimize_import_s(env) if trace else 0.0

        plain, traced = [], []
        started = perf_counter()
        while not plain or perf_counter() - started < seconds:
            plain.append(run_cycle(commands, env, None, len(plain)))
            if trace:
                traced.append(run_cycle(commands, env, work, len(traced)))
        setup += [time_import(env) for _ in range(SETUP_REPEATS // 2)]

    issued = [o for cycle in plain + traced for o in cycle]
    failed = [o for o in issued if o.problems]
    for o in failed:
        print(f"FAILED {name} {o.label}: {'; '.join(o.problems)}", file=out)

    def timed(cycles):  # cycles with a failed check are not timings
        good = [c for c in cycles if not any(o.problems for o in c)]
        return good or cycles

    e2e = end_to_end(timed(plain), setup)
    print(f"workload {name}, seed {seed}: {len(plain)} cycle(s), {len(issued)} commands, "
          f"{workers} worker(s), machine {json.dumps(machine_record(workers))}", file=out)
    for key, value in e2e.items():
        print(f"  {key} = {value!r} {END_TO_END[key]}", file=out)
    print(f"  error_rate = {len(failed) / len(issued)!r}", file=out)
    if name == "toolkit":
        for key, value in command_latencies(timed(plain)).items():
            print(f"  {key} = {value!r} s", file=out)

    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if trace:
        per_cycle = [layer_metrics(c, workers, e2e["setup_s"]) for c in timed(traced)]
        layer = {key: statistics.median(m[key] for m in per_cycle)
                 for key in PER_LAYER if key in per_cycle[0]}
        layer["cli.import_scipy_optimize_s"] = scipy_s
        layer["trace.overhead_frac"] = (
            statistics.median(m["traced_wall_s"] for m in per_cycle) / e2e["wall_s"] - 1.0)
        for key in PER_LAYER:
            print(f"  {key} = {layer[key]!r} {PER_LAYER[key]}", file=out)
        first = per_cycle[0]
        print(f"  self time by layer in the first traced cycle, s: "
              f"{json.dumps(first['layer_self_s'])}; traced wall_s {first['traced_wall_s']!r} "
              f"over {len(commands)} command(s)", file=out)
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    return {"correct": not failed, "attempted": len(issued), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "leggettlab" / "cli.py").is_file():
        print(f"perfbench: no leggettlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload in workloads.NAMES:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    if args.workload != "all":
        parser.error(f"--workload must be one of {workloads.NAMES} or all")
    results = {}
    for name in workloads.NAMES:  # one process each, so peak_rss_mb is the workload's own
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=True)
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
