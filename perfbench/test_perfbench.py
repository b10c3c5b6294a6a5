"""Self-tests of the benchmark: smoke grids, tampered reports, span arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_workload_passes_every_check(name):
    result = run.run_workload(name, seed=7, seconds=0, trace=True, smoke=True, out=io.StringIO())
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == 2 * len(workloads.build(name, 7, 1, HERE, smoke=True))
    assert set(result["metrics"]) == set(run.PER_LAYER)


def _bump_max_s(report):
    report["results"]["max_S"] += 1e-6


def _drop_predicted_pair(report):
    report["results"]["first_order_predicted_violations"].pop()


def _shift_census_s(report):
    report["results"]["violations"][0]["S"] += 1e-12


@pytest.mark.parametrize("name, tamper", [
    ("adjudicate", _bump_max_s),
    ("adjudicate", _drop_predicted_pair),
    ("census", _shift_census_s),
])
def test_tampered_report_counts_as_failed(monkeypatch, name, tamper):
    build = workloads.build

    def tampered_build(*args, **kwargs):
        commands = build(*args, **kwargs)

        def check(report, original=commands[0].check):
            tamper(report)
            return original(report)

        return [workloads.Command(c.label, c.argv, c.exit_code, check, c.points) for c in commands]

    monkeypatch.setattr(workloads, "build", tampered_build)
    result = run.run_workload(name, seed=7, seconds=0, trace=False, smoke=True, out=io.StringIO())
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_self_time_is_never_negative_with_parallel_children():
    spans = [
        {"name": "scan.grid_scan", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "kernels.DiagonalScanner.scan", "start": 1.0, "end": 9.0, "parent": 0},
        {"name": "kernels.DiagonalScanner.scan", "start": 1.5, "end": 9.5, "parent": 0},
        {"name": "kernels.DiagonalScanner.collect", "start": 9.2, "end": 9.8, "parent": 0},
    ]
    free = [tracer.measure(parts) for parts in tracer.self_intervals(spans)]
    assert free == pytest.approx([1.2, 8.0, 8.0, 0.6])
    assert tracer.layer_self_s(spans) == pytest.approx({"scan": 1.2, "kernels": 8.8})


def test_traced_spans_nest_and_leave_stdout_unchanged(tmp_path):
    env = run.child_env()
    commands = workloads.build("census", 7, 2, tmp_path, smoke=True)
    commands += workloads.build("toolkit", 7, 2, tmp_path, smoke=True)
    for index, command in enumerate(commands):
        spans_path = tmp_path / f"spans-{index}.json"
        outputs = []
        for prefix in (["-c", run.CLI_CODE], [str(run.TRACER), str(spans_path), "0", "--"]):
            proc = subprocess.run([sys.executable, *prefix, *command.argv], env=env,
                                  capture_output=True, check=False, timeout=120)
            assert proc.returncode == command.exit_code, proc.stderr
            outputs.append(re.sub(rb'"wall_time": [^,}]+', b'"wall_time": 0', proc.stdout))
        assert outputs[0] == outputs[1]
        spans = json.loads(spans_path.read_text())
        assert {"cli.import", "cli.main", "_json.render"} <= {s["name"] for s in spans}
        for span, parts in zip(spans, tracer.self_intervals(spans)):
            assert 0.0 <= tracer.measure(parts) <= span["end"] - span["start"]
