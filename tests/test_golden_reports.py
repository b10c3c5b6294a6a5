"""`mc` and `hv` reports compared byte for byte with golden stdout.

``tests/data/golden_reports.json`` holds, per case below, the stdout of
the CLI and the bytes of every model file it wrote.  Neither command's
report carries a timing field, so the whole stdout is compared.  Each
case runs in an empty directory that holds only the model file it
reads, so the relative paths in reports stay fixed.

The fixture was written by running this file as a script against the
sources whose reports it pins:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import os
from pathlib import Path

import pytest

from leggettlab.cli import EXIT_OK, main

FIXTURE = Path(__file__).parent / "data" / "golden_reports.json"

MC_STATE = ("mc", "--c", "0.37", "--alpha", "0.71", "--beta", "2.9", "--n", "3000001", "--seed", "11")
HV = ("hv", "--models", "700", "--labels", "100", "--seed", "3")

# Case id -> (argv, worker counts to run it at; None for a command without --workers).
CASES = {
    "mc_state": (MC_STATE, (1, 2)),
    "mc_degenerate": (("mc", "--c", "0", "--alpha", "0", "--beta", "0", "--n", "1500000"), (1, 2)),
    "mc_model": (("mc", "--model", "model.json", "--n", "2500000", "--seed", "5"), (1, 2)),
    "mc_model_small": (("mc", "--model", "small.json", "--n", "1048577", "--seed", "2"), (1, 2)),
    **{
        f"hv_grid{grid}{'_emit' * emit}": (
            HV + ("--frechet-grid", str(grid)) + (("--emit-model", "model.json") if emit else ()),
            None,
        )
        for grid in (0, 5, 21, 31)
        for emit in (False, True)
    },
    "hv_toolkit": (("hv", "--models", "10000", "--frechet-grid", "31", "--seed", "2718281828"), None),
    "hv_labels1": (("hv", "--models", "50", "--labels", "1", "--frechet-grid", "0",
                    "--emit-model", "one.json"), None),
    "hv_labels7": (("hv", "--models", "3000", "--labels", "7", "--seed", "9",
                    "--frechet-grid", "0"), None),
    "hv_labels257": (("hv", "--models", "300", "--labels", "257", "--seed", "2",
                      "--frechet-grid", "0", "--emit-model", "wide.json"), None),
}

# Input model files the mc cases read.  model.json is the one hv_grid0_emit
# writes; small.json has a zero weight, so two thresholds tie.
INPUTS = {
    "small.json": '{"weights": [0.25, 0.0, 0.5, 0.25], '
                  '"responses": [[1, 1], [1, -1], [-1, 1], [-1, -1]]}\n',
}


def _run(argv, workers, directory: Path, inputs: dict) -> dict:
    """Run ``argv`` in ``directory``; return the files it wrote.

    The model file named after ``--model`` is first copied there from ``inputs``.
    """
    argv = list(argv)
    if "--model" in argv:
        name = argv[argv.index("--model") + 1]
        (directory / name).write_text(inputs[name], encoding="utf-8")
    before = {p.name for p in directory.iterdir()}
    previous = os.getcwd()
    os.chdir(directory)
    try:
        code = main(argv + ([] if workers is None else ["--workers", str(workers)]))
    finally:
        os.chdir(previous)
    assert code == EXIT_OK
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(directory.iterdir()) if p.name not in before}


def _load() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case, tmp_path, capsys):
    golden = _load()
    argv, worker_counts = CASES[case]
    for workers in worker_counts or (None,):
        directory = tmp_path / f"w{workers}"
        directory.mkdir()
        written = _run(argv, workers, directory, golden["inputs"])
        assert capsys.readouterr().out == golden["stdout"][case], f"{case} at workers {workers}"
        assert written == golden["written"][case], f"{case} at workers {workers}"


def _write_fixture() -> None:
    """Run every case once and store its stdout and written files."""
    import contextlib
    import io
    import tempfile

    stdout, written = {}, {}
    inputs = dict(INPUTS)
    order = sorted(CASES, key=lambda case: not case.startswith("hv_grid0_emit"))
    for case in order:
        argv, worker_counts = CASES[case]
        with tempfile.TemporaryDirectory() as directory:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                files = _run(argv, (worker_counts or (None,))[0], Path(directory), inputs)
        stdout[case], written[case] = buffer.getvalue(), files
        if case == "hv_grid0_emit":
            inputs["model.json"] = files["model.json"]
    FIXTURE.write_text(json.dumps({"inputs": inputs, "stdout": stdout, "written": written},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_fixture()
