"""`scan` reports and CSV files compared byte for byte with golden output.

``tests/data/golden_scans.json.gz`` holds, per case below, the exit code,
the stdout of the CLI with the ``wall_time`` value masked, and the bytes
of the CSV file it wrote.  Every case runs at one and at two workers and
must give the same bytes at both.  The cases cover each family, refined
and unrefined scans, and lowered tolerances whose violation lists reach
``VIOLATION_CAP`` across several ``c`` slices or across the halves of a
two-worker scan.

The fixture was written by running this file as a script against the
sources whose reports it pins:

    PYTHONPATH=src python tests/test_golden_scans.py
"""

import contextlib
import gzip
import io
import json
import os
import re
from pathlib import Path

import pytest

from leggettlab.cli import main

FIXTURE = Path(__file__).parent / "data" / "golden_scans.json.gz"
CSV = "slices.csv"
COEFFS = ("--family", "fixed-matrix", "--coeffs", "0.6,0.48,0,0.64", "--step", "1e-2")

CASES = {
    # 36 c slices on a refined grid, with the first-order predictions marked.
    "diagonal_eps_preset": ("--eps-preset", "--step", "2e-2"),
    # 11 170 points over the threshold in 11 slices: the cap falls in slice 9,
    # in the second half of a two-worker scan.
    "diagonal_tol_1e-3": ("--c-min", "0.3", "--c-step", "4e-2", "--step", "2e-2",
                          "--tolerance=-1e-3"),
    # 651 near-1 points spread over 15 slices.
    "diagonal_tol_1e-12": ("--c-step", "5e-2", "--step", "1e-2", "--tolerance=-1e-12"),
    # 19 716 points over the threshold: the cap falls in the second half of the rows.
    "singlet_tol_0.9": ("--family", "singlet", "--step", "2e-2", "--tolerance=-0.9"),
    "positive_parity": ("--family", "positive-parity", "--step", "1e-2"),
    "fixed_matrix": COEFFS,
    "fixed_matrix_no_refine": COEFFS + ("--no-refine", "--tolerance=-1e-6"),
}
WORKERS = (1, 2)

_WALL_TIME = re.compile(r'"wall_time": [^,}]+')


def _run(case: str, workers: int, directory: Path) -> dict:
    """Run ``case`` in ``directory``; return its exit code, masked stdout and CSV."""
    argv = ["scan", *CASES[case], "--csv", CSV, "--workers", str(workers)]
    buffer = io.StringIO()
    previous = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
    finally:
        os.chdir(previous)
    return {
        "exit": code,
        "stdout": _WALL_TIME.sub('"wall_time": 0', buffer.getvalue()),
        "csv": (directory / CSV).read_text(encoding="utf-8"),
    }


def _load() -> dict:
    with gzip.open(FIXTURE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_bytes_match_golden(case, workers, tmp_path, monkeypatch):
    # --workers 2 is not capped to 1, whichever CPU count the cap reads.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    got = _run(case, workers, tmp_path)
    want = _load()[case]
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]
    assert got["csv"] == want["csv"]


def test_fixture_masks_only_wall_time():
    """Every stored report carries the masked field once, so nothing else was hidden."""
    for case, want in _load().items():
        assert want["stdout"].count('"wall_time": 0') == 1, case
        assert json.loads(want["stdout"])["results"]["wall_time"] == 0, case


def _write_fixture() -> None:
    """Run every case at one worker and store what it printed and wrote."""
    import tempfile

    golden = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as directory:
            golden[case] = _run(case, WORKERS[0], Path(directory))
    with gzip.GzipFile(FIXTURE, "wb", mtime=0) as fh:
        fh.write((json.dumps(golden, indent=1, sort_keys=True) + "\n").encode("utf-8"))


if __name__ == "__main__":
    _write_fixture()
