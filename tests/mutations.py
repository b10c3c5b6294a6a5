"""Mutation check of the verdict's code: every mutation below must make a test fail.

Run from the repository root:

    python tests/mutations.py

For each mutation the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies one textual edit to
one file of the copy's ``leggettlab`` package and runs there the test files
that exercise that file (``TESTS``).  It first runs each set of test files
on the unmutated copy; a test that fails there is reported and does not
count.  It prints CAUGHT when a mutation makes some other test fail and
MISSED when it does not.  It exits 1 when a mutation is missed or its text
does not occur exactly once in its file.  pytest does not collect this
file: its name does not start with ``test_``.
"""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "leggettlab")

# file in the package -> the test files that exercise it
TESTS = {
    "kernels.py": ("tests/test_certificate.py", "tests/test_kernels.py"),
    "scan.py": ("tests/test_scan.py", "tests/test_golden_scans.py"),
    "_json.py": ("tests/test_json.py", "tests/test_cli.py", "tests/test_golden_scans.py"),
    "cli.py": ("tests/test_cli.py", "tests/test_json.py", "tests/test_golden_scans.py"),
}

# name -> (file in the package, its text, replacement)
MUTATIONS = {
    "certify every row": (
        "kernels.py",
        "sure = (half < covers).all(axis=0)",
        "sure = np.ones(covers.shape[-1], dtype=bool)"),
    "drop the p_min term": (
        "kernels.py",
        "2.0 * xy.imag**2 / ((xx + yy) + r2) - _ROOT_ERROR",
        "0.0 * xx - _ROOT_ERROR"),
    "drop the norm defect from the slack": (
        "kernels.py",
        "_SLACK + 2.0 * abs(norm - 1.0)",
        "_SLACK"),
    "gather k0 in place of k1 for fixed states": (
        "kernels.py",
        '    if k1 is not k0:\n        np.take(k1, idx, out=z, mode="clip")\n',
        ""),
    "drop the circular padding": (
        "kernels.py",
        "self._phase = phase[order][pos] + math.pi * wrap",
        "self._phase = phase[order][pos]"),
    "drop the threshold from the window depth": (
        "kernels.py",
        "level = np.minimum(np.maximum(max_s[slices], seeded[b_sel]), threshold)",
        "level = np.maximum(max_s[slices], seeded[b_sel])"),
    "diagonal roots (c, c)": (
        "kernels.py",
        "sc = np.stack([np.sqrt(1.0 - cs * cs), cs])",
        "sc = np.stack([cs, cs])"),
    "first diagonal stencil maximum in layout order": (
        "kernels.py",
        "attained = np.flatnonzero(tops == reach)",
        "attained = np.flatnonzero(vals == reach) % tops.size"),
    "the live test compares against covers in place of near": (
        "kernels.py",
        "left, right = self._phase[_SIDE - 1:_SIDE + nb], self._phase[_SIDE:_SIDE + nb + 1]",
        "left, right = self._phase[:nb + 1], self._phase[2 * _SIDE - 1:]"),
    "the live test needs both roots' windows to hold a column": (
        "kernels.py",
        "live = ~dead.all(axis=0)",
        "live = ~dead.any(axis=0)"),
    "drop the threshold from the seed level": (
        "kernels.py",
        "level = np.minimum(seeded, threshold)",
        "level = seeded"),
    "the trim keeps hits in arrival order": (
        "kernels.py",
        "np.lexsort((keys, ks))[:limit]",
        "np.arange(keys.size)[:limit]"),
    "a full-row block lists its last hits": (
        "kernels.py",
        "np.flatnonzero(over)[:limit]",
        "np.flatnonzero(over)[-limit:]"),
    "drop the bucket correction": (
        "kernels.py",
        "for _ in range(self._steps):",
        "for _ in range(0):"),
    "drop the screen's float-error term": (
        "kernels.py",
        "4.0 * float(self._gap.max()) ** 2) * (1.0 + 1e-14)",
        "4.0 * float(self._gap.max()) ** 2)"),
    "offer ignores slice boundaries within a call": (
        "kernels.py",
        "np.not_equal(slices[1:], slices[:-1], out=head[1:])",
        "head[1:] = False"),
    "c and s swapped in one root's phase": (
        "kernels.py",
        "np.multiply(sc[::-1, k], self._tan_a[rows], out=out)\n"
        "        np.copysign(sc[:, k], out, out=scratch)",
        "np.multiply(sc[[0, 0]][:, k], self._tan_a[rows], out=out)\n"
        "        np.copysign(sc[[1, 1]][:, k], out, out=scratch)"),
    "a window one column short at its left edge": (
        "kernels.py",
        "np.empty(lo.shape, np.int64), lo) - nb * below",
        "np.empty(lo.shape, np.int64), lo) + 1 - nb * below"),
    "a window one column short at its right edge": (
        "kernels.py",
        "np.empty(hi.shape, np.int64), hi) + nb * above",
        "np.empty(hi.shape, np.int64), hi) - 1 + nb * above"),
    "a whole-row window handled as a stencil": (
        "kernels.py",
        "                    if wide.any():\n",
        "                    if False:\n"),
    "the row template at .16g": (
        "_json.py",
        'FLOAT = "{:.17g}"',
        'FLOAT = "{:.16g}"'),
    "a None c rendered as a number": (
        "_json.py",
        "'null' if v is None else FLOAT",
        "'0' if v is None else FLOAT"),
    "shards' hits concatenated in reverse": (
        "scan.py",
        "zip(*(part[4] for part in parts))",
        "zip(*(part[4] for part in parts[::-1]))"),
    "shards' hits not cut to VIOLATION_CAP": (
        "scan.py",
        "np.concatenate(hits)[:VIOLATION_CAP]",
        "np.concatenate(hits)"),
    "scan exits 3 on violation_count >= 0": (
        "cli.py",
        "EXIT_VIOLATION if report.violation_count > 0",
        "EXIT_VIOLATION if report.violation_count >= 0"),
}

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _failures(tests, edit=None, known=None) -> set:
    """Ids of the tests in ``tests`` that fail on a copy with ``edit`` applied (None: unchanged).

    Given the ``known`` failures of the unmutated copy, the run stops at one
    failure more, which is then not one of them.  A run that pytest ends with
    no failure listed (a usage or internal error) reads as one failure of its
    own."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if edit is not None:
            file, old, new = edit
            path = copy / PACKAGE / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests,
             *(() if known is None else (f"--maxfail={len(known) + 1}",))],
            cwd=copy, capture_output=True, text=True, timeout=1200)
        failed = set(FAILED.findall(proc.stdout))
        return failed or ({f"pytest exit {proc.returncode}"} if proc.returncode else set())


def main() -> int:
    baseline = {}
    for file, tests in TESTS.items():
        baseline[file] = _failures(tests)
        for test in sorted(baseline[file]):
            print(f"FAILS UNMUTATED, not counted: {test} (tests of {file})")
    missed = 0
    for name, (file, old, new) in MUTATIONS.items():
        if (ROOT / PACKAGE / file).read_text(encoding="utf-8").count(old) != 1:
            verdict = "NOT APPLICABLE"
        else:
            verdict = "CAUGHT" if _failures(TESTS[file], (file, old, new), baseline[file]) - baseline[file] else "MISSED"
        missed += verdict != "CAUGHT"
        print(f"{verdict}: {name} ({file})", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
