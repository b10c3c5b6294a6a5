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
    "montecarlo.py": ("tests/test_montecarlo.py",),
    "inequalities.py": ("tests/test_inequalities.py", "tests/test_scan.py", "tests/test_golden_scans.py"),
}

# name -> (file in the package, its text, replacement)
MUTATIONS = {
    "the last gathered live pairs never take their windows": (
        "kernels.py",
        "                whole(block)\n        flush()\n",
        "                whole(block)\n"),
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
        "level = np.minimum(max_s[slices], threshold)",
        "level = max_s[slices]"),
    "diagonal roots (c, c)": (
        "kernels.py",
        "sc = np.stack([np.sqrt(1.0 - cs * cs), cs])",
        "sc = np.stack([cs, cs])"),
    "offer keys a pair's top at its largest column": (
        "kernels.py",
        "self._phase_col[idx], nb).min(axis=0))",
        "self._phase_col[idx], nb).max(axis=0))"),
    "near measured past the nearest column on the right": (
        "kernels.py",
        "left, right = self._phase[:nb + 1], self._phase[1:nb + 2]",
        "left, right = self._phase[:nb + 1], self._phase[2:nb + 3]"),
    "the live test needs both roots' windows to hold a column": (
        "kernels.py",
        "np.nonzero(~dead.all(axis=0))",
        "np.nonzero(~dead.any(axis=0))"),
    "drop the threshold from the screen's level": (
        "kernels.py",
        "level = np.minimum(max_s[ks], threshold)",
        "level = max_s[ks]"),
    "L0 without p_min": (
        "kernels.py",
        "p = (floor + self._pad) + (r2 + self._pad)",
        "p = self._pad + (r2 + self._pad)"),
    "L0 without its margin": (
        "kernels.py",
        "(near + tolerance) ** 2",
        "near ** 2"),
    "L0 without its slack": (
        "kernels.py",
        "1.0 - self._slack - 2.0 * np.where",
        "1.0 - 2.0 * np.where"),
    "L0 without a fixed state's padding": (
        "kernels.py",
        "_pad = 2.0 * _ROOT_ERROR",
        "_pad = 0.0"),
    "L0 without a fixed state's tolerance": (
        "kernels.py",
        "(near + tolerance) ** 2",
        "(near + tolerance * (self._pad == 0.0)) ** 2"),
    "L0 raised above the maximum": (
        "kernels.py",
        "return 1.0 - self._slack - 2.0 * np.where",
        "return 1.001 - self._slack - 2.0 * np.where"),
    "a slice that ends with no key passes": (
        "kernels.py",
        "if (key == _NO_KEY).any():",
        "if False:"),
    "L0 takes roots with R^2 <= 0": (
        "kernels.py",
        "np.where(r2 > 0.0, p, np.inf).min(axis=0)",
        "p.min(axis=0)"),
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
    "merge ranks every candidate of a call under its first slice": (
        "kernels.py",
        "np.maximum.at(max_s, slices, tops)",
        "np.maximum.at(max_s, slices[0], tops)"),
    "merge takes a repeated slice's last top, not its largest": (
        "kernels.py",
        "np.maximum.at(max_s, slices, tops)",
        "max_s[slices] = np.maximum(now, tops)"),
    "merge takes a repeated slice's last key, not its smallest": (
        "kernels.py",
        "np.minimum.at(key, slices[hit], keys[hit])",
        "key[slices[hit]] = keys[hit]"),
    "merge keeps a slice's key when its maximum rises": (
        "kernels.py",
        "key[slices[top > now]] = _NO_KEY",
        "key[slices[top > now]] = key[slices[top > now]]"),
    "tally counts a repeated slice once per call": (
        "kernels.py",
        "np.add.at(n_over, k_at, over.sum(axis=0))",
        "n_over[k_at] += over.sum(axis=0)"),
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
    "a nan window clamped by np.minimum, not spanning the row": (
        "kernels.py",
        "half = np.where(half < math.pi / 2.0, half, math.pi)",
        "half = np.minimum(half, math.pi)"),
    "a wide window of half pi/2, whose edges may round inside a period": (
        "kernels.py",
        "half = np.where(half < math.pi / 2.0, half, math.pi)",
        "half = np.where(half < math.pi / 2.0, half, math.pi / 2.0)"),
    "the block engine's cost of forming blocks dropped": (
        "kernels.py",
        "self._share(roots, nc, start, stop, threshold) > nc + 2",
        "self._share(roots, nc, start, stop, threshold) > nc"),
    "each step of tiles restarts at the first tile": (
        "kernels.py",
        "tile = np.arange(lo, min(lo + step, total))",
        "tile = np.arange(0, min(step, total - lo))"),
    "a run's last tile evaluates one lane past its end": (
        "kernels.py",
        "vals[lane >= size[run] - _TILE * tile] = -np.inf",
        "vals[lane > size[run] - _TILE * tile] = -np.inf"),
    "the row template at .16g": (
        "_json.py",
        'FLOAT = "{:.17g}"',
        'FLOAT = "{:.16g}"'),
    "a None c rendered as a number": (
        "_json.py",
        "'null' if v is None else FLOAT",
        "'0' if v is None else FLOAT"),
    "a scalar inf rendered as a number": (
        "_json.py",
        'format(float(obj), ".17g") if math.isfinite(obj) else "null"',
        'format(float(obj), ".17g") if not math.isnan(obj) else "null"'),
    "halving_ladder without its stop slack": (
        "scan.py",
        "while eps >= stop * (1.0 - 1e-12):",
        "while eps >= stop:"),
    "shards' hits concatenated in reverse": (
        "scan.py",
        "zip(*(part[4] for part in parts))",
        "zip(*(part[4] for part in parts[::-1]))"),
    "shards' hits not cut to VIOLATION_CAP": (
        "scan.py",
        "np.concatenate(hits)[:VIOLATION_CAP]",
        "np.concatenate(hits)"),
    "_axis_size without its endpoint slack": (
        "scan.py",
        "math.floor(quotient + 1e-9 * (abs(quotient) + 1.0))",
        "math.floor(quotient)"),
    "refine's bracket one step narrower": (
        "scan.py",
        "brackets.append((float(grid[max(idx - 1, 0)]),",
        "brackets.append((float(grid[idx]),"),
    "refine's cycle exit at the cycle's first state": (
        "scan.py",
        "list(seen)[first + (40 - first) % (round_ - first)]",
        "list(seen)[first]"),
    "Monte Carlo block keys (index, seed)": (
        "montecarlo.py",
        "key=np.array([seed, index], dtype=np.uint64)",
        "key=np.array([index, seed], dtype=np.uint64)"),
    "the upper bound without its absolute value": (
        "inequalities.py",
        "upper = 1.0 - np.abs(a_bar - b_bar)",
        "upper = 1.0 - (a_bar - b_bar)"),
    "the lower bound without its absolute value": (
        "inequalities.py",
        "lower = -1.0 + np.abs(a_bar + b_bar)",
        "lower = -1.0 + (a_bar + b_bar)"),
    "the truncated condition taken strictly": (
        "inequalities.py",
        "return c >= 2.0 * c * eps",
        "return c > 2.0 * c * eps"),
    "an eps ladder with an equal pair passes": (
        "inequalities.py",
        "any(b >= a for a, b in zip(ladder, ladder[1:]))",
        "any(b > a for a, b in zip(ladder, ladder[1:]))"),
    "a truncation discrepancy despite found violations": (
        "cli.py",
        "report.first_order_predicted_violations and report.violation_count == 0",
        "report.first_order_predicted_violations"),
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
