"""Mutation check of the certified ridge scan: every mutation below must make a kernel test fail.

Run from the repository root:

    python tests/mutations.py

For each mutation the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies one textual edit to
the copy's ``leggettlab/kernels.py`` and runs ``tests/test_certificate.py``
and ``tests/test_kernels.py`` there.  It prints CAUGHT when a test fails and MISSED when all pass, after
checking that the unmutated copy passes.  It exits 1 when a mutation is
missed or its text no longer occurs in ``kernels.py``.  pytest does not
collect this file: its name does not start with ``test_``.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = Path("src", "leggettlab", "kernels.py")

# name -> (text in kernels.py, replacement)
MUTATIONS = {
    "certify every row": (
        "sure = (half < covers).all(axis=0)",
        "sure = np.ones(covers.shape[-1], dtype=bool)"),
    "drop the p_min term": (
        "2.0 * xy.imag**2 / ((xx + yy) + r2) - _ROOT_ERROR",
        "0.0 * xx - _ROOT_ERROR"),
    "drop the norm defect from the slack": (
        "_SLACK + 2.0 * abs(norm - 1.0)",
        "_SLACK"),
    "gather k0 in place of k1 for fixed states": (
        '    if k1 is not k0:\n        np.take(k1, idx, out=z, mode="clip")\n',
        ""),
    "drop the circular padding": (
        "self._phase = phase[order][pos] + math.pi * wrap",
        "self._phase = phase[order][pos]"),
    "drop the threshold from the window depth": (
        "level = np.minimum(np.maximum(max_s[slices], seeded[b_sel]), threshold)",
        "level = np.maximum(max_s[slices], seeded[b_sel])"),
    "diagonal roots (c, c)": (
        "sc = np.stack([np.sqrt(1.0 - cs * cs), cs])",
        "sc = np.stack([cs, cs])"),
    "first diagonal stencil maximum in layout order": (
        "attained = np.flatnonzero(tops == reach)",
        "attained = np.flatnonzero(vals == reach) % tops.size"),
    "the live test compares against covers in place of near": (
        "left, right = self._phase[_SIDE - 1:_SIDE + nb], self._phase[_SIDE:_SIDE + nb + 1]",
        "left, right = self._phase[:nb + 1], self._phase[2 * _SIDE - 1:]"),
    "the live test needs both roots' windows to hold a column": (
        "live = ~dead.all(axis=0)",
        "live = ~dead.any(axis=0)"),
    "drop the threshold from the seed level": (
        "level = np.minimum(seeded, threshold)",
        "level = seeded"),
    "the trim keeps hits in arrival order": (
        "np.lexsort((keys, ks))[:limit]",
        "np.arange(keys.size)[:limit]"),
    "a full-row block lists its last hits": (
        "np.flatnonzero(over)[:limit]",
        "np.flatnonzero(over)[-limit:]"),
    "drop the bucket correction": (
        "for _ in range(self._steps):",
        "for _ in range(0):"),
    "drop the screen's float-error term": (
        "4.0 * float(self._gap.max()) ** 2) * (1.0 + 1e-14)",
        "4.0 * float(self._gap.max()) ** 2)"),
    "offer ignores slice boundaries within a call": (
        "np.not_equal(slices[1:], slices[:-1], out=head[1:])",
        "head[1:] = False"),
    "c and s swapped in one root's phase": (
        "np.multiply(sc[::-1, k], self._tan_a[rows], out=out)\n"
        "        np.copysign(sc[:, k], out, out=scratch)",
        "np.multiply(sc[[0, 0]][:, k], self._tan_a[rows], out=out)\n"
        "        np.copysign(sc[[1, 1]][:, k], out, out=scratch)"),
    "a window one column short at its left edge": (
        "np.empty(lo.shape, np.int64), lo) - nb * below",
        "np.empty(lo.shape, np.int64), lo) + 1 - nb * below"),
    "a window one column short at its right edge": (
        "np.empty(hi.shape, np.int64), hi) + nb * above",
        "np.empty(hi.shape, np.int64), hi) - 1 + nb * above"),
    "a whole-row window handled as a stencil": (
        "                    if wide.any():\n",
        "                    if False:\n"),
}


def _run(edit) -> bool:
    """Whether the kernel tests pass on a copy with ``edit`` applied (None: unchanged)."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if edit is not None:
            path = copy / KERNELS
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(*edit, 1), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "tests/test_certificate.py", "tests/test_kernels.py"],
            cwd=copy, capture_output=True, text=True, timeout=600)
        return proc.returncode == 0


def main() -> int:
    text = (ROOT / KERNELS).read_text(encoding="utf-8")
    if not _run(None):
        print("the unmutated copy fails the kernel tests")
        return 1
    missed = 0
    for name, (old, new) in MUTATIONS.items():
        if text.count(old) != 1:
            verdict = "NOT APPLICABLE"
        else:
            verdict = "MISSED" if _run((old, new)) else "CAUGHT"
        missed += verdict != "CAUGHT"
        print(f"{verdict}: {name}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
