"""Compare this checkout's CLI with another checkout's: same bytes, and the cost of each.

Run from the repository root, naming the other checkout (for example a
`git archive` of the parent commit):

    python tests/compare_checkouts.py PATH/TO/OTHER [--pairs N]

Each command below runs ``N`` times in both trees (default 3), each run a
fresh ``python -m leggettlab`` process with ``PYTHONPATH`` set to that
tree's ``src/``, in its own empty working directory.  The tree that runs
first alternates from pair to pair.  Every run's output (stdout and
stderr, with the ``wall_time`` value masked), exit code and CSV file
must equal those of the other tree's first run, and of the same tree's
earlier runs.  The script prints per command the median wall time and
the median peak RSS (``os.wait4``) of each tree, and in how many pairs
this tree's peak RSS was the lower.  It exits 1 when any output
differs.  pytest does not collect this file: its name does not start
with ``test_``.
"""

import argparse
import hashlib
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CSV = "curve.csv"
# A random real state (the benchmark toolkit's kind of fixed-matrix input).
COEFFS = "--coeffs=0.3018015947633647,0.7228650868819381,0.5339238809738273,0.3182878459685576"


def _shifted_angles(shift: float, step: float) -> list:
    """Alpha and beta over [0, pi] moved by ``shift`` of a step, as the benchmark draws them."""
    lo, hi = shift * step, math.pi + shift * step
    return [f for name in ("alpha", "beta")
            for f in (f"--{name}-min", repr(lo), f"--{name}-max", repr(hi), f"--{name}-step", repr(step))]


PAPER = ["--c-min", "0", "--c-max", "0.7"] + _shifted_angles(0.37, 1e-3)

# name -> CLI arguments; ``CSV`` names the file a command writes.
COMMANDS = {
    "adjudicate": ["scan", "--eps-preset", "--c-step", "0.001", *PAPER, "--workers", "2"],
    "adjudicate, 1 worker": ["scan", "--eps-preset", "--c-step", "0.001", *PAPER, "--workers", "1"],
    "census": ["scan", "--tolerance=-1e-12", "--c-step", "0.01", *PAPER, "--csv", CSV, "--workers", "2"],
    "census grid at 1 - 1e-6": ["scan", "--tolerance=-1e-6", "--c-step", "0.01", *PAPER, "--csv", CSV],
    "census grid at 1 - 1e-5": ["scan", "--tolerance=-1e-5", "--c-step", "0.01", *PAPER, "--csv", CSV, "--workers", "2"],
    "eps-preset": ["scan", "--eps-preset"],
    "all rows in full": ["scan", "--step", "2e-3", "--c-step", "1e-2", "--tolerance=-1e-3", "--no-refine"],
    "fully dense": ["scan", "--step", "2e-3", "--c-step", "1e-2", "--tolerance=-0.5", "--no-refine"],
    "thin": ["scan", "--c-step", "1e-6", "--step", "1", "--no-refine"],
    "thin, 1e-5": ["scan", "--c-step", "1e-5", "--step", "1", "--no-refine"],
    "thin, csv": ["scan", "--c-step", "1e-6", "--step", "1", "--no-refine", "--csv", CSV],
    "thin singlet": ["scan", "--family", "singlet", "--alpha-step", "3e-6", "--beta-step", "1", "--no-refine"],
    "thin singlet, csv": ["scan", "--family", "singlet", "--alpha-step", "3e-6", "--beta-step", "1",
                          "--no-refine", "--csv", CSV],
    "fixed-matrix": ["scan", "--family", "fixed-matrix", COEFFS, "--step", "5e-4", "--csv", CSV],
    "fixed-matrix at -1e-3": ["scan", "--family", "fixed-matrix", COEFFS, "--tolerance=-1e-3"],
    "singlet at -1e-3": ["scan", "--family", "singlet", "--tolerance=-1e-3", "--csv", CSV],
    # 10 000 rows listed with c null; the cap falls in the second shard.
    "singlet at -0.9": ["scan", "--family", "singlet", "--step", "2e-2", "--tolerance=-0.9", "--workers", "2"],
    "eval": ["eval", "--c", "0.37", "--alpha", "0.71", "--beta", "2.9"],
    "expand": ["expand", "--c", "0.2"],
    "mc": ["mc", "--c", "0.37", "--alpha", "0.71", "--beta", "2.9", "--n", "1000000", "--workers", "2",
           "--seed", "7"],
    "hv": ["hv", "--models", "1000", "--frechet-grid", "11", "--seed", "7"],
}

WALL_TIME = re.compile(rb'"wall_time": [^,}]+')


def _digest(path: Path) -> str:
    """SHA-256 of a file, read in blocks.

    A child's peak RSS counts from this process's own peak (the child starts
    in this process's memory), so no output is ever held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run(tree: Path, argv: list) -> tuple:
    """``(output digest, exit code, CSV digest or None, wall s, peak RSS MB)`` of one fresh process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as work:
        with open(Path(work, "stdout"), "wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "leggettlab", *argv], cwd=work, env=env,
                                    stdout=out, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = WALL_TIME.sub(b'"wall_time": 0', Path(work, "stdout").read_bytes())
        csv = Path(work, CSV)
        return (hashlib.sha256(stdout).hexdigest(), proc.returncode, _digest(csv) if csv.exists() else None,
                wall, usage.ru_maxrss / 1024)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args(argv)
    trees = {"other": args.other.resolve(), "this": ROOT}
    if not (trees["other"] / "src" / "leggettlab").is_dir():
        parser.error(f"{args.other} holds no src/leggettlab")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    differ = 0
    print(f"{'command':26} {'output':7} {'wall s other/this':>18} {'RSS MB other/this':>18} lower RSS")
    for name, cli_args in COMMANDS.items():
        results = {side: [] for side in trees}
        for pair in range(args.pairs):
            for side in (("other", "this") if pair % 2 == 0 else ("this", "other")):
                results[side].append(run(trees[side], cli_args))
        want = results["other"][0][:3]
        same = all(r[:3] == want for side in trees for r in results[side])
        differ += not same
        wall = [statistics.median(r[3] for r in results[side]) for side in trees]
        rss = [statistics.median(r[4] for r in results[side]) for side in trees]
        lower = sum(b[4] < a[4] for a, b in zip(results["other"], results["this"]))
        print(f"{name:26} {'same' if same else 'DIFFERS':7} {wall[0]:8.2f} / {wall[1]:7.2f} "
              f"{rss[0]:8.1f} / {rss[1]:7.1f} {lower}/{args.pairs} (exit {want[1]})", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
