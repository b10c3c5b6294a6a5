"""Full-grid audit of the certified diagonal scan against the dense block engine, bit for bit.

Run from the repository root:

    python tests/full_grid_audit.py

It scans the paper grid, 701 values of c in [0, 0.7] by 1e-3 and alpha and
beta over one period by 1e-3 (3142 each), at two origins of the angle axes
(0 and 0.37 of a step) and two thresholds (the paper's ``1 + 1e-9`` and the
census's ``1 - 1e-12``).  Each case runs ``DiagonalScanner.scan`` and the
dense engine of ``tests/reference.py``, which evaluates every point, and
compares the per-c maxima, first argmax, threshold counts and the first
10 000 hits.  It prints one line per case and exits 1 on any difference.
A dense pass takes about 10 s on 2 vCPUs.  pytest does not collect this
file: its name does not start with ``test_``.
"""

import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from leggettlab.kernels import DiagonalScanner  # noqa: E402
from leggettlab.scan import VIOLATION_CAP, _axis  # noqa: E402
from reference import dense_diagonal_scan  # noqa: E402

STEP = 1e-3


def main() -> int:
    cs = _axis((0.0, 0.7, STEP))
    differ = 0
    for origin in (0.0, 0.37 * STEP):
        grid = _axis((origin, math.pi + origin, STEP))
        scanner = DiagonalScanner(grid, grid)
        for threshold in (1.0 + 1e-9, 1.0 - 1e-12):
            started = perf_counter()
            got = scanner.scan(cs, threshold, VIOLATION_CAP)
            certified = perf_counter() - started
            want = dense_diagonal_scan(scanner, cs, threshold, VIOLATION_CAP)
            dense = perf_counter() - started - certified
            same = all(np.array_equal(g, w) for g, w in zip(got[:4] + got[4], want[:4] + want[4]))
            differ += not same
            print(f"{'SAME' if same else 'DIFFERENT'}: origin {origin!r}, threshold {threshold!r}: "
                  f"{int(want[3].sum())} points over, {want[4][0].size} listed; "
                  f"certified {certified:.2f} s, dense {dense:.2f} s", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
