"""Environment-variable contract and worker resolution.

One process-level knob:

* ``LEGGETTLAB_THREADS``: default worker count for sharded scans and
  sampling.  Default: 1.  Results are worker-count independent by
  construction; this knob only trades wall time.

Any worker count, explicit or from the environment, is capped at the
number of CPUs, so a large request never starts more threads than can
run at once.
"""

from __future__ import annotations

import os

from .domain import InputError

__all__ = ["ENV_THREADS", "resolve_workers"]

ENV_THREADS = "LEGGETTLAB_THREADS"


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else ``LEGGETTLAB_THREADS``, else 1; at most ``os.cpu_count()``."""
    if workers is None:
        raw = os.environ.get(ENV_THREADS)
        if raw is None:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise InputError(f"{ENV_THREADS} must be an integer, got {raw!r}") from None
    workers = int(workers)
    if workers < 1:
        raise InputError(f"worker count must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1)
