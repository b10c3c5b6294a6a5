"""Worker resolution, and :func:`shard_map`, the one place that starts worker threads.

A worker count, ``workers=`` in Python or ``--workers`` on the command
line, defaults to 1.  Results are worker-count independent by
construction; the count only trades wall time.

Any worker count is capped at the number of CPUs this process may run
on (its affinity mask, where the platform has one, else
``os.cpu_count()``), so a large request or a ``taskset`` run never
starts more threads than can run at once.
"""

from __future__ import annotations

import os
from typing import Callable

from .domain import InputError

__all__ = ["resolve_workers", "shard_map"]


def resolve_workers(workers: int | None = None) -> int:
    """``workers``, else 1; at most the CPUs this process may use."""
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise InputError(f"worker count must be >= 1, got {workers}")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count()
    return min(workers, cpus or 1)


def shard_map(fn: Callable[[slice], object], n: int, workers: int) -> list:
    """``fn`` over at most ``workers`` contiguous slices covering ``range(n)``, results in order.

    Slice ``k`` of ``pieces = min(n, workers)`` runs from ``k*n//pieces``
    to ``(k+1)*n//pieces``; a single slice runs on the calling thread.
    """
    pieces = min(n, workers)
    shards = [slice(k * n // pieces, (k + 1) * n // pieces) for k in range(pieces)]
    if pieces <= 1:
        return [fn(shard) for shard in shards]
    from concurrent.futures import ThreadPoolExecutor  # here, so commands that start no thread never load it
    with ThreadPoolExecutor(max_workers=pieces) as pool:
        return list(pool.map(fn, shards))
