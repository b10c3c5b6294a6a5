"""Seeded stochastic simulation of measurement records.

Both samplers draw labels: ``sample_pairs`` one of the four outcome
cells by its probability, ``simulate_hv`` one hidden-variable label by
its weight, which then emits its deterministic outcome pair.  Draws use
the counter-based Philox generator.  A run of ``n`` draws is split into
fixed-size blocks of ``2**20`` samples; block ``k`` is generated from
the key ``(seed, k)``, and per-block outcome counts are summed.
Because the block layout depends only on ``n`` and ``seed``, results
are bit-identical for any worker count: each worker takes one
contiguous range of blocks and draws every block into one reused
buffer, so memory is O(workers * BLOCK_SIZE) for any ``n``.

A uniform draw ``r`` gets the label ``#{k : t_k <= r}`` for the sorted
cumulative thresholds ``t``, the index ``searchsorted(t, r,
side="right")`` returns.  So label k is drawn ``#(r >= t_{k-1}) - #(r >=
t_k)`` times in a block, one comparison and count per threshold, with
``#(r >= t_{-1})`` the block size and ``#(r >= t_K)`` zero.

Estimators are plain plug-in frequencies with normal-approximation
(Wald) standard errors ``sqrt((1 - x^2)/n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import resolve_workers, shard_map
from .domain import CorrelationTriple, InputError, JointOutcomeDistribution
from .hidden_variables import HVModel

__all__ = [
    "BLOCK_SIZE",
    "MAX_SAMPLES",
    "SampleCounts",
    "MCEstimate",
    "sample_pairs",
    "simulate_hv",
    "estimate",
]

BLOCK_SIZE = 1 << 20
MAX_SAMPLES = 10**10  # pairs at 1.6e8/s, a 100-label model at 2.3e7/s: 60 s and 7 min (one worker, 2 shared vCPUs)


@dataclass(frozen=True)
class SampleCounts:
    """Empirical outcome counts in cell order ``(++, +-, -+, --)``.

    ``seed`` records provenance when the counts came from a seeded
    sampler; hand-built counts may leave it None.
    """

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    n_total: int
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("n_pp", "n_pm", "n_mp", "n_mm", "n_total"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or int(value) < 0:
                raise InputError(f"{name} must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        total = self.n_pp + self.n_pm + self.n_mp + self.n_mm
        if total != self.n_total:
            raise InputError(f"counts sum to {total}, but n_total is {self.n_total}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n_pp, self.n_pm, self.n_mp, self.n_mm)


@dataclass(frozen=True)
class MCEstimate:
    """Plug-in correlation estimates with Wald standard errors."""

    triple_hat: CorrelationTriple
    std_errors: tuple[float, float, float]
    n: int
    seed: Optional[int] = None


def _check_positive_count(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or not 1 <= int(n) <= MAX_SAMPLES:
        raise InputError(f"sample count must be an integer in [1, {MAX_SAMPLES}], got {n!r}")
    return int(n)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise InputError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def _label_counts(thresholds: np.ndarray, n: int, seed: int, workers: Optional[int]) -> np.ndarray:
    """How often each of ``thresholds.size + 1`` labels is drawn in ``n`` Philox draws.

    Label ``searchsorted(thresholds, r, side="right")`` is drawn for each
    uniform ``r``, with ``thresholds`` sorted; block ``k`` of
    ``BLOCK_SIZE`` draws uses key ``(seed, k)``.
    """
    labels = thresholds.size + 1

    def run(blocks: slice) -> np.ndarray:
        per_label = np.zeros(labels, dtype=np.int64)
        draws = np.empty(min(BLOCK_SIZE, n))
        mask = np.empty(draws.size, dtype=bool)
        at_least = np.zeros(labels + 1, dtype=np.int64)
        for index in range(blocks.start, blocks.stop):
            size = min(BLOCK_SIZE, n - index * BLOCK_SIZE)
            gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
            r = gen.random(size, out=draws[:size])
            at_least[0] = size
            for k, t in enumerate(thresholds, start=1):
                at_least[k] = np.count_nonzero(np.greater_equal(r, t, out=mask[:size]))
            per_label += at_least[:-1] - at_least[1:]
        return per_label

    return sum(shard_map(run, -(-n // BLOCK_SIZE), resolve_workers(workers)))


def _count_labels(
    thresholds: np.ndarray, cells: np.ndarray, n: int, seed: int, workers: Optional[int]
) -> SampleCounts:
    """Counts per outcome cell of ``n`` labels drawn by :func:`_label_counts`, label k in ``cells[k]``."""
    totals = np.zeros(4, dtype=np.int64)
    np.add.at(totals, cells, _label_counts(thresholds, n, seed, workers))
    return SampleCounts(*(int(t) for t in totals), n_total=n, seed=seed)


def sample_pairs(
    dist: JointOutcomeDistribution,
    n: int,
    seed: int = 0,
    workers: Optional[int] = None,
) -> SampleCounts:
    """Draw ``n`` outcome pairs from a joint distribution, deterministically."""
    if not isinstance(dist, JointOutcomeDistribution):
        raise InputError("sample_pairs expects a JointOutcomeDistribution")
    n = _check_positive_count(n)
    seed = _check_seed(seed)
    thresholds = np.cumsum(np.clip(np.asarray(dist.as_tuple()), 0.0, None))[:3]
    return _count_labels(thresholds, np.arange(4), n, seed, workers)


def simulate_hv(
    model: HVModel,
    n: int,
    seed: int = 0,
    workers: Optional[int] = None,
) -> SampleCounts:
    """Sample labels by weight and emit each label's deterministic pair."""
    if not isinstance(model, HVModel):
        raise InputError("simulate_hv expects an HVModel")
    n = _check_positive_count(n)
    seed = _check_seed(seed)
    thresholds = np.cumsum(model.weights)[:-1]
    cells = ((model.responses[:, 0] == -1).astype(np.int64) * 2
             + (model.responses[:, 1] == -1).astype(np.int64))
    return _count_labels(thresholds, cells, n, seed, workers)


def estimate(counts: SampleCounts) -> MCEstimate:
    """Plug-in triple and Wald errors from empirical counts."""
    if not isinstance(counts, SampleCounts):
        raise InputError("estimate expects SampleCounts")
    n = counts.n_total
    if n < 1:
        raise InputError("cannot estimate from zero samples")
    n_pp, n_pm, n_mp, n_mm = counts.as_tuple()
    a_hat = (n_pp + n_pm - n_mp - n_mm) / n
    b_hat = (n_pp + n_mp - n_pm - n_mm) / n
    ab_hat = (n_pp + n_mm - n_pm - n_mp) / n
    errors = tuple(math.sqrt(max(0.0, 1.0 - x * x) / n) for x in (a_hat, b_hat, ab_hat))
    return MCEstimate(
        triple_hat=CorrelationTriple(a_hat, b_hat, ab_hat),
        std_errors=errors,
        n=n,
        seed=counts.seed,
    )
