"""Finite-support realist models and the feasibility oracle for the bounds.

A hidden-variable model assigns each label ``lambda`` a weight
``rho(lambda) >= 0`` (weights sum to 1) and a deterministic outcome pair
``(A, B)`` with ``A, B in {+1, -1}``, all at one fixed pair of analyzer
settings.  Ensemble averages of such a model always satisfy the
two-sided bound; this module provides the models, their averages, the
pointwise identity that drives the derivation, the collapse of
outcome-dependent (sequential) models to outcome-independent ones, and
an independent linear-programming oracle, batched over marginal pairs,
showing the bounds are exactly the attainable range of ``ab_bar`` given
the marginals.  Only that oracle needs scipy, and it imports it when run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .domain import PROB_ATOL, CorrelationTriple, InputError

__all__ = [
    "HVModel",
    "SequentialHVModel",
    "ensemble_averages",
    "pointwise_identity",
    "collapse_sequential",
    "frechet_range",
    "random_model",
    "model_to_json",
    "model_from_json",
]


def _check_weights(weights) -> np.ndarray:
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"weights must be numbers: {exc}") from None
    if w.ndim != 1 or w.size < 1:
        raise InputError("weights must be a non-empty 1-d sequence")
    _check_weight_rows(w[None])
    w.setflags(write=False)
    return w


def _check_weight_rows(weights: np.ndarray) -> None:
    """Each row of ``weights`` finite, nonnegative and summing to 1 within ``PROB_ATOL``."""
    if not np.all(np.isfinite(weights)):
        raise InputError("weights must be finite")
    if np.any(weights < 0.0):
        raise InputError("weights must be nonnegative")
    totals = np.sum(weights, axis=1)
    off = np.abs(totals - 1.0) > PROB_ATOL
    if off.any():
        raise InputError(f"weights sum to {float(totals[off][0])!r}, expected 1 within {PROB_ATOL}")


def _check_signs(values, name: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        arr = np.asarray(values)
        as_int = arr.astype(np.int8)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be an array of +1 and -1 entries: {exc}") from None
    if arr.shape != shape:
        raise InputError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.array_equal(as_int, arr) or not np.all(np.abs(as_int) == 1):
        raise InputError(f"{name} entries must be exactly +1 or -1")
    as_int.setflags(write=False)
    return as_int


def _check_labels(labels, size: int) -> tuple:
    labels = tuple(labels) if labels else tuple(range(size))
    if len(labels) != size:
        raise InputError(f"got {len(labels)} labels for {size} weights")
    return labels


@dataclass(frozen=True, eq=False)
class HVModel:
    """Outcome-independent model: per label, a weight and a fixed ``(A, B)`` pair.

    ``labels`` are opaque identifiers; they default to ``0..n-1``.
    """

    weights: np.ndarray
    responses: np.ndarray  # shape (n, 2), entries exactly +/-1
    labels: tuple = ()

    def __post_init__(self) -> None:
        w = _check_weights(self.weights)
        r = _check_signs(self.responses, "responses", (w.size, 2))
        labels = _check_labels(self.labels, w.size)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "responses", r)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class SequentialHVModel:
    """Outcome-dependent model: ``B`` may consult the other wing's outcome.

    ``first`` holds ``A(lambda)``; ``second_given_first[:, 0]`` is the
    ``B`` response when ``A = +1`` and ``[:, 1]`` when ``A = -1``, so the
    conditional response is total on both inputs by construction.
    """

    weights: np.ndarray
    first: np.ndarray  # shape (n,)
    second_given_first: np.ndarray  # shape (n, 2)
    labels: tuple = ()

    def __post_init__(self) -> None:
        w = _check_weights(self.weights)
        a = _check_signs(self.first, "first", (w.size,))
        b = _check_signs(self.second_given_first, "second_given_first", (w.size, 2))
        labels = _check_labels(self.labels, w.size)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second_given_first", b)
        object.__setattr__(self, "labels", labels)


def ensemble_averages(model: HVModel) -> CorrelationTriple:
    """Weighted averages ``(a_bar, b_bar, ab_bar)`` over the model's support."""
    if not isinstance(model, HVModel):
        raise InputError("ensemble_averages expects an HVModel")
    a_bar, b_bar, ab_bar = _averages(model.weights[None], model.responses[None])
    return CorrelationTriple(a_bar=float(a_bar[0]), b_bar=float(b_bar[0]), ab_bar=float(ab_bar[0]))


def _averages(weights: np.ndarray, responses: np.ndarray):
    """Arrays ``(a_bar, b_bar, ab_bar)`` of a stack of models, each validated as a triple.

    ``weights`` has shape ``(m, n)`` and ``responses`` ``(m, n, 2)``.
    Row i of each average is the dot product ``weights[i] @ x[i]``, so a
    stack of one model gives the same doubles as any larger stack.
    Every average must be finite and within ``[-1, 1]`` up to
    ``PROB_ATOL``, as :class:`CorrelationTriple` requires.
    """
    a = responses[..., 0]
    b = responses[..., 1]
    stacked = weights[:, None, :]
    out = tuple(np.matmul(stacked, x[:, :, None])[:, 0, 0] for x in (a, b, a * b))
    for name, value in zip(("a_bar", "b_bar", "ab_bar"), out):
        bad = ~(np.abs(value) <= 1.0 + PROB_ATOL)
        if bad.any():
            raise InputError(f"{name} out of [-1, 1]: {float(value[bad][0])!r}")
    return out


def pointwise_identity(a: int, b: int) -> tuple[float, float, float]:
    """The chain ``1 - |A - B| = AB = -1 + |A + B|`` for one outcome pair.

    Holds exactly because each side is 1 on equal outcomes and -1 on
    unequal outcomes; averaging it over any model yields the two-sided
    bound.
    """
    for name, v in (("A", a), ("B", b)):
        if v not in (1, -1):
            raise InputError(f"{name} must be +1 or -1, got {v!r}")
    a = float(a)
    b = float(b)
    return (1.0 - abs(a - b), a * b, -1.0 + abs(a + b))


def collapse_sequential(model: SequentialHVModel) -> HVModel:
    """Compose the later response with the earlier outcome.

    Substituting ``A(lambda)`` into ``B(lambda, A)`` yields an
    outcome-independent model on the same support with identical
    weights; because the collapsed arrays are exactly the ones any
    sequential-model average would use, the ensemble averages agree
    bit for bit.
    """
    if not isinstance(model, SequentialHVModel):
        raise InputError("collapse_sequential expects a SequentialHVModel")
    a = model.first
    b = np.where(a == 1, model.second_given_first[:, 0], model.second_given_first[:, 1])
    responses = np.stack([a, b.astype(np.int8)], axis=1)
    return HVModel(weights=model.weights, responses=responses, labels=model.labels)


def frechet_range(a_bar, b_bar):
    """Attainable range of ``ab_bar`` over all joint distributions with given marginals.

    ``a_bar`` and ``b_bar`` are scalars or arrays that broadcast together.
    The four cells ``x = (p_pp, p_pm, p_mp, p_mm)`` of each marginal pair
    form one block of a linear program, and all blocks are solved at once
    per direction; every extreme reproduces ``(-1 + |a+b|, 1 - |a-b|)``.
    Scalar input returns two floats, array input two arrays of the
    broadcast shape.
    """
    a, b = np.broadcast_arrays(np.asarray(a_bar, dtype=float), np.asarray(b_bar, dtype=float))
    for name, v in (("a_bar", a), ("b_bar", b)):
        bad = ~(np.isfinite(v) & (np.abs(v) <= 1.0 + PROB_ATOL))
        if bad.any():
            raise InputError(f"{name} must lie in [-1, 1], got {float(v[bad][0])!r}")
    n = a.size
    if n == 0:
        return np.empty(a.shape), np.empty(a.shape)
    # scipy.optimize and scipy.sparse account for about 0.55 s of every
    # fresh start, and only this oracle needs them.
    from scipy import sparse
    from scipy.optimize import linprog

    # Per block, ab_bar = x0 - x1 - x2 + x3 and the rows of ``block`` fix
    # the total, the first marginal and the second marginal.  Feasibility
    # tolerances are tightened from the solver default (1e-7) so
    # near-degenerate marginals still resolve within 1e-9.
    objective = np.array([1.0, -1.0, -1.0, 1.0])
    block = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]])
    b_eq = np.ones((n, 3))
    b_eq[:, 1] = np.clip(0.5 * (1.0 + a.ravel()), 0.0, 1.0)
    b_eq[:, 2] = np.clip(0.5 * (1.0 + b.ravel()), 0.0, 1.0)
    problem = {
        "A_eq": sparse.kron(sparse.identity(n), block, format="csr"),
        "b_eq": b_eq.ravel(),
        "bounds": (0.0, 1.0),
        "method": "highs",
        "options": {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    }
    c = np.tile(objective, n)
    lo, hi = linprog(c, **problem), linprog(-c, **problem)
    if lo.status != 0 or hi.status != 0:
        raise ArithmeticError(
            f"LP solver failed for {n} marginal pair(s): status {lo.status}/{hi.status}"
        )
    # The blocks share no variable or constraint, so an optimum of the
    # sum is optimal in every block.
    low = (lo.x.reshape(n, 4) @ objective).reshape(a.shape)
    high = (hi.x.reshape(n, 4) @ objective).reshape(a.shape)
    if a.ndim == 0:
        return float(low), float(high)
    return low, high


def random_model(label_count: int, seed: int, stream: int = 0) -> HVModel:
    """Deterministic pseudo-random model fixture.

    Uses the counter-based Philox generator keyed by ``(seed, stream)``,
    so distinct streams give independent models under one seed.  Weights
    are uniform draws normalized to sum 1; responses are fair sign flips.
    """
    _, weights, responses = next(_model_chunks(label_count, seed, stream, 1))
    return HVModel(weights=weights[0], responses=responses[0])


# Labels per chunk of :func:`_model_chunks`.  A chunk and its averaging
# temporaries hold about 50 bytes per label, some 200 KB in all; chunks
# of 2^15 labels raised the peak RSS of ``hv`` by 0.2 MB.
_CHUNK_LABELS = 1 << 12
# Labels per model, checked before anything is drawn: a model of 2^20
# labels raises the peak RSS of ``hv --models 1`` from 37 to 63 MB.
_MAX_LABELS = 1 << 20


def _check_model_keys(label_count: int, seed: int, stream: int) -> int:
    """The label count of the models keyed ``(seed, stream)``; raises InputError on any invalid input."""
    label_count = int(label_count)
    if not 1 <= label_count <= _MAX_LABELS:
        raise InputError(f"label_count must be in [1, {_MAX_LABELS}], got {label_count}")
    _check_key("seed", seed)
    _check_key("stream", stream)
    return label_count


def _check_key(name: str, value: int) -> int:
    if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < 2**64:
        raise InputError(f"{name} must be an integer in [0, 2^64), got {value!r}")
    return int(value)


def _model_chunks(label_count: int, seed: int, first: int, count: int):
    """Yield ``(offset, weights, responses)`` for the models of streams ``first .. first + count - 1``.

    Row i of a chunk holds the model :func:`random_model` returns for
    stream ``first + offset + i``: ``weights`` of shape ``(m, label_count)``,
    checked as :class:`HVModel` checks them, and int8 ``responses`` of
    shape ``(m, label_count, 2)``.  A chunk holds at most
    ``_CHUNK_LABELS`` labels, or one model when that has more, so memory
    does not grow with ``count``.  Each stream's generator starts
    from key ``(seed, stream)`` and counter 0, as a new
    ``Philox(key=...)`` does, and makes the same two calls.
    """
    label_count = _check_model_keys(label_count, seed, first)
    bits = np.random.Philox(key=np.array([seed, first], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state
    height = max(1, _CHUNK_LABELS // label_count)
    for offset in range(0, count, height):
        m = min(height, count - offset)
        raw = np.empty((m, label_count))
        responses = np.empty((m, label_count, 2), dtype=np.int8)
        for i in range(m):
            fresh["state"]["key"] = np.array([seed, int(first) + offset + i], dtype=np.uint64)
            bits.state = fresh
            gen.random(out=raw[i])
            responses[i] = gen.integers(0, 2, size=(label_count, 2))
        responses *= 2
        responses -= 1
        total = raw.sum(axis=1, keepdims=True)
        weights = np.divide(raw, total, out=np.full_like(raw, 1.0 / label_count), where=total > 0.0)
        _check_weight_rows(weights)
        yield offset, weights, responses


def model_to_json(model: HVModel) -> str:
    """Serialize to ``{"weights": [...], "responses": [[a, b], ...]}``.

    Weights are rendered with ``repr``'s shortest exact decimal, so the
    document round-trips to bit-identical floats.
    """
    if not isinstance(model, HVModel):
        raise InputError("model_to_json expects an HVModel")
    weights = ", ".join(repr(float(w)) for w in model.weights)
    responses = ", ".join(f"[{int(a)}, {int(b)}]" for a, b in model.responses)
    return f'{{"weights": [{weights}], "responses": [{responses}]}}'


def model_from_json(text: str) -> HVModel:
    """Parse and validate a model serialized by :func:`model_to_json`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid model JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) - {"weights", "responses"}:
        raise InputError("model JSON must be an object with 'weights' and 'responses'")
    try:
        weights = doc["weights"]
        responses = doc["responses"]
    except KeyError as exc:
        raise InputError(f"model JSON missing {exc.args[0]!r}") from None
    return HVModel(weights=weights, responses=responses)
