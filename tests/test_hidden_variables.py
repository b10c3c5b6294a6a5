"""Finite-support realist models: validation, averages, collapse, feasibility oracle."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from leggettlab import (
    HVModel,
    InputError,
    SequentialHVModel,
    collapse_sequential,
    ensemble_averages,
    frechet_range,
    leggett_bounds,
    model_from_json,
    model_to_json,
    pointwise_identity,
    random_model,
)
from leggettlab import hidden_variables
from leggettlab.inequalities import _bounds


class TestHVModelValidation:
    def test_minimal_model(self):
        model = HVModel(weights=[1.0], responses=[[1, -1]])
        assert model.size == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InputError):
            HVModel(weights=[0.5, 0.4], responses=[[1, 1], [1, 1]])

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(InputError):
            HVModel(weights=[1.5, -0.5], responses=[[1, 1], [1, 1]])

    def test_empty_support_rejected(self):
        with pytest.raises(InputError):
            HVModel(weights=[], responses=np.empty((0, 2)))

    def test_responses_must_be_signs(self):
        with pytest.raises(InputError):
            HVModel(weights=[1.0], responses=[[1, 0]])
        with pytest.raises(InputError):
            HVModel(weights=[1.0], responses=[[0.5, 1.0]])

    def test_responses_shape_checked(self):
        with pytest.raises(InputError):
            HVModel(weights=[1.0], responses=[1, -1])

    def test_labels_are_row_indices(self):
        # A label is its row; neither model takes a separate label tuple.
        with pytest.raises(TypeError):
            HVModel(weights=[1.0], responses=[[1, 1]], labels=(0,))
        with pytest.raises(TypeError):
            SequentialHVModel(weights=[1.0], first=[1], second_given_first=[[1, 1]], labels=(0,))

    def test_arrays_are_frozen(self):
        model = HVModel(weights=[0.5, 0.5], responses=[[1, 1], [-1, -1]])
        with pytest.raises(ValueError):
            model.weights[0] = 0.9
        with pytest.raises(ValueError):
            model.responses[0, 0] = -1


class TestEnsembleAverages:
    def test_point_mass(self):
        triple = ensemble_averages(HVModel(weights=[1.0], responses=[[1, -1]]))
        assert triple.as_tuple() == (1.0, -1.0, -1.0)

    def test_balanced_anticorrelated(self):
        model = HVModel(weights=[0.5, 0.5], responses=[[1, -1], [-1, 1]])
        triple = ensemble_averages(model)
        assert triple.a_bar == pytest.approx(0.0)
        assert triple.b_bar == pytest.approx(0.0)
        assert triple.ab_bar == pytest.approx(-1.0)

    def test_weighted_mixture(self):
        model = HVModel(weights=[0.75, 0.25], responses=[[1, 1], [-1, 1]])
        triple = ensemble_averages(model)
        assert triple.a_bar == pytest.approx(0.5)
        assert triple.b_bar == pytest.approx(1.0)
        assert triple.ab_bar == pytest.approx(0.5)

    def test_type_check(self):
        with pytest.raises(InputError):
            ensemble_averages("not a model")

    def test_every_random_model_satisfies_bounds(self):
        for k in range(200):
            model = random_model(label_count=1 + k % 97, seed=5, stream=k)
            assert leggett_bounds(ensemble_averages(model)).satisfied


class TestPointwiseIdentity:
    @pytest.mark.parametrize("a", [1, -1])
    @pytest.mark.parametrize("b", [1, -1])
    def test_chain_is_exact(self, a, b):
        left, middle, right = pointwise_identity(a, b)
        assert left == middle == right == float(a * b)

    @pytest.mark.parametrize("bad", [0, 2, 0.5, "x"])
    def test_rejects_non_signs(self, bad):
        with pytest.raises(InputError):
            pointwise_identity(bad, 1)
        with pytest.raises(InputError):
            pointwise_identity(1, bad)


class TestSequentialCollapse:
    def test_copy_strategy_forces_agreement(self):
        # B repeats whatever A produced: collapse gives (A, A) rows.
        model = SequentialHVModel(
            weights=[0.25, 0.75],
            first=[1, -1],
            second_given_first=[[1, -1], [1, -1]],
        )
        collapsed = collapse_sequential(model)
        assert np.array_equal(collapsed.responses, [[1, 1], [-1, -1]])
        assert ensemble_averages(collapsed).ab_bar == 1.0

    def test_constant_strategy_ignores_first_outcome(self):
        model = SequentialHVModel(
            weights=[0.5, 0.5],
            first=[1, -1],
            second_given_first=[[1, 1], [1, 1]],
        )
        collapsed = collapse_sequential(model)
        assert np.array_equal(collapsed.responses[:, 1], [1, 1])

    def test_collapse_preserves_averages_bit_exactly(self):
        gen = np.random.Generator(np.random.Philox(31))
        for _ in range(50):
            n = int(gen.integers(1, 200))
            raw = gen.random(n)
            weights = raw / raw.sum()
            first = (gen.integers(0, 2, n) * 2 - 1).astype(np.int8)
            sgf = (gen.integers(0, 2, (n, 2)) * 2 - 1).astype(np.int8)
            model = SequentialHVModel(weights=weights, first=first, second_given_first=sgf)
            collapsed = collapse_sequential(model)
            # Direct sequential averages, assembled independently.
            b_effective = np.where(first == 1, sgf[:, 0], sgf[:, 1])
            assert float(weights @ first) == ensemble_averages(collapsed).a_bar
            assert float(weights @ b_effective) == ensemble_averages(collapsed).b_bar
            assert float(weights @ (first * b_effective)) == ensemble_averages(collapsed).ab_bar

    def test_collapsed_models_satisfy_bounds(self):
        gen = np.random.Generator(np.random.Philox(32))
        for _ in range(100):
            n = int(gen.integers(1, 64))
            raw = gen.random(n)
            model = SequentialHVModel(
                weights=raw / raw.sum(),
                first=(gen.integers(0, 2, n) * 2 - 1).astype(np.int8),
                second_given_first=(gen.integers(0, 2, (n, 2)) * 2 - 1).astype(np.int8),
            )
            assert leggett_bounds(ensemble_averages(collapse_sequential(model))).satisfied

    def test_type_check(self):
        with pytest.raises(InputError):
            collapse_sequential(HVModel(weights=[1.0], responses=[[1, 1]]))


class TestFrechetRange:
    def test_flat_marginals_span_everything(self):
        lo, hi = frechet_range(0.0, 0.0)
        assert lo == pytest.approx(-1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_pinned_first_marginal(self):
        lo, hi = frechet_range(1.0, 0.0)
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(0.0, abs=1e-9)

    def test_generic_point(self):
        lo, hi = frechet_range(0.6, 0.2)
        assert lo == pytest.approx(-1.0 + abs(0.6 + 0.2), abs=1e-9)
        assert hi == pytest.approx(1.0 - abs(0.6 - 0.2), abs=1e-9)

    @given(
        st.floats(-1.0, 1.0, allow_nan=False),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    def test_lp_matches_closed_form(self, a_bar, b_bar):
        lo, hi = frechet_range(a_bar, b_bar)
        assert lo == pytest.approx(-1.0 + abs(a_bar + b_bar), abs=1e-9)
        assert hi == pytest.approx(1.0 - abs(a_bar - b_bar), abs=1e-9)

    def test_array_input_broadcasts(self):
        gen = np.random.Generator(np.random.Philox(33))
        a_bars = np.vstack([np.full(7, -1.0), gen.random((3, 7)) * 2.0 - 1.0, np.full(7, 1.0)])
        b_bars = np.linspace(-1.0, 1.0, 7)
        lo, hi = frechet_range(a_bars, b_bars)
        assert lo.shape == hi.shape == (5, 7)
        assert np.max(np.abs(lo - (-1.0 + np.abs(a_bars + b_bars)))) <= 1e-9
        assert np.max(np.abs(hi - (1.0 - np.abs(a_bars - b_bars)))) <= 1e-9
        for (i, j), a_bar in np.ndenumerate(a_bars):
            lo_1, hi_1 = frechet_range(float(a_bar), float(b_bars[j]))
            assert type(lo_1) is float and type(hi_1) is float
            assert abs(lo[i, j] - lo_1) <= 1e-12 and abs(hi[i, j] - hi_1) <= 1e-12

    def test_empty_input_returns_empty_arrays(self):
        lo, hi = frechet_range(np.empty((0, 3)), 0.5)
        assert lo.shape == hi.shape == (0, 3)

    def test_input_validation(self):
        with pytest.raises(InputError):
            frechet_range(1.5, 0.0)
        with pytest.raises(InputError):
            frechet_range(0.0, math.nan)
        with pytest.raises(InputError, match="1.5"):
            frechet_range(np.array([0.1, -0.4, 1.5, 0.2]), 0.0)


class TestRandomModel:
    def test_deterministic_for_seed(self):
        one = random_model(100, seed=7)
        two = random_model(100, seed=7)
        assert np.array_equal(one.weights, two.weights)
        assert np.array_equal(one.responses, two.responses)

    def test_streams_are_distinct(self):
        one = random_model(100, seed=7, stream=0)
        two = random_model(100, seed=7, stream=1)
        assert not np.array_equal(one.responses, two.responses)

    def test_weights_normalized(self):
        model = random_model(1000, seed=8)
        assert abs(float(model.weights.sum()) - 1.0) <= 1e-12

    def test_validation(self):
        with pytest.raises(InputError):
            random_model(0, seed=1)
        with pytest.raises(InputError):
            random_model(2**20 + 1, 0)
        with pytest.raises(InputError):
            random_model(10, seed=-1)
        with pytest.raises(InputError):
            random_model(10, seed=1.5)


def reference_model(label_count, seed, stream):
    """A model drawn as one generator per stream: ``gen.random(L)``, then ``gen.integers(0, 2, (L, 2))``."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    raw = gen.random(label_count)
    total = float(raw.sum())
    weights = raw / total if total > 0.0 else np.full(label_count, 1.0 / label_count)
    responses = (gen.integers(0, 2, size=(label_count, 2)) * 2 - 1).astype(np.int8)
    return weights, responses


def same_double(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestModelChunks:
    """The chunked pass of ``hv`` against per-model draws, averages and bounds, bit for bit."""

    @pytest.mark.parametrize("label_count", [1, 2, 7, 100, 257])
    @pytest.mark.parametrize("first", [0, 5])
    def test_rows_match_per_model_path(self, label_count, first):
        # 600 labels per chunk: 600, 300, 85, 6 and 2 models, so 2.5
        # chunks put streams on both sides of two chunk boundaries.
        height = max(1, 600 // label_count)
        count = 2 * height + height // 2 + 1
        seed = 2**64 - 3
        streams = []
        with mock.patch.object(hidden_variables, "_CHUNK_LABELS", 600):
            for offset, weights, responses in hidden_variables._model_chunks(
                label_count, seed, first, count
            ):
                assert weights.shape[0] == responses.shape[0] <= height
                a_bar, b_bar, ab_bar = hidden_variables._averages(weights, responses)
                lower, upper, margin = _bounds(a_bar, b_bar, ab_bar)
                for i in range(weights.shape[0]):
                    stream = first + offset + i
                    streams.append(stream)
                    want_w, want_r = reference_model(label_count, seed, stream)
                    assert np.array_equal(weights[i], want_w)
                    assert np.array_equal(responses[i], want_r)
                    model = random_model(label_count, seed, stream=stream)
                    assert np.array_equal(model.weights, want_w)
                    assert np.array_equal(model.responses, want_r)
                    triple = ensemble_averages(model)
                    a, b = want_r[:, 0], want_r[:, 1]
                    for got, per_model, direct in zip(
                        (a_bar[i], b_bar[i], ab_bar[i]),
                        triple.as_tuple(),
                        (want_w @ a, want_w @ b, want_w @ (a * b)),
                    ):
                        assert same_double(got, per_model) and same_double(got, direct)
                    bounds = leggett_bounds(triple)
                    assert same_double(lower[i], bounds.lower)
                    assert same_double(upper[i], bounds.upper)
                    assert same_double(margin[i], bounds.margin)
        assert streams == list(range(first, first + count))

    def test_chunk_height_at_the_default_size(self):
        heights = [w.shape[0] for _, w, _ in hidden_variables._model_chunks(257, 0, 0, 40)]
        assert heights == [15, 15, 10]

    def test_invalid_rows_raise(self):
        responses = np.ones((1, 2, 2), dtype=np.int8)
        for weights in ([[0.5, 0.4]], [[1.5, -0.5]], [[np.nan, 1.0]], [[np.inf, 0.0]]):
            with pytest.raises(InputError):
                hidden_variables._check_weight_rows(np.array(weights))
        with pytest.raises(InputError):
            hidden_variables._averages(np.array([[1.0, 1.0]]), responses)
        with pytest.raises(InputError):
            hidden_variables._averages(np.array([[np.nan, 0.0]]), responses)

    def test_validation(self):
        with pytest.raises(InputError):
            next(hidden_variables._model_chunks(0, 0, 0, 1))
        with pytest.raises(InputError):
            next(hidden_variables._model_chunks(3, -1, 0, 1))
        with pytest.raises(InputError):
            next(hidden_variables._model_chunks(3, 0, 2**64, 1))


class TestSerialization:
    def test_schema_shape(self):
        model = HVModel(weights=[0.25, 0.75], responses=[[1, -1], [-1, 1]])
        doc = json.loads(model_to_json(model))
        assert set(doc) == {"weights", "responses"}
        assert doc["weights"] == [0.25, 0.75]
        assert doc["responses"] == [[1, -1], [-1, 1]]

    def test_round_trip_is_bit_exact(self):
        model = random_model(257, seed=9)
        back = model_from_json(model_to_json(model))
        assert np.array_equal(model.weights, back.weights)
        assert model.weights.dtype == back.weights.dtype
        assert np.array_equal(model.responses, back.responses)

    def test_rejects_malformed_documents(self):
        with pytest.raises(InputError):
            model_from_json("not json at all")
        with pytest.raises(InputError):
            model_from_json('{"weights": [1.0]}')
        with pytest.raises(InputError):
            model_from_json('{"weights": [1.0], "responses": [[1, 1]], "extra": 1}')
        with pytest.raises(InputError):
            model_from_json('{"weights": [1.0], "responses": [[1, 0]]}')
        with pytest.raises(InputError):
            model_from_json('{"weights": [0.9], "responses": [[1, 1]]}')

    def test_type_check(self):
        with pytest.raises(InputError):
            model_to_json({"weights": [1.0]})
