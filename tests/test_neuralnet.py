"""Activations, forward passes, gradients, Adam, training, and persistence."""

from __future__ import annotations

import collections
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nfdlm as nf
from nfdlm import neuralnet
from nfdlm.neuralnet import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BCE_EPS, SCORE_BLOCK_ROWS, AdamState, Layer, Model,
    StepBuffers, _param_views,
)

from conftest import (
    build_float64, count_mutants_that_load, max_relative_gradient_error, numeric_ds,
    random_checkable_model, traced_peak,
)

FIXTURES = Path(__file__).parent / "fixtures"

# tests/fixtures/mlp_v2.model.json holds the float64 build_mlp(seed=3) with
# its scaler, trained on this spec, standard-scaled, by the per-array Adam
# code that came before the parameter vector. Its training_config still
# carries the adam_beta1, adam_beta2, adam_eps and shuffle keys that code
# wrote. tests/fixtures/mlp_v3.model.json holds the float32 build_mlp(seed=3)
# trained the same way with the same training_config (without those keys).
MLP_FIXTURE_SPEC = nf.SynthesisSpec(300, 60, 8, 1, 4.0, seed=13)


class TestActivations:
    def test_sigmoid_center(self):
        assert nf.sigmoid(0.0) == 0.5

    def test_sigmoid_ln3(self):
        assert abs(nf.sigmoid(math.log(3.0)) - 0.75) < 1e-15

    def test_sigmoid_complement_identity(self):
        xs = np.linspace(-30, 30, 101)
        assert np.abs(nf.sigmoid(xs) + nf.sigmoid(-xs) - 1.0).max() < 1e-15

    def test_sigmoid_no_overflow(self):
        with np.errstate(over="raise"):
            assert nf.sigmoid(1000.0) == 1.0
            assert nf.sigmoid(-1000.0) == 0.0
            out = nf.sigmoid(np.array([-800.0, 800.0]))
        assert np.isfinite(out).all()


class TestMlpForward:
    def test_zero_parameters_give_half(self):
        model = nf.build_mlp(["a", "b"], hidden=(3,), seed=0)
        model.params[...] = 0.0
        probs = nf.forward(model, np.random.default_rng(0).standard_normal((5, 2)))
        assert (probs == 0.5).all()

    def test_hand_computed_single_layer(self):
        model = Model(
            layers=[Layer(np.array([[2.0, -1.0]]), np.array([0.5]), "sigmoid")],
            input_features=["a", "b"],
        )
        probs = nf.forward(model, np.array([[1.0, 3.0], [0.0, 0.0]]))
        expected = [1.0 / (1.0 + math.exp(-(2.0 - 3.0 + 0.5))), 1.0 / (1.0 + math.exp(-0.5))]
        assert np.abs(probs - expected).max() < 1e-15

    def test_output_shape_and_range(self):
        model = nf.build_mlp(["a", "b", "c"], seed=1)
        probs = nf.forward(model, np.random.default_rng(1).standard_normal((17, 3)))
        assert probs.shape == (17,)
        assert ((probs > 0.0) & (probs < 1.0)).all()

    def test_width_mismatch(self):
        model = nf.build_mlp(["a", "b"], seed=0)
        with pytest.raises(nf.DataError,
                           match="^batch width 3 does not match model input width 2$"):
            nf.forward(model, np.zeros((4, 3)))

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 2), ()])
    def test_batch_that_is_not_2d(self, shape):
        model = nf.build_mlp(["a", "b"], seed=0)
        with pytest.raises(nf.DataError,
                           match=r"^batch width \? does not match model input width 2$"):
            nf.forward(model, np.zeros(shape))

    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_float64_rows_score_as_the_rows_cast_first(self, kind):
        model = build_at(np.float32, kind, ["a", "b", "c"], 2)
        x = np.random.default_rng(2).standard_normal((33, 3)) * 3.0
        assert x.dtype == np.float64
        probs = nf.forward(model, x)
        assert probs.dtype == np.float32
        assert probs.tobytes() == nf.forward(model, x.astype(np.float32)).tobytes()
        y = np.arange(33) % 2
        assert (nf.backward(model, x, y).tobytes()
                == nf.backward(model, x.astype(np.float32), y).tobytes())


class TestLstmForward:
    def test_scalar_cell_matches_hand_evaluation(self):
        # One unit, one input; rows are the input, candidate and output gates.
        cell = Layer(np.array([[0.5], [0.3], [-0.4]]), np.array([0.1, -0.2, 0.05]), "lstm")
        x = 0.8
        i = 1.0 / (1.0 + math.exp(-(0.5 * x + 0.1)))
        g = math.tanh(0.3 * x - 0.2)
        o = 1.0 / (1.0 + math.exp(-(-0.4 * x + 0.05)))
        expected = o * math.tanh(i * g)
        head = Layer(np.ones((1, 1)), np.zeros(1), "sigmoid")
        model = Model(layers=[cell, head], input_features=["x"])
        bufs = StepBuffers(model, 1)
        neuralnet._forward_cached(np.array([[x]]), bufs)
        assert abs(bufs.layers[0].out[0, 0] - expected) < 1e-15

    def test_zero_parameters_give_sigmoid_of_head_bias(self):
        model = nf.build_lstm(["a", "b"], hidden=(3, 2), seed=0)
        model.params[...] = 0.0
        model.layers[-1].bias[...] = 0.7
        probs = nf.forward(model, np.random.default_rng(2).standard_normal((6, 2)))
        assert np.abs(probs - nf.sigmoid(0.7)).max() < 1e-15

    def test_width_mismatch(self):
        model = nf.build_lstm(["a"], hidden=(2, 2), seed=0)
        with pytest.raises(nf.DataError, match="width"):
            nf.forward(model, np.zeros((3, 2)))

    def test_packed_gate_matrix_shape(self):
        cell = Layer(np.zeros((6, 3)), np.zeros(6), "lstm")
        assert (cell.input_size, cell.output_size) == (3, 2)
        bad = [
            (np.zeros((4, 3)), np.zeros(6)),  # rows for two gates, not three
            (np.zeros((4, 3)), np.zeros(4)),
            (np.zeros((0, 3)), np.zeros(0)),  # no unit
            (np.zeros(6), np.zeros(6)),
            (np.zeros((6, 0)), np.zeros(6)),
            (np.zeros((6, 3)), np.zeros(4)),
        ]
        for weights, bias in bad:
            with pytest.raises(nf.DataError, match=r"3 \* hidden_size"):
                Layer(weights, bias, "lstm")


class TestParameterVector:
    @pytest.mark.parametrize("build", [nf.build_mlp, nf.build_lstm])
    def test_layers_are_views_of_the_vector(self, build):
        model = build(["a", "b", "c"], hidden=(4, 3), seed=0)
        model.params[...] = np.arange(model.params.size)
        flat = [a.ravel() for layer in model.layers for a in (layer.weights, layer.bias)]
        assert (np.concatenate(flat) == model.params).all()

    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_builders_round_the_float64_draws_to_float32(self, kind):
        build = nf.build_mlp if kind == "mlp" else nf.build_lstm
        model = build(["a", "b", "c"], hidden=(4, 3), seed=5)
        wide = build_float64(kind, ["a", "b", "c"], (4, 3), 5)
        assert model.params.dtype == np.float32 and wide.params.dtype == np.float64
        assert all(a.dtype == np.float32 for l in model.layers for a in (l.weights, l.bias))
        assert model.params.tobytes() == wide.params.astype(np.float32).tobytes()

    def test_params_take_the_layers_dtype(self):
        def dense(dtype, activation="relu"):
            return Layer(np.ones((1, 1), dtype), np.zeros(1, dtype), activation)

        for dtypes, want in [((np.float32, np.float32), np.float32),
                             ((np.float64, np.float64), np.float64),
                             ((np.float32, np.float64), np.float64),
                             ((np.int64, np.float32), np.float64)]:
            layers = [dense(dtypes[0]), dense(dtypes[1], "sigmoid")]
            model = Model(layers=layers, input_features=["a"])
            assert model.params.dtype == want
            assert all(l.weights.dtype == want and l.bias.dtype == want for l in model.layers)


class TestBceLoss:
    def test_float32_probabilities_near_the_clamp(self):
        # 1 - BCE_EPS rounds to 1.0 in float32, so a float32 clamp would take
        # log(0); bce_loss clamps in float64 and matches the float64 oracle.
        one = np.float32(1.0)
        edges = np.array([1.0, 0.0, np.nextafter(one, np.float32(0.0)),
                          np.nextafter(one, np.float32(2.0))], dtype=np.float32)
        for labels in (np.zeros(4), np.ones(4), np.array([0.0, 1.0, 0.0, 1.0])):
            got = nf.bce_loss(edges, labels)
            assert math.isfinite(got)
            want = oracle_bce_loss(edges.astype(np.float64), labels)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_uniform_half(self):
        assert abs(nf.bce_loss(np.full(8, 0.5), np.array([0, 1] * 4)) - math.log(2)) < 1e-12

    def test_perfect_predictions(self):
        y = np.array([0, 1, 1, 0])
        assert nf.bce_loss(y.astype(float), y) <= 1e-10

    def test_completely_wrong_predictions(self):
        # Clamping pins the worst case near -ln(eps); 1-(1-eps) costs a few
        # ulps of the 1e-12 clamp, hence the loose tolerance.
        y = np.array([0, 1, 1, 0])
        loss = nf.bce_loss(1.0 - y.astype(float), y)
        assert abs(loss - (-math.log(1e-12))) < 1e-3

    def test_length_mismatch(self):
        with pytest.raises(nf.DataError, match="mismatch"):
            nf.bce_loss(np.zeros(3), np.zeros(4))


class TestBackward:
    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, kind, seed):
        model, x, y = random_checkable_model(kind, seed)
        assert max_relative_gradient_error(model, x, y) < 1e-4

    def test_bias_gradient_closed_form(self):
        # Single sigmoid unit, zero input, label 0: dL/db = sigmoid(b).
        for b in (-1.3, 0.0, 0.7, 2.5):
            model = Model(
                layers=[Layer(np.zeros((1, 1)), np.array([b]), "sigmoid")],
                input_features=["a"],
            )
            grads = nf.backward(model, np.zeros((1, 1)), np.zeros(1))
            assert abs(grads[-1] - nf.sigmoid(b)) < 1e-12  # the bias comes last

    def test_duplicated_rows_leave_mean_gradient_unchanged(self):
        model, x, y = random_checkable_model("mlp", 5)
        once = nf.backward(model, x, y)
        twice = nf.backward(model, np.vstack([x, x]), np.concatenate([y, y]))
        assert np.abs(once - twice).max() < 1e-12

    def test_shape_mismatch(self):
        model = nf.build_mlp(["a", "b"], seed=0)
        with pytest.raises(nf.DataError, match="^batch and labels shapes disagree$"):
            nf.backward(model, np.zeros((3, 2)), np.zeros(4))

    @pytest.mark.parametrize("labels", [(2,), (3, 1), ()])
    def test_labels_that_are_not_one_per_row(self, labels):
        model = nf.build_mlp(["a", "b"], seed=0)
        with pytest.raises(nf.DataError, match="^batch and labels shapes disagree$"):
            nf.backward(model, np.zeros((3, 2)), np.zeros(labels))

    @pytest.mark.parametrize("shape, width", [((3, 5), "5"), ((3,), r"\?"), ((3, 1, 2), r"\?")])
    def test_batch_that_is_not_rows_of_the_input_width(self, shape, width):
        model = nf.build_lstm(["a", "b"], hidden=(3,), seed=0)
        with pytest.raises(nf.DataError,
                           match=f"^batch width {width} does not match model input width 2$"):
            nf.backward(model, np.zeros(shape), np.zeros(3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_mask_at_edge_values(self, dtype):
        # The engine takes the relu mask as sign(relu(z)), the oracle as
        # z > 0. A one-input relu layer with unit weights makes each row's z
        # its input (-0.0 arrives as +0.0: a product sums from +0.0, so the
        # mask's own -0.0 case is checked at the end). The head's positive
        # weights keep an inf input from becoming inf - inf, and the labels
        # give up both signs. Batches: all rows, each row alone, all rows
        # with the first twice, and all rows with a NaN row.
        info = np.finfo(dtype)
        edges = np.array([0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
                          info.max / 8, -info.max / 8, np.inf, -np.inf], dtype)
        labels = (np.arange(edges.size) % 2).astype(dtype)
        model = Model([Layer(np.ones((3, 1), dtype), np.zeros(3), "relu"),
                       Layer(np.array([[0.5, 1.0, 2.0]], dtype), np.zeros(1), "sigmoid")], ["a"])
        batches = [slice(None), *(slice(k, k + 1) for k in range(edges.size)),
                   [0, 1, 2, 3, 4, 5, 6, 7, 0]]
        with np.errstate(all="ignore"):  # inf and NaN products are the point
            with_nan = np.append(edges, dtype(np.nan))  # its row's gradient terms are all NaN
            for x, y in [*((edges[rows], labels[rows]) for rows in batches),
                         (with_nan, np.append(labels, dtype(1)))]:
                got = nf.backward(model, x[:, None], y)
                probs, caches = oracle_forward(model, x[:, None])
                want = oracle_backward(model, caches, probs, y)
                nan = np.isnan(got)
                assert got.dtype == want.dtype == dtype
                assert (nan == np.isnan(want)).all()
                assert got[~nan].tobytes() == want[~nan].tobytes()
            assert nan.any()
        mask = np.sign(np.maximum(np.zeros((), dtype), with_nan))
        assert mask[:-1].tobytes() == (edges > 0).astype(dtype).tobytes()
        assert np.isnan(mask[-1])


class TestAdamStep:
    LEARNING_RATE = 1e-3

    def setup_case(self):
        params = np.array([1.0, -2.0, 0.5])
        return params, AdamState.for_params(params)

    def test_zero_gradient_fixed_point(self):
        params, state = self.setup_case()
        before = params.copy()
        nf.adam_step(params, np.zeros_like(params), state, self.LEARNING_RATE)
        assert (params == before).all()
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        params, state = self.setup_case()
        before = params.copy()
        nf.adam_step(params, np.full_like(params, 0.3), state, self.LEARNING_RATE)
        assert np.abs(np.abs(before - params) - self.LEARNING_RATE).max() < 1e-9

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_allocating_expression_bitwise(self, dtype):
        # 200 seeded steps against the oracle's one expression per update,
        # with zero, huge (their squares overflow) and subnormal gradients.
        rng = np.random.default_rng(22)
        info = np.finfo(dtype)
        params = rng.standard_normal(64).astype(dtype)
        (got, got_state), (want, want_state) = runs = [
            (params.copy(), AdamState.for_params(params)) for _ in range(2)]
        with np.errstate(over="ignore"):
            for step in range(200):
                grads = (rng.standard_normal(64) * 10.0 ** rng.integers(-4, 4, 64)).astype(dtype)
                grads[rng.random(64) < 0.1] = 0.0
                grads[rng.random(64) < 0.1] = info.smallest_subnormal * rng.integers(-9, 9)
                if step % 20 == 0:
                    grads[rng.integers(64)] = info.max / 8 * rng.choice([-1, 1])
                nf.adam_step(got, grads, got_state, self.LEARNING_RATE)
                oracle_adam_step(want, grads, want_state, self.LEARNING_RATE)
        assert got.dtype == dtype
        assert np.isinf(got_state.v).any()  # a huge gradient's square overflowed
        assert got.tobytes() == want.tobytes()
        assert got_state.m.tobytes() == want_state.m.tobytes()
        assert got_state.v.tobytes() == want_state.v.tobytes()
        assert got_state.t == want_state.t == 200

    @pytest.mark.parametrize("dtype, other", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_gradients_are_cast_to_the_parameters_dtype(self, dtype, other):
        rng = np.random.default_rng(5)
        params = rng.standard_normal(8).astype(dtype)
        given, cast = params.copy(), params.copy()
        given_state, cast_state = AdamState.for_params(given), AdamState.for_params(cast)
        for grads in rng.standard_normal((30, 8)).astype(other):
            nf.adam_step(given, grads, given_state, 0.01)
            nf.adam_step(cast, grads.astype(dtype), cast_state, 0.01)
        assert given.dtype == given_state.m.dtype == dtype
        assert given.tobytes() == cast.tobytes()
        assert given_state.v.tobytes() == cast_state.v.tobytes()

    @pytest.mark.parametrize("dtype, other", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_rebinds_to_other_arrays_and_learning_rates(self, dtype, other):
        # One state handed two parameter vectors and two learning rates in
        # turn rebuilds its calls when either changes, and only then. Its
        # gradients come from two other vectors (the second of the other
        # dtype), which it copies in, and it keeps the oracle's bytes.
        rng = np.random.default_rng(9)
        start = [rng.standard_normal(8).astype(dtype) for _ in range(2)]
        grads = [rng.standard_normal(8).astype(dtype), rng.standard_normal(8).astype(other)]
        got, want = [p.copy() for p in start], [p.copy() for p in start]
        state, oracle = AdamState.for_params(got[0]), AdamState.for_params(want[0])
        schedule = [(0, 0, 1e-3), (0, 0, 1e-3), (1, 0, 1e-3), (1, 0, 2e-3), (1, 1, 2e-3),
                    (1, 1, 2e-3), (0, 0, 2e-3), (0, 0, 1e-3), (0, 0, 1e-3)]
        last = None
        for p, g, lr in schedule:
            calls = state.calls
            nf.adam_step(got[p], grads[g], state, lr)
            assert (state.calls is not calls) == ((p, lr) != last)
            oracle_adam_step(want[p], grads[g].astype(dtype), oracle, lr)
            last = p, lr
        assert got[0].dtype == got[1].dtype == state.grad.dtype == dtype
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
        assert state.m.tobytes() == oracle.m.tobytes() and state.v.tobytes() == oracle.v.tobytes()

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            params, state = self.setup_case()
            rng = np.random.default_rng(7)
            for _ in range(25):
                nf.adam_step(params, rng.standard_normal(params.shape), state, self.LEARNING_RATE)
            results.append(params)
        assert (results[0] == results[1]).all()


def separable_blobs(seed=39, n_per_class=300):
    spec = nf.SynthesisSpec(
        attack_count=n_per_class,
        benign_count=n_per_class,
        feature_count=2,
        planted_duplicate_pairs=0,
        class_separation=6.0,
        seed=seed,
    )
    ds = nf.generate_synthetic_flows(spec)
    return nf.apply_scaler(nf.fit_scaler(ds), ds)


def assert_linearly_separable(ds):
    """Oracle: a threshold along the class-mean direction splits the classes."""
    attack = ds.matrix[ds.labels == 1]
    benign = ds.matrix[ds.labels == 0]
    direction = attack.mean(axis=0) - benign.mean(axis=0)
    assert (attack @ direction).min() > (benign @ direction).max()


class TestTrain:
    def test_separable_blobs_reach_perfect_training_accuracy(self):
        ds = separable_blobs()
        assert_linearly_separable(ds)
        model = nf.build_mlp(ds.feature_names, seed=0)
        model, history = nf.train(
            model, ds, nf.TrainingConfig(epochs=20, batch_size=20, learning_rate=0.01, seed=0)
        )
        preds = nf.predict(model, ds)
        assert (preds == ds.labels).all()
        assert len(history) == 20

    def test_loss_decreases_from_first_to_last_epoch(self):
        ds = separable_blobs(seed=22)
        model = nf.build_mlp(ds.feature_names, seed=1)
        _, history = nf.train(model, ds, nf.TrainingConfig(epochs=8, batch_size=32, seed=1))
        assert history[-1].loss < history[0].loss

    def test_lstm_trains_too(self):
        ds = separable_blobs(seed=23, n_per_class=120)
        model = nf.build_lstm(ds.feature_names, hidden=(8, 8), seed=2)
        _, history = nf.train(model, ds, nf.TrainingConfig(epochs=10, batch_size=16, seed=2))
        preds = nf.predict(model, ds)
        assert float((preds == ds.labels).mean()) > 0.99
        assert history[-1].loss < history[0].loss

    def test_empty_dataset_errors(self):
        ds = numeric_ds(np.empty((0, 2)), labels=np.empty(0, dtype=int), names=["a", "b"])
        model = nf.build_mlp(["a", "b"], seed=0)
        with pytest.raises(nf.DataError, match="empty"):
            nf.train(model, ds, nf.TrainingConfig(epochs=1, batch_size=4))

    @pytest.mark.parametrize("rate", [0.0, -1e-3, math.nan, math.inf, 10**400])
    def test_learning_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="^learning_rate must be positive and finite$"):
            nf.TrainingConfig(epochs=1, batch_size=1, learning_rate=rate)

    def test_nan_loss_raises_numeric_error(self):
        ds = separable_blobs(seed=24, n_per_class=40)
        model = nf.build_mlp(ds.feature_names, seed=3)
        bad = nf.TrainingConfig(epochs=3, batch_size=8, learning_rate=1e305, seed=3)
        with np.errstate(all="ignore"):  # the blow-up is the point
            with pytest.raises(nf.NumericError, match="non-finite loss"):
                nf.train(model, ds, bad)

    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_nan_row_stops_training_at_its_batch(self, kind):
        # The error names the batch that the row's shuffled position falls
        # in, and comes before that batch's update.
        ds, row = odd_sized_blobs(), 100
        matrix = ds.matrix.copy()
        bad = numeric_ds(matrix, labels=ds.labels, names=ds.feature_names)  # adopts matrix
        matrix.flags.writeable = True  # a NaN past the dataset's finite check
        matrix[row, 1] = np.nan
        cfg = nf.TrainingConfig(epochs=2, batch_size=16, learning_rate=0.01, seed=8)
        order = np.random.default_rng(cfg.seed).permutation(ds.row_count)
        batch = int(np.flatnonzero(order == row)[0]) // cfg.batch_size + 1
        assert batch > 1
        model = build_at(np.float32, kind, ds.feature_names, 8)
        before = model.params.copy()
        with pytest.raises(nf.NumericError, match=f"^non-finite loss at epoch 1, batch {batch}$"):
            nf.train(model, bad, cfg)
        assert np.isfinite(model.params).all()
        assert model.params.tobytes() != before.tobytes()

    def test_bitwise_deterministic_given_seed(self):
        weights = []
        for _ in range(2):
            ds = separable_blobs(seed=25, n_per_class=80)
            model = nf.build_mlp(ds.feature_names, seed=4)
            nf.train(model, ds, nf.TrainingConfig(epochs=5, batch_size=16, seed=9))
            weights.append(model.params)
        assert (weights[0] == weights[1]).all()

    def test_history_records_positive_times(self):
        ds = separable_blobs(seed=26, n_per_class=50)
        model = nf.build_mlp(ds.feature_names, seed=5)
        _, history = nf.train(model, ds, nf.TrainingConfig(epochs=3, batch_size=10, seed=5))
        assert all(h.seconds >= 0.0 for h in history)


class TestPredict:
    def half_probability_model(self):
        model = nf.build_mlp(["c0", "c1"], hidden=(2,), seed=0)
        model.params[...] = 0.0
        return model

    def test_tie_at_threshold_classifies_benign(self):
        ds = numeric_ds(np.random.default_rng(0).standard_normal((6, 2)))
        preds = nf.predict(self.half_probability_model(), ds)  # p == 0.5 everywhere
        assert (preds == 0).all()

    def test_recovers_training_labels_on_blobs(self):
        ds = separable_blobs(seed=53)
        assert_linearly_separable(ds)
        model = nf.build_mlp(ds.feature_names, seed=6)
        nf.train(model, ds, nf.TrainingConfig(epochs=20, batch_size=20, learning_rate=0.01, seed=6))
        assert (nf.predict(model, ds) == ds.labels).all()

    def test_missing_feature_column_errors(self):
        model = nf.build_mlp(["a", "zz"], seed=0)
        ds = numeric_ds(np.zeros((2, 2)) + np.arange(2.0), names=["a", "b"])
        with pytest.raises(nf.DataError, match="zz"):
            nf.predict(model, ds)

    def test_scaling_round_trip(self):
        raw = nf.generate_synthetic_flows(
            nf.SynthesisSpec(150, 150, 3, 0, 4.0, seed=28)
        )
        scaler = nf.fit_scaler(raw)
        scaled = nf.apply_scaler(scaler, raw)
        model = nf.build_mlp(raw.feature_names, seed=7)
        model.scaler = scaler
        nf.train(model, scaled, nf.TrainingConfig(epochs=5, batch_size=16, seed=7))
        via_raw = nf.predict_proba(model, raw)
        model.scaler = None  # scores rows as given, in the same padded blocks
        via_scaled = nf.predict_proba(model, scaled)
        assert (via_raw == via_scaled).all()

    def test_feature_order_follows_model(self):
        # Dataset column order must not matter; predict selects by name.
        model = self.half_probability_model()
        model.layers[0].weights[...] = [[1.0, 0.0], [0.0, 0.0]]
        model.layers[-1].weights[...] = [[1.0, 0.0]]
        ds_fwd = numeric_ds(np.array([[3.0, 9.0]]), names=["c0", "c1"])
        ds_rev = numeric_ds(np.array([[9.0, 3.0]]), names=["c1", "c0"])
        assert nf.predict_proba(model, ds_fwd) == nf.predict_proba(model, ds_rev)


    def scored_rows(self, kind, rows):
        """An FS2/FS4-shaped model with its scaler, and rows it scores in
        several blocks, the last one short."""
        names = [f"c{j:02d}" for j in range(11)]
        ds = numeric_ds(np.random.default_rng(9).standard_normal((rows, 11)) * 3.0 + 1.0,
                        names=names)
        model = (nf.build_mlp if kind == "mlp" else nf.build_lstm)(names, seed=9)
        model.scaler = nf.fit_scaler(ds)
        return model, ds

    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_block_scores_match_whole_matrix_scores(self, kind):
        # Every block is forwarded at SCORE_BLOCK_ROWS rows, the last one
        # zero-padded, so a row's score has the same bits whichever rows are
        # scored with it and wherever it sits in its block.
        rows = 3 * SCORE_BLOCK_ROWS + 77
        model, ds = self.scored_rows(kind, rows)
        whole = nf.predict_proba(model, ds)
        assert whole.dtype == np.float32

        def scores(matrix):
            return nf.predict_proba(model, numeric_ds(matrix, names=ds.feature_names))

        cuts = [0, 5, 1500, 2 * SCORE_BLOCK_ROWS, rows]  # in blocks of other sizes
        in_blocks = np.concatenate([scores(ds.matrix[a:b]) for a, b in zip(cuts, cuts[1:])])
        assert in_blocks.tobytes() == whole.tobytes()
        shifted = scores(np.vstack([ds.matrix[-300:], ds.matrix]))[300:]
        assert shifted.tobytes() == whole.tobytes()
        picks = [0, 1, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, rows - 1,
                 *np.random.default_rng(3).choice(rows, 8, replace=False)]
        alone = np.concatenate([scores(ds.matrix[[r]]) for r in picks])
        assert alone.tobytes() == whole[picks].tobytes()
        # One unpadded forward pass over all rows takes other products, whose
        # bits depend on the row count: an untrained model's scores sit near
        # 0.5, where that is a few ulp.
        unpadded = nf.forward(model, nf.apply_scaler(model.scaler, ds).matrix)
        np.testing.assert_array_max_ulp(whole, unpadded, maxulp=2)
        assert ((whole > 0.5) == (unpadded > 0.5)).all()

    def test_scoring_memory_grows_by_the_output_alone(self):
        # Whole-matrix scoring kept every layer's temporaries for all rows:
        # 5,508 bytes a row for this FS4-shaped LSTM. A block at a time,
        # twice the rows cost only the longer output vector.
        model, large = self.scored_rows("lstm", 40_000)
        small = numeric_ds(large.matrix[:20_000], names=large.feature_names)
        probs, small_peak = traced_peak(nf.predict_proba, model, small)
        _, large_peak = traced_peak(nf.predict_proba, model, large)
        assert large_peak <= small_peak + 20_000 * probs.itemsize + 2**16
        assert large_peak < 0.05 * 5508 * large.row_count


class TestModelFile:
    def trained_model(self, tmp_path, kind="mlp"):
        ds = separable_blobs(seed=29, n_per_class=60)
        build = nf.build_mlp if kind == "mlp" else nf.build_lstm
        hidden = (6, 6) if kind == "mlp" else (4, 4)
        model = build(ds.feature_names, hidden=hidden, seed=8)
        model.scaler = nf.fit_scaler(ds)
        model.selection = nf.identity_selection(ds)
        nf.train(model, ds, nf.TrainingConfig(epochs=3, batch_size=16, seed=8))
        path = tmp_path / f"{kind}.model.json"
        nf.save_model(model, path)
        return model, path, ds

    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_save_load_predict_bitwise(self, tmp_path, kind):
        model, path, ds = self.trained_model(tmp_path, kind)
        loaded = nf.load_model(path)
        assert (nf.predict_proba(loaded, ds) == nf.predict_proba(model, ds)).all()
        assert (model.params == loaded.params).all()

    def test_metadata_round_trip(self, tmp_path):
        model, path, _ = self.trained_model(tmp_path)
        loaded = nf.load_model(path)
        assert loaded.kind == "mlp"
        assert loaded.input_features == model.input_features
        assert loaded.scaler.column_names == model.scaler.column_names
        assert loaded.selection == model.selection
        assert loaded.training_config == model.training_config
        assert loaded.init_seed == model.init_seed

    def v1_lstm_fixture(self):
        """A format-v1 LSTM file with nonzero forget-gate and recurrent
        weights, plus rows and the probabilities v1 code gave for them."""
        doc = json.loads((FIXTURES / "lstm_v1_expected.json").read_text(encoding="utf-8"))
        return FIXTURES / "lstm_v1.model.json", doc

    def test_v1_lstm_file_gives_identical_probabilities(self, tmp_path):
        path, expected = self.v1_lstm_fixture()
        model = nf.load_model(path)
        probs = nf.forward(model, np.array(expected["rows"]))
        assert (probs == np.array(expected["probabilities"])).all()
        nf.save_model(model, tmp_path / "v3.model.json")
        doc = json.loads((tmp_path / "v3.model.json").read_text(encoding="utf-8"))
        assert (doc["format_version"], doc["dtype"]) == (3, "float64")
        assert {k for layer in doc["layers"][:-1] for k in layer} == {
            "type", "hidden_size", "weights", "bias"
        }

    def test_malformed_v1_lstm_gates_rejected(self, tmp_path):
        path, _ = self.v1_lstm_fixture()
        bad = tmp_path / "bad.model.json"
        for key, value in [("w_cand", [[0.0]]), ("b_out", [0.0]), ("w_in", 1.0)]:
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["layers"][0][key] = value
            bad.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(nf.DataError, match="bad model file"):
                nf.load_model(bad)

    def test_training_reproduces_v1_lstm_fixture(self):
        path, expected = self.v1_lstm_fixture()
        v1 = nf.load_model(path)
        raw = nf.generate_synthetic_flows(nf.SynthesisSpec(**expected["synthesis_spec"]))
        ds = nf.apply_scaler(nf.fit_scaler(raw), raw)
        model = build_float64("lstm", ds.feature_names, tuple(expected["hidden"]), v1.init_seed)
        nf.train(model, ds, v1.training_config)
        probs = nf.forward(model, np.array(expected["rows"]))
        assert np.abs(probs - np.array(expected["probabilities"])).max() < 1e-12

    def test_training_reproduces_v2_mlp_fixture(self):
        fixture = nf.load_model(FIXTURES / "mlp_v2.model.json")
        raw = nf.generate_synthetic_flows(MLP_FIXTURE_SPEC)
        model = build_float64("mlp", fixture.input_features, (6, 6), fixture.init_seed)
        nf.train(model, nf.apply_scaler(nf.fit_scaler(raw), raw), fixture.training_config)
        assert np.abs(model.params - fixture.params).max() < 1e-12

    def test_v1_and_v2_files_load_as_float64(self):
        for name in ("lstm_v1.model.json", "mlp_v2.model.json"):
            assert nf.load_model(FIXTURES / name).params.dtype == np.float64

    def test_training_reproduces_v3_mlp_fixture(self):
        fixture = nf.load_model(FIXTURES / "mlp_v3.model.json")
        assert fixture.params.dtype == np.float32
        raw = nf.generate_synthetic_flows(MLP_FIXTURE_SPEC)
        model = nf.build_mlp(fixture.input_features, seed=fixture.init_seed)
        nf.train(model, nf.apply_scaler(nf.fit_scaler(raw), raw), fixture.training_config)
        assert model.params.tobytes() == fixture.params.tobytes()

    def test_training_reproduces_v3_lstm_fixture(self):
        # tests/fixtures/lstm_v3.model.json: the float32 build_lstm of the v1
        # fixture's seed and hidden sizes, trained on its scaled spec with its
        # training_config.
        _, expected = self.v1_lstm_fixture()
        fixture = nf.load_model(FIXTURES / "lstm_v3.model.json")
        assert fixture.params.dtype == np.float32
        raw = nf.generate_synthetic_flows(nf.SynthesisSpec(**expected["synthesis_spec"]))
        hidden = tuple(expected["hidden"])
        model = nf.build_lstm(fixture.input_features, hidden=hidden, seed=fixture.init_seed)
        nf.train(model, nf.apply_scaler(nf.fit_scaler(raw), raw), fixture.training_config)
        assert model.params.tobytes() == fixture.params.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_v3_file_records_and_keeps_the_dtype(self, tmp_path, dtype):
        model = nf.build_lstm(["a", "b"], hidden=(3, 2), seed=4)
        if dtype == "float64":
            model = build_float64("lstm", ["a", "b"], (3, 2), 4)
        nf.save_model(model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        assert (doc["format_version"], doc["dtype"]) == (3, dtype)
        loaded = nf.load_model(tmp_path / "m.json")
        assert loaded.params.dtype == dtype
        assert loaded.params.tobytes() == model.params.tobytes()
        rows = numeric_ds(np.random.default_rng(4).standard_normal((5, 2)), names=["a", "b"])
        probs = nf.predict_proba(loaded, rows)
        assert probs.dtype == dtype
        assert probs.tobytes() == nf.predict_proba(model, rows).tobytes()

    def test_saving_drops_fixed_training_keys(self, tmp_path):
        nf.save_model(nf.load_model(FIXTURES / "mlp_v2.model.json"), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        assert set(doc["training_config"]) == {"epochs", "batch_size", "learning_rate", "seed"}

    @pytest.mark.parametrize("key,value", [
        ("adam_beta1", 0.8), ("adam_beta2", 0.99), ("adam_eps", 1e-7), ("shuffle", False),
    ])
    def test_fixed_training_key_with_other_value_rejected(self, tmp_path, key, value):
        doc = json.loads((FIXTURES / "mlp_v2.model.json").read_text(encoding="utf-8"))
        doc["training_config"][key] = value
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(nf.DataError, match=f"'{key}' must be"):
            nf.load_model(bad)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(nf.DataError, match="not a nfdlm.model"):
            nf.load_model(path)

    @pytest.mark.parametrize(
        "name",
        ["lstm_v1.model.json", "mlp_v2.model.json", "mlp_v3.model.json", "lstm_v3.model.json"],
    )
    def test_mutated_files_load_and_score_or_fail_as_data_error(self, tmp_path, name):
        rng = np.random.default_rng(12)

        def load_and_score(path):
            model = nf.load_model(path)
            names = list(dict.fromkeys(model.input_features))
            nf.predict_proba(model, numeric_ds(rng.standard_normal((4, len(names))), names=names))

        original = (FIXTURES / name).read_bytes()
        loaded = count_mutants_that_load(original, tmp_path / name, load_and_score, 12, 2000)
        assert 0 < loaded < 2000


# The training step as it was before it reused one gradient vector per train
# call and cut its numpy calls: sigmoid over two np.where branches, a forward
# pass that allocates every layer's output and cache, bce_loss through
# np.clip and np.mean, a backward pass that returns a fresh vector and stacks
# the LSTM gate gradients, and Adam as one expression per moment and update.
# It shares no code with the engine and is kept as an oracle for bitwise
# equality; like the engine, it computes in float32 when given float32.
def oracle_sigmoid(x):
    arr = np.asarray(x)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64)
    z = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return float(out) if arr.ndim == 0 else out


def oracle_activate(layer, z):
    """A layer's output from its pre-activation z, and the cache backward
    needs: z itself for relu and sigmoid, the gates (i, g, o, tanh(c)) for lstm."""
    if layer.activation == "relu":
        return np.maximum(0.0, z), z
    if layer.activation == "sigmoid":
        return oracle_sigmoid(z), z
    n = layer.output_size
    i = oracle_sigmoid(z[:, :n])
    g = np.tanh(z[:, n : 2 * n])
    o = oracle_sigmoid(z[:, 2 * n :])
    tc = np.tanh(i * g)  # c = i * g from zero cell state
    return o * tc, (i, g, o, tc)


def oracle_forward(model, batch):
    """(probabilities, [(layer input, cache), ...]) for a batch."""
    x = np.asarray(batch, dtype=model.params.dtype)
    caches = []
    for layer in model.layers:
        out, cache = oracle_activate(layer, x @ layer.weights.T + layer.bias)
        caches.append((x, cache))
        x = out
    return x[:, 0], caches


def oracle_adam_step(params, grads, state, learning_rate):
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * (grads * grads)
    params -= learning_rate * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)


def oracle_bce_loss(probs, labels):
    p = np.clip(np.asarray(probs, dtype=np.float64), BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def oracle_backward(model, caches, probs, labels):
    y = np.asarray(labels, dtype=probs.dtype)
    grads = np.empty_like(model.params)
    views = _param_views(model.layers, grads)
    delta = ((probs - y) / y.size)[:, None]
    for pos in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[pos]
        if layer.activation != "lstm":
            x, z = caches[pos]
            if pos != len(model.layers) - 1:
                delta = delta * (z > 0)
            dz = delta
            delta = dz @ layer.weights
        else:
            x, (i, g, o, tc) = caches[pos]
            h = layer.output_size
            dc = delta * o * (1.0 - tc * tc)
            dzi = dc * g * i * (1.0 - i)
            dzg = dc * i * (1.0 - g * g)
            dzo = delta * tc * o * (1.0 - o)
            dz = np.hstack((dzi, dzg, dzo))
            w = layer.weights
            delta = dzi @ w[:h] + dzg @ w[h : 2 * h] + dzo @ w[2 * h :]
        dw, db = views[pos]
        np.matmul(dz.T, x, out=dw)
        np.sum(dz, axis=0, out=db)
    return grads


def oracle_train(model, ds, cfg):
    """train's loop stepped through the oracle; returns the per-epoch losses."""
    x, y = ds.matrix.astype(model.params.dtype), ds.labels.astype(model.params.dtype)
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.for_params(model.params)
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        xs, ys = x[order], y[order]
        loss_sum = 0.0
        for start in range(0, len(y), cfg.batch_size):
            xb, yb = xs[start : start + cfg.batch_size], ys[start : start + cfg.batch_size]
            probs, caches = oracle_forward(model, xb)
            loss = oracle_bce_loss(probs, yb)
            grads = oracle_backward(model, caches, probs, yb)
            oracle_adam_step(model.params, grads, state, cfg.learning_rate)
            loss_sum += loss * yb.size
        losses.append(loss_sum / len(y))
    return losses


def odd_sized_blobs():
    """137 scaled rows: batches of 16 leave a last batch of 9."""
    raw = nf.generate_synthetic_flows(nf.SynthesisSpec(97, 40, 5, 1, 3.0, seed=41))
    return nf.apply_scaler(nf.fit_scaler(raw), raw)


HIDDEN = {"mlp": (6, 6), "lstm": (8, 5)}
STEP_FUNCTIONS = ("_forward_cached", "bce_loss", "_backward_from_caches", "adam_step")


def build_at(dtype, kind, features, seed, hidden=None):
    """build_mlp/build_lstm (float32), or their float64 twin, with HIDDEN's
    layer widths unless given others."""
    hidden = hidden or HIDDEN[kind]
    if dtype == np.float64:
        return build_float64(kind, features, hidden, seed)
    build = nf.build_mlp if kind == "mlp" else nf.build_lstm
    return build(features, hidden=hidden, seed=seed)


class TestTrainMatchesOracle:
    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_params_and_losses_bitwise_equal(self, kind):
        self.check_bitwise_equal(kind, np.float64)

    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_float32_params_and_losses_bitwise_equal(self, kind):
        self.check_bitwise_equal(kind, np.float32)

    # train's loss pass sees a short last batch (16, above), whole batches
    # only (1 and 137, which divide the 137 rows) and a batch larger than
    # the dataset (500).
    @pytest.mark.parametrize("batch_size", [1, 137, 500])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_every_batch_shape_bitwise_equal(self, kind, dtype, batch_size):
        self.check_bitwise_equal(kind, dtype, batch_size)

    @pytest.mark.parametrize("hidden", [(1,), (1, 1), (1, 6)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_input_one_unit_batch_one_bitwise_equal(self, dtype, hidden):
        # Every first-layer product is then (1, 1) @ (1, 1), where np.dot
        # keeps a zero's sign that @ drops (see TestProductsMatchMatmul): a
        # row the ReLU masks off, with a negative input, gets a -0 weight
        # gradient against the oracle's +0. Adam's moments start at +0, and
        # +0 plus -0 is +0, so the sign should never reach a weight.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((40, 1))
        x[::7] = 0.0
        ds = numeric_ds(x, labels=rng.random(40) < 0.5)
        cfg = nf.TrainingConfig(epochs=3, batch_size=1, learning_rate=0.01, seed=8)
        model, history = nf.train(build_at(dtype, "mlp", ds.feature_names, 8, hidden), ds, cfg)
        oracle = build_at(dtype, "mlp", ds.feature_names, 8, hidden)
        losses = oracle_train(oracle, ds, cfg)
        assert model.params.dtype == oracle.params.dtype == dtype
        assert model.params.tobytes() == oracle.params.tobytes()
        assert np.array([h.loss for h in history]).tobytes() == np.array(losses).tobytes()

    @pytest.mark.parametrize("block_rows", [40, 50])
    def test_loss_blocks_bitwise_equal(self, block_rows, monkeypatch):
        # Blocks of 32 or 48 rows at batch 16: several loss calls per epoch,
        # with the short last batch alone in its block or after whole batches.
        monkeypatch.setattr(neuralnet, "LOSS_BLOCK_ROWS", block_rows)
        self.check_bitwise_equal("mlp", np.float32)

    def check_bitwise_equal(self, kind, dtype, batch_size=16):
        ds = odd_sized_blobs()
        assert ds.row_count == 137  # the batch shapes named above
        cfg = nf.TrainingConfig(epochs=3, batch_size=batch_size, learning_rate=0.01, seed=6)
        model, history = nf.train(build_at(dtype, kind, ds.feature_names, 6), ds, cfg)
        oracle = build_at(dtype, kind, ds.feature_names, 6)
        losses = oracle_train(oracle, ds, cfg)
        assert model.params.dtype == oracle.params.dtype == dtype
        assert model.params.tobytes() == oracle.params.tobytes()
        assert np.array([h.loss for h in history]).tobytes() == np.array(losses).tobytes()

    def test_sigmoid_edge_inputs(self):
        for dtype in (np.float32, np.float64):
            sub = np.finfo(dtype).smallest_subnormal
            edges = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan,
                              np.copysign(np.nan, -1.0), sub, -sub, 1.5, -1.5], dtype)
            got, want = nf.sigmoid(edges), oracle_sigmoid(edges)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()
            for v in [*edges, *edges.tolist()]:  # 0-d in the dtype, and Python floats
                got, want = nf.sigmoid(v), oracle_sigmoid(v)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            # The gate slices an lstm layer's _activate passes: strided column blocks.
            z = np.stack([np.roll(np.tile(edges, 3), r) for r in range(4)])
            h = edges.size
            for cols in (slice(0, h), slice(h, 2 * h), slice(2 * h, None)):
                assert not z[:, cols].flags.c_contiguous
                got, want = nf.sigmoid(z[:, cols]), oracle_sigmoid(z[:, cols])
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes()

    def test_sigmoid_leaves_read_only_input_alone(self):
        for x in (np.array([-2.0, 0.0, 3.0]), np.array(-4.0)):
            x.flags.writeable = False
            before = x.copy()
            out = nf.sigmoid(x)
            assert not np.shares_memory(out, x)
            assert x.tobytes() == before.tobytes()

    def test_bce_loss_edge_probabilities(self):
        edges = np.array([0.0, 1.0, BCE_EPS, 1.0 - BCE_EPS, 0.5, np.nan])
        for labels in (np.zeros_like(edges), np.ones_like(edges), np.arange(6.0) % 2):
            whole = (nf.bce_loss(edges, labels), oracle_bce_loss(edges, labels))
            assert np.float64(whole[0]).tobytes() == np.float64(whole[1]).tobytes()
            for p, y in zip(edges, labels):
                got, want = nf.bce_loss(np.array([p]), [y]), oracle_bce_loss([p], [y])
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("rows", [1, 6, 7, 20, 129])
    def test_bce_loss_block_equals_its_rows(self, rows):
        # train's loss pass: each row of a (batches, rows) block gets the bits
        # of the 1-D call on that row, clamp edges and NaN included.
        rng = np.random.default_rng(rows)
        edges = [0.0, 1.0, BCE_EPS, 1.0 - BCE_EPS, 0.5, np.nan]
        for dtype in (np.float32, np.float64):
            probs = rng.random((9, rows)).astype(dtype)
            spots = rng.choice(probs.size, min(probs.size, 12), replace=False)
            probs.flat[spots] = (edges * 2)[: spots.size]
            labels = rng.integers(0, 2, probs.shape).astype(dtype)
            losses = nf.bce_loss(probs, labels)
            assert losses.shape == (9,) and losses.dtype == np.float64
            want = [nf.bce_loss(p, y) for p, y in zip(probs, labels)]
            assert all(type(w) is float for w in want)
            assert losses.tobytes() == np.array(want).tobytes()
            assert np.isnan(losses).any() and np.isfinite(losses).any()


# (inputs, weight rows) of the engine's products: the 6-6 MLP's three
# layers, the FS4 LSTM's two layers (3 gates of 64 and 128 units) and its head.
PRODUCT_SHAPES = [(11, 6), (6, 6), (6, 1), (11, 192), (64, 384), (128, 1)]


class TestProductsMatchMatmul:
    # The steps make their forward, delta and weight-gradient products with
    # np.dot and out=, the oracle with @. Both make the same BLAS call today;
    # a numpy or BLAS build that splits them would change every trained
    # model's bits, and fails here first. (The LSTM's per-gate products on
    # strided dz blocks stay with matmul, so they need no pin.)
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 20, 32, 137, 1024])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dot_gives_the_bytes_of_matmul(self, dtype, rows):
        rng = np.random.default_rng(rows)
        for inputs, outputs in PRODUCT_SHAPES:
            x = rng.standard_normal((rows, inputs)).astype(dtype)
            w = rng.standard_normal((outputs, inputs)).astype(dtype)
            dz = rng.standard_normal((rows, outputs)).astype(dtype)
            for a, b in [(x, w.T), (dz, w), (dz.T, x)]:
                out = np.empty((a.shape[0], b.shape[1]), dtype)
                assert np.dot(a, b, out=out) is out
                assert out.tobytes() == (a @ b).tobytes(), (inputs, outputs, a.shape, b.shape)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_by_one_products_differ_only_in_a_zeros_sign(self, dtype):
        # The one shape where they part: np.dot returns a (1, 1) @ (1, 1)
        # product as it is, so [[-1]] @ [[0]] gives -0, where matmul sums
        # from +0 and gives +0. A model with one input and a one-unit first
        # layer reaches it at batch size 1 (TestTrainMatchesOracle).
        values = [-2.5, -1.0, -0.0, 0.0, 1.0, 3.0]
        for a, b in itertools.product(values, repeat=2):
            x, w = np.array([[a]], dtype), np.array([[b]], dtype)
            out, want = np.empty((1, 1), dtype), x @ w
            assert np.dot(x, w, out=out) is out
            assert out[0, 0] == want[0, 0]
            assert out.tobytes() == want.tobytes() or want[0, 0] == 0, (a, b)


class TestGradientBuffer:
    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_stale_gradient_is_fully_overwritten(self, kind):
        model, x, y = random_checkable_model(kind, 4)
        grads = np.full_like(model.params, np.nan)
        bufs = StepBuffers(model, len(x), _param_views(model.layers, grads))
        probs = neuralnet._forward_cached(x, bufs)
        neuralnet._backward_from_caches(bufs, probs, y)
        assert np.isfinite(grads).all()
        assert grads.tobytes() == nf.backward(model, x, y).tobytes()

    def test_epochs_refill_one_shuffled_copy(self):
        # A second epoch's copy made while the first is alive would double
        # training's memory beyond the input matrix.
        rng = np.random.default_rng(3)
        ds = numeric_ds(rng.standard_normal((20000, 25)), labels=rng.integers(0, 2, 20000))
        model = nf.build_mlp(ds.feature_names, seed=3)
        tracemalloc.start()
        try:
            nf.train(model, ds, nf.TrainingConfig(epochs=3, batch_size=2000, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.matrix.nbytes

    def test_loss_pass_memory_is_bounded(self):
        # On a narrow input the loss pass's float64 temporaries would outweigh
        # the matrix if it cast a whole epoch at once; a block at a time they
        # stay within a constant.
        rng = np.random.default_rng(4)
        ds = numeric_ds(rng.standard_normal((400_000, 2)), labels=rng.integers(0, 2, 400_000))
        model = nf.build_mlp(ds.feature_names, seed=4)
        tracemalloc.start()
        try:
            nf.train(model, ds, nf.TrainingConfig(epochs=1, batch_size=100, seed=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, item = ds.row_count, model.params.itemsize
        inputs = 2 * ds.matrix.size * item  # the cast input and its shuffled copy
        vectors = 3 * n * item + 8 * n  # labels, shuffled labels, probabilities; the permutation
        assert peak < inputs + vectors + 2**21

    @pytest.mark.parametrize("build", [nf.build_mlp, nf.build_lstm])
    def test_train_steps_through_module_globals(self, build, monkeypatch):
        # train must look each step function up in the module, so that a
        # wrapper put there (as a traced benchmark run does) sees every step
        # and every loss pass.
        calls = collections.Counter()
        for name in STEP_FUNCTIONS:
            def counted(*args, _fn=getattr(neuralnet, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(neuralnet, name, counted)
        ds = odd_sized_blobs()
        cfg = nf.TrainingConfig(epochs=2, batch_size=16, seed=2)
        nf.train(build(ds.feature_names, seed=2), ds, cfg)
        steps = cfg.epochs * math.ceil(ds.row_count / cfg.batch_size)
        # Per epoch, one loss call for the 8 whole batches (one block) and one
        # for the short last batch of 9 rows.
        assert calls == {**{name: steps for name in STEP_FUNCTIONS}, "bce_loss": 2 * cfg.epochs}


class TestStepBuffers:
    @pytest.mark.parametrize("batch_size, sizes", [(16, [16, 9]), (1, [1]), (137, [137]),
                                                   (500, [137])])
    @pytest.mark.parametrize("build", [nf.build_mlp, nf.build_lstm])
    def test_train_builds_buffers_once_per_batch_shape(self, build, batch_size, sizes,
                                                       monkeypatch):
        # The 137 rows in batches of 16 leave a short last batch of 9; 1 and
        # 137 divide them, and 500 exceeds them. Two epochs, one set each.
        built = []

        def counted(model, rows, *args, _cls=StepBuffers):
            built.append(rows)
            return _cls(model, rows, *args)

        monkeypatch.setattr(neuralnet, "StepBuffers", counted)
        ds = odd_sized_blobs()
        nf.train(build(ds.feature_names, hidden=HIDDEN[build is nf.build_lstm and "lstm" or "mlp"],
                       seed=1), ds, nf.TrainingConfig(epochs=2, batch_size=batch_size, seed=1))
        assert built == sizes

    @pytest.mark.parametrize("build", [nf.build_mlp, nf.build_lstm])
    def test_train_binds_each_call_list_once(self, build, monkeypatch):
        # Two epochs with a short last batch: the whole-batch and short-batch
        # buffers are built once each, and the AdamState binds its update
        # once, and every step replays the same list objects.
        binds, owners, lists = [], [], collections.defaultdict(set)
        for cls, name in [(StepBuffers, "__init__"), (AdamState, "bind")]:
            def counted(self, *args, _fn=getattr(cls, name)):
                binds.append(self)
                return _fn(self, *args)
            monkeypatch.setattr(cls, name, counted)
        for name, at, attr in [("_forward_cached", 1, "forward_calls"),
                               ("_backward_from_caches", 0, "backward_calls"),
                               ("adam_step", 2, "calls")]:
            def recorded(*args, _fn=getattr(neuralnet, name), _at=at, _attr=attr):
                result = _fn(*args)
                owners.append(args[_at])  # kept alive, so ids stay unique
                lists[id(args[_at]), _attr].add(id(getattr(args[_at], _attr)))
                return result
            monkeypatch.setattr(neuralnet, name, recorded)
        ds = odd_sized_blobs()
        kind = "lstm" if build is nf.build_lstm else "mlp"
        nf.train(build(ds.feature_names, hidden=HIDDEN[kind], seed=1), ds,
                 nf.TrainingConfig(epochs=2, batch_size=16, seed=1))
        assert sorted(type(b).__name__ for b in binds) == ["AdamState", "StepBuffers",
                                                            "StepBuffers"]
        assert len({id(b) for b in binds}) == 3
        # forward and backward lists of both buffers, and Adam's: one object each
        assert len(lists) == 5 and all(len(ids) == 1 for ids in lists.values())

    @pytest.mark.parametrize("rows", [0, 1, SCORE_BLOCK_ROWS, 2 * SCORE_BLOCK_ROWS + 3])
    def test_predict_proba_builds_one_set_per_call(self, rows, monkeypatch):
        built = []

        def counted(model, rows, *args, **kwargs):
            built.append(rows)
            return StepBuffers(model, rows, *args, **kwargs)

        monkeypatch.setattr(neuralnet, "StepBuffers", counted)
        model = nf.build_lstm(["a", "b"], hidden=(4, 3), seed=2)
        probs = nf.predict_proba(model, numeric_ds(np.ones((rows, 2)), names=["a", "b"]))
        assert probs.shape == (rows,)
        assert built == [SCORE_BLOCK_ROWS]

    @pytest.mark.parametrize("rows", [20, 1000])
    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_a_step_allocates_nothing(self, kind, rows):
        # 200 steps on one StepBuffers, each on its own slice of the rows as
        # in train: a per-step copy, cast or temporary of a batch's size would
        # lift the traced peak by at least rows * 4 bytes. ufuncs on strided
        # or broadcast operands allocate iterator buffers of up to bufsize
        # elements, 32 KB at the default; at 16 they stay under 2 KB.
        rng = np.random.default_rng(rows)
        model = build_at(np.float32, kind, ["a", "b", "c", "d"], 5)
        x = rng.standard_normal((2 * rows, 4)).astype(np.float32)
        y = (rng.random(2 * rows) < 0.5).astype(np.float32)
        state = AdamState.for_params(model.params)
        bufs = StepBuffers(model, rows, _param_views(model.layers, state.grad))

        def step(k):
            xb, yb = x[k % 2 * rows :][:rows], y[k % 2 * rows :][:rows]
            probs = neuralnet._forward_cached(xb, bufs)
            neuralnet._backward_from_caches(bufs, probs, yb)
            neuralnet.adam_step(model.params, state.grad, state, 1e-3)

        step(0)  # numpy's first-call caches
        with np.errstate():  # restores the bufsize on exit
            np.setbufsize(16)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for k in range(200):
                    step(k)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert peak < 4096
        assert np.isfinite(model.params).all()

    def test_forward_only_buffers_share_gates_and_scratch(self):
        # Scoring keeps each layer's z and out, but every layer's scratch and
        # gates are contiguous rows of one flat array, sized for the widest
        # layer; the scores keep the bits of buffers that give each its own.
        model = nf.build_lstm(["a", "b", "c"], hidden=(6, 4), seed=3)
        x = np.random.default_rng(3).standard_normal((50, 3)).astype(np.float32)
        lean = StepBuffers(model, 50)
        flat = lean.layers[0].scratch.base
        assert flat.shape == (5 * 50 * 6,)
        for lb, n in zip(lean.layers, (6, 4, 1)):
            transients = [lb.scratch, *lb.gates]
            assert all(a.base is flat and a.shape == (50, n) and a.flags.c_contiguous
                       for a in transients)
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(transients, 2))
        arrays = [flat, *(a for lb in lean.layers for a in (lb.z, lb.out))]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
        probs = neuralnet._forward_cached(x, lean).copy()
        views = _param_views(model.layers, np.empty_like(model.params))
        whole = neuralnet._forward_cached(x, StepBuffers(model, 50, views))
        assert probs.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("kind", ["mlp", "lstm"])
    def test_consecutive_steps_share_their_buffers(self, kind, monkeypatch):
        # Each step's probabilities and every layer's cache are views into
        # the one set of whole-batch buffers, overwritten step by step.
        steps, forward = [], neuralnet._forward_cached

        def recorded(batch, bufs):
            probs = forward(batch, bufs)
            caches = [a for lb in bufs.layers for a in (lb.x, lb.z, lb.out, *lb.gates)]
            steps.append((probs, bufs, caches, probs.copy()))
            return probs

        monkeypatch.setattr(neuralnet, "_forward_cached", recorded)
        ds = odd_sized_blobs()
        model = build_at(np.float32, kind, ds.feature_names, 4)
        nf.train(model, ds, nf.TrainingConfig(epochs=1, batch_size=16, seed=4))
        (p1, bufs1, caches1, values1), (p2, bufs2, caches2, values2) = steps[:2]
        assert bufs1 is bufs2 and steps[-1][1] is not bufs1  # the short last batch has its own
        assert np.shares_memory(p1, p2) and np.shares_memory(p2, bufs1.layers[-1].out)
        assert (values1 != values2).any() and (p1 == steps[-2][3]).all()  # the last whole batch
        assert all(np.shares_memory(a, b) for a, b in zip(caches1[1:], caches2[1:]))
        assert not np.shares_memory(caches1[0], caches2[0])  # the batches themselves
