"""Minimal neural engine: dense MLP and single-step LSTM binary classifiers.

Everything is plain numpy: forward passes, exact analytic backpropagation for
binary cross-entropy, Adam updates, and a seeded mini-batch training loop.
All of a model's parameters live in one vector that layers view, and
gradients share its layout, so Adam updates a model with a few ufunc calls.
The vector has its layers' dtype: new models are float32, and the step
functions compute in the dtype they are given, so models loaded from older
float64 files train and score in float64 through the same code.
A step allocates nothing: every array a forward and backward pass writes
lives in a StepBuffers built once per model, batch row count and gradient
vector, and Adam's gradient, scratch and constants in an AdamState built
once per parameter vector and learning rate. Both hold their passes as numpy
calls bound to those arrays once (nfdlm.steps), so the step functions here
take only the batch and labels, on batches already in the parameters' dtype
and of the model's width, and replay them.
Products go through np.dot, which makes np.matmul's BLAS call with less
dispatch, except the LSTM's per-gate products on strided column blocks,
which np.dot would copy first. Each operation keeps the order and operand
dtypes of the allocating form, so the bits are the same.
Every layer is one Layer: x @ weights.T + bias, then its activation. Hidden
dense layers are relu and the head is one sigmoid unit. Flows are independent
records, so the LSTM consumes each row as a length-1 sequence with zero
initial hidden and cell state. From that state only the input-side weights of
the input, candidate and output gates reach the output, so an LSTM layer is a
Layer with activation "lstm": three weight rows per unit, one per gate.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .feature_select import SelectedFeatures
from .flow_data import (
    INTEGER, MATRIX, NUMBER, NUMBERS, OBJECT, OBJECTS, STRING, STRINGS, FlowDataset, _open_input,
    atomic_write_text, json_field, json_object, one_of, or_null,
)
from .preprocess import ScalerParams, scale_columns
from .steps import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, StepBuffers, _sigmoid_calls

MODEL_FORMAT = "nfdlm.model"
MODEL_FORMAT_VERSION = 3

BCE_EPS = 1e-12
# train's loss pass takes whole batches up to this many rows at a time, so
# its float64 temporaries stay small at any dataset size.
LOSS_BLOCK_ROWS = 16384
# predict_proba selects, scales and forwards this many rows at a time, so its
# temporaries stay a few MB at any dataset size.
SCORE_BLOCK_ROWS = 1024

# Older model files store Adam's moment decays and denominator guard, and
# "shuffle", in their training_config.
_FIXED_TRAINING_KEYS = {"adam_beta1": ADAM_BETA1, "adam_beta2": ADAM_BETA2, "adam_eps": ADAM_EPS,
                        "shuffle": True}


def _floats(values) -> np.ndarray:
    """values as an array in the engine's precision: float32 stays float32,
    anything else becomes float64."""
    arr = np.asarray(values)
    return arr if arr.dtype == np.float32 else np.asarray(arr, dtype=np.float64)


def sigmoid(x):
    """1 / (1 + e^-x), computed from e = exp(-|x|) so large |x| cannot overflow.

    The numerator max(e, [x >= 0]) is exactly 1 where x >= 0 (as e <= 1) and
    e elsewhere, so one unmasked divide gives both branches, NaN included.
    """
    arr = _floats(x)
    out = np.empty(arr.shape, arr.dtype)  # arrays of our own, 0-d too
    for call in _sigmoid_calls(arr, np.empty(arr.shape, arr.dtype), out, 0.0, 1.0):
        call()
    return float(out) if arr.ndim == 0 else out


@dataclass
class Layer:
    """z = x @ weights.T + bias, then the activation: relu (hidden), sigmoid
    (head) or lstm.

    An lstm layer is an LSTM cell on a length-1 sequence from zero state. Its
    rows hold the input, candidate and output gates, output_size rows each,
    and it outputs o * tanh(i * g).
    """

    weights: np.ndarray  # (rows, in)
    bias: np.ndarray  # (rows,)
    activation: str  # relu | sigmoid | lstm

    def __post_init__(self) -> None:
        self.weights = np.array(_floats(self.weights))
        self.bias = np.array(self.bias, dtype=self.weights.dtype)
        w = self.weights
        if self.activation == "lstm":
            if w.ndim != 2 or w.shape[0] % 3 or 0 in w.shape or self.bias.shape != w.shape[:1]:
                raise DataError("LSTM weights must be (3 * hidden_size, input) with one bias "
                                "per row, hidden_size >= 1")
        elif w.ndim != 2 or self.bias.shape != w.shape[:1]:
            raise DataError("dense layer shape mismatch")

    @property
    def input_size(self) -> int:
        return self.weights.shape[1]

    @property
    def output_size(self) -> int:
        rows = self.weights.shape[0]
        return rows // 3 if self.activation == "lstm" else rows


@dataclass
class Model:
    layers: list[Layer]
    input_features: list[str]
    scaler: ScalerParams | None = None
    selection: SelectedFeatures | None = None
    training_config: "TrainingConfig | None" = None
    init_seed: int | None = None
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise DataError("model needs at least one layer")
        width = len(self.input_features)
        for pos, layer in enumerate(self.layers, 1):
            if layer.input_size != width:
                raise DataError(f"layer {pos} takes {layer.input_size} inputs but gets {width}")
            width = layer.output_size
        head = self.layers[-1]
        if head.activation != "sigmoid" or head.output_size != 1:
            raise DataError("last layer must be one sigmoid unit")
        if any(l.activation not in ("relu", "lstm") for l in self.layers[:-1]):
            raise DataError("hidden dense layers must be relu")
        dtype = np.result_type(*(l.weights for l in self.layers))  # float64 if layers mix
        self.params = np.empty(sum(l.weights.size + l.bias.size for l in self.layers), dtype)
        for layer, (w, b) in zip(self.layers, _param_views(self.layers, self.params)):
            w[...], b[...] = layer.weights, layer.bias
            layer.weights, layer.bias = w, b
        if not np.isfinite(self.params).all():
            raise DataError("model parameters must be finite")

    @property
    def kind(self) -> str:
        """lstm if any layer is an LSTM cell, else mlp."""
        return "lstm" if any(l.activation == "lstm" for l in self.layers) else "mlp"


def _param_views(layers: list[Layer], flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The one parameter layout: per layer, (weights, bias) views into flat,
    which holds each layer's row-major weights and then its bias, in layer
    order. Model.params and the gradient vector both follow it."""
    views, pos = [], 0
    for layer in layers:
        rows, cols = layer.weights.shape
        w = flat[pos : pos + rows * cols].reshape(rows, cols)
        pos += rows * cols
        views.append((w, flat[pos : pos + rows]))
        pos += rows
    return views


@dataclass
class TrainingConfig:
    epochs: int
    batch_size: int
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        # Compared, not converted: a huge JSON integer fails here, not in a cast.
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ValueError("learning_rate must be positive and finite")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        """Older files' Adam and shuffle keys must hold the fixed values, so
        that retraining from the config reproduces the model."""
        rules = {"epochs": INTEGER, "batch_size": INTEGER, "learning_rate": NUMBER, "seed": INTEGER}
        for key in sorted(d.keys() - rules.keys()):
            if key not in _FIXED_TRAINING_KEYS:
                raise DataError(f"training_config has unknown key '{key}'")
            json_field(d, key, one_of(_FIXED_TRAINING_KEYS[key]), "training_config")
        return cls(**{k: json_field(d, k, r, "training_config") for k, r in rules.items()})


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    """Drawn in float64, so a seed gives the same draws at any model precision."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def build_mlp(
    input_features: list[str], hidden: tuple[int, ...] = (6, 6), seed: int = 0
) -> Model:
    """Dense ReLU stack ending in one sigmoid unit, Glorot-initialized, float32."""
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    width = len(input_features)
    for h in hidden:
        layers.append(Layer(_glorot(rng, h, width).astype(np.float32), np.zeros(h), "relu"))
        width = h
    layers.append(Layer(_glorot(rng, 1, width).astype(np.float32), np.zeros(1), "sigmoid"))
    return Model(layers=layers, input_features=list(input_features), init_seed=seed)


def build_lstm(
    input_features: list[str], hidden: tuple[int, ...] = (64, 128), seed: int = 0
) -> Model:
    """Stacked LSTM layers plus a dense sigmoid head, float32.

    Each layer draws the four Glorot blocks of a full LSTM cell in the usual
    gate order (fan-in width + hidden) and keeps the input columns of the
    first, third and fourth: the input, candidate and output gates. A seed
    thus starts from the weights a full cell would use. Biases start at zero.
    """
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    width = len(input_features)
    for h in hidden:
        w_i, _, w_g, w_o = [_glorot(rng, h, width + h)[:, :width] for _ in range(4)]
        gates = np.vstack([w_i, w_g, w_o]).astype(np.float32)
        layers.append(Layer(gates, np.zeros(3 * h), "lstm"))
        width = h
    layers.append(Layer(_glorot(rng, 1, width).astype(np.float32), np.zeros(1), "sigmoid"))
    return Model(layers=layers, input_features=list(input_features), init_seed=seed)


def _checked_batch(model: Model, batch) -> np.ndarray:
    """batch in the parameters' dtype, as the step functions take it; a
    DataError if it is not 2-D with the model's input width."""
    x = np.asarray(batch, dtype=model.params.dtype)
    if x.ndim != 2 or x.shape[1] != model.layers[0].input_size:
        raise DataError(
            f"batch width {x.shape[1] if x.ndim == 2 else '?'} does not match "
            f"model input width {model.layers[0].input_size}"
        )
    return x


def _forward_cached(batch: np.ndarray, bufs: StepBuffers) -> np.ndarray:
    """Probabilities for a batch in the parameters' dtype, of the model's
    input width and of the row count bufs was built for, as a view into
    bufs, where every layer's cache stays for _backward_from_caches."""
    np.dot(batch, bufs.first.wt, bufs.first.z)
    for call in bufs.forward_calls:
        call()
    return bufs.probs


def forward(model: Model, batch: np.ndarray) -> np.ndarray:
    """Per-row attack probabilities, in the model's dtype, for an already
    scaled (rows, features) batch."""
    x = _checked_batch(model, batch)
    return _forward_cached(x, StepBuffers(model, len(x)))


def bce_loss(probs: np.ndarray, labels: np.ndarray):
    """Mean binary cross-entropy over the last axis, with probabilities
    clamped to [eps, 1-eps]: a float for 1-D inputs, one float64 per row for
    a (batches, rows) block. Each row's loss has the bits of the 1-D call on it.

    The clamp and the sum run in float64 at any model precision: 1 - eps
    rounds to 1.0 in float32, where log(1 - p) would be -inf.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise DataError(f"length mismatch: {p.shape} vs {y.shape}")
    p = np.minimum(np.maximum(p, BCE_EPS), 1.0 - BCE_EPS)
    total = np.add.reduce(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=-1)
    loss = -(total / p.shape[-1])
    return float(loss) if p.ndim == 1 else loss


def _backward_from_caches(bufs: StepBuffers, batch: np.ndarray, labels: np.ndarray) -> None:
    """Overwrite every entry of the gradient vector bufs was built for with
    the gradient of bce_loss, from the caches and probabilities that the
    last _forward_cached call on batch left in bufs. labels are in the
    parameters' dtype."""
    np.subtract(bufs.probs, labels, bufs.loss_delta)
    for call in bufs.backward_calls:
        call()
    np.dot(bufs.first.dzt, batch, bufs.first_dw)


def backward(model: Model, batch: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Exact gradient of bce_loss, laid out like model.params."""
    x, y = _checked_batch(model, batch), np.asarray(labels)
    if y.shape != (len(x),):
        raise DataError("batch and labels shapes disagree")
    grads = np.empty_like(model.params)
    bufs = StepBuffers(model, len(x), _param_views(model.layers, grads))
    _forward_cached(x, bufs)
    _backward_from_caches(bufs, x, y.astype(grads.dtype))
    return grads


def adam_step(state: AdamState) -> None:
    """One in-place Adam update with bias-corrected moment estimates, from
    the gradient in state.grad, of the parameters and at the learning rate
    state was built for. It counts the step, writes the bias corrections and
    replays state's calls, which allocate nothing."""
    state.t += 1
    state.c1[()] = 1.0 - ADAM_BETA1 ** state.t
    state.c2[()] = 1.0 - ADAM_BETA2 ** state.t
    for call in state.calls:
        call()


@dataclass
class EpochStats:
    loss: float
    seconds: float


def train(model: Model, train_ds: FlowDataset, cfg: TrainingConfig):
    """Seeded mini-batch training; returns (model, per-epoch history).

    The dataset must already be scaled and reduced to the model's input
    features. It is cast once to the dtype of model.params, which every
    step buffer then follows, and train_ds is dropped (so are its rows, if
    the caller held no other reference). Steps write Adam's gradient through
    two StepBuffers at most, one for whole batches and one for a short last
    batch. Raises NumericError if the loss goes non-finite.
    """
    if train_ds.row_count == 0:
        raise DataError("cannot train on an empty dataset")
    if train_ds.feature_names != model.input_features:
        raise DataError(
            "training columns do not match model input features: "
            f"{train_ds.feature_names} vs {model.input_features}"
        )
    x = np.ascontiguousarray(train_ds.matrix, dtype=model.params.dtype)
    y = train_ds.labels.astype(model.params.dtype)
    del train_ds
    n, bs = x.shape[0], cfg.batch_size
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(model.params, cfg.learning_rate)
    grad_views = _param_views(model.layers, state.grad)  # each step overwrites all of it
    xs, ys = np.empty_like(x), np.empty_like(y)  # the shuffled copy, one per call
    ps = np.empty_like(y)  # each step's probabilities, for the loss pass
    block = max(1, LOSS_BLOCK_ROWS // bs) * bs
    batches, short = -(-n // bs), n % bs
    whole_bufs = StepBuffers(model, min(bs, n), grad_views)
    last_bufs = StepBuffers(model, short, grad_views) if short and n > bs else whole_bufs
    model.training_config = cfg

    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        # One shuffled copy per epoch makes each batch a slice, not a gather;
        # mode="clip" writes it in place (a permutation clips nothing).
        order = rng.permutation(n)
        np.take(x, order, axis=0, out=xs, mode="clip")
        np.take(y, order, out=ys, mode="clip")
        step_bufs = itertools.chain(itertools.repeat(whole_bufs, batches - 1), (last_bufs,))
        for start, bufs in zip(range(0, n, bs), step_bufs):
            xb, yb = xs[start : start + bs], ys[start : start + bs]
            probs = _forward_cached(xb, bufs)
            # The clamped loss is non-finite only when a probability is NaN,
            # and so is probs . probs, as every other probability is in [0, 1].
            if not math.isfinite(probs.dot(probs)):
                raise NumericError(f"non-finite loss at epoch {epoch + 1}, batch {start // bs + 1}")
            ps[start : start + bs] = probs
            _backward_from_caches(bufs, xb, yb)
            adam_step(state)
        # Each block's whole batches in one loss call, then a short last
        # batch; the sum still adds loss * size batch by batch.
        loss_sum = 0.0
        for first in range(0, n, block):
            last = min(first + block, n)
            whole = last - (last - first) % bs
            if whole > first:
                losses = bce_loss(ps[first:whole].reshape(-1, bs), ys[first:whole].reshape(-1, bs))
                for loss in losses.tolist():
                    loss_sum += loss * bs
            if whole < last:
                loss_sum += bce_loss(ps[whole:last], ys[whole:last]) * (last - whole)
        history.append(EpochStats(loss=loss_sum / n, seconds=time.perf_counter() - started))
    return model, history


def predict_proba(model: Model, ds: FlowDataset) -> np.ndarray:
    """Attack probabilities for a dataset that contains the model's features.

    Columns are selected by name and scaled in float64 with the stored
    ScalerParams, if the model has them, then cast to the model's dtype,
    which the probabilities have. Rows are scored SCORE_BLOCK_ROWS at a time
    into one output vector, so memory beyond it stays one block's worth.
    Every block is forwarded at exactly that row count, the last one
    zero-padded, so a row's score does not depend on the rows scored with
    it. Raises DataError if the scaled inputs or, once every block is
    scored, the model's outputs are not finite (the padding is neither
    scaled nor kept).
    """
    columns = ds.feature_positions(model.input_features)
    if model.scaler is not None:
        positions = []
        for name in model.input_features:
            try:
                positions.append(model.scaler.column_names.index(name))
            except ValueError:
                raise DataError(f"scaler has no parameters for column '{name}'") from None
        means, stdevs = model.scaler.means[positions], model.scaler.stdevs[positions]
    probs = np.empty(ds.row_count, model.params.dtype)
    block = np.empty((SCORE_BLOCK_ROWS, len(columns)), model.params.dtype)
    bufs = StepBuffers(model, SCORE_BLOCK_ROWS)
    for start in range(0, ds.row_count, SCORE_BLOCK_ROWS):
        rows = slice(start, start + SCORE_BLOCK_ROWS)
        x = np.take(ds.matrix[rows], columns, axis=1)
        if model.scaler is not None:
            with np.errstate(over="ignore"):  # reported as the DataError below
                x = scale_columns(x, means, stdevs)
            if not np.isfinite(x).all():
                raise DataError("scaled inputs are not finite")
        real = len(x)
        with np.errstate(over="ignore", invalid="ignore"):  # reported as the DataError below
            block[:real] = x
            block[real:] = 0.0  # a short last block's padding
            probs[rows] = _forward_cached(block, bufs)[:real]
    if not np.isfinite(probs).all():
        raise DataError("model outputs are not finite")
    return probs


def predict(model: Model, ds: FlowDataset) -> np.ndarray:
    """Binary decisions: True (attack) where the attack probability is strictly above 0.5."""
    return predict_proba(model, ds) > 0.5


def _layer_to_dict(layer: Layer) -> dict:
    if layer.activation == "lstm":
        head = {"type": "lstm", "hidden_size": layer.output_size}
    else:
        head = {"type": "dense", "activation": layer.activation}
    return {**head, "weights": layer.weights.tolist(), "bias": layer.bias.tolist()}


def _layer_from_dict(d: dict, version: int, dtype: str, what: str) -> Layer:
    if json_field(d, "type", one_of("dense", "lstm"), what) == "dense":
        weights = np.array(json_field(d, "weights", MATRIX, what), dtype)
        bias = json_field(d, "bias", NUMBERS, what)
        return Layer(weights, bias, json_field(d, "activation", one_of("relu", "sigmoid"), what))
    h = json_field(d, "hidden_size", INTEGER, what)
    if version == 1:
        # v1 stored all four gates, each (hidden, input + hidden); only the
        # input columns of the input, candidate and output gates are live.
        gates = [np.array(json_field(d, k, MATRIX, what)) for k in ("w_in", "w_cand", "w_out")]
        biases = [np.array(json_field(d, k, NUMBERS, what)) for k in ("b_in", "b_cand", "b_out")]
        cols = gates[0].shape[-1]
        if cols <= h or any(w.shape != (h, cols) for w in gates):
            raise DataError("v1 LSTM gate matrices must be (hidden, input + hidden)")
        if any(b.shape != (h,) for b in biases):
            raise DataError("v1 LSTM gate biases must have hidden_size entries")
        weights, bias = np.vstack([w[:, : cols - h] for w in gates]), np.concatenate(biases)
    else:
        weights = np.array(json_field(d, "weights", MATRIX, what), dtype)
        bias = json_field(d, "bias", NUMBERS, what)
    if len(weights) != 3 * h:
        raise DataError(f"{what} weights must have 3 * hidden_size = {3 * h} rows, "
                        f"not {len(weights)}")
    return Layer(weights, bias, "lstm")


def save_model(model: Model, path) -> None:
    """Versioned JSON model file. Each parameter is written as the float64
    value of its dtype's number, so it round-trips bitwise at that dtype."""
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "dtype": model.params.dtype.name,
        "input_features": list(model.input_features),
        "layers": [_layer_to_dict(l) for l in model.layers],
        "scaler": None if model.scaler is None else model.scaler.to_dict(),
        "selection": None if model.selection is None else model.selection.to_dict(),
        "training_config": None
        if model.training_config is None
        else model.training_config.to_dict(),
        "init_seed": model.init_seed,
    }
    atomic_write_text(path, json.dumps(doc))


def load_model(path) -> Model:
    """Read a model file of format version 3, at its recorded dtype, or of
    the older versions 1 and 2, which are float64."""
    what = f"{path}: model file"
    with _open_input(path, encoding="utf-8") as fh:
        doc = json_object(fh.read(), what)
    if json_field(doc, "format", STRING, what) != MODEL_FORMAT:
        raise DataError(f"{path}: not a {MODEL_FORMAT} file")
    version = json_field(doc, "format_version", one_of(1, 2, MODEL_FORMAT_VERSION), what)
    dtype = "float64"  # all that versions 1 and 2 hold
    if version == MODEL_FORMAT_VERSION:
        dtype = json_field(doc, "dtype", one_of("float32", "float64"), what)
    kind = json_field(doc, "kind", STRING, what)
    features = json_field(doc, "input_features", STRINGS, what)
    seed = json_field(doc, "init_seed", or_null(INTEGER), what)
    layers = json_field(doc, "layers", OBJECTS, what)
    scaler, selection, training = (json_field(doc, key, or_null(OBJECT), what)
                                   for key in ("scaler", "selection", "training_config"))
    try:
        with np.errstate(over="ignore"):  # a float32 overflow fails Model's finite check
            layers = [_layer_from_dict(d, version, dtype, f"layer {i}")
                      for i, d in enumerate(layers, 1)]
        model = Model(
            layers=layers,
            input_features=features,
            scaler=None if scaler is None else ScalerParams.from_dict(scaler),
            selection=None if selection is None else SelectedFeatures.from_dict(selection),
            training_config=None if training is None else TrainingConfig.from_dict(training),
            init_seed=seed,
        )
        if kind != model.kind:
            raise DataError(f"model kind must be {model.kind!r} for these layers, not {kind!r}")
    # DataError is a ValueError; an OverflowError is a JSON integer beyond any float.
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DataError(f"{path}: bad model file: {exc}") from exc
    return model
