"""Shared fixtures and oracle helpers."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import nfdlm as nf
from nfdlm.flow_data import NUMERIC

# The desk-scale surrogate used across selector, SMOTE, and acceptance tests:
# heavy 40:1 imbalance, 30 features, 5 planted near-duplicate pairs.
SURROGATE_SPEC = nf.SynthesisSpec(
    attack_count=20000,
    benign_count=500,
    feature_count=30,
    planted_duplicate_pairs=5,
    class_separation=6.0,
    seed=7,
)


@pytest.fixture(scope="session")
def surrogate() -> nf.FlowDataset:
    return nf.generate_synthetic_flows(SURROGATE_SPEC)


def numeric_ds(matrix, labels=None, names=None):
    """A dataset of numeric columns c0, c1, ... (or the given names), all
    benign unless labels are given."""
    matrix = np.asarray(matrix, dtype=float)
    names = names or [f"c{j}" for j in range(matrix.shape[1])]
    cols = [nf.ColumnDescriptor(n, NUMERIC) for n in names]
    if labels is None:
        labels = np.zeros(matrix.shape[0], bool)
    return nf.FlowDataset(cols, matrix, labels=labels)


def full_sort_neighbors(rows, k):
    """Each row's k nearest other rows from a stable sort of the whole m x m
    squared-distance matrix: the reference the blocked search must match.
    None if a squared distance overflows, which leaves no order to find."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", rows, rows)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (rows @ rows.T)
    if not np.isfinite(d2).all():
        return None
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def unique_bincount_mi(x, labels, bins):
    """(mutual information, contingency table) with every value ranked by a
    full np.unique: the reference the sorted-column computation must match."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    if counts.size <= bins:
        bin_ids = inverse
    else:
        cum_before = np.concatenate([[0], np.cumsum(counts)[:-1]])
        bin_ids = ((cum_before * bins) // x.size)[inverse]
    n_bins = int(bin_ids.max()) + 1
    joint = np.bincount(bin_ids * 2 + labels, minlength=n_bins * 2).reshape(n_bins, 2)
    p = joint / x.size
    pb = p.sum(axis=1, keepdims=True)
    pl = p.sum(axis=0, keepdims=True)
    nz = p > 0
    mi = float(np.sum(p[nz] * np.log(p[nz] / (pb @ pl)[nz])))
    return max(mi, 0.0), joint


def traced_peak(fn, *args):
    """fn(*args), and the tracemalloc peak it reaches above what was traced before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def count_mutants_that_load(original: bytes, path, load, seed: int, count: int) -> int:
    """Write count seeded mutants of original to path in turn (cut short, one
    bit flipped, one byte overwritten, one byte inserted) and call load(path)
    on each. Returns how many loaded; any other must fail as a DataError."""
    rng = np.random.default_rng(seed)
    loaded = 0
    for case in range(count):
        data = bytearray(original)
        at = int(rng.integers(len(data)))
        if case % 4 == 0:
            del data[at:]
        elif case % 4 == 1:
            data[at] ^= 1 << int(rng.integers(8))
        elif case % 4 == 2:
            data[at] = int(rng.integers(256))
        else:
            data.insert(at, int(rng.integers(256)))
        path.write_bytes(data)
        try:
            load(path)
        except nf.DataError:
            continue
        loaded += 1
    return loaded


def assert_datasets_equal(a: nf.FlowDataset, b: nf.FlowDataset) -> None:
    assert a.columns == b.columns
    assert a.matrix.shape == b.matrix.shape
    assert (a.matrix == b.matrix).all()
    assert (a.labels == b.labels).all()


def build_float64(kind: str, input_features, hidden: tuple[int, ...], seed: int):
    """build_mlp or build_lstm with float64 parameters: the same Glorot draws,
    not rounded to float32. Float64 pins (the oracles, the v1/v2 fixtures,
    finite differences) train these."""
    from nfdlm.neuralnet import _glorot

    rng = np.random.default_rng(seed)
    layers, width = [], len(input_features)
    for h in hidden:
        if kind == "mlp":
            layers.append(nf.Layer(_glorot(rng, h, width), np.zeros(h), "relu"))
        else:
            w_i, _, w_g, w_o = [_glorot(rng, h, width + h)[:, :width] for _ in range(4)]
            layers.append(nf.Layer(np.vstack([w_i, w_g, w_o]), np.zeros(3 * h), "lstm"))
        width = h
    layers.append(nf.Layer(_glorot(rng, 1, width), np.zeros(1), "sigmoid"))
    return nf.Model(layers=layers, input_features=list(input_features), init_seed=seed)


def max_relative_gradient_error(model, x, y, h: float = 1e-5) -> float:
    """Central finite differences against backward(), one parameter at a time.

    Errors are measured relative to the gradient's overall scale so that
    exactly-zero gradients (e.g. of a ReLU unit that never fires) compare
    cleanly.
    """
    analytic = nf.backward(model, x, y)
    scale = float(np.max(np.abs(analytic)))
    params = model.params
    worst = 0.0
    for idx in range(params.size):
        orig = params[idx]
        params[idx] = orig + h
        loss_plus = nf.bce_loss(nf.forward(model, x), y)
        params[idx] = orig - h
        loss_minus = nf.bce_loss(nf.forward(model, x), y)
        params[idx] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * h)
        denom = max(scale, abs(numeric), 1e-12)
        worst = max(worst, abs(numeric - analytic[idx]) / denom)
    return worst


def relu_kink_margin(model, x) -> float:
    """Smallest |pre-activation| over every ReLU unit; FD checks need it > h."""
    from nfdlm.neuralnet import StepBuffers, _forward_cached

    bufs = StepBuffers(model, len(x))
    _forward_cached(x, bufs)
    margin = np.inf
    for layer, lb in zip(model.layers, bufs.layers):
        if layer.activation == "relu" and lb.z.size:
            margin = min(margin, float(np.min(np.abs(lb.z))))
    return margin


def random_checkable_model(kind: str, seed: int, n_rows: int = 6):
    """Small random float64 model + batch suitable for finite-difference checking.

    Biases are jittered away from zero and draws are advanced until no ReLU
    pre-activation sits within 1e-3 of its kink, where central differences
    and the subgradient convention legitimately disagree.
    """
    attempt = 0
    while True:
        rng = np.random.default_rng([seed, attempt])
        if kind == "mlp":
            features = [f"x{i}" for i in range(4)]
            model = build_float64("mlp", features, (5, 4), seed * 11 + attempt)
        else:
            # 76 parameters, under the 200-parameter checking budget.
            features = [f"x{i}" for i in range(3)]
            model = build_float64("lstm", features, (3, 3), seed * 11 + attempt)
        for layer in model.layers:
            if layer.activation != "lstm":
                layer.bias += rng.uniform(-0.5, 0.5, layer.bias.shape)
        x = rng.standard_normal((n_rows, len(features)))
        y = rng.integers(0, 2, n_rows)
        if relu_kink_margin(model, x) > 1e-3:
            return model, x, y
        attempt += 1
