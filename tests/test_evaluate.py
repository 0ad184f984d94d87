"""Confusion matrices, metric arithmetic, and epoch timing."""

from __future__ import annotations

import time

import numpy as np
import pytest

import nfdlm as nf


class TestConfusion:
    def test_perfect_prediction(self):
        cm = nf.confusion(np.array([1, 0, 1]), np.array([1, 0, 1]))
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 0)

    def test_total_error(self):
        truth = np.array([1, 0, 1, 0])
        cm = nf.confusion(1 - truth, truth)
        assert cm.tp == 0 and cm.tn == 0
        assert cm.fp == 2 and cm.fn == 2

    def test_empty_vectors(self):
        cm = nf.confusion(np.array([], dtype=int), np.array([], dtype=int))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 0, 0, 0)

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(0)
        pred, truth = rng.integers(0, 2, (2, 500))
        cm = nf.confusion(pred, truth)
        assert cm.total == 500

    @pytest.mark.parametrize("pred, truth, message", [
        (np.zeros(3, dtype=int), np.zeros(4, dtype=int), "mismatch"),
        (np.array([0, 2]), np.array([0, 1]), "labels must be 0 or 1"),
    ], ids=["length_mismatch", "label_2"])
    def test_bad_vectors(self, pred, truth, message):
        with pytest.raises(nf.DataError, match=message):
            nf.confusion(pred, truth)


class TestMetrics:
    def test_ninety_nine_percent(self):
        m = nf.metrics(nf.ConfusionMatrix(tp=99, fp=1, tn=99, fn=1))
        assert m.accuracy == 0.99

    def test_no_false_positives_means_precision_one(self):
        m = nf.metrics(nf.ConfusionMatrix(tp=10, fp=0, tn=5, fn=3))
        assert m.precision == 1.0

    def test_zero_denominators_yield_zero(self):
        m = nf.metrics(nf.ConfusionMatrix(tp=0, fp=0, tn=10, fn=0))
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_empty_evaluation_errors(self):
        with pytest.raises(nf.DataError, match="at least one"):
            nf.metrics(nf.ConfusionMatrix(0, 0, 0, 0))

    def test_perfect_prediction_metrics(self):
        truth = np.array([1, 0, 1, 1, 0])
        m = nf.metrics(nf.confusion(truth, truth))
        assert m.accuracy == m.precision == m.recall == m.f1 == 1.0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            pred, truth = rng.integers(0, 2, (2, 40))
            m = nf.metrics(nf.confusion(pred, truth))
            for value in (m.accuracy, m.precision, m.recall, m.f1):
                assert 0.0 <= value <= 1.0

    def test_accuracy_invariant_under_row_permutation(self):
        rng = np.random.default_rng(2)
        pred, truth = rng.integers(0, 2, (2, 100))
        perm = rng.permutation(100)
        a = nf.metrics(nf.confusion(pred, truth)).accuracy
        b = nf.metrics(nf.confusion(pred[perm], truth[perm])).accuracy
        assert a == b


class TestTiming:
    def test_epoch_times_bounded_by_total(self):
        ds = nf.generate_synthetic_flows(nf.SynthesisSpec(150, 150, 3, 0, 4.0, seed=8))
        model = nf.build_mlp(ds.feature_names, seed=8)
        started = time.perf_counter()
        _, history = nf.train(model, ds, nf.TrainingConfig(epochs=4, batch_size=16, seed=8))
        total = time.perf_counter() - started
        assert sum(h.seconds for h in history) <= total + 0.05
        mean_epoch = total / 4
        assert abs(mean_epoch - np.mean([h.seconds for h in history])) < 0.05
