"""Classification metrics and confusion matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .flow_data import as_labels


@dataclass
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionMatrix:
    """Tally counts with attack (True or 1) as the positive class; see as_labels."""
    p, t = as_labels(pred), as_labels(truth)
    if p.shape != t.shape or p.ndim != 1:
        raise DataError(f"length mismatch: {p.shape} vs {t.shape}")
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p)) - tp
    fn = int(np.count_nonzero(t)) - tp
    return ConfusionMatrix(tp=tp, fp=fp, tn=p.size - tp - fp - fn, fn=fn)


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, precision, recall, and F1 from a confusion matrix.

    Zero-denominator cases yield 0 (not NaN) so reports always serialize.
    """
    n = cm.total
    if n == 0:
        raise DataError("metrics need at least one evaluated row")
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return Metrics(
        accuracy=(cm.tp + cm.tn) / n,
        precision=precision,
        recall=recall,
        f1=f1,
    )
