"""Filter-method feature selection.

Two selectors: a pairwise-correlation redundancy filter (drop the later
column of any pair whose |r| exceeds a threshold) and a mutual-information
top-k ranking against the binary label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .flow_data import NUMBER, OBJECTS, STRING, FlowDataset, as_labels, json_field, or_null

CORRELATION = "correlation"
MUTUAL_INFORMATION = "mutual_information"
NO_SELECTION = "none"

DEFAULT_MI_BINS = 64


@dataclass
class DroppedFeature:
    name: str
    score: float
    partner: str | None = None  # column that caused the drop (correlation only)


@dataclass
class SelectedFeatures:
    """Outcome of one selector run.

    kept/scores are parallel lists. For mutual_information, kept is in rank
    order (descending MI in nats). For correlation, kept preserves the input
    column order and each score is the strongest |r| that column had with the
    columns it displaced (0 if it displaced none).
    """

    kept: list[str]
    scores: list[float]
    method: str
    threshold_or_k: float | int | None
    dropped: list[DroppedFeature] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "parameter": self.threshold_or_k,
            "kept": [
                {"name": n, "score": s} for n, s in zip(self.kept, self.scores)
            ],
            "dropped": [
                {"name": d.name, "score": d.score, "partner": d.partner}
                for d in self.dropped
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SelectedFeatures":
        kept, dropped = (json_field(d, key, OBJECTS, "selection") for key in ("kept", "dropped"))
        entry = "selection entry"
        return cls(
            kept=[json_field(k, "name", STRING, entry) for k in kept],
            scores=[float(json_field(k, "score", NUMBER, entry)) for k in kept],
            method=json_field(d, "method", STRING, "selection"),
            threshold_or_k=json_field(d, "parameter", or_null(NUMBER), "selection"),
            dropped=[
                DroppedFeature(
                    json_field(x, "name", STRING, entry),
                    float(json_field(x, "score", NUMBER, entry)),
                    json_field(x, "partner", or_null(STRING), entry),
                )
                for x in dropped
            ],
        )


def identity_selection(ds: FlowDataset) -> SelectedFeatures:
    """No-op selection keeping every numeric column (the no-selector baseline)."""
    names = ds.feature_names
    return SelectedFeatures(
        kept=names, scores=[0.0] * len(names), method=NO_SELECTION, threshold_or_k=None
    )


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Sample correlation coefficient in [-1, 1]; 0 if either vector is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"pearson_r needs equal-length vectors, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise DataError("pearson_r needs at least 2 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        return 0.0
    return float(np.clip((dx @ dy) / denom, -1.0, 1.0))


def correlation_matrix(ds: FlowDataset) -> np.ndarray:
    """Pairwise correlations of the numeric columns.

    Each entry equals pearson_r(col_i, col_j) bitwise, so the matrix is
    exactly symmetric and identical columns give exactly 1. Diagonal entries
    are 1, except 0 for constant columns, whose every correlation is 0.
    Each column is centred once, into a contiguous row of its own, with its
    sum of squares kept; each pair then costs one dot product.
    """
    if ds.row_count < 2:
        raise DataError("correlation_matrix needs at least 2 rows")
    n_cols = ds.matrix.shape[1]
    centred = np.empty((n_cols, ds.row_count))
    for j in range(n_cols):
        column = ds.matrix[:, j]
        np.subtract(column, column.mean(), out=centred[j])
    sum_sq = [float(d @ d) for d in centred]
    m = np.zeros((n_cols, n_cols))
    for j in range(n_cols):
        for i in range(j + 1):
            # The same arithmetic as pearson_r, which gives exactly 1 on the
            # diagonal, or 0 for a constant column.
            denom = math.sqrt(sum_sq[i] * sum_sq[j])
            if denom != 0.0:
                m[i, j] = m[j, i] = np.clip((centred[i] @ centred[j]) / denom, -1.0, 1.0)
    return m


def correlation_filter(ds: FlowDataset, threshold: float) -> SelectedFeatures:
    """Drop the later member of every column pair with |r| above the threshold.

    Pairs are scanned in column order; when |r(i, j)| > threshold for i < j,
    column j is dropped and i (the earliest such partner) is recorded as the
    cause. Deterministic, and idempotent on its own output.
    """
    if not 0.0 < threshold < 1.0:
        raise DataError(f"threshold must be in (0, 1), got {threshold}")
    names = ds.feature_names
    m = correlation_matrix(ds)
    dropped: dict[int, tuple[int, float]] = {}
    for j in range(len(names)):
        for i in range(j):
            if abs(m[i, j]) > threshold:
                dropped[j] = (i, float(m[i, j]))
                break
    kept_idx = [j for j in range(len(names)) if j not in dropped]
    displaced_by: dict[int, float] = {}
    for j, (i, r) in dropped.items():
        displaced_by[i] = max(displaced_by.get(i, 0.0), abs(r))
    return SelectedFeatures(
        kept=[names[j] for j in kept_idx],
        scores=[displaced_by.get(j, 0.0) for j in kept_idx],
        method=CORRELATION,
        threshold_or_k=threshold,
        dropped=[
            DroppedFeature(names[j], r, partner=names[i])
            for j, (i, r) in sorted(dropped.items())
        ],
    )


def mutual_information(x: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_MI_BINS) -> float:
    """Plug-in mutual information (nats) between a feature and binary labels.

    The feature is discretized into at most `bins` equal-frequency cells and
    MI is the sum of p(b, l) * ln(p(b, l) / (p(b) p(l))) over the contingency
    table, with 0 * ln 0 taken as 0. A value with r smaller values falls in
    cell (r * bins) // n, so ties share a cell; at most `bins` distinct values
    get one cell each. Cell counts come from np.searchsorted on one sort of x
    and one of its attack values: bitwise the table of a full np.unique
    ranking, trailing empty cells dropped. Labels of one class give exactly
    0.0, not the rounding noise of the sum. Raises DataError if x is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = as_labels(labels)
    if x.shape != labels.shape or x.ndim != 1:
        raise DataError(
            f"mutual_information needs equal-length vectors, got {x.shape} and {labels.shape}"
        )
    if x.size < 2:
        raise DataError("mutual_information needs at least 2 samples")
    if bins < 2:
        raise DataError("bins must be at least 2")

    s = np.sort(x)
    if not (math.isfinite(s[0]) and math.isfinite(s[-1])):  # NaN sorts last
        raise DataError("mutual_information needs finite feature values")
    attack_values = np.sort(x[labels])
    if attack_values.size in (0, x.size):
        return 0.0
    run_ends = np.flatnonzero(s[1:] != s[:-1])
    if run_ends.size < bins:
        uppers = s[run_ends]  # one cell per distinct value
    else:
        # Cell b starts above the edge s[ceil(b * n / bins) - 1], b = 1 .. bins-1.
        uppers = s[-(np.arange(1, bins) * -x.size // bins) - 1]
        uppers = uppers[uppers < s[-1]]
    uppers = np.append(uppers, s[-1])
    totals = np.diff(np.searchsorted(s, uppers, side="right"), prepend=0)
    attacks = np.diff(np.searchsorted(attack_values, uppers, side="right"), prepend=0)
    joint = np.stack([totals - attacks, attacks], axis=1)
    p = joint / x.size
    pb = p.sum(axis=1, keepdims=True)
    pl = p.sum(axis=0, keepdims=True)
    nz = p > 0
    mi = float(np.sum(p[nz] * np.log(p[nz] / (pb @ pl)[nz])))
    return max(mi, 0.0)


def mi_rank_select(ds: FlowDataset, k: int, bins: int = DEFAULT_MI_BINS) -> SelectedFeatures:
    """Keep the k features with the highest mutual information with the label.

    kept is in rank order; ties fall back to the original column order. The
    result depends only on the multiset of (feature, label) value pairs, not
    on row order.
    """
    names = ds.feature_names
    if not 1 <= k <= len(names):
        raise DataError(f"k must be in [1, {len(names)}], got {k}")
    scores = np.array(
        [mutual_information(ds.matrix[:, j], ds.labels, bins) for j in range(len(names))]
    )
    order = np.argsort(-scores, kind="stable")
    kept = order[:k]
    rest = order[k:]
    return SelectedFeatures(
        kept=[names[j] for j in kept],
        scores=[float(scores[j]) for j in kept],
        method=MUTUAL_INFORMATION,
        threshold_or_k=k,
        dropped=[DroppedFeature(names[j], float(scores[j])) for j in rest],
    )
