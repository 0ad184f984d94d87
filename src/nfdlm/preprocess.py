"""Class rebalancing (SMOTE) and standard scaling."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .flow_data import NUMBERS, STRINGS, FlowDataset, json_field

# Minority rows whose neighbor distances are searched at a time.
SMOTE_BLOCK_ROWS = 512
# Rows whose squared deviations fit_scaler sums at a time.
SCALER_BLOCK_ROWS = 4096


@dataclass
class ScalerParams:
    """Per-column mean and population standard deviation (divide by N)."""

    column_names: list[str]
    means: np.ndarray
    stdevs: np.ndarray

    def __post_init__(self) -> None:
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stdevs = np.asarray(self.stdevs, dtype=np.float64)
        if not (len(self.column_names) == self.means.size == self.stdevs.size):
            raise DataError("scaler parameter lengths disagree")
        if not (np.isfinite(self.means).all() and np.isfinite(self.stdevs).all()):
            raise DataError("scaler means and stdevs must be finite")
        if (self.stdevs < 0).any():
            raise DataError("stdev must be non-negative")

    def to_dict(self) -> dict:
        return {
            "column_names": list(self.column_names),
            "means": self.means.tolist(),
            "stdevs": self.stdevs.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerParams":
        rules = {"column_names": STRINGS, "means": NUMBERS, "stdevs": NUMBERS}
        return cls(**{key: json_field(d, key, rule, "scaler") for key, rule in rules.items()})


@dataclass
class SmoteConfig:
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")


def fit_scaler(train: FlowDataset) -> ScalerParams:
    """Mean and population stdev for every numeric column."""
    if train.row_count == 0:
        raise DataError("cannot fit scaler on an empty dataset")
    means = train.matrix.mean(axis=0)
    stdevs = _column_stdevs(train.matrix, means)  # ddof=0: population convention
    # A column of identical values must report stdev exactly 0; summation
    # rounding in mean/std would otherwise leave ~1e-16 residue and the
    # zero-stdev rule in apply_scaler would never fire.
    low = train.matrix.min(axis=0)
    constant = low == train.matrix.max(axis=0)
    means[constant] = low[constant]
    stdevs[constant] = 0.0
    return ScalerParams(
        column_names=train.feature_names,
        means=means,
        stdevs=stdevs,
    )


def _column_stdevs(matrix: np.ndarray, means: np.ndarray) -> np.ndarray:
    """np.std(matrix, axis=0) bit for bit, without its centred copy of matrix.

    Squared deviations go a block of rows at a time into one buffer whose row
    0 carries the running sum. numpy reduces axis 0 of a C-order array row
    after row, as np.std's sum does, so the sums match, and so does the
    division by the row count that follows.
    """
    buf = np.empty((SCALER_BLOCK_ROWS + 1, matrix.shape[1]))
    buf[0] = 0.0  # 0 + x == x: the first block's sum starts from its first row
    total = np.empty(matrix.shape[1])
    for start in range(0, matrix.shape[0], SCALER_BLOCK_ROWS):
        block = matrix[start : start + SCALER_BLOCK_ROWS]
        dev = buf[1 : 1 + block.shape[0]]
        np.subtract(block, means, out=dev)
        np.multiply(dev, dev, out=dev)
        np.add.reduce(buf[: 1 + block.shape[0]], axis=0, out=total)
        buf[0] = total
    return np.sqrt(np.divide(total, matrix.shape[0], out=total), out=total)


def scale_columns(x: np.ndarray, means: np.ndarray, stdevs: np.ndarray) -> np.ndarray:
    """(x - mean) / stdev per column; constant columns (stdev 0) map to zeros."""
    safe = np.where(stdevs == 0.0, 1.0, stdevs)
    scaled = x - means
    scaled /= safe  # in place: one full-size array, not two
    scaled[:, stdevs == 0.0] = 0.0
    return scaled


def apply_scaler(params: ScalerParams, ds: FlowDataset) -> FlowDataset:
    if params.column_names != ds.feature_names:
        raise DataError(
            "scaler columns do not match dataset columns: "
            f"{params.column_names} vs {ds.feature_names}"
        )
    return FlowDataset(
        columns=list(ds.columns),
        matrix=scale_columns(ds.matrix, params.means, params.stdevs),
        labels=ds.labels,
        strings=dict(ds.strings),
    )


def smote_resample(train: FlowDataset, cfg: SmoteConfig) -> FlowDataset:
    """Upsample the minority class to the majority count.

    Each synthetic row is m + u * (n - m) for a minority row m, one of its k
    nearest minority neighbors n (Euclidean distance on the feature matrix),
    and u uniform in [0, 1). Original rows are preserved verbatim and the
    synthetic block is appended, both written into one new matrix. Each
    minority row draws from its own RNG stream derived from (seed, row
    position), so output is reproducible bitwise regardless of how the work
    might be scheduled.
    """
    if train.strings:
        raise DataError(
            "smote_resample requires numeric features only; "
            "drop categorical columns first"
        )
    n_pos = int(train.labels.sum())
    n_neg = train.row_count - n_pos
    if n_pos == n_neg:
        return train
    minority_label = n_pos < n_neg
    minority_idx = np.flatnonzero(train.labels == minority_label)
    minority_count = minority_idx.size
    majority_count = train.row_count - minority_count
    if minority_count < 2:
        raise DataError("SMOTE needs at least 2 minority rows")

    k = cfg.k_neighbors
    if k > minority_count - 1:
        k = minority_count - 1
        warnings.warn(
            f"k_neighbors clamped to {k} (minority class has {minority_count} rows)",
            stacklevel=2,
        )

    minority = train.matrix[minority_idx]
    neighbor_ids = _nearest_neighbors(minority, k)

    need = majority_count - minority_count
    base, extra = divmod(need, minority_count)
    n = train.row_count
    matrix = np.empty((n + need, train.matrix.shape[1]))
    matrix[:n] = train.matrix
    out = n
    for i in range(minority_count):
        count = base + (1 if i < extra else 0)
        if count == 0:
            continue
        rng = np.random.default_rng([cfg.seed, i])
        picks = rng.integers(0, k, size=count)
        u = rng.random(count)
        m = minority[i]
        neighbors = minority[neighbor_ids[i][picks]]
        matrix[out : out + count] = m + u[:, None] * (neighbors - m)
        out += count

    return FlowDataset(
        columns=list(train.columns),
        matrix=matrix,
        labels=np.concatenate([train.labels, np.full(need, minority_label)]),
        strings={},
    )


def _nearest_neighbors(rows: np.ndarray, k: int) -> np.ndarray:
    """Ids of each row's k nearest other rows by squared Euclidean distance,
    nearest first; ties keep the lower id.

    The Gram product is taken once, whole, and the distances a block of rows
    at a time, with the elementwise arithmetic of the full m x m matrix. A
    row with exactly k distances at or below its k-th smallest (np.partition)
    stable-sorts just those k, in id order; any other row (a tie across the
    k-th place, a NaN) stable-sorts whole. So the ids are bitwise those of a
    stable sort of each full row, and memory beyond the Gram product is one
    block.
    """
    m = rows.shape[0]
    sq = np.einsum("ij,ij->i", rows, rows)
    gram = rows @ rows.T
    ids = np.empty((m, k), dtype=np.int64)
    for start in range(0, m, SMOTE_BLOCK_ROWS):
        stop = min(start + SMOTE_BLOCK_ROWS, m)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * gram[start:stop]
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf  # self excluded
        near = d2 <= np.partition(d2, k - 1, axis=1)[:, k - 1, None]
        exact = np.count_nonzero(near, axis=1) == k
        near &= exact[:, None]
        r, c = np.nonzero(near)  # row-major: each exact row's k ids, ascending
        order = np.argsort(d2[r, c].reshape(-1, k), axis=1, kind="stable")
        block = ids[start:stop]
        block[exact] = np.take_along_axis(c.reshape(-1, k), order, axis=1)
        block[~exact] = np.argsort(d2[~exact], axis=1, kind="stable")[:, :k]
    return ids
