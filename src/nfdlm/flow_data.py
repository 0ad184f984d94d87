"""Flow-record datasets: CSV ingestion, pruning, splitting, synthesis, and caching.

A FlowDataset is the currency passed between every pipeline stage: a numeric
feature matrix plus column descriptors and bool labels (True = attack).
Categorical columns are descriptors only; no cell of theirs is kept, and the
label column lives only as the labels. A .ds cache file is a JSON header line
of row count and feature names, the matrix as it lies in memory, then one
label byte per row.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import stat
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

NUMERIC = "numeric"
CATEGORICAL = "categorical-string"

# Bot-IoT's label column and its two classes: nfdlm ingest's defaults, and
# what write_flow_csv writes.
LABEL_COLUMN = "category"
POSITIVE_LABEL = "DDoS"
NEGATIVE_LABEL = "Normal"

# Flow identifiers and timestamps carry no detection signal.
DEFAULT_DROP_COLUMNS = ("pkSeqID", "stime", "ltime")

# Records parse_flow_csv converts at a time. A chunk's cells are the only
# strings the parse holds.
PARSE_CHUNK_ROWS = 4096

DATASET_FORMAT = "nfdlm.dataset"
DATASET_FORMAT_VERSION = 3

# Up to this many independent feature columns carry the class-mean offset in
# synthetic data; matches the depth of the mutual-information presets so that
# top-k selection retains the full margin.
SIGNAL_DIMS = 11


@dataclass(frozen=True)
class ColumnDescriptor:
    """A feature column, or a categorical one that holds no cells. The label
    column has no descriptor."""

    name: str
    kind: str  # numeric | categorical-string


@dataclass
class FlowDataset:
    """Column-described flow records.

    matrix holds only the numeric columns (row-major, float64, one column per
    kind=numeric descriptor, in descriptor order). Categorical columns are
    descriptors only. The label column is no column: it is the labels.

    A C-contiguous float64 matrix is adopted, not copied, and frozen: the
    caller's array becomes read-only. Any other array-like is converted.
    Labels, one per row, follow the same rule as a bool vector (see
    as_labels), so stages that keep row order share one label array.
    """

    columns: list[ColumnDescriptor]
    matrix: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64, order="C")
        if self.matrix.ndim != 2:
            raise DataError("matrix must be 2-dimensional")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        if self.matrix.shape[1] != len(self.feature_names):
            raise DataError(
                f"matrix has {self.matrix.shape[1]} columns, "
                f"expected {len(self.feature_names)} numeric columns"
            )
        flat = self.matrix.reshape(-1)  # checked in blocks: no bool copy of the matrix
        if not all(np.isfinite(flat[i : i + 65536]).all() for i in range(0, flat.size, 65536)):
            raise DataError("matrix contains NaN or Inf values")
        self.labels = as_labels(self.labels)
        if self.labels.shape != (self.row_count,):
            raise DataError("labels length does not match row count")
        self.matrix.flags.writeable = False  # datasets are immutable once built

    @property
    def strings(self) -> dict:
        """Always empty: no dataset keeps a categorical cell. It stays only
        because perfbench/workloads.py still reads it."""
        return {}

    @property
    def row_count(self) -> int:
        return self.matrix.shape[0]

    @property
    def feature_names(self) -> list[str]:
        return [c.name for c in self.columns if c.kind == NUMERIC]

    def feature_positions(self, names: list[str]) -> list[int]:
        """The matrix column of each named numeric column, in the given order."""
        order = self.feature_names
        idx = []
        for name in names:
            try:
                idx.append(order.index(name))
            except ValueError:
                raise DataError(f"no such numeric column: '{name}'") from None
        return idx


def as_labels(values) -> np.ndarray:
    """values as a read-only bool label vector (True = attack). A C-contiguous
    bool array is adopted and frozen, as FlowDataset's matrix is; anything else
    must hold only 0 and 1 (checked before the cast, which takes 2 as True)."""
    labels = np.asarray(values, order="C")
    if labels.dtype != bool:
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        labels = labels.astype(bool)
    labels.flags.writeable = False
    return labels


def take_rows(ds: FlowDataset, rows: np.ndarray) -> FlowDataset:
    """Row subset in the given order; column structure unchanged."""
    rows = np.asarray(rows, dtype=np.int64)
    return FlowDataset(
        columns=list(ds.columns),
        matrix=ds.matrix[rows],
        labels=ds.labels[rows],
    )


def select_features(ds: FlowDataset, names: list[str]) -> FlowDataset:
    """Modeling view keeping only the named numeric columns (plus labels).
    It shares ds's read-only matrix when names are all of its numeric
    columns in order, and otherwise takes one copy, C-contiguous as take
    writes it (a fancy index would give Fortran order, and a copy)."""
    if names == ds.feature_names:
        matrix = ds.matrix
    else:
        matrix = np.take(ds.matrix, ds.feature_positions(names), axis=1)
    columns = [ColumnDescriptor(name, NUMERIC) for name in names]
    return FlowDataset(columns=columns, matrix=matrix, labels=ds.labels)


def parse_flow_csv(path: str | os.PathLike, label_column: str, positive_label: str) -> FlowDataset:
    """Load a header-bearing CSV of flow records, reading it once.

    Column kinds are inferred per column: if every cell parses with float()
    as a finite number the column is numeric, otherwise categorical. A
    categorical column is a descriptor only: its cells are checked for blanks
    and not kept. The label column is consumed into the 0/1 label vector (1
    where the cell equals positive_label) and leaves no descriptor, so it can
    never leak into a feature matrix.

    Hard errors: missing file or label column, duplicate header names, bytes
    that are not UTF-8, ragged rows, empty cells, non-finite numeric cells,
    and a label cell that brings a third distinct value (filter the file down
    to two classes first). Row numbers count records after the header.

    The file is read PARSE_CHUNK_ROWS records at a time and numeric columns
    are converted chunk by chunk, so memory is the matrix plus one chunk of
    cells.

    csv.reader reads the header. Each block of PARSE_CHUNK_ROWS lines after
    it that is plain (see _plain_block: ASCII, no quote, stray control byte
    or blank line) is read in C by one np.loadtxt call, as records of one
    field per column. It returns the numeric columns with the bits float()
    gives and the label and categorical cells verbatim, as csv.reader gives
    them, and refuses a line with another cell count. A block that is not
    plain, or that loadtxt refuses, is read as PARSE_CHUNK_ROWS records by
    csv.reader and float(). The result, every error message included, is the
    same as if csv.reader and float() had read every block.

    A file with a single fault gives the same message as a whole-file parse.
    A file with several faults reports the first one in file order, a byte
    that is not UTF-8 included, except that a non-finite cell is reported
    only once the whole file is read: a later non-numeric cell would make
    its column categorical, which is no fault. The matrix holds the columns
    that were numeric through the first chunk; one that turns categorical
    later is taken out of it at the end, in place (see _keep_columns).
    """
    path = Path(path)
    # surrogateescape leaves a byte that is not UTF-8 for the block that holds
    # it to report, so a fault earlier in the decoder's read-ahead comes first.
    with _open_input(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        header = next(csv.reader(fh), None)
        if not header:
            raise DataError(f"{path}: empty file, expected a header row")
        if _first_undecodable([header]) is not None:
            raise DataError(f"{path}: header: not UTF-8 text")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        if label_column not in header:
            raise DataError(f"{path}: label column '{label_column}' not in header")
        width = len(header)
        label_idx = header.index(label_column)
        categorical: set[int] = set()
        non_finite: dict[int, int] = {}  # numeric column -> first row holding inf or nan
        # The matrix's columns; fixed once the first chunk is read.
        slots = [j for j in range(width) if j != label_idx]
        matrix = None
        label_parts: list[np.ndarray] = []
        seen_labels: set[str] = set()
        done = 0
        while True:
            lines = list(itertools.islice(fh, PARSE_CHUNK_ROWS))
            if not lines:
                break
            # (row, rank, column); undecodable rows rank first, then labels
            faults: list[tuple[int, int, int]] = []
            text = {label_idx, *categorical}  # columns kept as cells
            kinds = [object if j in text else np.float64 for j in range(width)]
            block = _plain_block(lines, kinds)
            if block is not None:
                n, ragged = len(lines), None
                fields = [block[name] for name in block.dtype.names]
                cols = {j: fields[j] for j in text}
                values = {j: fields[j] for j in range(width) if j not in text}
            else:  # csv.reader reads one chunk of records from the block's first line
                records = csv.reader(itertools.chain(lines, fh))
                chunk = list(itertools.islice(records, PARSE_CHUNK_ROWS))
                ragged = next((i for i, row in enumerate(chunk) if len(row) != width), None)
                ragged_cells = None if ragged is None else len(chunk[ragged])
                cols = dict(enumerate(zip(*chunk[:ragged])))
                n = len(chunk) if ragged is None else ragged
                undecodable = _first_undecodable(chunk[: n + 1])
                if undecodable is not None:
                    faults.append((done + undecodable + 1, -1, -1))
                del chunk
                values = {}
            for j, cells in cols.items():
                if j == label_idx:
                    blank = _first_blank(cells)
                    third = _third_label_row(cells, seen_labels)
                    if third is not None:
                        faults.append((done + third + 1, 0, j))
                    label_parts.append(
                        np.fromiter(map(positive_label.__eq__, cells), dtype=bool, count=n)
                    )
                elif j in categorical:
                    blank = _first_blank(cells)
                else:
                    try:
                        values[j] = np.fromiter(map(float, cells), dtype=np.float64, count=n)
                    except ValueError:
                        bad = next(i for i, cell in enumerate(cells) if not _is_number(cell))
                        if cells[bad].strip():  # a non-number: the column is categorical
                            categorical.add(j)
                            non_finite.pop(j, None)
                        blank = _first_blank(cells)
                    else:
                        blank = None
                if blank is not None:
                    faults.append((done + blank + 1, 1, j))
            for j, column in values.items():
                if j not in non_finite and not np.isfinite(column).all():
                    non_finite[j] = done + int(np.argmin(np.isfinite(column))) + 1
            if faults:
                row, rank, j = min(faults)
                if rank == -1:
                    raise DataError(f"{path}: row {row}: not UTF-8 text")
                if rank == 0:
                    raise DataError(
                        f"{path}: row {row}: label column '{label_column}' has a third value "
                        f"{cols[j][row - done - 1]!r}; filter to two classes before ingesting"
                    )
                raise DataError(f"{path}: row {row}: missing value in column '{header[j]}'")
            if ragged is not None:
                raise DataError(
                    f"{path}: row {done + ragged + 1} has {ragged_cells} cells, expected {width}"
                )
            if matrix is None:
                slots = [j for j in slots if j not in categorical]
                matrix = np.empty((max(n, PARSE_CHUNK_ROWS), len(slots)))
            elif done + n > matrix.shape[0]:
                # Growth reallocates in place where it can; the trim below
                # gives back what the last growth overshot.
                rows = max(done + n, matrix.shape[0] * 5 // 4)
                matrix.resize((rows, len(slots)), refcheck=False)
            for k, j in enumerate(slots):
                if j in values:
                    matrix[done : done + n, k] = values[j]
            done += n

    if non_finite:
        row, j = min((row, j) for j, row in non_finite.items())
        raise DataError(f"{path}: row {row}: non-finite value in column '{header[j]}'")
    if matrix is None:
        matrix = np.empty((0, len(slots)))
    else:
        matrix.resize((done, len(slots)), refcheck=False)
        keep = [k for k, j in enumerate(slots) if j not in categorical]
        if len(keep) < len(slots):  # a column turned categorical after the first chunk
            _keep_columns(matrix, keep)
    labels = np.concatenate(label_parts) if label_parts else np.empty(0, bool)
    columns = [
        ColumnDescriptor(name, CATEGORICAL if j in categorical else NUMERIC)
        for j, name in enumerate(header) if j != label_idx
    ]
    return FlowDataset(columns=columns, matrix=matrix, labels=labels)


def _keep_columns(matrix: np.ndarray, keep: list[int]) -> None:
    """Keep only the columns `keep` of a C-order matrix that owns its data,
    in place.

    A block of rows at a time, row i's kept cells move to offset i·k of the
    flat buffer, for k = len(keep) of the w columns. Since i·k ≤ i·w, no row
    not yet copied is overwritten, so memory beyond the matrix is one block.
    """
    rows, k = matrix.shape[0], len(keep)
    flat = matrix.reshape(-1)
    for start in range(0, rows, PARSE_CHUNK_ROWS):
        block = np.take(matrix[start : start + PARSE_CHUNK_ROWS], keep, axis=1)  # a copy
        flat[start * k : start * k + block.size] = block.reshape(-1)
    del flat
    matrix.resize((rows, k), refcheck=False)


def _first_undecodable(records: list[list[str]]) -> int | None:
    """Index of the first record holding a byte that is not UTF-8, if any.

    The CSV is decoded with errors="surrogateescape", which turns each such
    byte into a lone surrogate. Valid UTF-8 never decodes to one, so a record
    holds such a byte exactly when its text does not encode back to UTF-8.
    """
    for i, record in enumerate(records):
        try:
            "".join(record).encode("utf-8")
        except UnicodeEncodeError:
            return i


def _first_blank(cells: tuple[str, ...]) -> int | None:
    """Index of the first empty or whitespace-only cell, if any."""
    if all(value.strip() for value in set(cells)):
        return None
    return next(i for i, cell in enumerate(cells) if not cell.strip())


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _third_label_row(cells: tuple[str, ...], seen: set[str]) -> int | None:
    """Add the chunk's label values to `seen`; return the index of the cell
    that brings a third distinct value, if one does."""
    so_far = set(seen)
    seen.update(cells)
    if len(seen) <= 2:
        return None
    for i, cell in enumerate(cells):
        so_far.add(cell)
        if len(so_far) > 2:
            return i


# Every byte an ASCII block may hold to be plain: tab, LF, CR and printable.
_PLAIN_BYTES = bytes([9, 10, 13, *range(32, 127)])


def _plain_block(lines: list[str], kinds: list[type]) -> np.ndarray | None:
    """The lines as records of one field per column, of kind np.float64 or
    object (the text cell), or None if the lines are not plain or
    np.loadtxt refuses one.

    Plain lines are ASCII; they hold no quote, no control byte but tab, and a
    CR only in a CRLF ending; and none is blank or longer than the csv field
    limit. On such lines loadtxt splits cells where csv.reader does, refuses
    a line with another cell count than len(kinds), and gives an object
    field the cell csv.reader gives, spaces and tabs kept. It converts a
    float64 field with PyOS_string_to_double, as float() does: a cell it
    takes has the bits float() gives, and a cell float() refuses it refuses
    too. (It also refuses some that float() takes, such as 1_000.) Elsewhere
    they differ: loadtxt skips blank lines, takes a number next to
    \\x1c-\\x1f and takes a cell past the field limit.
    """
    text = "".join(lines)
    if '"' in text or not text.isascii() or "\n" in lines or "\r\n" in lines:
        return None
    raw = text.encode("ascii")
    if raw.translate(None, _PLAIN_BYTES) or (
        b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")
    ):
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        return np.loadtxt(
            lines, delimiter=",", comments=None, quotechar=None,
            dtype=np.dtype([("", kind) for kind in kinds]), ndmin=1,
        )
    except ValueError:
        return None


def drop_columns(
    ds: FlowDataset,
    drop_names: list[str] | None = None,
    drop_string_columns: bool = False,
) -> FlowDataset:
    """Remove named columns and, optionally, every categorical column.

    drop_names=None applies DEFAULT_DROP_COLUMNS restricted to columns that
    exist; explicitly named columns must exist or this is a hard error.
    The result shares the labels, and the matrix too when every numeric
    column stays: a dataset is read-only, so sharing is safe. Otherwise the
    kept columns are one C-order copy, as select_features takes them.
    """
    present = {c.name for c in ds.columns}
    if drop_names is None:
        to_drop = {n for n in DEFAULT_DROP_COLUMNS if n in present}
    else:
        unknown = [n for n in drop_names if n not in present]
        if unknown:
            raise DataError(f"unknown columns in drop list: {unknown}")
        to_drop = set(drop_names)
    if drop_string_columns:
        to_drop |= {c.name for c in ds.columns if c.kind == CATEGORICAL}

    kept = [c for c in ds.columns if c.name not in to_drop]
    kept_numeric = [i for i, name in enumerate(ds.feature_names) if name not in to_drop]
    keeps_all = len(kept_numeric) == ds.matrix.shape[1]
    return FlowDataset(
        columns=kept,
        matrix=ds.matrix if keeps_all else np.take(ds.matrix, kept_numeric, axis=1),
        labels=ds.labels,
    )


def stratified_split(
    ds: FlowDataset, test_fraction: float, seed: int
) -> tuple[FlowDataset, FlowDataset]:
    """Per-class random split; test gets round(fraction * class size) rows.

    Row order within each part follows the original dataset. Deterministic
    for a given seed. Hard error if either class has fewer than two rows, or
    the rounding leaves either part with no rows, or with no rows of one
    class.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    classes, counts = np.unique(ds.labels, return_counts=True)
    if classes.size < 2:
        raise DataError("stratified_split requires both classes present")
    if counts.min() < 2:
        raise DataError("stratified_split requires at least 2 rows per class")
    n_tests = [int(round(test_fraction * count)) for count in counts.tolist()]
    if sum(n_tests) in (0, ds.row_count):
        part = "training" if sum(n_tests) else "test"
        raise DataError(f"test_fraction {test_fraction} leaves the {part} part with no rows")
    for cls, count, n_test in zip(classes.tolist(), counts.tolist(), n_tests):
        if n_test in (0, count):
            part = "training" if n_test else "test"
            name = "attack" if cls else "benign"
            raise DataError(
                f"test_fraction {test_fraction} leaves the {part} part with no {name} rows"
            )

    rng = np.random.default_rng(seed)
    test_rows: list[np.ndarray] = []
    train_rows: list[np.ndarray] = []
    for cls, n_test in zip(classes, n_tests):
        idx = np.flatnonzero(ds.labels == cls)
        perm = rng.permutation(idx.size)
        test_rows.append(idx[perm[:n_test]])
        train_rows.append(idx[perm[n_test:]])
    train_idx = np.sort(np.concatenate(train_rows))
    test_idx = np.sort(np.concatenate(test_rows))
    return take_rows(ds, train_idx), take_rows(ds, test_idx)


@dataclass(frozen=True)
class SynthesisSpec:
    """Recipe for a desk-scale synthetic flow dataset."""

    attack_count: int
    benign_count: int
    feature_count: int
    planted_duplicate_pairs: int = 0
    class_separation: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.attack_count, self.benign_count, self.planted_duplicate_pairs) < 0:
            raise DataError("counts must be non-negative")
        if self.feature_count < 2:
            raise DataError("feature_count must be at least 2")
        if not 0 <= self.class_separation < math.inf:
            raise DataError("class_separation must be a finite non-negative number")


def synthetic_signal_columns(spec: SynthesisSpec) -> list[int]:
    """Indices of the independently generated columns that carry class signal.

    Non-copy columns are ranked uniques-first (everything past the duplicate
    block, then the even-indexed duplicate sources); the first SIGNAL_DIMS of
    them share the class-mean offset equally.
    """
    dup = spec.planted_duplicate_pairs
    candidates = list(range(2 * dup, spec.feature_count))
    candidates += [2 * t for t in range(dup)]
    return candidates[: min(SIGNAL_DIMS, len(candidates))]


def generate_synthetic_flows(spec: SynthesisSpec) -> FlowDataset:
    """Two Gaussian class clusters with optional planted near-duplicate columns.

    Attack rows come first, then benign. The class-mean distance measured over
    the independent (non-copy) columns equals class_separation; it is spread
    equally over the columns named by synthetic_signal_columns. Each planted
    pair occupies columns (2t, 2t+1): the later column is an affine near-copy
    of the earlier one with |pearson r| > 0.99. Pure function of the spec.
    """
    if spec.feature_count < 2 * spec.planted_duplicate_pairs:
        raise DataError(
            f"feature_count {spec.feature_count} cannot hold "
            f"{spec.planted_duplicate_pairs} duplicate pairs"
        )
    n = spec.attack_count + spec.benign_count
    rng = np.random.default_rng(spec.seed)
    matrix = rng.standard_normal((n, spec.feature_count))
    labels = np.repeat([True, False], [spec.attack_count, spec.benign_count])

    signal = synthetic_signal_columns(spec)
    if signal and spec.class_separation > 0:
        shift = spec.class_separation / math.sqrt(len(signal))
        attack = spec.attack_count  # attack rows are rows [0, attack)
        for j in signal:
            matrix[:attack, j] += shift / 2.0
            matrix[attack:, j] -= shift / 2.0

    for t in range(spec.planted_duplicate_pairs):
        src, dst = 2 * t, 2 * t + 1
        scale = rng.uniform(0.75, 1.5) * (1 if rng.integers(0, 2) else -1)
        offset = rng.uniform(-2.0, 2.0)
        # Noise at 5% of the copy's scale keeps |r| around 0.999.
        noise = rng.normal(0.0, 0.05 * abs(scale), n)
        matrix[:, dst] = scale * matrix[:, src] + offset + noise

    width = max(2, len(str(spec.feature_count - 1)))
    columns = [ColumnDescriptor(f"f{j:0{width}d}", NUMERIC) for j in range(spec.feature_count)]
    return FlowDataset(columns=columns, matrix=matrix, labels=labels)


@contextmanager
def _atomic_open(path: str | os.PathLike, mode: str = "wb", **open_args):
    """Yield a temp file beside path, renamed over it when the block succeeds,
    so readers never observe partial files. An OSError fails as a one-line
    DataError naming path and leaves no temp file behind.

    mkstemp creates the file with mode 0600; it gets 0666 minus the umask,
    as open() would give it.
    """
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        with os.fdopen(fd, mode, **open_args) as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


@contextmanager
def _open_input(path: str | os.PathLike, mode: str = "r", **open_args):
    """Yield path opened for reading, the reading twin of _atomic_open: a missing or
    unreadable file, and text the block cannot decode or parse as CSV, fail as a DataError."""
    try:
        with open(path, mode, **open_args) as fh:
            yield fh
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        # A decode error's position counts from the decoder's chunk, not the file.
        why = f"not UTF-8 text ({exc.reason})" if isinstance(exc, UnicodeDecodeError) else exc
        raise DataError(f"{path}: {why}") from exc


def json_object(text: str, what: str) -> dict:
    """The JSON object text holds; a DataError starting with what if text is not
    JSON (too deep or with too long an integer included) or holds another value."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{what} is not valid JSON: {exc}") from None
    if type(doc) is not dict:
        raise DataError(f"{what} must hold a JSON object")
    return doc


# Rules for json_field: (what the value must be, its test). JSON true and
# false are neither integers nor numbers, nor equal to 1 and 0 for one_of.
STRING = ("a string", lambda v: type(v) is str)
INTEGER = ("an integer", lambda v: type(v) is int)
NUMBER = ("a number", lambda v: type(v) in (int, float))
OBJECT = ("an object", lambda v: type(v) is dict)
COUNT = ("a non-negative integer", lambda v: type(v) is int and v >= 0)
# numpy holds fewer than 2**60 float64 values in one array, even one of no columns.
ROW_COUNT = ("a non-negative integer below 2**60", lambda v: COUNT[1](v) and v < 2**60)
STRINGS = ("a list of strings", lambda v: type(v) is list and all(map(STRING[1], v)))
NUMBERS = ("a list of numbers", lambda v: type(v) is list and all(map(NUMBER[1], v)))
MATRIX = ("a list of lists of numbers", lambda v: type(v) is list and all(map(NUMBERS[1], v)))
OBJECTS = ("a list of objects", lambda v: type(v) is list and all(map(OBJECT[1], v)))


def or_null(rule):
    return f"{rule[0]} or null", lambda v: v is None or rule[1](v)


def one_of(*values):
    wanted = " or ".join(map(json.dumps, values))
    return wanted, lambda v: (type(v), v) in [(type(x), x) for x in values]


def json_field(doc: dict, key: str, rule, what: str):
    """The value at a dotted key of a JSON object, checked against a rule: a
    DataError "<what> lacks key '<key>'" if it or an object on its path is
    missing, or "<what> '<key>' must be <wanted>" if it fails the rule."""
    parent, _, last = key.rpartition(".")
    if parent:
        doc = json_field(doc, parent, OBJECT, what)
    if last not in doc:
        raise DataError(f"{what} lacks key '{key}'")
    if not rule[1](doc[last]):
        raise DataError(f"{what} '{key}' must be {rule[0]}")
    return doc[last]


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    with _atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def save_dataset(ds: FlowDataset, path: str | os.PathLike) -> None:
    """Cache a dataset's features: one JSON header line of row count and
    feature names, then the matrix as it lies in memory, written without a
    copy (little-endian float64 in C order, so values round-trip bitwise),
    then the labels' own bool bytes. Categorical descriptors, which hold no
    cells, are not kept."""
    header = {
        "format": DATASET_FORMAT,
        "format_version": DATASET_FORMAT_VERSION,
        "row_count": ds.row_count,
        "feature_names": ds.feature_names,
    }
    with _atomic_open(path) as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(ds.matrix.astype("<f8", copy=False))
        fh.write(ds.labels)


def load_dataset(path: str | os.PathLike) -> FlowDataset:
    """Read a file save_dataset wrote: once the payload's size is checked, one
    readinto fills the matrix and one more the labels. A file that is not a
    regular file (a pipe, say) is read whole first, since its size is known
    only then. Only format version 3 is read: a .ds file is a cache, so a
    version 1 or 2 file fails with a DataError that says to rebuild it with
    nfdlm ingest."""
    what = f"{path}: dataset header"
    with _open_input(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise DataError(f"{path}: not a dataset file (missing header line)")
        header = json_object(line.decode("utf-8"), what)
        if json_field(header, "format", STRING, what) != DATASET_FORMAT:
            raise DataError(f"{path}: not a {DATASET_FORMAT} file")
        version = header.get("format_version")
        if one_of(1, 2)[1](version):
            raise DataError(f"{path}: dataset format version {version} is no longer read; "
                            "run nfdlm ingest again to rebuild it")
        json_field(header, "format_version", one_of(DATASET_FORMAT_VERSION), what)
        n = json_field(header, "row_count", ROW_COUNT, what)
        names = json_field(header, "feature_names", STRINGS, what)
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            payload, size = fh, info.st_size - len(line)
        else:
            data = fh.read()
            payload, size = io.BytesIO(data), len(data)
        if size != 8 * n * len(names) + n:
            raise DataError(f"{path}: payload size mismatch")
        matrix = np.empty((n, len(names)), dtype="<f8")
        labels = np.empty(n, dtype=np.uint8)
        if payload.readinto(matrix) + payload.readinto(labels) != size:
            raise DataError(f"{path}: payload size mismatch")
        if labels.max(initial=0) > 1:  # checked on the bytes: a bool view takes 2 as True
            raise DataError(f"{path}: bad dataset file: labels must be 0 or 1")
        labels = labels.view(bool)
    try:
        return FlowDataset([ColumnDescriptor(name, NUMERIC) for name in names], matrix, labels)
    except DataError as exc:
        raise DataError(f"{path}: bad dataset file: {exc}") from exc


def write_flow_csv(ds: FlowDataset, path: str | os.PathLike) -> None:
    """Write a dataset back to CSV: its numeric columns, then LABEL_COLUMN
    holding POSITIVE_LABEL or NEGATIVE_LABEL. Categorical columns, which hold
    no cells, are left out, and a feature named LABEL_COLUMN is a DataError.

    Numeric cells use shortest round-trip formatting, so parse -> write ->
    parse is bitwise lossless on numeric columns.
    """
    if LABEL_COLUMN in ds.feature_names:
        raise DataError(f"cannot write {path}: a feature is named '{LABEL_COLUMN}', "
                        "the label column's name")
    with _atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*ds.feature_names, LABEL_COLUMN])
        for values, label in zip(ds.matrix, ds.labels.tolist()):
            label_cell = POSITIVE_LABEL if label else NEGATIVE_LABEL
            writer.writerow([*map(repr, values.tolist()), label_cell])
