"""Named pipeline presets, the end-to-end runner, and comparison reporting.

The five presets cross two filter selectors with two classifier families:

    BASE  no selection            + MLP,  batch 20, 10 epochs
    FS1   correlation(0.65)       + MLP,  batch 20, 20 epochs
    FS2   mutual information(11)  + MLP,  batch 20, 20 epochs
    FS3   correlation(0.65)       + LSTM, batch 32, 50 epochs
    FS4   mutual information(11)  + LSTM, batch 32, 50 epochs
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from .errors import DataError, NumericError
from .evaluate import Metrics, confusion, metrics
from .feature_select import (
    CORRELATION,
    MUTUAL_INFORMATION,
    NO_SELECTION,
    SelectedFeatures,
    correlation_filter,
    identity_selection,
    mi_rank_select,
)
from .flow_data import (
    INTEGER, NUMBER, STRING, FlowDataset, _open_input, atomic_write_text, drop_columns,
    json_field, json_object, or_null, select_features, stratified_split,
)
from .neuralnet import (
    EpochStats,
    TrainingConfig,
    build_lstm,
    build_mlp,
    predict,
    save_model,
    train,
)
from .preprocess import SmoteConfig, apply_scaler, fit_scaler, smote_resample

# Published full-scale reference points for the preset suite (accuracy as a
# fraction, training time in seconds, selected feature count).
REFERENCE_RESULTS = {
    "FS1": {"accuracy": 0.9853, "train_seconds": 1029, "features": 9},
    "FS2": {"accuracy": 0.9999, "train_seconds": 944, "features": 11},
    "FS3": {"accuracy": 0.9989, "train_seconds": 2395, "features": 13},
    "FS4": {"accuracy": 0.9984, "train_seconds": 2601, "features": 11},
}


@dataclass(frozen=True)
class SelectorSpec:
    method: str  # none | correlation | mutual_information
    threshold: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.method == CORRELATION:
            if self.threshold is None:
                raise ValueError("correlation selector needs a threshold")
        elif self.method == MUTUAL_INFORMATION:
            if self.k is None:
                raise ValueError("mutual_information selector needs k")
        elif self.method != NO_SELECTION:
            raise ValueError(f"unknown selector method: {self.method!r}")

    def describe(self) -> str:
        if self.method == CORRELATION:
            return f"correlation(threshold={self.threshold})"
        if self.method == MUTUAL_INFORMATION:
            return f"mutual_information(k={self.k})"
        return "none"


@dataclass
class ExperimentConfig:
    name: str
    selector: SelectorSpec
    classifier: str  # mlp | lstm
    training: TrainingConfig
    smote: SmoteConfig
    split_fraction: float = 0.2
    seed: int = 0
    smote_before_split: bool = False  # literal pipeline: resample, then split

    def __post_init__(self) -> None:
        if self.classifier not in ("mlp", "lstm"):
            raise ValueError(f"unknown classifier: {self.classifier!r}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must be in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


# name -> (selector, classifier, batch_size, epochs); frozen per preset.
_PRESETS = {
    "BASE": (SelectorSpec(NO_SELECTION), "mlp", 20, 10),
    "FS1": (SelectorSpec(CORRELATION, threshold=0.65), "mlp", 20, 20),
    "FS2": (SelectorSpec(MUTUAL_INFORMATION, k=11), "mlp", 20, 20),
    "FS3": (SelectorSpec(CORRELATION, threshold=0.65), "lstm", 32, 50),
    "FS4": (SelectorSpec(MUTUAL_INFORMATION, k=11), "lstm", 32, 50),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(
    name: str,
    seed: int,
    split_fraction: float = 0.2,
    smote_k: int = 5,
    smote_before_split: bool = False,
    epochs: int | None = None,
) -> ExperimentConfig:
    """Build a named preset configuration.

    Overriding the frozen epoch count reclassifies the config as `custom`.
    Sub-seeds are derived from the experiment seed: SMOTE uses seed+1,
    training shuffles use seed+2, and weight initialization uses seed+3.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {list(_PRESETS)}")
    selector, classifier, batch_size, frozen_epochs = _PRESETS[name]
    if epochs is None:
        epochs = frozen_epochs
    return ExperimentConfig(
        name=name if epochs == frozen_epochs else "custom",
        selector=selector,
        classifier=classifier,
        training=TrainingConfig(epochs=epochs, batch_size=batch_size, seed=seed + 2),
        smote=SmoteConfig(k_neighbors=smote_k, seed=seed + 1),
        split_fraction=split_fraction,
        seed=seed,
        smote_before_split=smote_before_split,
    )


@dataclass
class ExperimentReport:
    config: dict
    provenance: dict
    selection: SelectedFeatures
    metrics: Metrics
    history: list[EpochStats]
    phase_seconds: dict[str, float]
    metrics_split: str = "test"
    model_path: str | None = None

    @property
    def feature_count(self) -> int:
        return len(self.selection.kept)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "provenance": self.provenance,
            "selection": self.selection.to_dict(),
            "metrics": self.metrics.to_dict(),
            "history": [{"loss": h.loss, "seconds": h.seconds} for h in self.history],
            "phase_seconds": dict(self.phase_seconds),
            "metrics_split": self.metrics_split,
            "model_path": self.model_path,
            "feature_count": self.feature_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def save_report(report: ExperimentReport, path) -> None:
    atomic_write_text(path, report.to_json() + "\n")


def load_report(path) -> dict:
    """A report file's JSON object, checked for every key `compare` reads, so
    a bad file is named in the error."""
    what = f"{path}: report file"
    with _open_input(path, encoding="utf-8") as fh:
        doc = json_object(fh.read(), what)
    _comparison_row(doc, what)
    return doc


@contextmanager
def _stage(name: str, seconds: dict[str, float]):
    """Time one pipeline stage into seconds[name] and prefix the data and
    numeric errors it raises with the stage name."""
    started = time.perf_counter()
    try:
        yield
    except (DataError, NumericError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    seconds[name] = time.perf_counter() - started


def _fit_selection(cfg: ExperimentConfig, train_ds: FlowDataset) -> SelectedFeatures:
    if cfg.selector.method == CORRELATION:
        return correlation_filter(train_ds, cfg.selector.threshold)
    if cfg.selector.method == MUTUAL_INFORMATION:
        return mi_rank_select(train_ds, cfg.selector.k)
    return identity_selection(train_ds)


def run_experiment(
    cfg: ExperimentConfig,
    ds: FlowDataset,
    source: str = "<memory>",
    model_path: str | None = None,
) -> ExperimentReport:
    """Run one full pipeline and return its report.

    Stage order: drop categorical columns, stratified split, SMOTE on
    the training rows, standard scaling fitted on the training rows, feature
    selection fitted on the training rows, classifier training, evaluation on
    the raw held-out test rows through the model's stored scaler, and saving
    the model when model_path is given.
    Scaler and selector never see test rows (unless smote_before_split
    reproduces the literal leaky pipeline). Every stage is timed into
    phase_seconds. Deterministic given cfg and the dataset bytes; only wall
    times vary.
    """
    seconds: dict[str, float] = {}

    with _stage("drop", seconds):
        work = drop_columns(ds, [], drop_string_columns=True)
    del ds  # work shares its matrix; the split below releases both
    provenance = {
        "source": source,
        "rows_total": work.row_count,
        "class_counts": {
            "benign": int((work.labels == 0).sum()),
            "attack": int((work.labels == 1).sum()),
        },
        "rows_train_pre_smote": None,  # stays None when resampling precedes the split
    }

    # Each stage's input is released once its output exists, so one copy of
    # the rows is live per stage, beside the raw test rows.
    if cfg.smote_before_split:
        with _stage("smote", seconds):
            resampled = smote_resample(work, cfg.smote)
        del work
        with _stage("split", seconds):
            train_res, test_raw = stratified_split(resampled, cfg.split_fraction, cfg.seed)
        del resampled
    else:
        with _stage("split", seconds):
            train_raw, test_raw = stratified_split(work, cfg.split_fraction, cfg.seed)
        del work
        provenance["rows_train_pre_smote"] = train_raw.row_count
        with _stage("smote", seconds):
            train_res = smote_resample(train_raw, cfg.smote)
        del train_raw
    provenance["rows_train_post_smote"] = train_res.row_count
    provenance["rows_test"] = test_raw.row_count

    with _stage("scale", seconds):
        scaler = fit_scaler(train_res)
        train_scaled = apply_scaler(scaler, train_res)
    del train_res

    with _stage("selection", seconds):
        selection = _fit_selection(cfg, train_scaled)
        # train empties the list: it holds the only reference to the rows.
        train_input = [select_features(train_scaled, selection.kept)]
        del train_scaled

    with _stage("training", seconds):
        build = build_mlp if cfg.classifier == "mlp" else build_lstm
        model = build(selection.kept, seed=cfg.seed + 3)
        model.scaler = scaler
        model.selection = selection
        _, history = train(model, train_input.pop(), cfg.training)

    with _stage("evaluation", seconds):
        # The model scores raw rows through its own scaler, as a loaded one does.
        result = metrics(confusion(predict(model, test_raw), test_raw.labels))

    if model_path is not None:
        with _stage("save", seconds):
            save_model(model, model_path)

    return ExperimentReport(
        config=cfg.to_dict(),
        provenance=provenance,
        selection=selection,
        metrics=result,
        history=history,
        phase_seconds=seconds,
        metrics_split="test",
        model_path=None if model_path is None else str(model_path),
    )


@dataclass
class ComparisonRow:
    name: str
    accuracy: float
    train_seconds: float
    features: int
    classifier: str
    selector: str


@dataclass
class ComparisonTable:
    rows: list[ComparisonRow]

    def to_dict(self) -> dict:
        return {
            "rows": [asdict(r) for r in self.rows],
            "reference": REFERENCE_RESULTS,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_markdown(self) -> str:
        header = ["Model", "Accuracy", "Train time (s)", "Features", "Classifier", "Selector"]
        body = [
            [
                r.name,
                f"{r.accuracy:.4f}",
                f"{r.train_seconds:.2f}",
                str(r.features),
                r.classifier,
                r.selector,
            ]
            for r in self.rows
        ]
        widths = [max(len(header[j]), *(len(row[j]) for row in body)) if body else len(header[j])
                  for j in range(len(header))]
        def fmt(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        lines = [fmt(header), "| " + " | ".join("-" * w for w in widths) + " |"]
        lines += [fmt(row) for row in body]
        lines.append("")
        lines.append(
            "Reference results at full scale: "
            + "; ".join(
                f"{name} accuracy {ref['accuracy']:.4f}, {ref['train_seconds']} s, "
                f"{ref['features']} features"
                for name, ref in REFERENCE_RESULTS.items()
            )
        )
        return "\n".join(lines) + "\n"


# compare's accuracy is a fraction and its training time a finite, non-negative
# count of seconds. The bounds are compared, not converted, so a huge JSON
# integer fails the rule instead of raising OverflowError.
_FRACTION = ("a number in [0, 1]", lambda v: NUMBER[1](v) and 0 <= v <= 1)
_SECONDS = ("a finite non-negative number",
            lambda v: NUMBER[1](v) and 0 <= v <= sys.float_info.max)


def _comparison_row(doc: dict, what: str) -> ComparisonRow:
    rules = {"method": STRING, "threshold": or_null(NUMBER), "k": or_null(INTEGER)}
    spec = {k: json_field(doc, f"config.selector.{k}", r, what) for k, r in rules.items()}
    try:
        selector = SelectorSpec(**spec).describe()
    except ValueError as exc:
        raise DataError(f"{what} 'config.selector': {exc}") from None
    return ComparisonRow(
        name=json_field(doc, "config.name", STRING, what),
        accuracy=json_field(doc, "metrics.accuracy", _FRACTION, what),
        train_seconds=json_field(doc, "phase_seconds.training", _SECONDS, what),
        features=json_field(doc, "feature_count", INTEGER, what),
        classifier=json_field(doc, "config.classifier", STRING, what),
        selector=selector,
    )


def compare(reports) -> ComparisonTable:
    """One row per report dict (see load_report and ExperimentReport.to_dict),
    ordered by experiment name."""
    if not reports:
        raise DataError("compare needs at least one report")
    rows = [_comparison_row(rep, "report") for rep in reports]
    rows.sort(key=lambda r: r.name)
    return ComparisonTable(rows=rows)
