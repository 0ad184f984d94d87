"""Lightweight network-flow DDoS detection toolkit.

Pipelines cross filter-method feature selection (pairwise-correlation
pruning, mutual-information ranking) with small from-scratch MLP and LSTM
binary classifiers, over SMOTE-rebalanced, standard-scaled flow records.
"""

import os as _os

# NFDLM_THREADS caps numeric worker threads. It must take effect before the
# first numpy import, which happens just below.
_threads = _os.environ.get("NFDLM_THREADS")
if _threads:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .errors import DataError, NumericError
from .evaluate import ConfusionMatrix, Metrics, confusion, metrics
from .experiment import (
    ComparisonTable,
    ExperimentConfig,
    ExperimentReport,
    REFERENCE_RESULTS,
    SelectorSpec,
    compare,
    load_report,
    preset,
    run_experiment,
    save_report,
)
from .feature_select import (
    SelectedFeatures,
    correlation_filter,
    correlation_matrix,
    identity_selection,
    mi_rank_select,
    mutual_information,
    pearson_r,
)
from .flow_data import (
    ColumnDescriptor,
    FlowDataset,
    SynthesisSpec,
    drop_columns,
    generate_synthetic_flows,
    load_dataset,
    parse_flow_csv,
    save_dataset,
    select_features,
    stratified_split,
    write_flow_csv,
)
from .neuralnet import (
    AdamState,
    Layer,
    Model,
    TrainingConfig,
    adam_step,
    backward,
    bce_loss,
    build_lstm,
    build_mlp,
    forward,
    load_model,
    predict,
    predict_proba,
    save_model,
    sigmoid,
    train,
)
from .preprocess import (
    ScalerParams,
    SmoteConfig,
    apply_scaler,
    fit_scaler,
    smote_resample,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ColumnDescriptor",
    "ComparisonTable",
    "ConfusionMatrix",
    "DataError",
    "ExperimentConfig",
    "ExperimentReport",
    "FlowDataset",
    "Layer",
    "Metrics",
    "Model",
    "NumericError",
    "REFERENCE_RESULTS",
    "ScalerParams",
    "SelectedFeatures",
    "SelectorSpec",
    "SmoteConfig",
    "SynthesisSpec",
    "TrainingConfig",
    "adam_step",
    "apply_scaler",
    "backward",
    "bce_loss",
    "build_lstm",
    "build_mlp",
    "compare",
    "confusion",
    "correlation_filter",
    "correlation_matrix",
    "drop_columns",
    "fit_scaler",
    "forward",
    "generate_synthetic_flows",
    "identity_selection",
    "load_dataset",
    "load_model",
    "load_report",
    "metrics",
    "mi_rank_select",
    "mutual_information",
    "parse_flow_csv",
    "pearson_r",
    "predict",
    "predict_proba",
    "preset",
    "run_experiment",
    "save_dataset",
    "save_model",
    "save_report",
    "select_features",
    "sigmoid",
    "smote_resample",
    "stratified_split",
    "train",
    "write_flow_csv",
]
