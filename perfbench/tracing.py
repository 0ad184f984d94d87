"""Span recording around calls into the nfdlm package, measured from outside.

`Spans` times calls the benchmark makes itself. For a traced run,
`Wrappers` also replaces functions in the package namespaces that
resolve the calls (`nfdlm.experiment.<name>` for the stages `run_experiment`
imports by name, `nfdlm.neuralnet.<name>` for the per-step calls `train`
makes), so nested calls record spans with their parent. Spans stay in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import math

import numpy as np

# (namespace that resolves the call, attribute, span name). The span name is
# "<module>.<function>" of the module that defines the function.
WRAPPER_TARGETS = (
    ("nfdlm.cli", "load_dataset", "flow_data.load_dataset"),
    ("nfdlm.cli", "run_experiment", "experiment.run_experiment"),
    ("nfdlm.cli", "save_report", "experiment.save_report"),
    ("nfdlm.cli", "load_report", "experiment.load_report"),
    ("nfdlm.cli", "compare", "experiment.compare"),
    ("nfdlm.cli", "load_model", "neuralnet.load_model"),
    ("nfdlm.cli", "predict", "neuralnet.predict"),
    ("nfdlm.experiment", "drop_columns", "flow_data.drop_columns"),
    ("nfdlm.experiment", "stratified_split", "flow_data.stratified_split"),
    ("nfdlm.experiment", "smote_resample", "preprocess.smote_resample"),
    ("nfdlm.experiment", "fit_scaler", "preprocess.fit_scaler"),
    ("nfdlm.experiment", "apply_scaler", "preprocess.apply_scaler"),
    ("nfdlm.experiment", "correlation_filter", "feature_select.correlation_filter"),
    ("nfdlm.experiment", "mi_rank_select", "feature_select.mi_rank_select"),
    ("nfdlm.experiment", "select_features", "flow_data.select_features"),
    ("nfdlm.experiment", "train", "neuralnet.train"),
    ("nfdlm.experiment", "predict", "neuralnet.predict"),
    ("nfdlm.experiment", "save_model", "neuralnet.save_model"),
    ("nfdlm.neuralnet", "_forward_cached", "neuralnet._forward_cached"),
    ("nfdlm.neuralnet", "bce_loss", "neuralnet.bce_loss"),
    ("nfdlm.neuralnet", "_backward_from_caches", "neuralnet._backward_from_caches"),
    ("nfdlm.neuralnet", "adam_step", "neuralnet.adam_step"),
)


def _count_train(counts, args, result):
    model, ds, cfg = args[0], args[1], args[2]
    counts["neuralnet.steps"] += cfg.epochs * math.ceil(ds.row_count / cfg.batch_size)
    counts["neuralnet.train_rows"] += cfg.epochs * ds.row_count
    counts["neuralnet.params"] += sum(
        v.size for layer in model.layers for v in vars(layer).values() if isinstance(v, np.ndarray)
    )


def _count_predict(counts, args, result):
    counts["neuralnet.predict_rows"] += args[1].row_count


def _count_smote(counts, args, result):
    counts["preprocess.smote_rows_added"] += result.row_count - args[0].row_count


def _count_kept(counts, args, result):
    counts["feature_select.kept"] += len(result.kept)


def _count_parse(counts, args, result):
    counts["flow_data.parse_rows"] += result.row_count


# Counts taken at the same boundaries as the spans, from each call's
# arguments and result.
COUNTERS = {
    "neuralnet.train": _count_train,
    "neuralnet.predict": _count_predict,
    "neuralnet.predict_proba": _count_predict,
    "preprocess.smote_resample": _count_smote,
    "feature_select.correlation_filter": _count_kept,
    "feature_select.mi_rank_select": _count_kept,
    "flow_data.parse_flow_csv": _count_parse,
}


class Spans:
    """In-memory spans (name, start, end, parent) plus boundary counts,
    timed by `clock` (the speed probe's, which leaves out its own ticks)."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self.uncounted: set[str] = set()  # spans whose counter failed
        self.last_seconds = 0.0
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; `last_seconds` holds its duration afterwards."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[idx] = self.clock()
            self.last_seconds = self.ends[idx] - self.starts[idx]
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                counter(self.counts, args, result)
            except (AttributeError, IndexError, TypeError):
                self.uncounted.add(name)  # the call's signature or result changed
        return result

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def ancestors(self) -> list[frozenset]:
        """For each span, the names of the spans it ran inside."""
        above: list[frozenset] = []
        for name, parent in zip(self.names, self.parents):
            above.append(above[parent] | {self.names[parent]} if parent >= 0 else frozenset())
        return above

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its (nested, sequential) children cover."""
        dur = self.durations()
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def write(self, path) -> None:
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        doc = {
            "names": table,
            "columns": ["name", "start", "end", "parent"],
            "spans": [
                [ids[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _wrapped(spans: Spans, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return spans.call(name, fn, *args, **kwargs)

    return wrapper


class Wrappers:
    """Patches WRAPPER_TARGETS for the length of a `with` block.

    A target the package no longer has is left alone and listed in `missing`,
    so the metrics built from it read as missing rather than 0.
    """

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.missing: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Wrappers":
        for module_name, attr, span_name in WRAPPER_TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, _wrapped(self.spans, span_name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


# Per-layer time metrics: metric -> (span names summed, outermost only;
# ancestor span the sum is restricted to, or None).
_TIME_METRICS = {
    "neuralnet.train_s": (("neuralnet.train",), None),
    "neuralnet.forward_s": (("neuralnet._forward_cached",), "neuralnet.train"),
    "neuralnet.backward_s": (("neuralnet._backward_from_caches",), "neuralnet.train"),
    "neuralnet.loss_s": (("neuralnet.bce_loss",), "neuralnet.train"),
    "neuralnet.adam_s": (("neuralnet.adam_step",), "neuralnet.train"),
    "neuralnet.predict_s": (("neuralnet.predict", "neuralnet.predict_proba"), None),
    "neuralnet.save_model_s": (("neuralnet.save_model",), None),
    "neuralnet.load_model_s": (("neuralnet.load_model",), None),
    "flow_data.parse_s": (("flow_data.parse_flow_csv",), None),
    "flow_data.drop_s": (("flow_data.drop_columns",), None),
    "flow_data.save_dataset_s": (("flow_data.save_dataset",), None),
    "flow_data.load_dataset_s": (("flow_data.load_dataset",), None),
    "flow_data.split_s": (("flow_data.stratified_split",), None),
    "flow_data.select_features_s": (("flow_data.select_features",), None),
    "preprocess.smote_s": (("preprocess.smote_resample",), None),
    "preprocess.fit_scaler_s": (("preprocess.fit_scaler",), None),
    "preprocess.apply_scaler_s": (("preprocess.apply_scaler",), None),
    "feature_select.correlation_s": (("feature_select.correlation_filter",), None),
    "feature_select.mi_s": (("feature_select.mi_rank_select",), None),
    "experiment.run_s": (("experiment.run_experiment",), None),
}

# The per-step calls `train` makes, by the metric that sums them.
STEP_METRICS = {
    "neuralnet.forward_s": "neuralnet._forward_cached",
    "neuralnet.backward_s": "neuralnet._backward_from_caches",
    "neuralnet.loss_s": "neuralnet.bce_loss",
    "neuralnet.adam_s": "neuralnet.adam_step",
}


def uncalled_step_targets(spans: Spans) -> set[str]:
    """Per-step wrapper targets that still exist but that no `train` call
    reached, although training took steps: `train` stopped calling them."""
    if not spans.counts.get("neuralnet.steps"):
        return set()
    seen = {n for n, above in zip(spans.names, spans.ancestors()) if "neuralnet.train" in above}
    return {
        f"{m}.{a}" for m, a, s in WRAPPER_TARGETS if s in STEP_METRICS.values() and s not in seen
    }


# Self time of these spans: the layer's own code between the wrapped calls.
_SELF_METRICS = {
    "experiment.self_s": "experiment.run_experiment",
    "cli.self_s": "cli.main",
}

# Metrics derived from counts: metric -> (count key, time metric it is
# divided by or None, spans whose counters take the count).
_TRAIN = ("neuralnet.train",)
_COUNT_METRICS = {
    "neuralnet.steps": ("neuralnet.steps", None, _TRAIN),
    "neuralnet.step_us": ("neuralnet.steps", "neuralnet.train_s", _TRAIN),
    "neuralnet.params": ("neuralnet.params", None, _TRAIN),
    "neuralnet.train_rows_per_s": ("neuralnet.train_rows", "neuralnet.train_s", _TRAIN),
    "neuralnet.predict_rows_per_s": (
        "neuralnet.predict_rows", "neuralnet.predict_s",
        ("neuralnet.predict", "neuralnet.predict_proba"),
    ),
    "flow_data.ingest_rows_per_s": (
        "flow_data.parse_rows", "flow_data.parse_s", ("flow_data.parse_flow_csv",),
    ),
    "preprocess.smote_rows_added": (
        "preprocess.smote_rows_added", None, ("preprocess.smote_resample",),
    ),
    "feature_select.kept": (
        "feature_select.kept", None,
        ("feature_select.correlation_filter", "feature_select.mi_rank_select"),
    ),
}


def _targets_behind(metric: str) -> set[str]:
    """Wrapper targets whose loss would make `metric` undercount."""
    if metric in _SELF_METRICS:
        namespace = "nfdlm." + metric.split(".")[0]
        return {
            f"{m}.{a}" for m, a, s in WRAPPER_TARGETS if m == namespace or s == _SELF_METRICS[metric]
        }
    if metric in _COUNT_METRICS:
        _, time_metric, counted_by = _COUNT_METRICS[metric]
        behind = {f"{m}.{a}" for m, a, s in WRAPPER_TARGETS if s in counted_by}
        return behind | (_targets_behind(time_metric) if time_metric else set())
    span_names, ancestor = _TIME_METRICS[metric]
    wanted = set(span_names) | ({ancestor} if ancestor else set())
    return {f"{m}.{a}" for m, a, s in WRAPPER_TARGETS if s in wanted}


def layer_metrics(spans: Spans, missing: set[str]) -> dict[str, float | None]:
    """Per-layer seconds and counts from one traced repetition.

    A metric that rests on a missing wrapper target, or on a count its
    counter could not take, is None, never 0. `neuralnet.step_coverage` is
    the share of `train_s` the per-step times cover.
    """
    dur = spans.durations()
    own = spans.self_times()
    above = spans.ancestors()
    by_name = collections.defaultdict(list)
    for i, name in enumerate(spans.names):
        by_name[name].append(i)

    out: dict[str, float | None] = {}
    for metric, (span_names, ancestor) in _TIME_METRICS.items():
        out[metric] = float(sum(
            dur[i]
            for name in span_names
            for i in by_name[name]
            # the outermost span of its kind only, and inside the ancestor
            if not above[i] & set(span_names) and (ancestor is None or ancestor in above[i])
        ))
    for metric, span_name in _SELF_METRICS.items():
        out[metric] = float(sum(own[i] for i in by_name[span_name]))
    for metric, (key, time_metric, counted_by) in _COUNT_METRICS.items():
        count = spans.counts.get(key, 0)
        if time_metric is None:
            value = count
        elif metric == "neuralnet.step_us":
            value = 1e6 * out[time_metric] / count if count else 0.0
        else:
            value = count / out[time_metric] if out[time_metric] > 0 else 0.0
        out[metric] = None if spans.uncounted & set(counted_by) else value
    for metric in out:
        if _targets_behind(metric) & missing:
            out[metric] = None
    steps = [out[m] for m in STEP_METRICS]
    train_s = out["neuralnet.train_s"]
    if None in steps or not train_s:
        out["neuralnet.step_coverage"] = None
    else:
        out["neuralnet.step_coverage"] = sum(steps) / train_s
    return out
