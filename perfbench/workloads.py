"""The three benchmark workloads: set-up, one timed repetition, output checks.

Every input is generated from the workload seed. A repetition is a list of
operations (a CLI invocation or a bulk_prep stage); its wall time is the sum
of the operations' durations, so the output checks run between operations
without being timed. An operation fails if it raises, exits non-zero, or
fails one of its checks.
"""

from __future__ import annotations

import contextlib
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nfdlm import cli, evaluate, feature_select, flow_data, neuralnet, preprocess
from nfdlm.flow_data import SynthesisSpec
from speed import MIXED, SMALL_STEPS

# Presets and accuracy floors per training workload (preset -> floor).
MLP_PRESETS = {"FS1": 0.98, "FS2": 0.99}
LSTM_PRESETS = {"FS4": 0.98}
BULK_ACCURACY_FLOOR = 0.98
MI_K = 11
CORRELATION_THRESHOLD = 0.65

BOTIOT_PROTOCOLS = ("tcp", "udp", "icmp", "arp")


@dataclass
class Rep:
    """Outcome of one repetition."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    # held-out confusion per scored model: name -> (tp, fp, tn, fn)
    confusion: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def op(self, ok: bool, seconds: float, what: str = "") -> None:
        self.attempted += 1
        self.wall_s += seconds
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _planted_copies(spec: SynthesisSpec) -> set[str]:
    width = max(2, len(str(spec.feature_count - 1)))
    return {f"f{2 * t + 1:0{width}d}" for t in range(spec.planted_duplicate_pairs)}


def _held_out_confusion(model_path: Path, ds, seed: int):
    """Confusion counts on the split `nfdlm train --seed seed` held out."""
    work = flow_data.drop_columns(ds, [], drop_string_columns=True)
    _, test = flow_data.stratified_split(work, 0.2, seed)
    model = neuralnet.load_model(model_path)
    cm = evaluate.confusion(neuralnet.predict(model, test), test.labels)
    return cm.tp, cm.fp, cm.tn, cm.fn


class PresetWorkload:
    """`nfdlm train` per preset, `nfdlm evaluate` per model, then `nfdlm compare`
    when there are several presets."""

    def __init__(self, spec_args: tuple, presets: dict[str, float], step_coverage_floor: float,
                 speed_kernel) -> None:
        self.spec_args = spec_args
        self.presets = presets
        # Least share of neuralnet.train_s the per-step spans should cover.
        self.step_coverage_floor = step_coverage_floor
        # The speed probe's kernel closest to this workload's work.
        self.speed_kernel = speed_kernel

    def setup(self, seed: int, work: Path) -> None:
        spec = SynthesisSpec(*self.spec_args, seed=seed)
        flow_data.save_dataset(flow_data.generate_synthetic_flows(spec), work / "flows.ds")

    def measured_files(self, work: Path) -> dict[str, list[Path]]:
        return {
            "ds": [work / "flows.ds"],
            "model": [work / f"{p}.model.json" for p in self.presets],
        }

    def _cli(self, spans, rep: Rep, argv: list[str], what: str) -> bool:
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = spans.call("cli.main", cli.main, argv)
        except Exception:
            traceback.print_exc()
            code = -1
        rep.op(code == 0, spans.last_seconds, f"{what}: exit {code}")
        return code == 0

    def run(self, spans, seed: int, work: Path) -> Rep:
        rep = Rep()
        data = str(work / "flows.ds")
        spec = SynthesisSpec(*self.spec_args, seed=seed)
        trained = []
        for name, floor in self.presets.items():
            model, report = work / f"{name}.model.json", work / f"{name}.report.json"
            argv = ["train", "--data", data, "--preset", name, "--seed", str(seed),
                    "--model-out", str(model), "--report-out", str(report)]
            if not self._cli(spans, rep, argv, f"train {name}"):
                continue
            try:
                doc = json.loads(report.read_text(encoding="utf-8"))
                problems = self._check(name, floor, doc, model, spec, seed, rep)
            except Exception as exc:  # a report or model the checks cannot read
                traceback.print_exc()
                problems = [f"check raised {exc!r}"]
            trained.append(name)
            if problems:
                rep.failed += 1
                rep.errors.append(f"train {name}: " + "; ".join(problems))
        for name in trained:
            argv = ["evaluate", "--model", str(work / f"{name}.model.json"), "--data", data,
                    "--report-out", str(work / f"{name}.eval.json")]
            self._cli(spans, rep, argv, f"evaluate {name}")
        if len(self.presets) > 1:
            reports = ",".join(str(work / f"{n}.report.json") for n in self.presets)
            argv = ["compare", "--reports", reports, "--out", str(work / "compare.md")]
            if self._cli(spans, rep, argv, "compare"):
                table = (work / "compare.md").read_text(encoding="utf-8")
                if not all(f"| {n} " in table for n in self.presets):
                    rep.failed += 1
                    rep.errors.append("compare: a preset row is missing")
        return rep

    def _check(self, name, floor, doc, model, spec, seed, rep: Rep) -> list[str]:
        problems = []
        accuracy = doc["metrics"]["accuracy"]
        if accuracy < floor:
            problems.append(f"accuracy {accuracy:.4f} < {floor}")
        selector = doc["config"]["selector"]["method"]
        if selector == feature_select.MUTUAL_INFORMATION and doc["feature_count"] != MI_K:
            problems.append(f"{doc['feature_count']} features, expected {MI_K}")
        if selector == feature_select.CORRELATION:
            dropped = {d["name"] for d in doc["selection"]["dropped"]}
            if dropped != _planted_copies(spec):
                problems.append(f"correlation dropped {sorted(dropped)}")
        ds = flow_data.load_dataset(model.parent / "flows.ds")
        counts = _held_out_confusion(model, ds, seed)
        rep.confusion[name] = counts
        tp, fp, tn, fn = counts
        if (tp + tn) / sum(counts) != accuracy:
            problems.append("held-out confusion disagrees with the report's accuracy")
        return problems


class BulkPrepWorkload:
    """Ingest a Bot-IoT-shaped CSV, prepare it, and score every row.

    The scorer is a 6-6 MLP fitted for one batch-256 epoch: training stays
    about 1% of the repetition, and the scorer's held-out accuracy (about
    0.998) is a real measure of the prepared data.
    """

    SPEC = (97500, 2500, 36, 4, 6.0)
    step_coverage_floor = 0.70  # batch slicing is a fifth of its short training
    speed_kernel = MIXED

    def setup(self, seed: int, work: Path) -> None:
        spec = SynthesisSpec(*self.SPEC, seed=seed)
        ds = flow_data.generate_synthetic_flows(spec)
        rng = np.random.default_rng([seed, 1])
        order = rng.permutation(ds.row_count)
        proto = rng.integers(0, len(BOTIOT_PROTOCOLS), ds.row_count)
        header = ["pkSeqID", "stime", "proto", *ds.feature_names, "category"]
        # Numeric cells in shortest round-trip form, as
        # nfdlm.flow_data.write_flow_csv writes them, so the parse is lossless.
        line = "%d,%.6f,%s," + ",".join(["%r"] * spec.feature_count) + ",%s\n"
        with open(work / "flows.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, ds.row_count, 10_000):
                rows = order[start : start + 10_000]
                fh.write("".join(
                    line % (i + 1, 1528089600.0 + i * 0.000731, BOTIOT_PROTOCOLS[p], *values,
                            "DDoS" if label else "Normal")
                    for i, values, label, p in zip(
                        rows.tolist(), ds.matrix[rows].tolist(), ds.labels[rows].tolist(),
                        proto[rows].tolist(),
                    )
                ))

    def measured_files(self, work: Path) -> dict[str, list[Path]]:
        return {"ds": [work / "flows.ds"], "model": [work / "scorer.model.json"]}

    def run(self, spans, seed: int, work: Path) -> Rep:
        rep = Rep()
        spec = SynthesisSpec(*self.SPEC, seed=seed)
        stages = self._stages(spans, seed, spec, work, rep)
        last = "start"
        while True:
            try:
                last, ok = next(stages)
            except StopIteration:
                break
            except Exception:
                traceback.print_exc()
                rep.op(False, 0.0, f"the stage after {last} raised; the rest were skipped")
                break
            rep.op(ok, spans.last_seconds, last)
        return rep

    def _stages(self, spans, seed, spec, work, rep):
        """Yield (stage, output ok) after each timed call; the checks between
        yields are not timed."""
        csv_path, ds_path, model_path = work / "flows.csv", work / "flows.ds", work / "scorer.model.json"
        parsed = spans.call("flow_data.parse_flow_csv", flow_data.parse_flow_csv, csv_path, "category", "DDoS")
        yield "parse", parsed.row_count == spec.attack_count + spec.benign_count
        expected = flow_data.generate_synthetic_flows(spec)
        order = np.random.default_rng([seed, 1]).permutation(expected.row_count)
        dropped = spans.call("flow_data.drop_columns", flow_data.drop_columns, parsed, None, drop_string_columns=True)
        del parsed
        yield "drop", (
            dropped.feature_names == expected.feature_names
            and not dropped.strings
            and dropped.matrix.tobytes() == expected.matrix[order].tobytes()
            and np.array_equal(dropped.labels, expected.labels[order])
        )
        del expected
        spans.call("flow_data.save_dataset", flow_data.save_dataset, dropped, ds_path)
        yield "save_dataset", ds_path.exists()
        loaded = spans.call("flow_data.load_dataset", flow_data.load_dataset, ds_path)
        yield "load_dataset", _same_dataset(dropped, loaded)
        del dropped
        train_raw, test_raw = spans.call("flow_data.stratified_split", flow_data.stratified_split, loaded, 0.2, seed)
        yield "split", train_raw.row_count + test_raw.row_count == loaded.row_count
        resampled = spans.call(
            "preprocess.smote_resample", preprocess.smote_resample, train_raw,
            preprocess.SmoteConfig(k_neighbors=5, seed=seed + 1),
        )
        del train_raw
        yield "smote", int(resampled.labels.sum()) * 2 == resampled.row_count
        scaler = spans.call("preprocess.fit_scaler", preprocess.fit_scaler, resampled)
        yield "fit_scaler", scaler.column_names == resampled.feature_names
        train_scaled = spans.call("preprocess.apply_scaler", preprocess.apply_scaler, scaler, resampled)
        del resampled
        yield "apply_scaler", train_scaled.row_count > 0
        corr = spans.call(
            "feature_select.correlation_filter", feature_select.correlation_filter,
            train_scaled, CORRELATION_THRESHOLD,
        )
        yield "correlation_filter", {d.name for d in corr.dropped} == _planted_copies(spec)
        mi = spans.call("feature_select.mi_rank_select", feature_select.mi_rank_select, train_scaled, MI_K)
        yield "mi_rank_select", len(mi.kept) == MI_K
        fit_rows = spans.call("flow_data.select_features", flow_data.select_features, train_scaled, mi.kept)
        del train_scaled
        yield "select_features", fit_rows.feature_names == mi.kept
        model = neuralnet.build_mlp(mi.kept, seed=seed + 3)
        model.scaler, model.selection = scaler, mi
        cfg = neuralnet.TrainingConfig(epochs=1, batch_size=256, seed=seed + 2)
        spans.call("neuralnet.train", neuralnet.train, model, fit_rows, cfg)
        del fit_rows
        yield "train", True
        scores = spans.call("neuralnet.predict_proba", neuralnet.predict_proba, model, loaded)
        yield "score", scores.shape == (loaded.row_count,)
        spans.call("neuralnet.save_model", neuralnet.save_model, model, model_path)
        yield "save_model", model_path.exists()
        reloaded = spans.call("neuralnet.load_model", neuralnet.load_model, model_path)
        yield "load_model", reloaded.input_features == model.input_features
        rescored = spans.call("neuralnet.predict_proba", neuralnet.predict_proba, reloaded, loaded)
        yield "rescore", rescored.tobytes() == scores.tobytes()
        preds = spans.call("neuralnet.predict", neuralnet.predict, reloaded, test_raw)
        cm = evaluate.confusion(preds, test_raw.labels)
        rep.confusion["scorer"] = (cm.tp, cm.fp, cm.tn, cm.fn)
        yield "score_held_out", (cm.tp + cm.tn) / cm.total >= BULK_ACCURACY_FLOOR


def _same_dataset(a, b) -> bool:
    return (
        [(c.name, c.kind) for c in a.columns] == [(c.name, c.kind) for c in b.columns]
        and a.matrix.tobytes() == b.matrix.tobytes()
        and np.array_equal(a.labels, b.labels)
        and a.strings == b.strings
    )


WORKLOADS = {
    # Batch-20 steps are almost all of mlp_train; lstm_train mixes larger
    # products with them.
    "mlp_train": PresetWorkload((20000, 500, 30, 5, 6.0), MLP_PRESETS, 0.85, SMALL_STEPS),
    "lstm_train": PresetWorkload((2500, 63, 30, 5, 6.0), LSTM_PRESETS, 0.90, MIXED),
    "bulk_prep": BulkPrepWorkload(),
}
