"""Preset integrity, the end-to-end runner, comparison tables, and the CLI."""

from __future__ import annotations

import copy
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nfdlm as nf
from nfdlm import cli, neuralnet
from nfdlm.cli import main
from nfdlm.experiment import PRESET_NAMES
from nfdlm.flow_data import NUMERIC

from conftest import count_mutants_that_load, traced_peak

FIXTURES = Path(__file__).parent / "fixtures"

SMALL_SPEC = nf.SynthesisSpec(
    attack_count=2000,
    benign_count=100,
    feature_count=12,
    planted_duplicate_pairs=2,
    class_separation=6.0,
    seed=3,
)


@pytest.fixture(scope="module")
def small_ds():
    return nf.generate_synthetic_flows(SMALL_SPEC)


def strip_timings(doc: dict) -> dict:
    """Remove wall-clock fields so reports can be compared byte for byte."""
    doc = copy.deepcopy(doc)
    doc["phase_seconds"] = None
    for entry in doc["history"]:
        entry["seconds"] = None
    return doc


class TestPresets:
    def test_frozen_hyperparameters(self):
        expected = {
            "BASE": ("none", "mlp", 20, 10),
            "FS1": ("correlation", "mlp", 20, 20),
            "FS2": ("mutual_information", "mlp", 20, 20),
            "FS3": ("correlation", "lstm", 32, 50),
            "FS4": ("mutual_information", "lstm", 32, 50),
        }
        assert set(PRESET_NAMES) == set(expected)
        for name, (method, classifier, batch, epochs) in expected.items():
            cfg = nf.preset(name, seed=0)
            assert cfg.name == name
            assert cfg.selector.method == method
            assert cfg.classifier == classifier
            assert cfg.training.batch_size == batch
            assert cfg.training.epochs == epochs
        assert nf.preset("FS1", seed=0).selector.threshold == 0.65
        assert nf.preset("FS3", seed=0).selector.threshold == 0.65
        assert nf.preset("FS2", seed=0).selector.k == 11
        assert nf.preset("FS4", seed=0).selector.k == 11

    def test_override_reclassifies_as_custom(self):
        assert nf.preset("FS2", seed=0, epochs=5).name == "custom"
        assert nf.preset("FS2", seed=0, epochs=20).name == "FS2"
        # Seeds, split, and SMOTE k are run parameters, not preset identity.
        assert nf.preset("FS2", seed=5, split_fraction=0.3, smote_k=3).name == "FS2"

    def test_derived_sub_seeds(self):
        cfg = nf.preset("FS2", seed=100)
        assert cfg.seed == 100
        assert cfg.smote.seed == 101
        assert cfg.training.seed == 102

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            nf.preset("FS9", seed=0)


class TestRunExperiment:
    def test_fs2_pipeline_end_to_end(self, small_ds, tmp_path):
        cfg = nf.preset("FS2", seed=11)
        report = nf.run_experiment(
            cfg, small_ds, source="synthetic", model_path=tmp_path / "m.json"
        )
        assert report.config["name"] == "FS2"
        assert report.config["selector"]["method"] == "mutual_information"
        assert report.config["selector"]["k"] == 11
        assert report.config["classifier"] == "mlp"
        assert report.feature_count == 11
        assert report.metrics.accuracy >= 0.99
        assert report.metrics_split == "test"
        assert len(report.history) == cfg.training.epochs
        assert report.provenance["rows_total"] == 2100
        assert report.provenance["class_counts"] == {"benign": 100, "attack": 2000}
        assert report.provenance["rows_train_pre_smote"] == 1680
        assert report.provenance["rows_train_post_smote"] == 3200
        assert report.provenance["rows_test"] == 420
        assert (tmp_path / "m.json").exists()
        model = nf.load_model(tmp_path / "m.json")
        assert model.input_features == report.selection.kept

    def test_report_scores_like_the_saved_model(self, small_ds, tmp_path):
        # The pipeline's held-out metrics are those of `nfdlm evaluate`'s
        # path: the loaded model scoring raw test rows through its scaler.
        cfg = nf.preset("FS2", seed=13, epochs=2)
        report = nf.run_experiment(cfg, small_ds, model_path=tmp_path / "m.json")
        _, test = nf.stratified_split(small_ds, cfg.split_fraction, cfg.seed)
        preds = nf.predict(nf.load_model(tmp_path / "m.json"), test)
        assert report.metrics == nf.metrics(nf.confusion(preds, test.labels))

    def test_fs1_drops_planted_duplicates(self, small_ds):
        report = nf.run_experiment(nf.preset("FS1", seed=4), small_ds)
        assert report.config["selector"]["method"] == "correlation"
        dropped = {d.name for d in report.selection.dropped}
        assert dropped == {"f01", "f03"}
        assert report.feature_count == 10

    def test_lstm_preset_wires_through(self):
        # Desk-sized wiring check; the accuracy bar belongs to the
        # acceptance suite, which runs the full surrogate.
        ds = nf.generate_synthetic_flows(nf.SynthesisSpec(400, 50, 6, 1, 6.0, seed=6))
        report = nf.run_experiment(nf.preset("FS3", seed=6, smote_k=3), ds)
        assert report.config["classifier"] == "lstm"
        assert report.metrics.accuracy >= 0.8
        assert report.history[-1].loss < report.history[0].loss
        assert len(report.history) == 50

    def test_reports_identical_apart_from_timings(self, small_ds):
        cfg = nf.preset("FS2", seed=21)
        a = nf.run_experiment(cfg, small_ds, source="x")
        b = nf.run_experiment(cfg, small_ds, source="x")
        doc_a = json.dumps(strip_timings(a.to_dict()), sort_keys=True)
        doc_b = json.dumps(strip_timings(b.to_dict()), sort_keys=True)
        assert doc_a == doc_b

    def test_model_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """FS2 and FS4, one epoch each, in a child process with one BLAS thread
        and in one with two. The split holds 1,050 rows, so scoring runs a
        full block."""
        script = (
            "import nfdlm as nf\n"
            "ds = nf.generate_synthetic_flows(nf.SynthesisSpec(5000, 250, 30, 5, 6.0, seed=1))\n"
            "for name in ('FS2', 'FS4'):\n"
            "    cfg = nf.preset(name, seed=1, epochs=1)\n"
            "    report = nf.run_experiment(cfg, ds, model_path=name + '.model.json')\n"
            "    nf.save_report(report, name + '.report.json')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(nf.__file__).parents[1])}
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                 threads)
            subprocess.run([sys.executable, "-c", script], cwd=tmp_path / threads, check=True,
                           env={**env, **blas}, timeout=300)
        for name in ("FS2", "FS4"):
            model = f"{name}.model.json"
            assert (tmp_path / "1" / model).read_bytes() == (tmp_path / "2" / model).read_bytes()
            reports = [json.loads((tmp_path / t / f"{name}.report.json").read_text()) for t in "12"]
            assert reports[0]["provenance"]["rows_test"] == 1050
            assert strip_timings(reports[0]) == strip_timings(reports[1])

    def test_fitted_parameters_ignore_test_rows(self, small_ds, tmp_path):
        cfg = nf.preset("FS2", seed=31)
        # The split depends only on labels and seed, so a carrier dataset
        # whose single feature is the row index reveals the test partition.
        carrier = nf.FlowDataset(
            [nf.ColumnDescriptor("idx", NUMERIC)],
            np.arange(small_ds.row_count, dtype=float)[:, None],
            labels=small_ds.labels,
        )
        _, carrier_test = nf.stratified_split(carrier, cfg.split_fraction, cfg.seed)
        test_rows = carrier_test.matrix[:, 0].astype(int)

        perturbed_matrix = small_ds.matrix.copy()
        perturbed_matrix[test_rows] = perturbed_matrix[test_rows] * -3.0 + 1.5
        perturbed = nf.FlowDataset(
            list(small_ds.columns), perturbed_matrix, labels=small_ds.labels
        )

        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        rep_a = nf.run_experiment(cfg, small_ds, model_path=path_a)
        rep_b = nf.run_experiment(cfg, perturbed, model_path=path_b)
        assert rep_a.selection == rep_b.selection
        model_a, model_b = nf.load_model(path_a), nf.load_model(path_b)
        assert (model_a.scaler.means == model_b.scaler.means).all()
        assert (model_a.scaler.stdevs == model_b.scaler.stdevs).all()
        # Metrics differ, of course: the test rows moved.
        assert rep_a.metrics.accuracy != rep_b.metrics.accuracy

    def test_smote_before_split_mode(self, small_ds):
        cfg = nf.preset("FS2", seed=41, smote_before_split=True)
        report = nf.run_experiment(cfg, small_ds)
        assert report.provenance["rows_train_pre_smote"] is None
        assert report.provenance["rows_train_post_smote"] + report.provenance[
            "rows_test"
        ] == 2 * 2000
        assert report.metrics.accuracy >= 0.99

    @pytest.mark.parametrize("save", [True, False], ids=["with_model", "without_model"])
    def test_every_stage_is_timed(self, small_ds, tmp_path, save):
        model_path = tmp_path / "m.json" if save else None
        report = nf.run_experiment(
            nf.preset("BASE", seed=51, epochs=1), small_ds, model_path=model_path
        )
        stages = {"drop", "split", "smote", "scale", "selection", "training", "evaluation"}
        assert set(report.phase_seconds) == (stages | {"save"} if save else stages)
        assert all(seconds >= 0.0 for seconds in report.phase_seconds.values())

    @pytest.mark.parametrize("smote_first", [False, True], ids=["split_first", "smote_first"])
    @pytest.mark.parametrize("name", ["FS1", "FS4"])
    def test_memory_is_bounded_by_the_training_matrix(self, surrogate, name, smote_first):
        # Each stage's input is released once its output exists, and scoring
        # runs in blocks, so beyond the input the peak is two training-sized
        # matrices (while scaling, or the correlation filter's centred copy)
        # and the raw test rows.
        cfg = nf.preset(name, seed=1, epochs=1, smote_before_split=smote_first)
        report, peak = traced_peak(nf.run_experiment, cfg, surrogate)
        training = report.provenance["rows_train_post_smote"] * surrogate.matrix[0].nbytes
        assert peak <= 3 * training

    @pytest.mark.parametrize("name", ["BASE", "FS2"])
    def test_float64_training_rows_are_freed_before_the_first_step(
        self, surrogate, name, monkeypatch
    ):
        # train holds the only reference to the selected float64 rows and drops
        # it once they are cast. So beside the raw test rows, the first step
        # sees the float32 rows and their shuffled copy (together the size of
        # the float64 rows) and under 32 bytes a row of labels, shuffled
        # labels, step probabilities and permutation; not the float64 rows too.
        forward, live = neuralnet._forward_cached, []

        def first_step(*args):
            if not live:
                live.append(tracemalloc.get_traced_memory()[0])
            return forward(*args)

        monkeypatch.setattr(neuralnet, "_forward_cached", first_step)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = nf.run_experiment(nf.preset(name, seed=1, epochs=1), surrogate)
        finally:
            if started:
                tracemalloc.stop()
        rows = report.provenance["rows_train_post_smote"]
        training = rows * report.feature_count * 8
        test = report.provenance["rows_test"] * surrogate.matrix[0].nbytes
        assert live[0] - before - test <= training + 32 * rows

    @pytest.mark.parametrize("stage", ["split", "selection"])
    def test_stage_name_attached_to_errors(self, stage):
        # One class cannot be split; MI k=11 cannot be met by two features.
        labels = np.ones(50, dtype=int) if stage == "split" else np.arange(50) % 2
        two_features = nf.FlowDataset(
            [nf.ColumnDescriptor("a", NUMERIC), nf.ColumnDescriptor("b", NUMERIC)],
            np.random.default_rng(0).standard_normal((50, 2)),
            labels=labels,
        )
        with pytest.raises(nf.DataError, match=f"^{stage}:"):
            nf.run_experiment(nf.preset("FS2", seed=0), two_features)


class TestCompare:
    def fake_report(self, name, accuracy, seconds, features, classifier, selector):
        return {
            "config": {
                "name": name,
                "classifier": classifier,
                "selector": selector,
            },
            "metrics": {"accuracy": accuracy},
            "phase_seconds": {"training": seconds},
            "feature_count": features,
        }

    def selector_dict(self, method, **kw):
        return {"method": method, "threshold": kw.get("threshold"), "k": kw.get("k")}

    def test_four_rows_in_name_order(self):
        reports = [
            self.fake_report("FS3", 0.9989, 2395, 13, "lstm", self.selector_dict("correlation", threshold=0.65)),
            self.fake_report("FS1", 0.9853, 1029, 9, "mlp", self.selector_dict("correlation", threshold=0.65)),
            self.fake_report("FS4", 0.9984, 2601, 11, "lstm", self.selector_dict("mutual_information", k=11)),
            self.fake_report("FS2", 0.9999, 944, 11, "mlp", self.selector_dict("mutual_information", k=11)),
        ]
        table = nf.compare(reports)
        assert [r.name for r in table.rows] == ["FS1", "FS2", "FS3", "FS4"]
        markdown = table.to_markdown()
        assert "| Model" in markdown and "| FS2" in markdown
        assert "mutual_information(k=11)" in markdown
        doc = json.loads(table.to_json())
        assert len(doc["rows"]) == 4
        assert doc["reference"]["FS2"]["train_seconds"] == 944

    def test_single_report(self, small_ds):
        report = nf.run_experiment(nf.preset("BASE", seed=71), small_ds)
        table = nf.compare([report.to_dict()])
        assert len(table.rows) == 1
        assert table.rows[0].name == "BASE"
        assert table.rows[0].features == 12
        assert table.rows[0].selector == "none"

    def test_empty_errors(self):
        with pytest.raises(nf.DataError, match="at least one"):
            nf.compare([])


class TestCli:
    def test_full_workflow(self, tmp_path, capsys):
        csv = tmp_path / "flows.csv"
        data = tmp_path / "flows.ds"
        model = tmp_path / "model.json"
        report = tmp_path / "report.json"
        selection = tmp_path / "selection.json"
        eval_report = tmp_path / "eval.json"
        table = tmp_path / "table.md"

        assert main([
            "synth", "--attack", "2000", "--benign", "100", "--features", "12",
            "--dupes", "2", "--separation", "6", "--seed", "3", "--out", str(csv),
        ]) == 0
        assert main([
            "ingest", "--input", str(csv), "--label-column", "category",
            "--positive", "DDoS", "--drop", "", "--out", str(data),
        ]) == 0
        assert main([
            "select", "--data", str(data), "--method", "correlation",
            "--threshold", "0.65", "--out", str(selection),
        ]) == 0
        sel = json.loads(selection.read_text())
        assert {d["name"] for d in sel["dropped"]} == {"f01", "f03"}
        assert main([
            "train", "--data", str(data), "--preset", "FS2", "--seed", "11",
            "--model-out", str(model), "--report-out", str(report),
        ]) == 0
        rep = json.loads(report.read_text())
        assert rep["config"]["name"] == "FS2"
        assert rep["metrics"]["accuracy"] >= 0.99
        assert main([
            "evaluate", "--model", str(model), "--data", str(data),
            "--report-out", str(eval_report),
        ]) == 0
        ev = json.loads(eval_report.read_text())
        assert ev["metrics"]["accuracy"] >= 0.99
        assert main([
            "compare", "--reports", str(report), "--out", str(table),
            "--json-out", str(tmp_path / "table.json"),
        ]) == 0
        assert "| FS2" in table.read_text()
        out = capsys.readouterr().out
        assert "ingested 2100 rows" in out
        fields = re.search(
            r"\(parsed in (\d+\.\d\d) s, (\d+) rows/s, peak RSS (\d+\.\d) MB\)", out
        )
        assert fields and int(fields[2]) > 0 and float(fields[3]) > 0.0

    def test_readme_commands_parse(self):
        """Every nfdlm command in README's CLI block, joined across backslash
        continuations, parses with the CLI's parser; none is run."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("nfdlm ")]
        assert {argv[0] for argv in commands} == set(cli._COMMANDS)
        parser = cli._build_parser()
        for argv in commands:
            parser.parse_args(argv)

    def test_synthetic_csv_matches_library_output(self, tmp_path):
        csv = tmp_path / "flows.csv"
        main([
            "synth", "--attack", "50", "--benign", "20", "--features", "4",
            "--separation", "2", "--seed", "9", "--out", str(csv),
        ])
        parsed = nf.parse_flow_csv(csv, "category", "DDoS")
        direct = nf.generate_synthetic_flows(nf.SynthesisSpec(50, 20, 4, 0, 2.0, seed=9))
        assert (parsed.matrix == direct.matrix).all()
        assert (parsed.labels == direct.labels).all()

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--data", "x.ds"])  # missing required flags
        assert excinfo.value.code == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_data_error_exits_2(self, tmp_path, capsys):
        rc = main([
            "ingest", "--input", str(tmp_path / "absent.csv"), "--out",
            str(tmp_path / "out.ds"),
        ])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_train_rejects_foreign_dataset_file(self, tmp_path):
        bogus = tmp_path / "bogus.ds"
        bogus.write_text("not a dataset\n", encoding="utf-8")
        rc = main([
            "train", "--data", str(bogus), "--preset", "FS1", "--seed", "1",
            "--model-out", str(tmp_path / "m.json"),
            "--report-out", str(tmp_path / "r.json"),
        ])
        assert rc == 2

    def test_version_1_dataset_file_says_to_ingest_again(self, tmp_path, capsys):
        self.assert_says_to_ingest_again(tmp_path, capsys, 1)

    def test_version_2_dataset_file_says_to_ingest_again(self, tmp_path, capsys):
        self.assert_says_to_ingest_again(tmp_path, capsys, 2)

    def assert_says_to_ingest_again(self, tmp_path, capsys, version):
        data = tmp_path / "flows.ds"
        data.write_bytes((FIXTURES / f"flows_v{version}.ds").read_bytes())
        rc = main([
            "train", "--data", str(data), "--preset", "FS1", "--seed", "1",
            "--model-out", str(tmp_path / "m.json"),
            "--report-out", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"nfdlm: data error: {data}: dataset format version {version} is no longer read; "
            "run nfdlm ingest again to rebuild it\n"
        )

    @pytest.mark.parametrize("breakage,reason", [
        ("missing_kind", "lacks key 'kind'"),
        ("narrow_middle_layer", "layer 2 takes 5 inputs but gets 6"),
        ("nan_scaler_mean", "scaler means and stdevs must be finite"),
        ("subnormal_scaler_stdev", "scaled inputs are not finite"),
        ("hidden_sigmoid_layer", "hidden dense layers must be relu"),
        ("string_input_features", "'input_features' must be a list of strings"),
        ("string_init_seed", "'init_seed' must be an integer or null"),
        ("mlp_kind_on_lstm", "m.json: bad model file: model kind must be 'lstm' for these layers, "
                             "not 'mlp'"),
        ("fractional_hidden_size", "layer 2 'hidden_size' must be an integer"),
        ("boolean_hidden_size", "layer 1 'hidden_size' must be an integer"),
        ("boolean_weight", "layer 1 'weights' must be a list of lists of numbers"),
        ("string_column_names", "scaler 'column_names' must be a list of strings"),
        ("fractional_epochs", "training_config 'epochs' must be an integer"),
        ("boolean_batch_size", "training_config 'batch_size' must be an integer"),
        ("unknown_training_key", "training_config has unknown key 'momentum'"),
        ("huge_weights", "model outputs are not finite"),
        ("missing_dtype", "lacks key 'dtype'"),
        ("float16_dtype", "'dtype' must be \"float32\" or \"float64\""),
        ("numeric_dtype", "'dtype' must be \"float32\" or \"float64\""),
        ("float32_overflow", "model parameters must be finite"),
        ("dense_lstm_activation", "layer 1 'activation' must be \"relu\" or \"sigmoid\""),
        ("dense_tanh_activation", "layer 1 'activation' must be \"relu\" or \"sigmoid\""),
        ("lstm_hidden_size_mismatch", "layer 2 weights must have 3 * hidden_size = 9 rows, not 6"),
        ("infinite_learning_rate", "bad model file: learning_rate must be positive and finite"),
        ("huge_learning_rate", "bad model file: learning_rate must be positive and finite"),
    ], ids=["missing_kind", "narrow_middle_layer", "nan_scaler_mean", "subnormal_scaler_stdev",
            "hidden_sigmoid_layer", "string_input_features", "string_init_seed",
            "mlp_kind_on_lstm", "fractional_hidden_size", "boolean_hidden_size", "boolean_weight",
            "string_column_names", "fractional_epochs", "boolean_batch_size",
            "unknown_training_key", "huge_weights", "missing_dtype", "float16_dtype",
            "numeric_dtype", "float32_overflow", "dense_lstm_activation", "dense_tanh_activation",
            "lstm_hidden_size_mismatch", "infinite_learning_rate", "huge_learning_rate"])
    def test_hostile_model_file_exits_2(self, tmp_path, capsys, small_ds, breakage, reason):
        data, model = tmp_path / "flows.ds", tmp_path / "m.json"
        nf.save_dataset(small_ds, data)
        names = small_ds.feature_names
        # Layer 1 of the LSTM has hidden size 1, so int(true) would fit it;
        # layer 2 has 2, so int(2.9) would.
        lstm = breakage in ("mlp_kind_on_lstm", "fractional_hidden_size", "boolean_hidden_size",
                            "lstm_hidden_size_mismatch")
        built = nf.build_lstm(names, hidden=(1, 2), seed=0) if lstm else nf.build_mlp(names, seed=0)
        nf.save_model(built, model)
        doc = json.loads(model.read_text(encoding="utf-8"))
        width = len(names)
        training = {"epochs": 2, "batch_size": 20, "learning_rate": 0.001, "seed": 0}
        if breakage == "missing_kind":
            del doc["kind"]
        elif breakage == "mlp_kind_on_lstm":
            doc["kind"] = "mlp"
        elif breakage == "fractional_hidden_size":
            doc["layers"][1]["hidden_size"] = 2.9
        elif breakage == "boolean_hidden_size":
            doc["layers"][0]["hidden_size"] = True
        elif breakage == "lstm_hidden_size_mismatch":  # 6 rows fit 2 units, not 3
            doc["layers"][1]["hidden_size"] = 3
        elif breakage in ("dense_lstm_activation", "dense_tanh_activation"):
            doc["layers"][0]["activation"] = breakage.split("_")[1]
        elif breakage == "boolean_weight":
            doc["layers"][0]["weights"][0][0] = True
        elif breakage == "string_column_names":
            joined = "".join(names)  # list() of it would give one name per character
            doc["scaler"] = {"column_names": joined, "means": [0.0] * len(joined),
                             "stdevs": [1.0] * len(joined)}
        elif breakage == "fractional_epochs":
            doc["training_config"] = {**training, "epochs": 2.5}
        elif breakage == "boolean_batch_size":
            doc["training_config"] = {**training, "batch_size": True}
        elif breakage == "unknown_training_key":
            doc["training_config"] = {**training, "momentum": 0.5}
        elif breakage == "infinite_learning_rate":  # json writes it as Infinity
            doc["training_config"] = {**training, "learning_rate": float("inf")}
        elif breakage == "huge_learning_rate":  # an integer beyond any float
            doc["training_config"] = {**training, "learning_rate": 10**400}
        elif breakage in ("nan_scaler_mean", "subnormal_scaler_stdev"):
            # A 1e-320 stdev loads, but scales every nonzero value to +-inf.
            nan_mean = breakage == "nan_scaler_mean"
            doc["scaler"] = {
                "column_names": small_ds.feature_names,
                "means": [float("nan") if nan_mean else 0.0] + [0.0] * (width - 1),
                "stdevs": [1.0 if nan_mean else 1e-320] + [1.0] * (width - 1),
            }
        elif breakage == "hidden_sigmoid_layer":
            doc["layers"][0]["activation"] = "sigmoid"
        elif breakage == "string_input_features":
            doc["input_features"] = "abc"
        elif breakage == "string_init_seed":
            doc["init_seed"] = "x"
        elif breakage == "missing_dtype":
            del doc["dtype"]
        elif breakage == "float16_dtype":
            doc["dtype"] = "float16"
        elif breakage == "numeric_dtype":
            doc["dtype"] = 32
        elif breakage == "float32_overflow":  # finite in float64, inf once cast
            assert doc["dtype"] == "float32"
            doc["layers"][0]["weights"][0][0] = 1e39
        elif breakage == "huge_weights":  # finite, but every row's output sums inf - inf
            doc["dtype"] = "float64"  # 1e308 overflows float32 at load
            *hidden, out = doc["layers"]
            for layer in hidden:
                layer["weights"] = [[1e308] * len(row) for row in layer["weights"]]
                layer["bias"] = [1e308] * len(layer["bias"])
            out["weights"] = [[1e308 * (-1) ** j for j in range(len(row))]
                              for row in out["weights"]]
        else:
            middle = doc["layers"][1]
            middle["weights"] = [row[:-1] for row in middle["weights"]]
        model.write_text(json.dumps(doc), encoding="utf-8")
        rc = main([
            "evaluate", "--model", str(model), "--data", str(data),
            "--report-out", str(tmp_path / "eval.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("nfdlm: data error: ") and err.count("\n") == 1
        assert reason in err

    @pytest.mark.parametrize("field", ["weight", "bias", "scaler_mean", "scaler_stdev",
                                       "selection_score", "v1_gate_weight", "v1_gate_bias"])
    def test_huge_integer_in_model_file_exits_2(self, tmp_path, capsys, small_ds, field):
        # JSON integers are exact, so 10**400 parses; every number the loader
        # casts to a float must fail as a bad model file, not an OverflowError.
        data, model = tmp_path / "flows.ds", tmp_path / "m.json"
        nf.save_dataset(small_ds, data)
        names = small_ds.feature_names
        if field.startswith("v1_"):  # a v1 LSTM's gates are read without a dtype
            doc = json.loads((FIXTURES / "lstm_v1.model.json").read_text(encoding="utf-8"))
            gates = doc["layers"][0]
            if field == "v1_gate_weight":
                gates["w_in"][0][0] = 10**400
            else:
                gates["b_cand"][0] = 10**400
        else:
            nf.save_model(nf.build_mlp(names, seed=0), model)
            doc = json.loads(model.read_text(encoding="utf-8"))
            doc["scaler"] = {"column_names": names, "means": [0.0] * len(names),
                             "stdevs": [1.0] * len(names)}
            doc["selection"] = {"method": "mutual_information", "parameter": len(names),
                                "kept": [{"name": n, "score": 0.5} for n in names],
                                "dropped": []}
            if field == "weight":
                doc["layers"][0]["weights"][0][0] = 10**400
            elif field == "bias":
                doc["layers"][0]["bias"][0] = 10**400
            elif field == "scaler_mean":
                doc["scaler"]["means"][0] = 10**400
            elif field == "scaler_stdev":
                doc["scaler"]["stdevs"][0] = 10**400
            else:
                doc["selection"]["kept"][0]["score"] = 10**400
        model.write_text(json.dumps(doc), encoding="utf-8")
        rc = main([
            "evaluate", "--model", str(model), "--data", str(data),
            "--report-out", str(tmp_path / "eval.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"nfdlm: data error: {model}: bad model file: ")
        assert "too large" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("breakage,reason", [
        ("feature_names", "lacks key 'feature_names'"),
        ("row_count", "lacks key 'row_count'"),
        ("feature_names_not_strings", "'feature_names' must be a list of strings"),
        ("duplicate_feature_name", "bad dataset file: duplicate column names"),
        ("negative_row_count", "'row_count' must be a non-negative integer"),
        ("huge_row_count", "'row_count' must be a non-negative integer below 2**60"),
        ("format_version_2", "dataset format version 2 is no longer read; "
                             "run nfdlm ingest again to rebuild it"),
        ("format_version_4", "'format_version' must be 3"),
        ("boolean_format_version", "'format_version' must be 3"),
        ("label_byte_2", "bad dataset file: labels must be 0 or 1"),
        ("short_labels", "payload size mismatch"),
        ("long_labels", "payload size mismatch"),
    ], ids=["feature_names", "row_count", "feature_names_not_strings", "duplicate_feature_name",
            "negative_row_count", "huge_row_count", "format_version_2", "format_version_4",
            "boolean_format_version", "label_byte_2", "short_labels", "long_labels"])
    def test_bad_dataset_header_exits_2(self, tmp_path, capsys, small_ds, breakage, reason):
        data = tmp_path / "flows.ds"
        nf.save_dataset(small_ds, data)
        head, payload = data.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        if breakage == "negative_row_count":
            header["row_count"] = -1
        elif breakage == "huge_row_count":  # no feature: only labels to size
            header.update(row_count=10**30, feature_names=[])
            payload = b""
        elif breakage == "feature_names_not_strings":
            header["feature_names"][1] = 1
        elif breakage == "duplicate_feature_name":
            header["feature_names"][1] = header["feature_names"][0]
        elif "format_version" in breakage:
            header["format_version"] = {"format_version_2": 2, "format_version_4": 4}.get(breakage, True)
        elif breakage == "label_byte_2":
            payload = payload[:-1] + b"\x02"
        elif breakage == "short_labels":
            payload = payload[:-1]
        elif breakage == "long_labels":
            payload += b"\x00"
        else:
            del header[breakage]
        data.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        rc = main([
            "select", "--data", str(data), "--method", "mi", "--out", str(tmp_path / "s.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("nfdlm: data error: ") and err.count("\n") == 1
        assert reason in err

    @pytest.mark.parametrize("breakage,reason", [
        ("missing_selector", "lacks key 'config.selector'"),
        ("json_list", "must hold a JSON object"),
        ("deep_nesting", "report file is not valid JSON"),
        ("long_integer", "report file is not valid JSON"),
        ("nan_accuracy", "'metrics.accuracy' must be a number in [0, 1]"),
        ("accuracy_above_one", "'metrics.accuracy' must be a number in [0, 1]"),
        ("infinite_seconds", "'phase_seconds.training' must be a finite non-negative number"),
        ("negative_seconds", "'phase_seconds.training' must be a finite non-negative number"),
        ("huge_integer_seconds",
         "'phase_seconds.training' must be a finite non-negative number"),
    ], ids=["missing_selector", "json_list", "deep_nesting", "long_integer", "nan_accuracy",
            "accuracy_above_one", "infinite_seconds", "negative_seconds", "huge_integer_seconds"])
    def test_unreadable_report_exits_2(self, tmp_path, capsys, breakage, reason):
        report = tmp_path / "r.json"
        # Every key compare reads, each valid, for the breakages of one value.
        valid = {"config": {"name": "FS2", "classifier": "mlp",
                            "selector": {"method": "mutual_information", "threshold": None,
                                         "k": 11}},
                 "metrics": {"accuracy": 0.99}, "phase_seconds": {"training": 1.5},
                 "feature_count": 11}
        values = {"nan_accuracy": ("metrics", "accuracy", float("nan")),
                  "accuracy_above_one": ("metrics", "accuracy", 1.5),
                  "infinite_seconds": ("phase_seconds", "training", float("inf")),
                  "negative_seconds": ("phase_seconds", "training", -0.5),
                  # Beyond any float: compared as it is, since float() of it overflows.
                  "huge_integer_seconds": ("phase_seconds", "training", 10**400)}
        if breakage in values:
            section, key, value = values[breakage]
            valid[section][key] = value
            text = json.dumps(valid)  # NaN and Infinity, as Python's json writes them
        elif breakage == "missing_selector":
            text = json.dumps({"config": {"name": "FS2"}, "metrics": {"accuracy": 0.99}})
        elif breakage == "json_list":
            text = json.dumps([{"config": {"name": "FS2"}}])
        elif breakage == "deep_nesting":
            text = "[" * 100_000 + "]" * 100_000
        else:  # more digits than Python converts to an int by default
            text = '{"feature_count": ' + "9" * 5000 + "}"
        report.write_text(text, encoding="utf-8")
        rc = main(["compare", "--reports", str(report), "--out", str(tmp_path / "t.md")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("nfdlm: data error: ") and err.count("\n") == 1
        assert reason in err
        assert f"{report}: report file" in err

    @pytest.mark.parametrize("key, value, wanted", [
        ("config.selector.threshold", float("nan"), "a number in (0, 1) or null"),
        ("config.selector.threshold", 0.0, "a number in (0, 1) or null"),
        ("config.selector.threshold", 1, "a number in (0, 1) or null"),
        ("config.selector.threshold", -10**400, "a number in (0, 1) or null"),
        ("config.selector.k", 0, "an integer of at least 1 or null"),
        ("config.selector.k", -3, "an integer of at least 1 or null"),
        ("feature_count", -3, "a non-negative integer"),
        ("feature_count", -10**400, "a non-negative integer"),
    ], ids=["nan_threshold", "zero_threshold", "threshold_one", "huge_negative_threshold",
            "zero_k", "negative_k", "negative_feature_count", "huge_negative_feature_count"])
    def test_out_of_range_selector_or_feature_count_exits_2(self, tmp_path, capsys, key, value,
                                                            wanted):
        # Thresholds are in correlation_filter's (0, 1), k is at least 1 and
        # feature counts are not negative; a huge integer is compared as it is.
        report = tmp_path / "r.json"
        doc = {"config": {"name": "FS1", "classifier": "mlp",
                          "selector": {"method": "correlation", "threshold": 0.9, "k": 1}},
               "metrics": {"accuracy": 0.9}, "phase_seconds": {"training": 1.0},
               "feature_count": 0}
        report.write_text(json.dumps(doc), encoding="utf-8")
        assert nf.load_report(report) == doc  # the edges that stay in range
        *parents, last = key.split(".")
        section = doc
        for name in parents:
            section = section[name]
        section[last] = value
        report.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(nf.DataError, match=re.escape(f"'{key}' must be {wanted}")):
            nf.load_report(report)
        rc = main(["compare", "--reports", str(report), "--out", str(tmp_path / "t.md")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("nfdlm: data error: ") and err.count("\n") == 1
        assert f"{report}: report file '{key}' must be {wanted}" in err
        assert not (tmp_path / "t.md").exists()

    def test_mutated_reports_load_or_fail_as_data_error(self, tmp_path, small_ds):
        path = tmp_path / "r.json"
        nf.save_report(nf.run_experiment(nf.preset("FS2", seed=1, epochs=1), small_ds), path)

        def load_and_tabulate(path):
            nf.compare([nf.load_report(path)]).to_markdown()

        loaded = count_mutants_that_load(path.read_bytes(), path, load_and_tabulate, 13, 2000)
        assert 0 < loaded < 2000

    @pytest.mark.parametrize("bad", ["directory", "invalid_utf8"])
    @pytest.mark.parametrize("command", [
        "ingest --input", "train --data", "select --data", "evaluate --model", "evaluate --data",
        "compare --reports",
    ])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, small_ds, command, bad):
        target, out = tmp_path / "input", tmp_path / "out"
        if bad == "directory":
            target.mkdir()
        else:
            target.write_bytes(b"\xff\xfe\xfd\n\xc3\x28\n")
        data, model = tmp_path / "flows.ds", tmp_path / "m.json"
        nf.save_dataset(small_ds, data)
        nf.save_model(nf.build_mlp(small_ds.feature_names, seed=0), model)
        argv = {
            "ingest --input": ["ingest", "--input", target, "--out", out],
            "train --data": ["train", "--data", target, "--preset", "BASE", "--seed", "1",
                             "--model-out", out, "--report-out", out],
            "select --data": ["select", "--data", target, "--method", "mi", "--out", out],
            "evaluate --model": ["evaluate", "--model", target, "--data", data, "--report-out", out],
            "evaluate --data": ["evaluate", "--model", model, "--data", target, "--report-out", out],
            "compare --reports": ["compare", "--reports", target, "--out", out],
        }[command]
        assert main([str(arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nfdlm: data error: ") and err.count("\n") == 1
        assert str(target) in err
        assert not out.exists()

    @pytest.mark.parametrize("separation", ["nan", "inf"])
    def test_non_finite_separation_exits_2(self, tmp_path, capsys, separation):
        out = tmp_path / "flows.csv"
        assert main(["synth", "--attack", "5", "--benign", "5", "--features", "2", "--seed", "1",
                     "--separation", separation, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nfdlm: data error: ") and err.count("\n") == 1
        assert "class_separation" in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["synth_missing_dir", "train_missing_dir", "synth_onto_dir"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, small_ds, case):
        if case == "synth_onto_dir":
            target = tmp_path / "taken"
            target.mkdir()
        else:
            target = tmp_path / "missing" / "out.json"
        if case.startswith("synth"):
            argv = ["synth", "--attack", "5", "--benign", "5", "--features", "2", "--seed", "1",
                    "--out", str(target)]
        else:
            data = tmp_path / "flows.ds"
            nf.save_dataset(small_ds, data)
            argv = ["train", "--data", str(data), "--preset", "BASE", "--seed", "1",
                    "--model-out", str(tmp_path / "m.json"), "--report-out", str(target)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("nfdlm: data error: ") and err.count("\n") == 1
        assert str(target) in err
        # No temp file is left beside the target.
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []
        if case == "synth_onto_dir":
            assert list(target.iterdir()) == []

    def test_numeric_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        ds_path = tmp_path / "flows.ds"
        nf.save_dataset(nf.generate_synthetic_flows(SMALL_SPEC), ds_path)

        def blow_up(*args, **kwargs):
            raise nf.NumericError("non-finite loss at epoch 1, batch 1")

        monkeypatch.setattr("nfdlm.cli.run_experiment", blow_up)
        rc = main([
            "train", "--data", str(ds_path), "--preset", "FS1", "--seed", "1",
            "--model-out", str(tmp_path / "m.json"),
            "--report-out", str(tmp_path / "r.json"),
        ])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err


def test_every_exported_name_resolves():
    assert [name for name in nf.__all__ if not hasattr(nf, name)] == []
