"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The surrogate dataset is
synth(attack=20000, benign=500, features=30, dupes=5, separation=6, seed=7);
the optional external check (criterion 9) activates when NFDLM_BOTIOT_CSV
points at a flow CSV extract and skips otherwise.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest

import nfdlm as nf

from conftest import SURROGATE_SPEC, max_relative_gradient_error, random_checkable_model
from test_experiment import strip_timings


def passline(criterion: int, message: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def surrogate_ds():
    return nf.generate_synthetic_flows(SURROGATE_SPEC)


@pytest.fixture(scope="module")
def preset_runs(surrogate_ds):
    """FS1-FS4 once each on the surrogate, with measured wall times."""
    runs = {}
    for name in ("FS1", "FS2", "FS3", "FS4"):
        started = time.perf_counter()
        report = nf.run_experiment(nf.preset(name, seed=7), surrogate_ds)
        runs[name] = (report, time.perf_counter() - started)
    return runs


class TestCriterion1SurrogateAccuracy:
    def test_fs2_accuracy_and_budget(self, preset_runs):
        report, wall = preset_runs["FS2"]
        assert report.metrics.accuracy >= 0.99
        assert wall < 120.0
        passline(
            1,
            f"FS2 test accuracy {report.metrics.accuracy:.4f} >= 0.99 "
            f"in {wall:.1f} s (< 120 s)",
        )

    def test_fs3_fs4_accuracy(self, preset_runs):
        acc3 = preset_runs["FS3"][0].metrics.accuracy
        acc4 = preset_runs["FS4"][0].metrics.accuracy
        assert acc3 >= 0.98 and acc4 >= 0.98
        passline(1, f"FS3 accuracy {acc3:.4f} and FS4 accuracy {acc4:.4f} >= 0.98")


class TestCriterion2TimingOrdering:
    def test_mlp_presets_train_faster_than_lstm_presets(self, preset_runs):
        mlp_times = [preset_runs[n][0].phase_seconds["training"] for n in ("FS1", "FS2")]
        lstm_times = [preset_runs[n][0].phase_seconds["training"] for n in ("FS3", "FS4")]
        assert max(mlp_times) < min(lstm_times)
        passline(
            2,
            "MLP training times "
            f"({mlp_times[0]:.1f} s, {mlp_times[1]:.1f} s) strictly below LSTM times "
            f"({lstm_times[0]:.1f} s, {lstm_times[1]:.1f} s)",
        )


class TestCriterion3FilterExactness:
    def test_exactly_the_planted_duplicates_drop(self, surrogate_ds):
        selection = nf.correlation_filter(surrogate_ds, 0.65)
        dropped = {d.name for d in selection.dropped}
        planted_later_members = {f"f{2 * t + 1:02d}" for t in range(5)}
        assert dropped == planted_later_members

        # Brute-force oracle: replay the drop rule on np.corrcoef values.
        corr = np.nan_to_num(np.corrcoef(surrogate_ds.matrix, rowvar=False))
        names = surrogate_ds.feature_names
        oracle_dropped = set()
        for j in range(len(names)):
            for i in range(j):
                if abs(corr[i, j]) > 0.65:
                    oracle_dropped.add(names[j])
                    break
        assert dropped == oracle_dropped
        for d in selection.dropped:
            assert d.partner == f"f{int(d.name[1:]) - 1:02d}"  # later member of its pair
        passline(3, f"correlation filter at 0.65 dropped exactly {sorted(dropped)}")


class TestCriterion4MiRanking:
    N = 10_000

    def labeled_data(self):
        rng = np.random.default_rng(40)
        labels = rng.permutation(np.repeat([0, 1], self.N // 2))
        matrix = rng.standard_normal((self.N, 5))
        matrix[:, 2] = labels  # planted label copy
        cols = [nf.ColumnDescriptor(f"c{j}", "numeric") for j in range(5)]
        return nf.FlowDataset(cols, matrix, labels=labels), labels

    def test_label_copy_ranks_first_with_closed_form_score(self):
        ds, labels = self.labeled_data()
        selection = nf.mi_rank_select(ds, 3)
        assert selection.kept[0] == "c2"
        p1 = labels.mean()
        closed_form = -(p1 * math.log(p1) + (1 - p1) * math.log(1 - p1))
        assert abs(selection.scores[0] - closed_form) < 1e-6
        passline(
            4,
            f"label copy ranked first with MI {selection.scores[0]:.6f} "
            f"(closed form {closed_form:.6f})",
        )

    def test_permuted_labels_give_near_zero_mi(self):
        ds, labels = self.labeled_data()
        shuffled = np.random.default_rng(41).permutation(labels)
        mi = nf.mutual_information(ds.matrix[:, ds.feature_positions(["c2"])[0]], shuffled)
        assert mi < 0.01
        passline(4, f"MI under permuted labels {mi:.6f} < 0.01 at n = {self.N}")


class TestCriterion5GradientFidelity:
    def test_ten_random_draws(self):
        worst = 0.0
        for seed in range(5):
            for kind in ("mlp", "lstm"):
                model, x, y = random_checkable_model(kind, seed)
                worst = max(worst, max_relative_gradient_error(model, x, y, h=1e-5))
        assert worst < 1e-4
        passline(5, f"max relative gradient error {worst:.2e} < 1e-4 over 10 draws")


@pytest.fixture(scope="module")
def smote_case(surrogate_ds):
    train, _ = nf.stratified_split(surrogate_ds, 0.2, seed=7)
    cfg = nf.SmoteConfig(k_neighbors=5, seed=8)
    return train, cfg, nf.smote_resample(train, cfg)


class TestCriterion6SmoteProperties:
    def test_class_counts_equal(self, smote_case):
        train, _, resampled = smote_case
        n_benign = int((resampled.labels == 0).sum())
        n_attack = int((resampled.labels == 1).sum())
        assert n_benign == n_attack
        passline(6, f"post-SMOTE class counts equal ({n_benign} each)")

    def test_every_synthetic_row_sits_on_a_source_segment(self, smote_case):
        train, cfg, resampled = smote_case
        minority = train.matrix[train.labels == 0]
        synthetic = resampled.matrix[train.row_count :]

        # Independent oracle: recompute the neighbor sets and the per-source
        # sample counts, then measure each point's distance to its source's
        # candidate segments.
        k = cfg.k_neighbors
        diffs = minority[:, None, :] - minority[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
        np.fill_diagonal(d2, np.inf)
        neighbor_ids = np.argsort(d2, axis=1, kind="stable")[:, :k]

        need = synthetic.shape[0]
        base, extra = divmod(need, minority.shape[0])
        worst = 0.0
        cursor = 0
        for i in range(minority.shape[0]):
            count = base + (1 if i < extra else 0)
            if count == 0:
                continue
            block = synthetic[cursor : cursor + count]
            cursor += count
            m = minority[i]
            residuals = np.full(count, np.inf)
            for n_idx in neighbor_ids[i]:
                d = minority[n_idx] - m
                t = np.clip((block - m) @ d / (d @ d), 0.0, 1.0)
                res = np.linalg.norm(block - (m + t[:, None] * d), axis=1)
                residuals = np.minimum(residuals, res)
            worst = max(worst, float(residuals.max()))
        assert cursor == need
        assert worst < 1e-9
        passline(6, f"all {need} synthetic rows on source segments (max residual {worst:.2e})")

    def test_bitwise_reproducible(self, smote_case):
        train, cfg, resampled = smote_case
        again = nf.smote_resample(train, cfg)
        assert (again.matrix == resampled.matrix).all()
        assert (again.labels == resampled.labels).all()
        passline(6, "SMOTE output bitwise identical under a fixed seed")


class TestCriterion7ScalerProperties:
    def test_train_fit_train_apply(self, surrogate_ds):
        train, _ = nf.stratified_split(surrogate_ds, 0.2, seed=7)
        constant = nf.FlowDataset(
            train.columns + [nf.ColumnDescriptor("const", "numeric")],
            np.hstack([train.matrix, np.full((train.row_count, 1), 4.2)]),
            labels=train.labels,
        )
        scaled = nf.apply_scaler(nf.fit_scaler(constant), constant)
        means = scaled.matrix.mean(axis=0)
        stdevs = scaled.matrix.std(axis=0)
        assert np.abs(means).max() < 1e-9
        assert np.abs(stdevs[:-1] - 1.0).max() < 1e-9  # non-constant columns
        assert (scaled.matrix[:, -1] == 0.0).all()  # constant column -> zeros
        passline(
            7,
            f"scaled train: max |mean| {np.abs(means).max():.2e}, "
            f"max |stdev-1| {np.abs(stdevs[:-1] - 1.0).max():.2e}, constant column zeroed",
        )


class TestCriterion8RoundTrips:
    def test_model_save_load_predict_bitwise(self, surrogate_ds, tmp_path):
        cfg = nf.preset("FS2", seed=7)
        path = tmp_path / "fs2.model.json"
        nf.run_experiment(cfg, surrogate_ds, model_path=path)
        model = nf.load_model(path)

        rng = np.random.default_rng(80)
        cols = [nf.ColumnDescriptor(n, "numeric") for n in surrogate_ds.feature_names]
        probe = nf.FlowDataset(cols, rng.standard_normal((1000, len(cols))), np.zeros(1000, bool))
        roundtrip = tmp_path / "fs2.model.roundtrip.json"
        nf.save_model(model, roundtrip)
        reloaded = nf.load_model(roundtrip)
        probs_a = nf.predict_proba(model, probe)
        probs_b = nf.predict_proba(reloaded, probe)
        assert (probs_a == probs_b).all()
        assert (nf.predict(model, probe) == nf.predict(reloaded, probe)).all()
        passline(8, "save -> load -> predict bitwise identical on 1000 random rows")

    def test_report_byte_identical_across_runs(self, surrogate_ds):
        cfg = nf.preset("FS2", seed=7)
        a = nf.run_experiment(cfg, surrogate_ds, source="surrogate")
        b = nf.run_experiment(cfg, surrogate_ds, source="surrogate")
        bytes_a = json.dumps(strip_timings(a.to_dict()), sort_keys=True).encode()
        bytes_b = json.dumps(strip_timings(b.to_dict()), sort_keys=True).encode()
        assert bytes_a == bytes_b
        passline(8, f"pipeline report byte-identical apart from timings ({len(bytes_a)} bytes)")


BOTIOT_ENV = "NFDLM_BOTIOT_CSV"


@pytest.mark.skipif(
    not os.environ.get(BOTIOT_ENV) or not os.path.exists(os.environ.get(BOTIOT_ENV, "")),
    reason=f"set {BOTIOT_ENV} to a flow CSV extract to run the external-data check",
)
class TestCriterion9ExternalData:
    def test_fs2_on_external_extract(self):
        path = os.environ[BOTIOT_ENV]
        ds = nf.parse_flow_csv(path, "category", "DDoS")
        ds = nf.drop_columns(ds, drop_string_columns=True)
        selection_probe = nf.mi_rank_select(ds, 11)
        assert len(selection_probe.kept) == 11
        report = nf.run_experiment(nf.preset("FS2", seed=7), ds, source=path)
        assert report.feature_count == 11
        assert report.metrics.accuracy >= 0.99
        passline(
            9,
            f"external extract: FS2 accuracy {report.metrics.accuracy:.4f} >= 0.99 "
            f"with 11 features",
        )
