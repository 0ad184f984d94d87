"""Standard scaling and SMOTE rebalancing."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import nfdlm as nf
from nfdlm.cli import main
from nfdlm.flow_data import CATEGORICAL, NUMERIC
from nfdlm.preprocess import SCALER_BLOCK_ROWS, SMOTE_BLOCK_ROWS, _column_stdevs, _nearest_neighbors

from conftest import assert_datasets_equal, full_sort_neighbors, numeric_ds, traced_peak


class TestScaler:
    def test_mean_and_population_stdev(self):
        params = nf.fit_scaler(numeric_ds([[1.0], [2.0], [3.0]]))
        assert params.means[0] == 2.0
        assert abs(params.stdevs[0] - math.sqrt(2.0 / 3.0)) < 1e-12

    def test_constant_column(self):
        params = nf.fit_scaler(numeric_ds([[5.0], [5.0], [5.0]]))
        assert params.means[0] == 5.0 and params.stdevs[0] == 0.0

    def test_constant_column_exact_at_scale(self):
        # 4.2 is not dyadic; naive mean/std accumulate ~1e-16 residue over
        # many rows, which must still register as stdev exactly 0.
        params = nf.fit_scaler(numeric_ds(np.full((16400, 1), 4.2)))
        assert params.means[0] == 4.2 and params.stdevs[0] == 0.0

    def test_already_standardized_is_fixpoint(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        x = (x - x.mean()) / x.std()
        params = nf.fit_scaler(numeric_ds(x[:, None]))
        assert abs(params.means[0]) < 1e-12 and abs(params.stdevs[0] - 1.0) < 1e-12

    def test_apply_known_values(self):
        ds = numeric_ds([[1.0], [2.0], [3.0]])
        out = nf.apply_scaler(nf.fit_scaler(ds), ds)
        expected = np.array([-math.sqrt(1.5), 0.0, math.sqrt(1.5)])
        assert np.abs(out.matrix[:, 0] - expected).max() < 1e-9

    def test_constant_column_maps_to_zeros(self):
        ds = numeric_ds([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        out = nf.apply_scaler(nf.fit_scaler(ds), ds)
        assert (out.matrix[:, 0] == 0.0).all()

    def test_train_fit_train_apply_standardizes(self):
        rng = np.random.default_rng(1)
        ds = numeric_ds(rng.standard_normal((400, 6)) * [1, 10, 0.1, 5, 2, 7] + 3)
        out = nf.apply_scaler(nf.fit_scaler(ds), ds)
        assert np.abs(out.matrix.mean(axis=0)).max() < 1e-9
        assert np.abs(out.matrix.std(axis=0) - 1.0).max() < 1e-9

    def test_affine_invertible(self):
        rng = np.random.default_rng(2)
        ds = numeric_ds(rng.uniform(-50, 50, (200, 4)))
        params = nf.fit_scaler(ds)
        out = nf.apply_scaler(params, ds)
        recovered = out.matrix * params.stdevs + params.means
        rel = np.abs(recovered - ds.matrix) / np.maximum(np.abs(ds.matrix), 1e-12)
        assert rel.max() < 1e-9

    def test_column_mismatch_errors(self):
        params = nf.fit_scaler(numeric_ds([[1.0], [2.0]], names=["a"]))
        with pytest.raises(nf.DataError, match="do not match"):
            nf.apply_scaler(params, numeric_ds([[1.0], [2.0]], names=["b"]))

    def test_empty_dataset_errors(self):
        with pytest.raises(nf.DataError, match="empty"):
            nf.fit_scaler(numeric_ds(np.empty((0, 2))))

    @pytest.mark.parametrize("rows,cols", [
        (1, 4), (5, 3), (1001, 7), (2 * SCALER_BLOCK_ROWS + 3, 5), (SCALER_BLOCK_ROWS, 1),
        (3 * SCALER_BLOCK_ROWS + 1, 1),
    ])
    def test_column_stdevs_equal_np_std_bitwise(self, rows, cols):
        rng = np.random.default_rng(rows * cols)
        m = rng.standard_normal((rows, cols)) * rng.uniform(0.01, 1e3, cols)
        m += rng.uniform(-1e4, 1e4, cols)
        m[:, 0] = 4.2  # a constant column, whose mean leaves a residue
        assert _column_stdevs(m, m.mean(axis=0)).tobytes() == m.std(axis=0).tobytes()

    def test_fit_makes_no_copy_of_the_matrix(self):
        ds = numeric_ds(np.random.default_rng(3).standard_normal((100_000, 20)))
        _, peak = traced_peak(nf.fit_scaler, ds)
        assert peak < 0.1 * ds.matrix.nbytes


def imbalanced_ds(n_minority, n_majority, n_features=4, seed=0):
    rng = np.random.default_rng(seed)
    matrix = np.vstack(
        [
            rng.standard_normal((n_minority, n_features)) - 2.0,
            rng.standard_normal((n_majority, n_features)) + 2.0,
        ]
    )
    labels = np.concatenate(
        [np.zeros(n_minority, dtype=int), np.ones(n_majority, dtype=int)]
    )
    return numeric_ds(matrix, labels=labels)


class TestSmote:
    def test_classes_equalized(self):
        ds = imbalanced_ds(477, 5000)
        out = nf.smote_resample(ds, nf.SmoteConfig(seed=1))
        assert int((out.labels == 0).sum()) == int((out.labels == 1).sum()) == 5000

    def test_originals_preserved_verbatim(self):
        ds = imbalanced_ds(20, 200)
        out = nf.smote_resample(ds, nf.SmoteConfig(seed=2))
        assert (out.matrix[: ds.row_count] == ds.matrix).all()
        assert (out.labels[: ds.row_count] == ds.labels).all()

    def test_two_point_minority_stays_on_segment(self):
        matrix = np.array([[0.0, 0.0], [1.0, 1.0]] + [[5.0, 5.0]] * 40)
        labels = np.array([0, 0] + [1] * 40)
        ds = numeric_ds(matrix, labels=labels)
        out = nf.smote_resample(ds, nf.SmoteConfig(k_neighbors=1, seed=3))
        synthetic = out.matrix[ds.row_count :]
        # Segment between (0,0) and (1,1): both coordinates equal, in [0, 1].
        assert np.abs(synthetic[:, 0] - synthetic[:, 1]).max() < 1e-12
        assert synthetic.min() >= 0.0 and synthetic.max() <= 1.0

    def test_balanced_input_unchanged(self):
        ds = imbalanced_ds(50, 50)
        assert nf.smote_resample(ds, nf.SmoteConfig(seed=0)) is ds

    def test_synthetic_rows_inside_minority_bounding_box(self):
        ds = imbalanced_ds(30, 300, n_features=5, seed=4)
        out = nf.smote_resample(ds, nf.SmoteConfig(seed=4))
        minority = ds.matrix[ds.labels == 0]
        synthetic = out.matrix[ds.row_count :]
        assert (synthetic >= minority.min(axis=0) - 1e-12).all()
        assert (synthetic <= minority.max(axis=0) + 1e-12).all()

    def test_bitwise_reproducible(self):
        ds = imbalanced_ds(25, 250, seed=5)
        a = nf.smote_resample(ds, nf.SmoteConfig(seed=9))
        b = nf.smote_resample(ds, nf.SmoteConfig(seed=9))
        assert_datasets_equal(a, b)
        c = nf.smote_resample(ds, nf.SmoteConfig(seed=10))
        assert not (a.matrix == c.matrix).all()

    def test_k_clamped_with_warning(self):
        ds = imbalanced_ds(3, 50)
        with pytest.warns(UserWarning, match="clamped"):
            out = nf.smote_resample(ds, nf.SmoteConfig(k_neighbors=5, seed=0))
        assert int((out.labels == 0).sum()) == 50

    def test_tiny_minority_errors(self):
        ds = imbalanced_ds(1, 50)
        with pytest.raises(nf.DataError, match="minority"):
            nf.smote_resample(ds, nf.SmoteConfig(seed=0))

    def test_categorical_descriptors_pass_through(self):
        # A categorical column holds no cells, so SMOTE keeps its descriptor
        # and resamples the numeric matrix alone.
        cols = [
            nf.ColumnDescriptor("a", NUMERIC),
            nf.ColumnDescriptor("proto", CATEGORICAL),
        ]
        ds = nf.FlowDataset(
            cols, np.arange(8, dtype=float)[:, None], labels=np.array([0, 0, 0, 1, 1, 1, 1, 1])
        )
        out = nf.smote_resample(ds, nf.SmoteConfig(k_neighbors=1, seed=0))
        assert out.columns == cols and out.strings == {}
        assert out.matrix.shape == (10, 1) and int((out.labels == 0).sum()) == 5


def full_matrix_smote(ds, cfg):
    """SMOTE with the neighbor search over the whole m x m distance matrix:
    the reference the blocked search must match bit for bit."""
    minority_label = 1 if int(ds.labels.sum()) * 2 < ds.row_count else 0
    minority = ds.matrix[ds.labels == minority_label]
    m = minority.shape[0]
    k = min(cfg.k_neighbors, m - 1)
    neighbor_ids = full_sort_neighbors(minority, k)
    need = ds.row_count - 2 * m
    base, extra = divmod(need, m)
    synthetic = []
    for i in range(m):
        count = base + (1 if i < extra else 0)
        rng = np.random.default_rng([cfg.seed, i])
        picks = rng.integers(0, k, size=count)
        u = rng.random(count)
        neighbors = minority[neighbor_ids[i][picks]]
        synthetic.append(minority[i] + u[:, None] * (neighbors - minority[i]))
    return neighbor_ids, np.vstack([ds.matrix, *synthetic])


class TestSmoteMatchesFullSearch:
    def check(self, ds, cfg):
        ids, matrix = full_matrix_smote(ds, cfg)
        minority = ds.matrix[ds.labels == 0]  # class 0 is the minority in every case
        assert (_nearest_neighbors(minority, ids.shape[1]) == ids).all()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = nf.smote_resample(ds, cfg)
        assert out.matrix.tobytes() == matrix.tobytes()

    def test_minority_not_a_multiple_of_the_block(self):
        ds = imbalanced_ds(2 * SMOTE_BLOCK_ROWS + 77, 3000, n_features=7, seed=6)
        self.check(ds, nf.SmoteConfig(k_neighbors=5, seed=12))

    def test_tied_distances_keep_the_lower_id(self):
        rng = np.random.default_rng(7)
        distinct = rng.integers(-2, 3, (SMOTE_BLOCK_ROWS // 4, 3)).astype(float)
        minority = np.vstack([distinct] * 5)  # every row has exact twins
        majority = rng.standard_normal((4 * minority.shape[0], 3)) + 10.0
        labels = np.concatenate([np.zeros(len(minority), int), np.ones(len(majority), int)])
        ds = numeric_ds(np.vstack([minority, majority]), labels=labels)
        self.check(ds, nf.SmoteConfig(k_neighbors=6, seed=3))

    def test_distance_rounding_matches_the_full_search(self):
        # Far from the origin, sq_i + sq_j - 2 g_ij cancels most of its bits,
        # so near-equal distances order by their rounding error.
        rng = np.random.default_rng(8)
        minority = 1e6 + rng.integers(0, 5, (SMOTE_BLOCK_ROWS + 200, 3)) * 0.37
        majority = rng.standard_normal((3 * minority.shape[0], 3))
        labels = np.concatenate([np.zeros(len(minority), int), np.ones(len(majority), int)])
        ds = numeric_ds(np.vstack([minority, majority]), labels=labels)
        self.check(ds, nf.SmoteConfig(k_neighbors=5, seed=4))

    def labeled(self, minority, seed):
        majority = np.random.default_rng(seed).standard_normal((3 * len(minority), 3))
        labels = np.concatenate([np.zeros(len(minority), int), np.ones(len(majority), int)])
        return numeric_ds(np.vstack([minority, majority]), labels=labels)

    def test_ties_across_the_kth_place_take_the_full_sort(self):
        # Rows on a 4 x 4 grid (about 38 copies of each point) have more than
        # k distances equal to their k-th, so they fall back to the stable
        # sort of the whole row; the scattered rows take the partition path.
        rng = np.random.default_rng(9)
        grid = rng.integers(0, 4, (SMOTE_BLOCK_ROWS + 100, 3)).astype(float)
        grid[:, 2] = 0.0
        scattered = rng.standard_normal((200, 3)) + 10.0
        minority = rng.permutation(np.vstack([grid, scattered]))
        k = 5
        d2 = np.sort(np.linalg.norm(minority[:, None] - minority[None], axis=2), axis=1)
        straddled = d2[:, k] == d2[:, k + 1]  # column 0 is the row itself
        assert 0.5 < straddled.mean() < 1.0
        self.check(self.labeled(minority, 10), nf.SmoteConfig(k_neighbors=k, seed=5))

    @pytest.mark.parametrize("overflows", ["norm", "distance"])
    def test_overflowing_distances_fail_as_data_error(self, overflows, tmp_path, capsys):
        # Near 1e160 a squared norm overflows to inf, so distances between
        # such rows are inf - inf = NaN and those to the other rows inf. Two
        # opposite rows near 9e153 have finite norms and Gram product but an
        # infinite distance, here in the last block only. Neither leaves a
        # neighbour order to find.
        rng = np.random.default_rng(11)
        if overflows == "norm":
            scale = rng.choice([1.0, 1e150, 1e160], size=SMOTE_BLOCK_ROWS + 60)
            minority = rng.standard_normal((scale.size, 3)) * scale[:, None]
            with np.errstate(over="ignore"):
                assert np.isinf(np.einsum("ij,ij->i", minority, minority)).mean() > 0.2
        else:
            minority = rng.standard_normal((SMOTE_BLOCK_ROWS + 60, 3))
            minority[-2:, 0] = [9e153, -9e153]
        ds = self.labeled(minority, 12)
        message = (
            "SMOTE cannot rank neighbours: a squared distance between two minority rows "
            "is not finite; scale or clip the features first"
        )
        with pytest.raises(nf.DataError, match=f"^{message}$"):
            nf.smote_resample(ds, nf.SmoteConfig(k_neighbors=5, seed=6))
        # nfdlm train resamples the raw training rows and exits 2.
        nf.save_dataset(ds, tmp_path / "flows.ds")
        rc = main(["train", "--data", str(tmp_path / "flows.ds"), "--preset", "BASE",
                   "--seed", "1", "--model-out", str(tmp_path / "m.json"),
                   "--report-out", str(tmp_path / "r.json")])
        assert rc == 2
        assert capsys.readouterr().err == f"nfdlm: data error: smote: {message}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_k_clamped_at_small_minority(self, m):
        self.check(imbalanced_ds(m, 40, seed=m), nf.SmoteConfig(k_neighbors=5, seed=m))
