"""Correlation redundancy filter and mutual-information ranking."""

from __future__ import annotations

import math

import numpy as np
import pytest

import nfdlm as nf
from nfdlm.feature_select import DEFAULT_MI_BINS

from conftest import numeric_ds, unique_bincount_mi


class TestPearsonR:
    def test_direct_proportionality(self):
        assert nf.pearson_r([1, 2, 3], [1, 2, 3]) == 1.0

    def test_inverse_link(self):
        assert nf.pearson_r([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_computed_point_eight(self):
        assert abs(nf.pearson_r([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12

    def test_constant_vector_gives_zero(self):
        assert nf.pearson_r([5, 5, 5], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(nf.DataError, match="equal-length"):
            nf.pearson_r([1, 2], [1, 2, 3])

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(50)
            y = rng.standard_normal(50) + 0.4 * x
            assert abs(nf.pearson_r(x, y) - np.corrcoef(x, y)[0, 1]) < 1e-12

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.standard_normal((2, 30))
            r = nf.pearson_r(x, y)
            assert r == nf.pearson_r(y, x)
            assert -1.0 <= r <= 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, 40))
        r = nf.pearson_r(x, y)
        assert abs(nf.pearson_r(3.5 * x + 2.0, y) - r) < 1e-12
        assert abs(nf.pearson_r(-3.5 * x + 2.0, y) + r) < 1e-12


class TestCorrelationMatrix:
    def test_identical_columns(self):
        ds = numeric_ds(np.tile(np.arange(5.0)[:, None], (1, 2)))
        m = nf.correlation_matrix(ds)
        assert m[0, 1] == 1.0 and m[1, 0] == 1.0

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        ds = numeric_ds(rng.standard_normal((100, 12)))
        m = nf.correlation_matrix(ds)
        assert (m == m.T).all()

    def test_diagonal_and_constant_columns(self):
        ds = numeric_ds(np.column_stack([np.arange(4.0), np.full(4, 7.0)]))
        m = nf.correlation_matrix(ds)
        assert m[0, 0] == 1.0
        assert m[1, 1] == 0.0 and m[0, 1] == 0.0

    def test_planted_duplicates_exceed_099(self, surrogate):
        m = nf.correlation_matrix(surrogate)
        for t in range(5):
            assert abs(m[2 * t, 2 * t + 1]) > 0.99

    def test_needs_two_rows(self):
        with pytest.raises(nf.DataError, match="2 rows"):
            nf.correlation_matrix(numeric_ds([[1.0, 2.0]]))

    def test_entries_match_pearson_r_bitwise(self):
        rng = np.random.default_rng(12)
        ds = numeric_ds(rng.standard_normal((60, 5)))
        m = nf.correlation_matrix(ds)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert m[i, j] == nf.pearson_r(ds.matrix[:, i], ds.matrix[:, j])

    def test_column_sliced_matrix_with_constant_column_bitwise(self):
        rng = np.random.default_rng(13)
        wide = rng.standard_normal((1001, 14)) * rng.uniform(0.01, 1e4, 14) + 3.0
        wide[:, 6] = 4.2  # constant, but its mean leaves rounding residue
        wide[:, 10] = 7.0  # constant, centres to exact zeros
        source = wide[:, ::2]  # a strided view: no column is contiguous
        assert not source.flags.c_contiguous and not source.flags.f_contiguous
        m = nf.correlation_matrix(numeric_ds(source))
        oracle = np.array(
            [[nf.pearson_r(source[:, i], source[:, j]) for j in range(7)] for i in range(7)]
        )
        assert m.tobytes() == oracle.tobytes()
        assert (m[5] == 0.0).all() and (m[:, 5] == 0.0).all()


def brute_force_filter(ds, threshold):
    """Independent oracle: the drop rule replayed on np.corrcoef values."""
    matrix = ds.matrix
    names = ds.feature_names
    stds = matrix.std(axis=0)
    corr = np.corrcoef(matrix, rowvar=False)
    corr = np.nan_to_num(corr)  # constant columns: treat r as 0
    dropped = set()
    for j in range(len(names)):
        for i in range(j):
            if abs(corr[i, j]) > threshold:
                dropped.add(names[j])
                break
    return [n for n in names if n not in dropped]


class TestCorrelationFilter:
    def test_drops_exactly_the_planted_copies(self, surrogate):
        selection = nf.correlation_filter(surrogate, 0.65)
        assert {d.name for d in selection.dropped} == {"f01", "f03", "f05", "f07", "f09"}
        for d in selection.dropped:
            assert d.partner == f"f{int(d.name[1:]) - 1:02d}"
        assert selection.kept == brute_force_filter(surrogate, 0.65)

    def test_vacuous_threshold_drops_nothing(self, surrogate):
        selection = nf.correlation_filter(surrogate, 0.999999)
        assert selection.dropped == []
        assert selection.kept == surrogate.feature_names

    def test_idempotent(self, surrogate):
        first = nf.correlation_filter(surrogate, 0.65)
        again = nf.correlation_filter(nf.select_features(surrogate, first.kept), 0.65)
        assert again.kept == first.kept
        assert again.dropped == []

    def test_survivors_within_threshold(self, surrogate):
        selection = nf.correlation_filter(surrogate, 0.65)
        kept = nf.select_features(surrogate, selection.kept)
        m = np.abs(nf.correlation_matrix(kept))
        np.fill_diagonal(m, 0.0)
        assert m.max() <= 0.65

    def test_chain_uses_earliest_partner(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal(400)
        ds = numeric_ds(
            np.column_stack([base, base + rng.normal(0, 0.01, 400), rng.standard_normal(400)])
        )
        selection = nf.correlation_filter(ds, 0.65)
        assert selection.kept == ["c0", "c2"]
        assert selection.dropped[0].partner == "c0"
        assert selection.scores[0] > 0.99  # c0 displaced c1
        assert selection.scores[1] == 0.0

    def test_bad_threshold(self, surrogate):
        with pytest.raises(nf.DataError, match="threshold"):
            nf.correlation_filter(surrogate, 1.5)


def assert_mi_matches_unique(x, labels, bins):
    """Bitwise the np.unique + bincount score; returns that oracle's table."""
    expected, joint = unique_bincount_mi(x, labels, bins)
    assert nf.mutual_information(x, labels, bins).hex() == expected.hex()
    return joint


class TestMutualInformation:
    def test_constant_feature_gives_zero(self):
        labels = np.array([0, 1] * 10)
        assert nf.mutual_information(np.full(20, 3.0), labels) == 0.0

    def test_label_copy_is_ln2(self):
        labels = np.array([0, 1] * 500)
        mi = nf.mutual_information(labels.astype(float), labels)
        assert abs(mi - math.log(2.0)) < 1e-12

    def test_non_negative_and_small_under_permutation(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10_000)
        labels = rng.permutation(np.repeat([0, 1], 5_000))
        mi = nf.mutual_information(x, labels)
        assert 0.0 <= mi < 0.01

    def test_symmetric_for_binary_feature(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 2, 400)
        y = (rng.random(400) < 0.3 + 0.4 * x).astype(int)
        assert nf.mutual_information(x.astype(float), y) == nf.mutual_information(
            y.astype(float), x
        )

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(3_000)
        labels = (x + rng.standard_normal(3_000) > 0).astype(int)
        base = nf.mutual_information(x, labels)
        assert nf.mutual_information(np.exp(x), labels) == base
        assert nf.mutual_information(x ** 3, labels) == base

    @pytest.mark.parametrize("labels, message", [
        (np.zeros(4, dtype=int), "equal-length"),
        (np.array([0, 1, 2]), "labels must be 0 or 1"),
    ], ids=["length_mismatch", "label_2"])
    def test_bad_labels(self, labels, message):
        with pytest.raises(nf.DataError, match=message):
            nf.mutual_information(np.zeros(3), labels)

    def test_bins_cap_respected(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(1_000)
        labels = rng.integers(0, 2, 1_000)
        for bins in (2, 8, DEFAULT_MI_BINS):
            assert nf.mutual_information(x, labels, bins=bins) >= 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, value):
        x = np.arange(10.0)
        x[3] = value
        with pytest.raises(nf.DataError, match="finite"):
            nf.mutual_information(x, np.arange(10) % 2)

    # Cases checked bitwise against the np.unique + bincount oracle.
    N = 5_000

    def labels(self, seed=12):
        return np.random.default_rng(seed).random(self.N) < 0.4

    def normal(self, seed):
        return np.random.default_rng(seed).standard_normal(self.N)

    @pytest.mark.parametrize("distinct", [2, 17, DEFAULT_MI_BINS - 1, DEFAULT_MI_BINS,
                                          DEFAULT_MI_BINS + 1, 500])
    def test_distinct_value_counts(self, distinct):
        x = np.random.default_rng(distinct).integers(0, distinct, self.N) * 0.3 - 7.0
        x[:distinct] = np.arange(distinct) * 0.3 - 7.0  # every value present
        joint = assert_mi_matches_unique(x, self.labels(), DEFAULT_MI_BINS)
        if distinct <= DEFAULT_MI_BINS:
            assert joint.shape[0] == distinct  # one bin per value

    def test_ties_spanning_several_edges_leave_empty_bins(self):
        x = self.normal(13)
        x[np.random.default_rng(14).random(self.N) < 0.3] = 0.0
        joint = assert_mi_matches_unique(x, self.labels(), 20)
        assert joint.shape[0] == 20 and (joint.sum(axis=1) == 0).sum() >= 3

    def test_ties_at_the_maximum_trim_the_bins(self):
        x = self.normal(15)
        x[np.random.default_rng(16).random(self.N) < 0.25] = 9.0
        joint = assert_mi_matches_unique(x, self.labels(), DEFAULT_MI_BINS)
        assert joint.shape[0] < DEFAULT_MI_BINS

    @pytest.mark.parametrize("label", [False, True], ids=["benign", "attack"])
    def test_single_class(self, label):
        # The oracle's sum leaves rounding noise here (1.33e-15 nats).
        assert nf.mutual_information(self.normal(17), np.full(self.N, label)) == 0.0

    def test_two_bins(self):
        labels = self.labels()
        x = self.normal(18) + labels
        for values in (x, np.round(x), np.round(x, 1)):
            assert_mi_matches_unique(values, labels, 2)

    def test_surrogate_columns(self, surrogate):
        for column in surrogate.matrix.T:
            assert_mi_matches_unique(column, surrogate.labels, DEFAULT_MI_BINS)


class TestMiRankSelect:
    def noisy_ds(self, seed=9, n=2_000, n_features=6):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        matrix = rng.standard_normal((n, n_features))
        matrix[:, 0] = labels  # perfect label copy
        return numeric_ds(matrix, labels=labels)

    def test_keeps_exactly_k(self, surrogate):
        selection = nf.mi_rank_select(surrogate, 11)
        assert len(selection.kept) == 11
        assert len(selection.dropped) == 19

    def test_label_copy_ranks_first(self):
        selection = nf.mi_rank_select(self.noisy_ds(), 3)
        assert selection.kept[0] == "c0"
        assert selection.scores[0] == max(selection.scores)

    def test_scores_descend(self, surrogate):
        selection = nf.mi_rank_select(surrogate, 30)
        assert selection.scores == sorted(selection.scores, reverse=True)

    def test_k_too_large(self, surrogate):
        with pytest.raises(nf.DataError, match="k must be"):
            nf.mi_rank_select(surrogate, 31)

    @pytest.mark.parametrize("label", [False, True], ids=["benign", "attack"])
    def test_single_class_keeps_column_order(self, label):
        rng = np.random.default_rng(19)
        matrix = np.column_stack([rng.standard_normal(5_000), rng.integers(0, 3, 5_000),
                                  rng.exponential(size=5_000), np.round(rng.normal(size=5_000), 1),
                                  rng.uniform(size=5_000)])
        selection = nf.mi_rank_select(numeric_ds(matrix, labels=np.full(5_000, label)), 5)
        assert selection.kept == ["c0", "c1", "c2", "c3", "c4"]
        assert selection.scores == [0.0] * 5

    def test_row_order_does_not_matter(self):
        ds = self.noisy_ds(seed=10)
        rng = np.random.default_rng(11)
        perm = rng.permutation(ds.row_count)
        from nfdlm.flow_data import take_rows

        shuffled = take_rows(ds, perm)
        a = nf.mi_rank_select(ds, 4)
        b = nf.mi_rank_select(shuffled, 4)
        assert a.kept == b.kept
        assert a.scores == b.scores


class TestSelectionReport:
    def test_serialization_round_trip(self, surrogate):
        for selection in (
            nf.correlation_filter(surrogate, 0.65),
            nf.mi_rank_select(surrogate, 11),
            nf.identity_selection(surrogate),
        ):
            back = nf.SelectedFeatures.from_dict(selection.to_dict())
            assert back == selection

    def test_report_carries_partners(self, surrogate):
        doc = nf.correlation_filter(surrogate, 0.65).to_dict()
        assert doc["method"] == "correlation"
        assert doc["parameter"] == 0.65
        assert all(entry["partner"] is not None for entry in doc["dropped"])
