"""SMOTE's partition-based neighbour search and mutual information from sorted
columns against the full sorts they replace: equal ids and equal score bits."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import nfdlm as nf
from nfdlm import preprocess

from conftest import full_sort_neighbors, unique_bincount_mi

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Grid steps: exact small integers, inexact decimals, cancellation far from
# the origin, and squared norms that overflow to inf (distances inf and NaN),
# which the search refuses as the reference does.
SCALES = [1.0, 0.37, 1e6, 1e160]


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@hypothesis.given(
    points=st.lists(
        st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=8
    ),
    picks=st.lists(st.integers(0, 7), min_size=2, max_size=24),
    dims=st.integers(1, 3),
    scale=st.sampled_from(SCALES),
    offset=st.sampled_from([0.0, 1e6]),
    k_share=st.floats(0.0, 1.0),
    block=st.integers(1, 7),
)
def test_neighbors_match_the_full_sort(points, picks, dims, scale, offset, k_share, block):
    # Rows are picks from a few grid points, so most rows have exact twins.
    rows = np.array([points[i % len(points)][:dims] for i in picks]) * scale + offset
    k = 1 + int(k_share * (len(rows) - 2))
    expected = full_sort_neighbors(rows, k)
    with mock.patch.object(preprocess, "SMOTE_BLOCK_ROWS", block):
        if expected is None:
            with pytest.raises(nf.DataError, match="^SMOTE cannot rank neighbours: "):
                preprocess._nearest_neighbors(rows, k)
        else:
            assert (preprocess._nearest_neighbors(rows, k) == expected).all()


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@hypothesis.given(
    cells=st.lists(st.tuples(st.integers(0, 40), st.booleans()), min_size=2, max_size=300),
    pool=st.integers(1, 40),
    step=st.sampled_from([1.0, 0.1, -3.0]),
    bins=st.integers(2, 80),
)
def test_mutual_information_matches_unique(cells, pool, step, bins):
    # Values come from a pool of at most 41, so columns repeat values and land
    # on both sides of `bins` distinct values.
    x = np.array([v % pool for v, _ in cells]) * step
    labels = np.array([label for _, label in cells])
    # One class gives exactly 0.0, where the oracle's sum can leave rounding noise.
    expected = unique_bincount_mi(x, labels, bins)[0] if 0 < labels.sum() < labels.size else 0.0
    assert nf.mutual_information(x, labels, bins).hex() == expected.hex()
