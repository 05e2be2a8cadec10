"""Tests for repro.ml.binning (quantize-once feature binning).

The load-bearing contract is byte-identity: ``weighted_edges`` must
return bit-for-bit what ``fit_bin_edges`` would on the materialized
repeated/subsetted matrix, because the pair-level fit
(``repro.core.cost_model.fit_pairs``) feeds its edges straight into the
GBT learner for every evaluation cell, collaborative checkpoint and
shard, and the pipeline promises unchanged predictions.
"""

import numpy as np
import pytest

from repro.ml.binning import (
    QuantizedFeatureBlock,
    dedup_columns,
    fit_bin_edges,
)


def _edges_equal(fast, ref):
    assert len(fast) == len(ref)
    for f, r in zip(fast, ref):
        assert f.shape == r.shape
        assert f.tobytes() == r.tobytes()


def _block_values(rng, n_rows, n_cols):
    """Feature-block-like data: few distinct values, duplicate and
    constant columns (no -0.0: sign-of-zero ties are value-equal but
    byte-distinct and never occur in real encodings)."""
    vals = rng.normal(size=(n_rows, n_cols))
    if n_cols > 3:
        vals[:, 1] = 7.0
        vals[:, 2] = vals[:, 0]
        vals[:, 3] = np.abs(np.round(vals[:, 3]))
    return vals


class TestRepeatedQuantileEdges:
    """Equal multiplicities: every block row repeated ``k`` times, as
    each target network is once per training device in the evaluation
    protocol on a complete dataset."""

    @pytest.mark.parametrize("repeats", [1, 2, 5, 24])
    @pytest.mark.parametrize("max_bins", [4, 64, 256])
    def test_matches_materialized_repeat(self, repeats, max_bins):
        rng = np.random.default_rng(0)
        vals = _block_values(rng, 17, 8)
        counts = np.full(17, repeats)
        fast = QuantizedFeatureBlock(vals).weighted_edges(counts, max_bins)
        ref = fit_bin_edges(np.repeat(vals, repeats, axis=0), max_bins)
        _edges_equal(fast, ref)

    def test_single_row(self):
        vals = np.array([[3.0, -1.0]])
        fast = QuantizedFeatureBlock(vals).weighted_edges(np.array([4]), 16)
        _edges_equal(fast, fit_bin_edges(np.repeat(vals, 4, axis=0), 16))


class TestQuantizedFeatureBlock:
    @pytest.mark.parametrize("repeats", [1, 3, 11])
    def test_subset_edges_matches_fit(self, repeats):
        """A row subset repeated ``k`` times, zero elsewhere: the
        protocol's target networks inside the whole suite block."""
        rng = np.random.default_rng(1)
        vals = _block_values(rng, 25, 9)
        block = QuantizedFeatureBlock(vals)
        mask = rng.random(25) > 0.4
        fast = block.weighted_edges(mask.astype(np.int64) * repeats, 64)
        ref = fit_bin_edges(np.repeat(vals[mask], repeats, axis=0), 64)
        _edges_equal(fast, ref)

    def test_weighted_edges_matches_fit(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n_rows = int(rng.integers(1, 30))
            n_cols = int(rng.integers(1, 12))
            vals = _block_values(rng, n_rows, n_cols)
            counts = rng.integers(0, 5, size=n_rows)
            if counts.sum() == 0:
                counts[int(rng.integers(n_rows))] = 2
            max_bins = int(rng.choice([4, 16, 64, 256]))
            fast = QuantizedFeatureBlock(vals).weighted_edges(counts, max_bins)
            ref = fit_bin_edges(np.repeat(vals, counts, axis=0), max_bins)
            _edges_equal(fast, ref)

    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_counts_summing_to_one(self, row):
        # One counted row (zero-count rows around it): np.quantile
        # clips the upper order statistic to the only one there is.
        rng = np.random.default_rng(5)
        vals = _block_values(rng, 7, 5)
        counts = np.zeros(7, dtype=np.int64)
        counts[row] = 1
        fast = QuantizedFeatureBlock(vals).weighted_edges(counts, 64)
        ref = fit_bin_edges(vals[row : row + 1], 64)
        _edges_equal(fast, ref)
        assert all(e.size == 0 for e in fast)

    def test_zero_count_rows_fully_excluded(self):
        # A huge outlier with count 0 must not influence any edge.
        vals = np.array([[1.0], [2.0], [3.0], [1e9]])
        counts = np.array([2, 2, 2, 0])
        fast = QuantizedFeatureBlock(vals).weighted_edges(counts, 16)
        ref = fit_bin_edges(np.repeat(vals, counts, axis=0), 16)
        _edges_equal(fast, ref)
        assert all(np.all(e < 4.0) for e in fast)

    def test_rejects_bad_inputs(self):
        block = QuantizedFeatureBlock(np.ones((4, 2)))
        with pytest.raises(ValueError, match="one entry per block row"):
            block.weighted_edges(np.ones(3, dtype=np.int64), 16)
        with pytest.raises(ValueError, match="integer"):
            block.weighted_edges(np.ones(4), 16)
        with pytest.raises(ValueError, match=">= 0"):
            block.weighted_edges(np.array([1, -1, 0, 0]), 16)
        with pytest.raises(ValueError, match="select no rows"):
            block.weighted_edges(np.zeros(4, dtype=np.int64), 16)
        with pytest.raises(ValueError, match="at least one row"):
            QuantizedFeatureBlock(np.empty((0, 2)))
        with pytest.raises(ValueError, match="2-D|\\(n_items, n_cols\\)"):
            QuantizedFeatureBlock(np.ones(5))


class TestDedupColumns:
    def test_groups_identical_columns(self):
        codes = np.array(
            [[1, 2, 1, 3], [4, 5, 4, 6], [7, 8, 7, 9]], dtype=np.uint8
        )
        reps, inverse = dedup_columns(codes)
        assert reps.tolist() == [0, 1, 3]
        assert inverse.tolist() == [0, 1, 0, 2]
        assert np.array_equal(codes[:, reps][:, inverse], codes)

    def test_all_distinct(self):
        codes = np.arange(12, dtype=np.uint8).reshape(3, 4)
        reps, inverse = dedup_columns(codes)
        assert reps.tolist() == [0, 1, 2, 3]
        assert inverse.tolist() == [0, 1, 2, 3]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            dedup_columns(np.ones(4, dtype=np.uint8))
