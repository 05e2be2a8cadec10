"""Tests for repro.ml.binning (quantize-once feature binning).

The load-bearing contract is byte-identity with the seed's per-column
``np.quantile`` binning: ``fit_bin_edges`` and ``weighted_edges`` must
return bit-for-bit what :func:`_quantile_edges` (written out here, one
``np.quantile`` call per column) gives on the materialized matrix,
because the GBT learner and the pair-level fit
(``repro.core.cost_model.fit_pairs``) feed these edges straight into
every evaluation cell, collaborative checkpoint and shard, and the
pipeline promises unchanged predictions. Both routines share
``_numpy_lerp``, so they are checked against this oracle, never
against each other.
"""

import tracemalloc

import numpy as np
import pytest

from repro.ml.binning import (
    QuantizedFeatureBlock,
    _interior_edges,
    dedup_columns,
    fit_bin_edges,
    row_quantiles,
)


def _quantile_edges(X, max_bins):
    """Independent oracle: the seed's per-column np.quantile binning."""
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    edges = []
    for f in range(X.shape[1]):
        e = np.unique(np.quantile(X[:, f], quantiles))
        edges.append(e[e < X[:, f].max()])
    return edges


def _edges_equal(fast, ref):
    assert len(fast) == len(ref)
    for f, r in zip(fast, ref):
        assert f.dtype == r.dtype
        assert f.shape == r.shape
        assert f.tobytes() == r.tobytes()


def _block_values(rng, n_rows, n_cols):
    """Feature-block-like data: few distinct values, duplicate and
    constant columns (no -0.0: a sort and numpy's partition may put
    either zero of a sign-of-zero tie at an order statistic, and such
    ties never occur in real encodings)."""
    vals = rng.normal(size=(n_rows, n_cols))
    if n_cols > 3:
        vals[:, 1] = 7.0
        vals[:, 2] = vals[:, 0]
        vals[:, 3] = np.abs(np.round(vals[:, 3]))
    return vals


def _awkward_matrix(rng, n_rows):
    """Columns of every kind the oracle must agree on: continuous, few
    distinct values, constant, duplicated, NaN-holding and +-inf."""
    X = rng.normal(size=(n_rows, 12))
    X[:, 1] = 7.0
    X[:, 2] = X[:, 0]
    X[:, 3] = np.round(X[:, 3]) + 0.0  # + 0.0: no -0.0 (see _block_values)
    X[:, 4] = np.nan
    X[: (n_rows + 1) // 2, 5] = np.nan
    X[0, 6] = np.inf
    X[-1, 7] = -np.inf
    X[:, 8] = np.inf
    X[:, 9] = np.where(np.arange(n_rows) % 2, np.inf, -np.inf)
    X[:, 10] = np.round(X[:, 10] * 3) / 3 + 0.0
    X[:, 11] = X[:, 3]
    return X


class TestFitBinEdges:
    @pytest.mark.parametrize("max_bins", [2, 3, 64, 255, 256])
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 17, 600])
    def test_matches_oracle(self, n_rows, max_bins):
        X = _awkward_matrix(np.random.default_rng(n_rows), n_rows)
        with np.errstate(invalid="ignore"):
            ref = _quantile_edges(X, max_bins)
            fast = fit_bin_edges(X, max_bins)
        _edges_equal(fast, ref)

    @pytest.mark.parametrize("max_bins", [2, 3, 64, 255, 256])
    def test_integer_input(self, max_bins):
        rng = np.random.default_rng(3)
        X = rng.integers(-50, 50, size=(301, 6))
        X[:, 1] = 4
        X[:, 2] = rng.integers(0, 3, size=301)
        fast = fit_bin_edges(X, max_bins)
        _edges_equal(fast, _quantile_edges(X, max_bins))
        assert all(e.dtype == np.float64 for e in fast)

    def test_column_blocks_match_oracle(self, monkeypatch):
        # Many small sort blocks and transpose tiles, including a ragged
        # last one of each.
        import repro.ml.binning as binning

        monkeypatch.setattr(binning, "_SORT_BLOCK_CELLS", 7 * 50)
        monkeypatch.setattr(binning, "_TRANSPOSE_TILE_ROWS", 16)
        X = np.random.default_rng(4).normal(size=(50, 23))
        X[:, ::5] = np.round(X[:, ::5]) + 0.0
        _edges_equal(fit_bin_edges(X, 64), _quantile_edges(X, 64))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="at least one row"):
            fit_bin_edges(np.empty((0, 3)), 64)
        with pytest.raises(ValueError, match="2-D"):
            fit_bin_edges(np.ones(5), 64)
        assert fit_bin_edges(np.ones((4, 0)), 64) == []

    def test_memory_is_one_sort_block(self):
        # A full copy of X would be 32 MB; a sort block is 8 MiB.
        X = np.random.default_rng(5).normal(size=(4000, 1000))
        tracemalloc.start()
        try:
            fit_bin_edges(X, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestRowQuantiles:
    @pytest.mark.parametrize("max_bins", [2, 3, 8, 64, 256])
    @pytest.mark.parametrize("n", [1, 2, 5, 73, 300])
    def test_matches_np_quantile(self, n, max_bins):
        rows = np.sort(np.random.default_rng(n).lognormal(size=(9, n)), axis=1)
        rows[1] = 2.5
        rows[2] = np.sort(np.round(rows[2]))
        q = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
        ref = np.quantile(rows, q, axis=1).T
        assert row_quantiles(rows, max_bins).tobytes() == ref.tobytes()


class TestInteriorEdges:
    """The shared edge tail against the per-row ``np.unique`` loop it
    replaced: the row-wise sort must keep the same element of every run,
    sign of zero included."""

    @staticmethod
    def _loop(points, col_max):
        edges = []
        for c in range(points.shape[0]):
            e = np.unique(points[c])
            edges.append(e[e < col_max[c]])
        return edges

    def test_matches_unique_loop(self):
        rng = np.random.default_rng(6)
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.5])
        for width in (1, 2, 7, 63, 255):
            points = rng.choice(specials, size=(40, width))
            points[::3] = np.round(rng.normal(size=(len(points[::3]), width)), 1)
            points[1] = -0.0
            points[2, ::2] = 0.0
            points[2, 1::2] = -0.0
            col_max = rng.choice(specials, size=40)
            col_max[:4] = [np.nan, np.inf, 0.0, -0.0]
            _edges_equal(_interior_edges(points, col_max), self._loop(points, col_max))


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
        ref = _quantile_edges(np.repeat(vals, repeats, axis=0), max_bins)
        _edges_equal(fast, ref)

    def test_single_row(self):
        vals = np.array([[3.0, -1.0]])
        fast = QuantizedFeatureBlock(vals).weighted_edges(np.array([4]), 16)
        _edges_equal(fast, _quantile_edges(np.repeat(vals, 4, axis=0), 16))


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
        ref = _quantile_edges(np.repeat(vals[mask], repeats, axis=0), 64)
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
            ref = _quantile_edges(np.repeat(vals, counts, axis=0), max_bins)
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
        ref = _quantile_edges(vals[row : row + 1], 64)
        _edges_equal(fast, ref)
        assert all(e.size == 0 for e in fast)

    def test_zero_count_rows_fully_excluded(self):
        # A huge outlier with count 0 must not influence any edge.
        vals = np.array([[1.0], [2.0], [3.0], [1e9]])
        counts = np.array([2, 2, 2, 0])
        fast = QuantizedFeatureBlock(vals).weighted_edges(counts, 16)
        ref = _quantile_edges(np.repeat(vals, counts, axis=0), 16)
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
