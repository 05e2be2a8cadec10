"""Tests for repro.ml.mutual_info."""

import numpy as np
import pytest

from repro.ml.mutual_info import (
    _discretize_rows,
    discretize,
    entropy,
    joint_entropy,
    mutual_information,
    mutual_information_matrix,
)


class TestDiscretize:
    def test_equal_frequency_bins(self):
        values = np.arange(100.0)
        codes = discretize(values, n_bins=4)
        _, counts = np.unique(codes, return_counts=True)
        assert counts.tolist() == [25, 25, 25, 25]

    def test_monotone(self):
        values = np.random.default_rng(0).normal(size=200)
        order = np.argsort(values)
        codes = discretize(values, 8)
        assert np.all(np.diff(codes[order].astype(int)) >= 0)

    def test_constant_input_single_bin(self):
        codes = discretize(np.ones(50), 8)
        assert len(np.unique(codes)) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            discretize(np.array([]), 4)
        with pytest.raises(ValueError):
            discretize(np.ones(5), 1)


class TestEntropy:
    def test_uniform_distribution(self):
        labels = np.repeat(np.arange(4), 25)
        assert entropy(labels) == pytest.approx(np.log(4))

    def test_deterministic_distribution(self):
        assert entropy(np.zeros(10)) == 0.0

    def test_joint_entropy_of_independent_copies(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, size=10_000)
        b = rng.integers(0, 2, size=10_000)
        assert joint_entropy(a, b) == pytest.approx(2 * np.log(2), abs=0.01)

    def test_joint_entropy_of_identical_variables(self):
        a = np.repeat(np.arange(3), 30)
        assert joint_entropy(a, a) == pytest.approx(entropy(a))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            joint_entropy(np.ones(3), np.ones(4))


class TestMutualInformation:
    def test_self_information_equals_entropy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        mi = mutual_information(x, x, n_bins=8)
        assert mi == pytest.approx(entropy(discretize(x, 8)), abs=1e-9)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=5000), rng.normal(size=5000)
        assert mutual_information(x, y) < 0.05

    def test_dependence_ordering(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=2000)
        noisy = x + rng.normal(size=2000)
        noisier = x + 5 * rng.normal(size=2000)
        assert mutual_information(x, noisy) > mutual_information(x, noisier)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b = rng.normal(size=50), rng.normal(size=50)
            assert mutual_information(a, b) >= 0.0

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=1000), rng.normal(size=1000)
        direct = mutual_information(x, y)
        transformed = mutual_information(np.exp(x), y)
        assert direct == pytest.approx(transformed, abs=1e-9)


class TestMutualInformationMatrix:
    def test_shape_and_symmetry(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(5, 200))
        mi = mutual_information_matrix(data)
        assert mi.shape == (5, 5)
        assert np.allclose(mi, mi.T)

    def test_diagonal_is_entropy(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 300))
        mi = mutual_information_matrix(data, n_bins=8)
        for i in range(3):
            assert mi[i, i] == pytest.approx(entropy(discretize(data[i], 8)))

    def test_correlated_rows_have_high_mi(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=500)
        data = np.stack([base, base + 0.01 * rng.normal(size=500), rng.normal(size=500)])
        mi = mutual_information_matrix(data)
        assert mi[0, 1] > mi[0, 2]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            mutual_information_matrix(np.ones(5))


def _kernel_cases():
    """Rows with 5-300 samples: constant, duplicated, monotone-copied and
    tied rows next to continuous ones, so pair histograms occupy from 1
    to over 128 cells (both sides of NumPy's 8- and 128-element pairwise
    summation blocks)."""
    rng = np.random.default_rng(20)
    for n_samples in (5, 9, 40, 105, 300):
        data = rng.lognormal(size=(10, n_samples))
        data[1] = data[0]
        data[2] = np.exp(data[0])
        data[3] = 4.0
        data[6] = -1.0
        data[4] = np.round(data[4])
        data[5] = rng.integers(0, 3, size=n_samples)
        yield n_samples, data


class TestDiscretizeRows:
    """The kernel bins every row from one row-wise sort; the scalar
    ``discretize`` stays the oracle for each row's codes."""

    @pytest.mark.parametrize("n_bins", [2, 3, 8, 16])
    @pytest.mark.parametrize("n_samples", [1, 2, 3, 5, 9, 40, 105, 300])
    def test_matches_scalar_discretize(self, n_bins, n_samples):
        rng = np.random.default_rng(n_samples)
        data = rng.lognormal(size=(12, n_samples))
        data[1] = 4.0
        data[2] = np.round(data[2])
        data[3] = rng.integers(0, 3, size=n_samples)
        data[4] = np.where(rng.random(n_samples) < 0.8, 1.5, data[4])
        data[5] = -data[5]
        data[6] = np.repeat(rng.normal(size=3), n_samples)[:n_samples]
        data[7, ::2] = 0.0
        data[7, 1::2] = -0.0
        data[8] = data[0]
        data[9, 0] = np.nan
        data[10, -1] = np.inf
        with np.errstate(invalid="ignore"):
            codes = _discretize_rows(data, n_bins)
            for i, row in enumerate(data):
                want = discretize(row, n_bins)
                assert codes[i].dtype == want.dtype
                assert codes[i].tobytes() == want.tobytes(), i

    def test_rejects_what_discretize_rejects(self):
        with pytest.raises(ValueError, match="non-empty"):
            _discretize_rows(np.ones((3, 0)), 8)
        with pytest.raises(ValueError, match="n_bins"):
            _discretize_rows(np.ones((3, 4)), 1)


class TestMutualInformationMatrixExactness:
    """The vectorized kernel reproduces the scalar estimators byte for
    byte: any change to its per-pair summation order breaks this."""

    @pytest.mark.parametrize("n_bins", [2, 3, 8, 16])
    def test_matches_scalar_path_byte_for_byte(self, n_bins):
        widths = set()
        for _, data in _kernel_cases():
            mi = mutual_information_matrix(data, n_bins=n_bins)
            binned = [discretize(row, n_bins) for row in data]
            assert mi.tobytes() == mi.T.tobytes()
            for i in range(len(data)):
                assert mi[i, i].tobytes() == np.float64(entropy(binned[i])).tobytes()
                # The scalar joint entropy sums in (row i, row j) cell
                # order, so the upper triangle is the reference; the
                # lower one mirrors it, as the pairwise loop did.
                for j in range(i + 1, len(data)):
                    want = mutual_information(data[i], data[j], n_bins=n_bins)
                    assert mi[i, j].tobytes() == np.float64(want).tobytes(), (i, j)
                    widths.add(len(np.unique(binned[i] * n_bins + binned[j])))
        assert min(widths) == 1
        assert max(widths) >= {2: 4, 3: 9, 8: 33, 16: 129}[n_bins]

    def test_matches_scalar_path_across_row_blocks(self, monkeypatch):
        import repro.ml.mutual_info as mutual_info

        _, data = list(_kernel_cases())[3]
        whole = mutual_information_matrix(data)
        monkeypatch.setattr(mutual_info, "_BLOCK_CELLS", 1)  # one row per block
        assert mutual_information_matrix(data).tobytes() == whole.tobytes()

    def test_single_row_and_constant_rows(self):
        assert mutual_information_matrix(np.ones((1, 7))).tolist() == [[0.0]]
        mi = mutual_information_matrix(np.full((3, 6), 2.5))
        assert np.all(mi == 0.0)

    def test_memory_stays_bounded(self):
        import tracemalloc

        data = np.random.default_rng(21).lognormal(size=(500, 105))
        tracemalloc.start()
        try:
            mutual_information_matrix(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # An unblocked (n_networks * n_bins)^2 count matrix alone is 128 MB.
        assert peak < 64 * 2**20
