"""Tests for the three signature-set selection strategies."""

import numpy as np
import pytest

from repro.core.signature import (
    mutual_information_selection,
    random_selection,
    select_signature_set,
    spearman_correlation_matrix,
    spearman_selection,
)


def _latency_matrix(seed=0, n_devices=40, n_networks=20):
    """Synthetic matrix with two redundant groups + independent nets."""
    rng = np.random.default_rng(seed)
    speed = rng.uniform(1.0, 5.0, size=n_devices)
    matrix = np.empty((n_devices, n_networks))
    for j in range(n_networks):
        if j < 8:  # group A: scale with device speed
            matrix[:, j] = speed * (j + 1) * (1 + 0.01 * rng.normal(size=n_devices))
        elif j < 16:  # group B: scale with inverse-ish profile
            matrix[:, j] = (6.0 - speed) * (j + 1) * (1 + 0.01 * rng.normal(size=n_devices))
        else:  # independent noise networks
            matrix[:, j] = rng.uniform(1, 10, size=n_devices)
    return matrix


class TestRandomSelection:
    def test_size_and_uniqueness(self):
        chosen = random_selection(_latency_matrix(), 5, rng=0)
        assert len(chosen) == 5
        assert len(set(chosen)) == 5
        assert all(0 <= i < 20 for i in chosen)

    def test_deterministic_per_seed(self):
        m = _latency_matrix()
        assert random_selection(m, 5, rng=1) == random_selection(m, 5, rng=1)

    def test_seeds_vary(self):
        m = _latency_matrix()
        sets = {tuple(random_selection(m, 5, rng=s)) for s in range(10)}
        assert len(sets) > 1

    def test_full_size_allowed(self):
        chosen = random_selection(_latency_matrix(), 20, rng=0)
        assert chosen == list(range(20))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            random_selection(_latency_matrix(), 0)
        with pytest.raises(ValueError):
            random_selection(_latency_matrix(), 21)


class TestMISSelection:
    def test_size_and_range(self):
        chosen = mutual_information_selection(_latency_matrix(), 4, rng=0)
        assert len(chosen) == len(set(chosen)) == 4

    def test_covers_both_redundant_groups(self):
        """MIS should pick from both correlated groups rather than
        doubling up inside one."""
        m = _latency_matrix()
        chosen = mutual_information_selection(m, 2, rng=3)
        groups = {0 if i < 8 else (1 if i < 16 else 2) for i in chosen}
        assert len(groups) == 2

    def test_deterministic_per_seed(self):
        m = _latency_matrix()
        a = mutual_information_selection(m, 4, rng=5)
        b = mutual_information_selection(m, 4, rng=5)
        assert a == b

    def test_single_network(self):
        assert len(mutual_information_selection(_latency_matrix(), 1, rng=0)) == 1


class TestSCCSSelection:
    def test_correlation_matrix_properties(self):
        rho = spearman_correlation_matrix(_latency_matrix())
        assert rho.shape == (20, 20)
        assert np.allclose(np.diag(rho), 1.0)
        assert np.allclose(rho, rho.T)
        # Within-group correlations are near-perfect.
        assert rho[0, 1] > 0.95
        assert abs(rho[0, 17]) < 0.6

    def test_picks_cover_groups(self):
        chosen = spearman_selection(_latency_matrix(), 2, gamma=0.9)
        groups = {0 if i < 8 else (1 if i < 16 else 2) for i in chosen}
        # The first pick covers one correlated group; the second must
        # come from outside it.
        assert len(groups) == 2

    def test_requested_size_always_returned(self):
        for size in (1, 3, 10, 20):
            assert len(spearman_selection(_latency_matrix(), size)) == size

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            spearman_selection(_latency_matrix(), 3, gamma=0.0)
        with pytest.raises(ValueError):
            spearman_selection(_latency_matrix(), 3, gamma=1.1)

    def test_deterministic(self):
        m = _latency_matrix()
        assert spearman_selection(m, 5) == spearman_selection(m, 5)


class TestDispatch:
    def test_dispatch_matches_direct_calls(self):
        m = _latency_matrix()
        assert select_signature_set(m, 3, "rs", rng=2) == random_selection(m, 3, rng=2)
        assert select_signature_set(m, 3, "mis", rng=2) == mutual_information_selection(
            m, 3, rng=2
        )
        assert select_signature_set(m, 3, "sccs") == spearman_selection(m, 3)

    def test_case_insensitive(self):
        m = _latency_matrix()
        assert select_signature_set(m, 3, "SCCS") == spearman_selection(m, 3)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown selection method"):
            select_signature_set(_latency_matrix(), 3, "genetic")

    def test_rejects_1d_matrix(self):
        with pytest.raises(ValueError):
            select_signature_set(np.ones(10), 2, "rs")


class TestMissingRows:
    """Selection on matrices with quarantined (NaN) device rows."""

    @pytest.mark.parametrize("method", ["rs", "mis", "sccs"])
    def test_nan_rows_are_masked_not_ranked(self, method):
        m = _latency_matrix()
        holed = m.copy()
        holed[3, :] = np.nan  # quarantined device
        holed[17, 5] = np.nan  # partially measured device
        chosen = select_signature_set(holed, 3, method, rng=0)
        masked = m[[i for i in range(m.shape[0]) if i not in (3, 17)]]
        assert chosen == select_signature_set(masked, 3, method, rng=0)
        assert len(chosen) == len(set(chosen)) == 3

    @pytest.mark.parametrize("method", ["rs", "mis", "sccs"])
    def test_all_rows_missing_raises(self, method):
        holed = _latency_matrix()
        holed[:, 2] = np.nan  # one missing cell in every device row
        with pytest.raises(ValueError, match="missing"):
            select_signature_set(holed, 3, method, rng=0)

    def test_inf_still_rejected(self):
        m = _latency_matrix()
        m[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            select_signature_set(m, 3, "mis", rng=0)

    def test_correlation_matrix_masks_nan_rows(self):
        m = _latency_matrix()
        holed = m.copy()
        holed[5, :] = np.nan
        rho = spearman_correlation_matrix(holed)
        keep = [i for i in range(m.shape[0]) if i != 5]
        assert np.allclose(rho, spearman_correlation_matrix(m[keep]))
        assert np.isfinite(rho).all()


class TestSelectionMemoization:
    """Properties of the pick sequence that any cache of it must keep:
    picks grow incrementally, and a ``Generator`` gives exactly one
    draw."""

    def test_mis_prefix_extension(self):
        matrix = _latency_matrix()
        small = mutual_information_selection(matrix, 4, rng=7)
        large = mutual_information_selection(matrix, 9, rng=7)
        # The greedy picks are incremental: a smaller request is a
        # prefix (as a set — results are returned sorted).
        assert set(small) <= set(large)

    def test_generator_rng_not_memoized_and_stream_preserved(self):
        matrix = _latency_matrix()
        g1 = np.random.default_rng(11)
        a = mutual_information_selection(matrix, 5, rng=g1)
        after_a = g1.integers(1 << 30)
        g2 = np.random.default_rng(11)
        assert int(g2.integers(matrix.shape[1])) in a  # the random first pick
        after_b = g2.integers(1 << 30)
        # Selection consumed exactly one draw from the stream.
        assert after_a == after_b


def _tied_matrix(seed, n_devices, n_networks):
    """Latencies whose MIS scores tie exactly: duplicated columns,
    monotone copies (same bins), a constant column and coarse rounding."""
    rng = np.random.default_rng(seed)
    matrix = np.round(rng.lognormal(size=(n_devices, n_networks)), int(rng.integers(0, 2)))
    matrix += 0.1
    if n_networks >= 5:
        matrix[:, 1] = matrix[:, 0]
        matrix[:, 2] = np.exp(matrix[:, 0])
        matrix[:, 3] = 7.0
        matrix[:, 4] = matrix[:, -1]
    return matrix


class TestMISMatchesLegacy:
    """The array greedy over the vectorized MI kernel picks exactly what
    the seed loop (frozen in ``benchmarks/legacy_train.py``) picks, ties
    included."""

    @pytest.mark.parametrize("seed", range(12))
    def test_picks_equal_legacy_on_tied_matrices(self, seed):
        from benchmarks.legacy_train import legacy_mutual_information_selection

        rng = np.random.default_rng(1000 + seed)
        n_networks = int(rng.integers(5, 40))
        matrix = _tied_matrix(seed, int(rng.integers(3, 90)), n_networks)
        n_bins = (2, 3, 4, 8, 16)[seed % 5]
        for size in (1, int(rng.integers(2, n_networks)), n_networks):
            got = mutual_information_selection(matrix, size, n_bins=n_bins, rng=seed)
            want = legacy_mutual_information_selection(
                matrix, size, n_bins=n_bins, rng=seed
            )
            assert got == want

    def test_generator_rng_equals_legacy_and_leaves_same_stream(self):
        from benchmarks.legacy_train import legacy_mutual_information_selection

        matrix = _tied_matrix(3, 40, 25)
        for size in (1, 6, 25):
            g_new, g_old = np.random.default_rng(5), np.random.default_rng(5)
            got = mutual_information_selection(matrix, size, rng=g_new)
            assert got == legacy_mutual_information_selection(matrix, size, rng=g_old)
            assert g_new.integers(1 << 30) == g_old.integers(1 << 30)


class TestSpearmanVectorization:
    """The single-rank-pass matrix path must match the O(n^2) pairwise
    spearmanr loop it replaced, within float tolerance."""

    def _pairwise_reference(self, matrix):
        from repro.core.signature import _mask_missing_rows
        from repro.ml.metrics import spearmanr

        matrix = _mask_missing_rows(np.asarray(matrix, dtype=float))
        n = matrix.shape[1]
        rho = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                rho[i, j] = rho[j, i] = spearmanr(matrix[:, i], matrix[:, j])
        return rho

    def test_matches_pairwise_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            m = rng.normal(size=(35, 14)) * 50 + 100
            assert np.allclose(
                spearman_correlation_matrix(m),
                self._pairwise_reference(m),
                atol=1e-12,
            )

    def test_ties_constant_columns_and_nan_rows(self):
        rng = np.random.default_rng(1)
        m = rng.integers(0, 4, size=(30, 8)).astype(float)  # heavy ties
        m[:, 2] = 5.0  # constant column -> 0.0 off-diagonal
        m[:, 4] = m[:, 3]  # perfect correlation -> exactly 1.0
        m[rng.integers(30, size=4), rng.integers(8, size=4)] = np.nan
        got = spearman_correlation_matrix(m)
        assert np.allclose(got, self._pairwise_reference(m), atol=1e-12)
        assert np.all(got[2, [0, 1, 3]] == 0.0)
        assert got[3, 4] == 1.0
        assert np.all(np.diag(got) == 1.0)
        assert np.all(np.abs(got) <= 1.0)
