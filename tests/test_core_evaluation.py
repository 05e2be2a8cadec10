"""Tests for the evaluation protocols (device split, cluster split)."""

import numpy as np
import pytest

from repro.analysis.clustering import cluster_devices
from repro.core.evaluation import (
    cluster_split_evaluation,
    device_split_evaluation,
)
from repro.core.signature import select_signature_set
from repro.dataset.dataset import LatencyDataset


class TestDeviceSplitEvaluation:
    @pytest.fixture(scope="class")
    def result(self, small_dataset, small_suite):
        return device_split_evaluation(
            small_dataset,
            small_suite,
            signature_size=4,
            method="rs",
            split_seed=0,
            selection_rng=0,
        )

    def test_split_is_70_30(self, result, small_dataset):
        n = small_dataset.n_devices
        assert len(result.test_devices) == round(0.3 * n)
        assert len(result.train_devices) + len(result.test_devices) == n
        assert not set(result.train_devices) & set(result.test_devices)

    def test_signature_networks_excluded_from_targets(self, result, small_dataset):
        n_targets = small_dataset.n_networks - len(result.signature_names)
        assert result.y_true.size == len(result.test_devices) * n_targets

    def test_r2_reasonable(self, result):
        assert 0.0 < result.r2 <= 1.0

    def test_predictions_aligned(self, result):
        assert result.y_true.shape == result.y_pred.shape
        assert (result.y_true > 0).all()

    def test_signature_size_respected(self, result):
        assert len(result.signature_names) == 4

    def test_deterministic(self, small_dataset, small_suite):
        kwargs = dict(signature_size=3, method="rs", split_seed=1, selection_rng=1)
        a = device_split_evaluation(small_dataset, small_suite, **kwargs)
        b = device_split_evaluation(small_dataset, small_suite, **kwargs)
        assert a.r2 == b.r2
        assert a.signature_names == b.signature_names

    def test_methods_dispatch(self, small_dataset, small_suite):
        for method in ("rs", "mis", "sccs"):
            res = device_split_evaluation(
                small_dataset, small_suite, signature_size=3, method=method,
                split_seed=0, selection_rng=0,
            )
            assert res.method == method
            assert res.r2 > 0.0


class TestClusterSplitEvaluation:
    def test_train_test_disjoint_by_cluster(self, small_dataset, small_suite):
        _, labels = cluster_devices(small_dataset)
        result = cluster_split_evaluation(
            small_dataset, small_suite, labels, test_cluster=2,
            signature_size=3, method="rs", selection_rng=0,
        )
        test_set = set(result.test_devices)
        for name, label in zip(small_dataset.device_names, labels):
            assert (name in test_set) == (label == 2)

    def test_label_length_validated(self, small_dataset, small_suite):
        with pytest.raises(ValueError, match="per device"):
            cluster_split_evaluation(
                small_dataset, small_suite, np.zeros(3), test_cluster=0
            )

    def test_empty_cluster_rejected(self, small_dataset, small_suite):
        labels = np.zeros(small_dataset.n_devices)
        with pytest.raises(ValueError, match="no devices"):
            cluster_split_evaluation(
                small_dataset, small_suite, labels, test_cluster=7
            )


class TestPartialDatasetEvaluation:
    """A fault-tolerant campaign leaves NaN cells; evaluation must mask
    them, never rank or regress on them."""

    @pytest.fixture(scope="class")
    def partial(self, small_dataset):
        # "rs" selection ignores matrix values, so the signature is the
        # same on partial and complete data and we can NaN a known
        # *target* cell without circularity.
        sig = set(
            select_signature_set(small_dataset.latencies_ms, 4, "rs", rng=0)
        )
        target_col = next(
            j for j in range(small_dataset.n_networks) if j not in sig
        )
        matrix = small_dataset.latencies_ms.copy()
        matrix[0, :] = np.nan  # quarantined device
        matrix[1, target_col] = np.nan  # healthy device, one missing cell
        return LatencyDataset(
            matrix, small_dataset.device_names, small_dataset.network_names
        )

    @pytest.fixture(scope="class")
    def result(self, partial, small_suite):
        return device_split_evaluation(
            partial, small_suite, signature_size=4, method="rs",
            split_seed=0, selection_rng=0,
        )

    def test_metrics_finite(self, result):
        assert np.isfinite(result.r2)
        assert np.isfinite(result.rmse_ms)
        assert np.isfinite(result.y_true).all()
        assert np.isfinite(result.y_pred).all()

    def test_quarantined_device_dropped(self, result, partial):
        kept = set(result.train_devices) | set(result.test_devices)
        assert partial.device_names[0] not in kept
        assert partial.device_names[1] in kept

    def test_missing_target_cells_excluded(self, result, partial):
        test_rows = [partial.device_index(d) for d in result.test_devices]
        target_cols = [
            j
            for j, name in enumerate(partial.network_names)
            if name not in result.signature_names
        ]
        observed = np.isfinite(
            partial.latencies_ms[np.ix_(test_rows, target_cols)]
        ).sum()
        assert result.y_true.size == observed

    def test_empty_test_side_rejected(self, partial, small_suite):
        labels = np.zeros(partial.n_devices, dtype=int)
        labels[0] = 1  # the quarantined device is the whole test cluster
        with pytest.raises(ValueError, match="signature"):
            cluster_split_evaluation(
                partial, small_suite, labels, test_cluster=1,
                signature_size=4, method="rs", selection_rng=0,
            )


class TestQuantizedProtocolParity:
    """The pair-level fit must be byte-identical to the seed protocol
    (frozen in ``benchmarks/legacy_train.py``), on complete and on
    NaN-holed datasets alike."""

    @pytest.mark.parametrize("method", ["rs", "mis"])
    def test_matches_seed_protocol(self, small_dataset, small_suite, method):
        from benchmarks.legacy_train import legacy_device_split_evaluation

        result = device_split_evaluation(
            small_dataset, small_suite, signature_size=4, method=method,
            split_seed=0, selection_rng=0,
        )
        ref = legacy_device_split_evaluation(
            small_dataset, small_suite, signature_size=4, method=method,
            split_seed=0, selection_rng=0,
        )
        assert list(result.signature_names) == list(ref["signature_names"])
        assert result.r2 == ref["r2"]
        assert result.rmse_ms == ref["rmse_ms"]
        assert np.array_equal(result.y_true, ref["y_true"])
        assert np.array_equal(result.y_pred, ref["y_pred"])

    def test_matches_seed_protocol_with_missing_cells(
        self, small_dataset, small_suite
    ):
        from benchmarks.legacy_train import legacy_device_split_evaluation

        matrix = small_dataset.latencies_ms.copy()
        sig = set(select_signature_set(matrix, 4, "rs", rng=0))
        target_col = next(
            j for j in range(small_dataset.n_networks) if j not in sig
        )
        matrix[1, target_col] = np.nan
        partial = LatencyDataset(
            matrix, small_dataset.device_names, small_dataset.network_names
        )
        result = device_split_evaluation(
            partial, small_suite, signature_size=4, method="rs",
            split_seed=0, selection_rng=0,
        )
        ref = legacy_device_split_evaluation(
            partial, small_suite, signature_size=4, method="rs",
            split_seed=0, selection_rng=0,
        )
        assert result.r2 == ref["r2"]
        assert np.array_equal(result.y_true, ref["y_true"])
        assert np.array_equal(result.y_pred, ref["y_pred"])

    def test_one_training_pair_matches_seed_protocol(
        self, small_dataset, small_suite
    ):
        # One training device, one target network: a single training
        # pair, so each bin-edge column holds one value.
        from benchmarks.legacy_train import legacy_run_signature_protocol

        tiny = LatencyDataset(
            small_dataset.latencies_ms[:3, :2],
            small_dataset.device_names[:3],
            small_dataset.network_names[:2],
        )
        result = cluster_split_evaluation(
            tiny, small_suite, [0, 1, 1], test_cluster=1,
            signature_size=1, method="rs", selection_rng=0,
        )
        ref = legacy_run_signature_protocol(
            tiny, small_suite, tiny.device_names[:1], tiny.device_names[1:],
            signature_size=1, method="rs", selection_rng=0, regressor_seed=0,
        )
        assert result.y_true.size == 2
        assert np.array_equal(result.y_true, ref["y_true"])
        assert np.array_equal(result.y_pred, ref["y_pred"])

    def test_sweep_reuses_shared_quantization(self, small_dataset, small_suite):
        from repro import telemetry
        from repro.core.evaluation import signature_size_sweep
        from repro.core.representation import clear_suite_memo

        kwargs = dict(sizes=[3, 5], methods=("rs",), backend="serial")
        with telemetry.scoped_registry() as reg:
            clear_suite_memo()
            first = signature_size_sweep(small_dataset, small_suite, **kwargs)
            misses = reg.counter_value("train.bin_reuse_misses")
            hits_after_first = reg.counter_value("train.bin_reuse_hits")
            second = signature_size_sweep(small_dataset, small_suite, **kwargs)
            hits = reg.counter_value("train.bin_reuse_hits")
        assert first == second
        # One encoder/binning build total; every further cell reuses it.
        assert misses == 1
        assert hits > hits_after_first
