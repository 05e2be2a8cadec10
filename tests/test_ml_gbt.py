"""Tests for repro.ml.gbt (XGBoost-style gradient boosting)."""

import numpy as np
import pytest

from repro.ml.binning import apply_bin_edges, fit_bin_edges
from repro.ml.gbt import GradientBoostedTrees
from repro.ml.metrics import r2_score


def _friedman(n, seed=0):
    """A standard nonlinear regression benchmark."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 10))
    y = (
        10 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20 * (X[:, 2] - 0.5) ** 2
        + 10 * X[:, 3]
        + 5 * X[:, 4]
        + rng.normal(0, 0.5, n)
    )
    return X, y


class TestBinning:
    def test_codes_monotone_in_value(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        edges = fit_bin_edges(X, 8)
        codes = apply_bin_edges(X, edges)
        assert np.all(np.diff(codes[:, 0].astype(int)) >= 0)
        assert codes.max() <= 7

    def test_constant_column_single_bin(self):
        X = np.ones((50, 1))
        edges = fit_bin_edges(X, 16)
        codes = apply_bin_edges(X, edges)
        assert np.all(codes == 0)

    def test_few_distinct_values_few_bins(self):
        X = np.repeat([[0.0], [1.0], [2.0]], 20, axis=0)
        edges = fit_bin_edges(X, 64)
        codes = apply_bin_edges(X, edges)
        assert len(np.unique(codes)) == 3


class TestGradientBoostedTrees:
    def test_fits_friedman_well(self):
        X, y = _friedman(2000)
        Xt, yt = _friedman(500, seed=1)
        model = GradientBoostedTrees(n_estimators=200, max_depth=4).fit(X, y)
        assert r2_score(yt, model.predict(Xt)) > 0.85

    def test_single_tree_beats_nothing(self):
        X, y = _friedman(500)
        model = GradientBoostedTrees(n_estimators=1, learning_rate=1.0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.2

    def test_training_rmse_decreases(self):
        X, y = _friedman(800)
        model = GradientBoostedTrees(n_estimators=50).fit(X, y)
        rmses = model.train_rmse_
        assert rmses[-1] < rmses[0]
        # Non-strict monotonicity: every step must not increase RMSE
        # (full-data squared-loss boosting guarantees this).
        assert all(b <= a + 1e-9 for a, b in zip(rmses, rmses[1:]))

    def test_deterministic_without_sampling(self):
        X, y = _friedman(300)
        p1 = GradientBoostedTrees(n_estimators=20, seed=1).fit(X, y).predict(X)
        p2 = GradientBoostedTrees(n_estimators=20, seed=2).fit(X, y).predict(X)
        assert np.allclose(p1, p2)

    def test_subsampling_seed_changes_model(self):
        X, y = _friedman(300)
        p1 = GradientBoostedTrees(n_estimators=20, subsample=0.5, seed=1).fit(X, y).predict(X)
        p2 = GradientBoostedTrees(n_estimators=20, subsample=0.5, seed=2).fit(X, y).predict(X)
        assert not np.allclose(p1, p2)

    def test_colsample_accuracy_holds(self):
        X, y = _friedman(1500)
        Xt, yt = _friedman(400, seed=2)
        full = GradientBoostedTrees(n_estimators=100).fit(X, y)
        sub = GradientBoostedTrees(n_estimators=100, colsample_bytree=0.4).fit(X, y)
        assert r2_score(yt, sub.predict(Xt)) > r2_score(yt, full.predict(Xt)) - 0.1

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        model = GradientBoostedTrees(n_estimators=5).fit(X, np.full(50, 3.3))
        assert np.allclose(model.predict(X), 3.3)

    def test_constant_features_predict_mean(self):
        X = np.ones((40, 4))
        y = np.arange(40.0)
        model = GradientBoostedTrees(n_estimators=10).fit(X, y)
        assert np.allclose(model.predict(X), y.mean())

    def test_feature_importances_identify_signal(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(800, 6))
        y = 10 * X[:, 2] + 0.01 * rng.normal(size=800)
        model = GradientBoostedTrees(n_estimators=30).fit(X, y)
        assert model.feature_importances_ is not None
        assert np.argmax(model.feature_importances_) == 2
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_padding_columns_are_ignored(self):
        X, y = _friedman(600)
        padded = np.hstack([X, np.zeros((600, 50))])
        model = GradientBoostedTrees(n_estimators=30).fit(padded, y)
        assert model.feature_importances_ is not None
        assert model.feature_importances_[10:].sum() == 0.0

    def test_learning_rate_shrinkage(self):
        X, y = _friedman(500)
        fast = GradientBoostedTrees(n_estimators=5, learning_rate=0.5).fit(X, y)
        slow = GradientBoostedTrees(n_estimators=5, learning_rate=0.01).fit(X, y)
        # The low-lr model has barely moved from the base score.
        assert np.std(slow.predict(X)) < np.std(fast.predict(X))

    def test_reg_lambda_shrinks_leaf_values(self):
        X, y = _friedman(300)
        loose = GradientBoostedTrees(n_estimators=1, reg_lambda=0.0, learning_rate=1.0).fit(X, y)
        tight = GradientBoostedTrees(n_estimators=1, reg_lambda=100.0, learning_rate=1.0).fit(X, y)
        assert np.std(tight.predict(X)) < np.std(loose.predict(X))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.ones((1, 2)))

    def test_wrong_width_raises(self):
        X, y = _friedman(100)
        model = GradientBoostedTrees(n_estimators=2).fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_estimators": 0},
            {"learning_rate": 0.0},
            {"learning_rate": 1.5},
            {"max_depth": 0},
            {"subsample": 0.0},
            {"colsample_bytree": 1.5},
            {"max_bins": 1},
            {"max_bins": 300},
        ],
    )
    def test_invalid_hyperparams(self, kwargs):
        with pytest.raises(ValueError):
            GradientBoostedTrees(**kwargs)


# Block sizes from a lone serving row to a pipeline-sized block.
ROW_COUNTS = (1, 2, 7, 64, 128, 129, 150, 1000)


class TestQuantizeOncePaths:
    """fit_binned / predict_binned / fit_more and their identity contracts."""

    def test_fit_binned_matches_fit(self):
        X, y = _friedman(600)
        Xt, _ = _friedman(200, seed=1)
        ref = GradientBoostedTrees(n_estimators=20, colsample_bytree=0.5).fit(X, y)
        edges = fit_bin_edges(X, ref.max_bins)
        codes = apply_bin_edges(X, edges)
        binned = GradientBoostedTrees(n_estimators=20, colsample_bytree=0.5)
        binned.fit_binned(codes, edges, y)
        assert np.array_equal(binned.predict(Xt), ref.predict(Xt))

    def test_matches_seed_implementation(self):
        from benchmarks.legacy_train import LegacyGradientBoostedTrees

        X, y = _friedman(500)
        Xt, _ = _friedman(max(ROW_COUNTS), seed=2)
        params = dict(n_estimators=25, max_depth=3, colsample_bytree=0.25, seed=3)
        legacy = LegacyGradientBoostedTrees(**params).fit(X, y)
        new = GradientBoostedTrees(**params).fit(X, y)
        for rows in ROW_COUNTS:
            assert new.predict(Xt[:rows]).tobytes() == legacy.predict(Xt[:rows]).tobytes()

    def test_predict_block_matches_per_row_predict_binned(self):
        X, y = _friedman(500)
        model = GradientBoostedTrees(n_estimators=30, seed=1).fit(X, y)
        codes = apply_bin_edges(_friedman(max(ROW_COUNTS), seed=7)[0], model.bin_edges)
        per_row = np.concatenate([model.predict_binned(row[None, :]) for row in codes])
        for rows in ROW_COUNTS:
            block = model.predict_block(codes[:rows, :6], codes[:rows, 6:])
            assert block.tobytes() == per_row[:rows].tobytes()

    def test_predict_binned_matches_predict(self):
        X, y = _friedman(400)
        Xt, _ = _friedman(300, seed=4)
        model = GradientBoostedTrees(n_estimators=15).fit(X, y)
        codes = apply_bin_edges(Xt, model.bin_edges)
        assert np.array_equal(model.predict_binned(codes), model.predict(Xt))

    def test_bin_edges_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GradientBoostedTrees().bin_edges

    def test_fit_binned_validates_codes(self):
        model = GradientBoostedTrees(n_estimators=2)
        y = np.ones(4)
        with pytest.raises(ValueError, match="uint8"):
            model.fit_binned(np.ones((4, 2)), [np.array([])] * 2, y)
        with pytest.raises(ValueError, match="edge array per feature"):
            model.fit_binned(np.ones((4, 2), dtype=np.uint8), [np.array([])], y)

    def test_fit_more_zero_is_noop(self):
        X, y = _friedman(300)
        model = GradientBoostedTrees(n_estimators=10).fit(X, y)
        before = model.predict(X)
        model.fit_more(X, y, 0)
        assert len(model._trees) == 10
        assert np.array_equal(model.predict(X), before)

    def test_fit_more_appends_and_improves_train_fit(self):
        X, y = _friedman(600)
        model = GradientBoostedTrees(n_estimators=10).fit(X, y)
        rmse_before = model.train_rmse_[-1]
        model.fit_more(X, y, 15)
        assert len(model._trees) == 25
        assert model.train_rmse_[-1] < rmse_before

    def test_fit_more_is_deterministic(self):
        X, y = _friedman(400)
        X2, y2 = _friedman(700, seed=5)
        Xt, _ = _friedman(100, seed=6)
        a = GradientBoostedTrees(n_estimators=8, colsample_bytree=0.5).fit(X, y)
        b = GradientBoostedTrees(n_estimators=8, colsample_bytree=0.5).fit(X, y)
        a.fit_more(X2, y2, 7)
        b.fit_more(X2, y2, 7)
        assert np.array_equal(a.predict(Xt), b.predict(Xt))

    def test_fit_more_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GradientBoostedTrees().fit_more(np.ones((2, 2)), np.ones(2), 5)

    def test_fit_more_rejects_negative(self):
        X, y = _friedman(100)
        model = GradientBoostedTrees(n_estimators=2).fit(X, y)
        with pytest.raises(ValueError, match=">= 0"):
            model.fit_more(X, y, -1)
