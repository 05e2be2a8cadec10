"""Gradient-boosted regression trees in the style of XGBoost.

The paper trains its cost models with XGBoost (``gbtree`` booster,
``lr = 0.1``, ``n_estimators = 100``, ``max_depth = 3``, RMSE loss).
XGBoost is unavailable offline, so this module re-implements the same
algorithm: second-order additive tree boosting with the regularized
gain

    gain = 1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                   - (G_L+G_R)^2/(H_L+H_R+lambda) ] - gamma

and leaf weights ``-G/(H+lambda)``. For squared loss the hessian is
identically 1, so H histograms reduce to sample counts.

Trees are grown on quantile-binned features (histogram method) with the
sibling-subtraction trick. The hot path is organized around the
quantize-once pipeline (see ``repro.ml.binning``):

- :meth:`GradientBoostedTrees.fit_binned` trains directly on uint8 bin
  codes + edges, so callers that share pre-binned feature blocks across
  many fits skip quantization entirely; :meth:`~GradientBoostedTrees.fit`
  is a thin bin-then-train wrapper with the seed semantics (its edges
  come from one blocked sort of the columns, see
  :func:`~repro.ml.binning.fit_bin_edges`).
- Masked network encodings contain many byte-identical columns
  (repeated one-hot/padding patterns). Histograms, sibling subtraction
  and split search run once per *distinct* column, which is bit-exact
  because identical code columns produce identical accumulation
  sequences; only the leaf sums expand back to the per-feature layout,
  and the tie-break reproduces the per-feature ``np.argmax`` (see
  :class:`_TreeBuilder`).
- Count histograms of the full training set are precomputed once per
  fit and reused at every root node (integer counts are order-free).
- :meth:`~GradientBoostedTrees.predict_binned` evaluates the whole
  ensemble with one vectorized fixed-depth descent over a packed
  ``(n_trees, n_nodes)`` structure-of-arrays instead of a Python loop
  over trees; per-tree leaf contributions are still summed sequentially
  in tree order, so predictions are byte-identical to the loop.
- :meth:`~GradientBoostedTrees.fit_more` continues boosting on a fitted
  model (warm start) with frozen bin edges — the collaborative
  evolution sweep appends trees instead of retraining from scratch.

All float accumulations keep the seed implementation's operation order,
so with warm start off every prediction is byte-identical to the
original per-fit-binning implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.ml.binning import apply_bin_edges, dedup_columns, fit_bin_edges

__all__ = ["GradientBoostedTrees"]

_MAX_BINS_LIMIT = 255  # codes are stored as uint8


@dataclass
class _FlatTree:
    """One boosted tree in flat-array form over binned feature codes."""

    feature: np.ndarray  # int32, -1 for leaves
    bin_threshold: np.ndarray  # uint8; go left iff code <= threshold
    left: np.ndarray  # int32 child index
    right: np.ndarray  # int32 child index
    value: np.ndarray  # float leaf weights (pre-shrunk)

    def predict(self, codes: np.ndarray) -> np.ndarray:
        out = np.empty(codes.shape[0], dtype=float)
        stack = [(0, np.arange(codes.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            f = self.feature[node]
            if f < 0:
                out[rows] = self.value[node]
                continue
            mask = codes[rows, f] <= self.bin_threshold[node]
            stack.append((self.left[node], rows[mask]))
            stack.append((self.right[node], rows[~mask]))
        return out


class _BoostState:
    """Per-training-matrix precomputation shared by all boosting rounds.

    Deduplicates byte-identical active columns, pre-offsets their codes
    into one int64 matrix (``unique_off[i, u] = codes[i, rep(u)] +
    u * n_bins``) so any node histogram is a single ``bincount``, and
    precomputes the full-data count histogram reused at every root.
    """

    def __init__(self, codes: np.ndarray, active: np.ndarray, n_bins: int) -> None:
        self.active = active
        # active-column position -> distinct-column group id.
        reps, self.group_of = dedup_columns(codes[:, active])
        n_unique = reps.size
        offsets = np.arange(n_unique, dtype=np.int64) * n_bins
        self.unique_off = codes[:, active[reps]].astype(np.int64) + offsets
        self.hist_shape = (n_unique, n_bins)
        # Integer counts are order-free, so the root count histogram of
        # the full training set is computed once and reused by every
        # tree (it only depends on the codes, not the gradients).
        self.full_counts = np.bincount(
            self.unique_off.ravel(), minlength=n_unique * n_bins
        ).reshape(self.hist_shape)


class _TreeBuilder:
    """Grows one tree on binned codes with histogram splits.

    Histograms, sibling subtraction and split search run per *distinct*
    code column of this tree's sample: ``sub`` holds the pre-offset
    codes of the sampled groups, ``groups`` their rows in the fit's
    group space (``None`` when every group is sampled) and
    ``feat_local`` each sampled feature's row in the sampled-group
    layout. Features of one group have byte-identical histogram rows,
    so every elementwise operation and every row's cumulative sums
    give, per group, the bytes the per-feature layout would. Two steps
    still answer as the per-feature layout:

    - the node sums behind the leaf value reduce over every sampled
      feature's histogram, so the groups are expanded back for them;
    - the tie-break: ``np.argmax`` over the per-feature gain matrix
      takes the first sampled feature whose row holds the maximum, at
      that row's first maximal bin. :meth:`_best_split` takes each
      group's first maximal bin, then the first sampled feature whose
      group holds the maximum, which is the same (feature, bin).
    """

    def __init__(
        self,
        codes: np.ndarray,
        sub: np.ndarray,
        features: np.ndarray,
        groups: np.ndarray | None,
        feat_local: np.ndarray,
        hist_shape: tuple[int, int],
        n_bins: int,
        max_depth: int,
        reg_lambda: float,
        gamma: float,
        min_child_weight: float,
        root_counts: np.ndarray | None = None,
    ) -> None:
        self.codes = codes
        self.sub = sub
        self.features = features
        self.groups = groups
        self.feat_local = feat_local
        self.hist_shape = hist_shape
        self.n_bins = n_bins
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.root_counts = root_counts
        self._hist_size = hist_shape[0] * hist_shape[1]
        # Flat tree under construction.
        self.feature: list[int] = []
        self.bin_threshold: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.split_gains: dict[int, float] = {}

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.bin_threshold.append(0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _histograms(
        self, rows: np.ndarray, g: np.ndarray, *, root: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """(gradient, count) histograms of shape (n_sampled_groups, n_bins)."""
        n_cols = self.sub.shape[1]
        if root and self.root_counts is not None:
            # Full-data root: no row gather, counts precomputed.
            flat = self.sub.ravel()
            weights = np.repeat(g, n_cols)
            counts = self.root_counts
        else:
            flat = self.sub[rows].ravel()
            weights = np.repeat(g[rows], n_cols)
            counts = np.bincount(flat, minlength=self._hist_size).reshape(
                self.hist_shape
            )
        g_hist = np.bincount(flat, weights=weights, minlength=self._hist_size)
        g_hist = g_hist.reshape(self.hist_shape)
        if self.groups is not None:
            g_hist, counts = g_hist[self.groups], counts[self.groups]
        return g_hist, counts.astype(float)

    def _best_split(
        self, g_hist: np.ndarray, h_hist: np.ndarray
    ) -> tuple[float, int, int] | None:
        """Return (gain, feature, bin) of the best split or None."""
        g_left = np.cumsum(g_hist, axis=1)[:, :-1]
        h_left = np.cumsum(h_hist, axis=1)[:, :-1]
        g_total = g_hist.sum(axis=1, keepdims=True)
        h_total = h_hist.sum(axis=1, keepdims=True)
        g_right = g_total - g_left
        h_right = h_total - h_left

        lam = self.reg_lambda
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = 0.5 * (
                g_left**2 / (h_left + lam)
                + g_right**2 / (h_right + lam)
                - g_total**2 / (h_total + lam)
            ) - self.gamma
        invalid = (h_left < self.min_child_weight) | (h_right < self.min_child_weight)
        gain[invalid] = -np.inf
        if gain.size == 0:
            return None
        # Each group's first maximal bin (NaN first, as np.argmax), then
        # the first sampled feature whose group holds the maximum.
        bins = np.argmax(gain, axis=1)
        group_best = gain[np.arange(gain.shape[0]), bins]
        feat_idx = int(np.argmax(group_best[self.feat_local]))
        group = self.feat_local[feat_idx]
        best_gain = float(group_best[group])
        if not np.isfinite(best_gain) or best_gain <= 0.0:
            return None
        return best_gain, int(self.features[feat_idx]), int(bins[group])

    def build(self, rows: np.ndarray, g: np.ndarray, *, full_rows: bool) -> _FlatTree:
        root = self._new_node()
        g_hist, h_hist = self._histograms(rows, g, root=full_rows)
        self._grow(root, rows, g, g_hist, h_hist, depth=0)
        return _FlatTree(
            feature=np.asarray(self.feature, dtype=np.int32),
            bin_threshold=np.asarray(self.bin_threshold, dtype=np.uint8),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=float),
        )

    def _grow(
        self,
        node: int,
        rows: np.ndarray,
        g: np.ndarray,
        g_hist: np.ndarray,
        h_hist: np.ndarray,
        depth: int,
    ) -> None:
        # Summed over the per-feature layout, as the seed learner does.
        g_sum = float(g_hist[self.feat_local].sum())
        h_sum = float(h_hist[self.feat_local].sum())
        self.value[node] = -g_sum / (h_sum + self.reg_lambda)

        if depth >= self.max_depth or rows.size < 2:
            return
        split = self._best_split(g_hist, h_hist)
        if split is None:
            return
        gain, feature, bin_idx = split
        self.split_gains[feature] = self.split_gains.get(feature, 0.0) + gain

        mask = self.codes[rows, feature] <= bin_idx
        left_rows = rows[mask]
        right_rows = rows[~mask]
        if left_rows.size == 0 or right_rows.size == 0:
            return

        self.feature[node] = feature
        self.bin_threshold[node] = bin_idx
        left = self._new_node()
        right = self._new_node()
        self.left[node] = left
        self.right[node] = right

        # Sibling subtraction: build the histogram for the smaller child
        # and derive the other by subtracting from the parent.
        if left_rows.size <= right_rows.size:
            gl, hl = self._histograms(left_rows, g)
            gr, hr = g_hist - gl, h_hist - hl
        else:
            gr, hr = self._histograms(right_rows, g)
            gl, hl = g_hist - gr, h_hist - hr
        self._grow(left, left_rows, g, gl, hl, depth + 1)
        self._grow(right, right_rows, g, gr, hr, depth + 1)


class GradientBoostedTrees:
    """XGBoost-style gradient-boosted tree regressor (squared loss).

    Defaults match the paper's reported hyperparameters: 100 trees of
    depth 3 with learning rate 0.1, optimized for RMSE.

    Parameters
    ----------
    n_estimators, learning_rate, max_depth:
        Standard boosting controls.
    reg_lambda, gamma, min_child_weight:
        XGBoost regularization terms.
    subsample, colsample_bytree:
        Stochastic row/column fractions per tree (1.0 = deterministic
        full-data boosting, the XGBoost default).
    max_bins:
        Number of quantile histogram bins per feature (<= 255).
    seed:
        Controls row/column subsampling only.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        *,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1.0,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        max_bins: int = 64,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < colsample_bytree <= 1.0:
            raise ValueError("colsample_bytree must be in (0, 1]")
        if not 2 <= max_bins <= _MAX_BINS_LIMIT:
            raise ValueError(f"max_bins must be in [2, {_MAX_BINS_LIMIT}]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.max_bins = max_bins
        self.seed = seed

        self._edges: list[np.ndarray] | None = None
        self._trees: list[_FlatTree] = []
        self._base_score: float = 0.0
        self.n_features_: int | None = None
        self.feature_importances_: np.ndarray | None = None
        self.train_rmse_: list[float] = []
        self._gains: np.ndarray | None = None
        self._packed: tuple[np.ndarray, ...] | None = None

    @property
    def bin_edges(self) -> list[np.ndarray]:
        """Per-feature bin edges frozen by the current fit.

        Callers that assemble design matrices from pre-encoded blocks
        use these to produce codes for :meth:`predict_binned` /
        :meth:`fit_more_binned` without re-deriving quantiles.
        """
        if self._edges is None:
            raise RuntimeError("model is not fitted")
        return self._edges

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.size:
            raise ValueError("X and y row counts differ")
        if y.size == 0:
            raise ValueError("cannot fit on empty data")
        edges = fit_bin_edges(X, self.max_bins)
        return self.fit_binned(apply_bin_edges(X, edges), edges, y)

    def fit_binned(
        self, codes: np.ndarray, edges: list[np.ndarray], y: np.ndarray
    ) -> "GradientBoostedTrees":
        """Train on pre-binned uint8 codes and their bin edges.

        ``codes`` must have been produced by :func:`apply_bin_edges`
        (or an exactly equivalent path) under ``edges``; callers that
        share a quantized feature block across many fits enter here to
        skip per-fit quantization. Predictions are byte-identical to
        ``fit`` on the un-binned matrix.
        """
        start = time.perf_counter()
        codes = np.asarray(codes)
        y = np.asarray(y, dtype=float).ravel()
        if codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        if codes.dtype != np.uint8:
            raise ValueError("codes must be uint8 bin codes (see apply_bin_edges)")
        if codes.shape[0] != y.size:
            raise ValueError("codes and y row counts differ")
        if y.size == 0:
            raise ValueError("cannot fit on empty data")
        if len(edges) != codes.shape[1]:
            raise ValueError("one edge array per feature column is required")

        rng = np.random.default_rng(self.seed)
        n_rows, n_features = codes.shape
        self.n_features_ = n_features
        self._edges = [np.asarray(e, dtype=float) for e in edges]

        # Constant columns (e.g. encoder padding) can never split.
        active = np.flatnonzero(codes.max(axis=0) > 0)
        if active.size == 0:
            active = np.arange(min(1, n_features))
        state = _BoostState(codes, active, self.max_bins)

        self._base_score = float(y.mean())
        pred = np.full(n_rows, self._base_score)
        self._trees = []
        self.train_rmse_ = []
        self._gains = np.zeros(n_features)
        self._packed = None

        self._boost(state, codes, y, pred, rng, self.n_estimators)
        self._finalize_importances()
        telemetry.observe("train.fit_ms", (time.perf_counter() - start) * 1e3)
        return self

    def fit_more(
        self, X: np.ndarray, y: np.ndarray, n_extra: int
    ) -> "GradientBoostedTrees":
        """Continue boosting a fitted model with ``n_extra`` trees.

        Warm start: bin edges stay frozen at their first-fit values and
        new trees correct the current ensemble's residuals on the given
        (possibly grown) training data. ``n_extra=0`` is a no-op. The
        continuation RNG is seeded by ``(seed, n_trees_so_far)``, so a
        given growth schedule is fully deterministic.
        """
        if self._edges is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must be 2-D with {self.n_features_} columns")
        return self.fit_more_binned(apply_bin_edges(X, self._edges), y, n_extra)

    def fit_more_binned(
        self, codes: np.ndarray, y: np.ndarray, n_extra: int
    ) -> "GradientBoostedTrees":
        """:meth:`fit_more` over pre-binned codes (frozen edges)."""
        if self._edges is None:
            raise RuntimeError("model is not fitted")
        if n_extra < 0:
            raise ValueError("n_extra must be >= 0")
        codes = np.asarray(codes)
        y = np.asarray(y, dtype=float).ravel()
        if codes.ndim != 2 or codes.shape[1] != self.n_features_:
            raise ValueError(f"codes must be 2-D with {self.n_features_} columns")
        if codes.dtype != np.uint8:
            raise ValueError("codes must be uint8 bin codes (see apply_bin_edges)")
        if codes.shape[0] != y.size:
            raise ValueError("codes and y row counts differ")
        if n_extra == 0:
            return self
        if y.size == 0:
            raise ValueError("cannot continue fitting on empty data")

        start = time.perf_counter()
        rng = np.random.default_rng((self.seed, len(self._trees)))
        active = np.flatnonzero(codes.max(axis=0) > 0)
        if active.size == 0:
            active = np.arange(min(1, self.n_features_))
        state = _BoostState(codes, active, self.max_bins)
        if self._gains is None:  # loaded model without gain history
            self._gains = np.zeros(self.n_features_)

        pred = self._predict_codes(codes)
        self._packed = None
        self._boost(state, codes, y, pred, rng, n_extra)
        self._finalize_importances()
        telemetry.observe("train.fit_ms", (time.perf_counter() - start) * 1e3)
        return self

    def _boost(
        self,
        state: _BoostState,
        codes: np.ndarray,
        y: np.ndarray,
        pred: np.ndarray,
        rng: np.random.Generator,
        n_rounds: int,
    ) -> None:
        """The boosting loop: grow ``n_rounds`` trees onto ``pred``."""
        n_rows = y.size
        active = state.active
        n_cols_sampled = max(1, int(round(self.colsample_bytree * active.size)))
        n_rows_sampled = max(2, int(round(self.subsample * n_rows)))
        full_sub = state.unique_off  # all distinct columns, pre-offset

        for _ in range(n_rounds):
            grad = pred - y  # d/dpred of 1/2 (pred - y)^2
            if self.subsample < 1.0:
                rows = np.sort(rng.choice(n_rows, size=n_rows_sampled, replace=False))
                full_rows = False
            else:
                rows = np.arange(n_rows)
                full_rows = True
            if self.colsample_bytree < 1.0:
                cols = np.sort(rng.choice(active, size=n_cols_sampled, replace=False))
                # Sampled feature -> distinct-column group; histogram
                # only the groups this tree actually uses. Bins stay in
                # the full group space (unused bins are just zero), so
                # no per-tree re-offsetting is needed.
                groups, feat_local = np.unique(
                    state.group_of[np.searchsorted(active, cols)], return_inverse=True
                )
                sub = full_sub[:, groups]
            else:
                cols = active
                groups, feat_local = None, state.group_of
                sub = full_sub
            root_counts = state.full_counts if full_rows else None

            builder = _TreeBuilder(
                codes,
                sub,
                cols,
                groups,
                feat_local,
                state.hist_shape,
                self.max_bins,
                self.max_depth,
                self.reg_lambda,
                self.gamma,
                self.min_child_weight,
                root_counts=root_counts,
            )
            tree = builder.build(rows, grad, full_rows=full_rows)
            tree.value *= self.learning_rate
            self._trees.append(tree)
            for feature, gain in builder.split_gains.items():
                self._gains[feature] += gain
            pred += tree.predict(codes)
            self.train_rmse_.append(float(np.sqrt(np.mean((pred - y) ** 2))))

    def _finalize_importances(self) -> None:
        total_gain = self._gains.sum()
        self.feature_importances_ = (
            self._gains / total_gain if total_gain > 0 else self._gains.copy()
        )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._edges is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must be 2-D with {self.n_features_} columns")
        return self._predict_codes(apply_bin_edges(X, self._edges))

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Predict over pre-binned uint8 codes (see ``apply_bin_edges``)."""
        if self._edges is None:
            raise RuntimeError("model is not fitted")
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.n_features_:
            raise ValueError(f"codes must be 2-D with {self.n_features_} columns")
        return self._predict_codes(codes)

    def predict_block(
        self, net_codes: np.ndarray, hw_codes: np.ndarray
    ) -> np.ndarray:
        """One flat-SoA prediction over a composite feature block.

        Assembles ``[network codes | hardware codes]`` into a single
        codes matrix and descends the packed forest **once** — the bulk
        query plane's per-generation primitive. ``hw_codes`` may be a
        single row (broadcast across every network row, the
        one-device-many-candidates case) or a full matrix. Row order is
        preserved and every step is row-independent, so the result is
        byte-identical to per-row :meth:`predict_binned` calls.
        """
        if self._edges is None:
            raise RuntimeError("model is not fitted")
        net_codes = np.asarray(net_codes)
        hw_codes = np.asarray(hw_codes)
        if net_codes.ndim != 2:
            raise ValueError("net_codes must be 2-D")
        if hw_codes.ndim == 1:
            hw_codes = np.broadcast_to(
                hw_codes, (net_codes.shape[0], hw_codes.shape[0])
            )
        if hw_codes.shape[0] != net_codes.shape[0]:
            raise ValueError(
                f"hw_codes has {hw_codes.shape[0]} rows, "
                f"net_codes has {net_codes.shape[0]}"
            )
        if net_codes.shape[1] + hw_codes.shape[1] != self.n_features_:
            raise ValueError(
                f"block widths {net_codes.shape[1]}+{hw_codes.shape[1]} do not "
                f"sum to the fitted {self.n_features_} features"
            )
        codes = np.empty((net_codes.shape[0], self.n_features_), dtype=np.uint8)
        codes[:, : net_codes.shape[1]] = net_codes
        codes[:, net_codes.shape[1] :] = hw_codes
        return self._predict_codes(codes)

    def _ensure_packed(self) -> tuple[np.ndarray, ...]:
        """Stack all trees into a (n_trees, n_nodes) structure-of-arrays.

        Leaves become self-loops (children = node, threshold 255,
        feature 0) so a fixed ``max_depth`` descent parks every row at
        its leaf regardless of the tree's actual shape. Node ids are
        globalized (``tree * n_nodes + node``) and children interleaved
        as ``child[2 * gid + go_left]`` so one traversal level is three
        flat gathers with no branching.
        """
        if self._packed is None:
            n_trees = len(self._trees)
            n_nodes = max(t.feature.size for t in self._trees)
            feature = np.zeros((n_trees, n_nodes), dtype=np.int64)
            threshold = np.full((n_trees, n_nodes), 255, dtype=np.uint8)
            local = np.tile(np.arange(n_nodes, dtype=np.int64), (n_trees, 1))
            left = local.copy()
            right = local.copy()
            value = np.zeros((n_trees, n_nodes))
            for t, tree in enumerate(self._trees):
                internal = np.flatnonzero(tree.feature >= 0)
                feature[t, internal] = tree.feature[internal]
                threshold[t, internal] = tree.bin_threshold[internal]
                left[t, internal] = tree.left[internal]
                right[t, internal] = tree.right[internal]
                value[t, : tree.value.size] = tree.value
            roots = np.arange(n_trees, dtype=np.int64) * n_nodes
            child = np.empty(2 * n_trees * n_nodes, dtype=np.int64)
            child[0::2] = (right + roots[:, None]).ravel()  # go_left == 0
            child[1::2] = (left + roots[:, None]).ravel()  # go_left == 1
            self._packed = (
                feature.ravel(),
                threshold.ravel(),
                child,
                value.ravel(),
                roots,
            )
        return self._packed

    def _predict_codes(self, codes: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        feature, threshold, child, value, roots = self._ensure_packed()
        n_rows = codes.shape[0]
        codes_flat = codes.reshape(-1)
        row_off = (np.arange(n_rows, dtype=np.int64) * codes.shape[1])[:, None]
        # First level: every row of tree t is at t's root, so features
        # and thresholds are per-tree vectors, not per-cell gathers.
        go_left = codes[:, feature[roots]] <= threshold[roots]
        gid = child[2 * roots + go_left]
        for _ in range(self.max_depth - 1):
            split_feature = feature[gid]
            go_left = codes_flat[row_off + split_feature] <= threshold[gid]
            gid = child[2 * gid + go_left]
        leaf_values = np.ascontiguousarray(value[gid].T)
        pred = np.full(n_rows, self._base_score)
        # Sequential per-tree accumulation, in tree order: byte-identical
        # to the historical `for tree in trees: pred += tree.predict(...)`.
        for t in range(leaf_values.shape[0]):
            pred += leaf_values[t]
        telemetry.observe("predict.batched_ms", (time.perf_counter() - start) * 1e3)
        return pred
