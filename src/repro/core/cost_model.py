"""The cost model: encoders + regressor (paper Figure 7).

A :class:`CostModel` predicts the latency of a network on a device from
(i) the network's layer-wise encoding and (ii) a hardware
representation — either static specs or signature-set latencies. The
regressor defaults to the paper's XGBoost configuration (100 trees,
depth 3, lr 0.1, RMSE loss).

:func:`fit_pairs` is the one pair-level fit behind the evaluation
protocols, the collaborative checkpoints and the shards: it trains on
(suite row, hardware row, target) pairs through the quantize-once path,
byte-identical to :meth:`CostModel.fit` on the assembled float design
matrix.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.core.representation import (
    EncodedSuite,
    NetworkEncoder,
    SignatureHardwareEncoder,
    StaticHardwareEncoder,
)
from repro.dataset.dataset import LatencyDataset
from repro.generator.suite import BenchmarkSuite
from repro.ml.binning import QuantizedFeatureBlock, apply_bin_edges
from repro.ml.gbt import GradientBoostedTrees
from repro.ml.metrics import r2_score, rmse

__all__ = [
    "CostModel",
    "Regressor",
    "default_regressor",
    "fit_pairs",
    "gather_pair_codes",
    "observed_pairs",
]


class Regressor(Protocol):
    """Anything with sklearn-style fit/predict."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Regressor": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...


def default_regressor(seed: int = 0) -> GradientBoostedTrees:
    """The paper's XGBoost configuration.

    100 trees, depth 3, lr 0.1 as reported in Section III-C. We add
    ``colsample_bytree=0.25`` (a parameter the paper leaves at its
    library default): on the wide masked network encodings it changes
    test R^2 by < 0.005 while cutting training time ~5x, which keeps
    the figure-regeneration benches tractable on the pure-Python tree
    learner.
    """
    return GradientBoostedTrees(
        n_estimators=100,
        learning_rate=0.1,
        max_depth=3,
        colsample_bytree=0.25,
        seed=seed,
    )


def observed_pairs(
    block: np.ndarray, suite_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The measured cells of a (devices, networks) latency block as pairs.

    ``suite_rows[j]`` is the encoded-suite row of the block's column
    ``j``. Returns ``(dev_idx, net_rows, y)``: each pair's block row,
    suite row and latency, devices outer and networks inner
    (``np.nonzero`` is row-major), skipping NaN cells.
    """
    dev_idx, cols = np.nonzero(~np.isnan(block))
    return dev_idx, suite_rows[cols], block[dev_idx, cols]


def gather_pair_codes(
    net_codes: np.ndarray,
    hw_codes: np.ndarray,
    net_rows: np.ndarray,
    dev_idx: np.ndarray,
) -> np.ndarray:
    """Assemble per-pair design codes from per-entity code blocks."""
    codes = np.empty(
        (net_rows.size, net_codes.shape[1] + hw_codes.shape[1]), dtype=np.uint8
    )
    codes[:, : net_codes.shape[1]] = net_codes[net_rows]
    codes[:, net_codes.shape[1] :] = hw_codes[dev_idx]
    return codes


def fit_pairs(
    regressor: GradientBoostedTrees,
    suite: EncodedSuite,
    hw_matrix: np.ndarray,
    net_rows: np.ndarray,
    dev_idx: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit ``regressor`` on (suite row, hardware row, target) pairs.

    Pair ``i`` joins network ``suite.matrix[net_rows[i]]`` with device
    ``hw_matrix[dev_idx[i]]``. Byte-identical to fitting on the
    assembled float design matrix: ``np.quantile`` depends only on each
    column's value multiset, so each block's bin edges come from
    :meth:`~repro.ml.binning.QuantizedFeatureBlock.weighted_edges` over
    how often each entity appears, and pair order only has to match
    for the targets. Hardware rows no pair names do not shape the
    edges but are still coded, so held-out devices can be scored.

    Returns ``(net_codes, hw_codes)``, the code blocks of every suite
    row and every hardware row, for :func:`gather_pair_codes`.
    """
    if not y.size:
        raise ValueError("cannot fit on empty data")
    net_counts = np.bincount(net_rows, minlength=suite.matrix.shape[0])
    dev_counts = np.bincount(dev_idx, minlength=hw_matrix.shape[0])
    net_edges = suite.block.weighted_edges(net_counts, regressor.max_bins)
    hw_edges = QuantizedFeatureBlock(hw_matrix).weighted_edges(
        dev_counts, regressor.max_bins
    )
    net_codes = apply_bin_edges(suite.matrix, net_edges)
    hw_codes = apply_bin_edges(hw_matrix, hw_edges)
    regressor.fit_binned(
        gather_pair_codes(net_codes, hw_codes, net_rows, dev_idx),
        net_edges + hw_edges,
        y,
    )
    return net_codes, hw_codes


class CostModel:
    """Latency predictor over (network, hardware-representation) pairs.

    Parameters
    ----------
    network_encoder:
        Fixed-width network encoder sized on the population.
    hardware_encoder:
        Either a :class:`StaticHardwareEncoder` or a
        :class:`SignatureHardwareEncoder`; only its ``width`` is needed
        here — callers produce hardware vectors with it.
    regressor:
        Regression model; defaults to the paper's GBT configuration.
    """

    def __init__(
        self,
        network_encoder: NetworkEncoder,
        hardware_encoder: StaticHardwareEncoder | SignatureHardwareEncoder,
        regressor: Regressor | None = None,
    ) -> None:
        self.network_encoder = network_encoder
        self.hardware_encoder = hardware_encoder
        self.regressor: Regressor = regressor or default_regressor()
        self._fitted = False

    def assemble(
        self, network_features: np.ndarray, hardware_features: np.ndarray
    ) -> np.ndarray:
        """Concatenate pre-encoded network and hardware feature blocks.

        Accepts single vectors or aligned matrices and returns a 2-D
        design matrix.
        """
        net = np.atleast_2d(np.asarray(network_features, dtype=float))
        hw = np.atleast_2d(np.asarray(hardware_features, dtype=float))
        if net.shape[0] != hw.shape[0]:
            raise ValueError("network and hardware feature row counts differ")
        return np.hstack([net, hw])

    def build_training_set(
        self,
        dataset: LatencyDataset,
        suite: BenchmarkSuite,
        device_hw: dict[str, np.ndarray],
        *,
        network_names: Sequence[str] | None = None,
        pairs: Sequence[tuple[str, str]] | None = None,
        network_features: dict[str, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Design matrix + targets from a latency dataset.

        Parameters
        ----------
        dataset:
            Measured latencies.
        suite:
            Source of network structures for encoding.
        device_hw:
            Device name -> hardware representation vector.
        network_names:
            Networks to include (default: all in ``dataset``); ignored
            when ``pairs`` is given.
        pairs:
            Explicit (device, network) pairs; overrides the full cross
            product.
        network_features:
            Optional pre-encoded network vectors (name -> encoding),
            e.g. rows of :class:`~repro.core.representation.EncodedSuite`;
            skips re-encoding entirely. Must match the encoder's width.

        Returns
        -------
        (X, y)
            One row per (device, network) pair. Rows are gathered with
            vectorized fancy indexing but match the historical per-row
            Python loop byte-for-byte.
        """
        if pairs is None:
            nets = list(network_names) if network_names is not None else dataset.network_names
            pairs = [(d, n) for d in device_hw for n in nets]
        net_width = self.network_encoder.width
        X = np.empty((len(pairs), net_width + self.hardware_encoder.width))
        y = np.empty(len(pairs))
        if not len(pairs):
            return X, y

        devices = [d for d, _ in pairs]
        networks = [n for _, n in pairs]
        # Unique names in first-appearance order; each network is
        # encoded once and each device's vector staged once, then both
        # blocks are gathered into place per pair.
        net_slot: dict[str, int] = {}
        for n in networks:
            if n not in net_slot:
                net_slot[n] = len(net_slot)
        dev_slot: dict[str, int] = {}
        for d in devices:
            if d not in dev_slot:
                dev_slot[d] = len(dev_slot)

        if network_features is not None:
            net_block = np.stack(
                [np.asarray(network_features[n], dtype=float) for n in net_slot]
            )
            if net_block.shape[1] != net_width:
                raise ValueError(
                    f"network_features width {net_block.shape[1]} does not "
                    f"match encoder width {net_width}"
                )
        else:
            net_block = np.stack(
                [self.network_encoder.encode(suite[n]) for n in net_slot]
            )
        hw_block = np.stack([np.asarray(device_hw[d], dtype=float) for d in dev_slot])

        net_idx = np.fromiter((net_slot[n] for n in networks), dtype=np.intp, count=len(pairs))
        dev_idx = np.fromiter((dev_slot[d] for d in devices), dtype=np.intp, count=len(pairs))
        X[:, :net_width] = net_block[net_idx]
        X[:, net_width:] = hw_block[dev_idx]

        dev_rows = np.fromiter((dataset.device_index(d) for d in dev_slot), dtype=np.intp)
        net_cols = np.fromiter((dataset.network_index(n) for n in net_slot), dtype=np.intp)
        y[:] = dataset.latencies_ms[dev_rows[dev_idx], net_cols[net_idx]]
        return X, y

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CostModel":
        """Train the regressor on an assembled design matrix."""
        self.regressor.fit(X, y)
        self._fitted = True
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("cost model is not fitted")
        return self.regressor.predict(X)

    def predict_one(
        self, network_features: np.ndarray, hardware_features: np.ndarray
    ) -> float:
        """Predict latency (ms) for a single (network, device) pair."""
        return float(self.predict(self.assemble(network_features, hardware_features))[0])

    def evaluate(self, X: np.ndarray, y: np.ndarray) -> dict[str, float]:
        """R^2 and RMSE on a held-out set."""
        pred = self.predict(X)
        return {"r2": r2_score(y, pred), "rmse_ms": rmse(y, pred)}
