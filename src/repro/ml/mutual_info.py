"""Histogram estimators of entropy and mutual information.

Algorithm 1 of the paper (Mutual Information Selection) scores a
candidate signature network by the mutual information between its
latency vector (across training devices) and the latency vectors of the
remaining networks. Latencies are continuous, so we estimate MI by
discretizing each variable into equal-frequency (quantile) bins, which
is robust to the heavy-tailed latency distributions the paper observes.

:func:`discretize`, :func:`entropy` and :func:`joint_entropy` are the
scalar estimators. :func:`mutual_information_matrix` is the pairwise
kernel behind MIS, and it reproduces the scalar path byte for byte:

- every row is discretized from one row-wise sort: its edges are the
  ``np.quantile`` order statistics ``discretize`` interpolates
  (:func:`repro.ml.binning.row_quantiles`), and its codes count the
  distinct edges at or below each value, as ``np.searchsorted`` does;
- joint counts of every pair come from one one-hot matmul per row
  block; the counts are integers, so they are exact in any BLAS order;
- each pair's joint entropy sums ``p * log(p)`` over its occupied cells
  in ``(u, v)`` order, the order ``np.unique`` gives in
  :func:`joint_entropy`;
- pairs are grouped by their number of occupied cells, so every row
  reduction is the same pairwise sum ``entropy()`` runs on one pair.

A reduction over a padded ``(bins, bins)`` count tensor would sum in a
different order and differ in the last bits, which flips the
tie-sensitive greedy's picks.
"""

from __future__ import annotations

import numpy as np

from repro.ml.binning import row_quantiles

__all__ = [
    "discretize",
    "entropy",
    "joint_entropy",
    "mutual_information",
    "mutual_information_matrix",
]

# Float64 count cells per row block of the pairwise joint-count matrix
# (8 MiB), so memory stays bounded however many variables there are.
_BLOCK_CELLS = 1 << 20


def discretize(values: np.ndarray, n_bins: int = 8) -> np.ndarray:
    """Map continuous samples to equal-frequency bin indices."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    edges = np.unique(np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1)[1:-1]))
    return np.searchsorted(edges, values, side="right")


def entropy(labels: np.ndarray) -> float:
    """Shannon entropy (nats) of a discrete sample."""
    labels = np.asarray(labels).ravel()
    if labels.size == 0:
        raise ValueError("labels must be non-empty")
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return float(-(p * np.log(p)).sum())


def joint_entropy(a: np.ndarray, b: np.ndarray) -> float:
    """Shannon entropy (nats) of the joint distribution of two samples."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError("samples must have equal length")
    # Pair-encode: each distinct (a, b) pair gets one code.
    _, a_codes = np.unique(a, return_inverse=True)
    uniq_b, b_codes = np.unique(b, return_inverse=True)
    return entropy(a_codes * uniq_b.size + b_codes)


def mutual_information(x: np.ndarray, y: np.ndarray, *, n_bins: int = 8) -> float:
    """MI (nats) between two continuous samples via quantile binning.

    ``I(X; Y) = H(X) + H(Y) - H(X, Y)``; clipped at zero since the
    plug-in estimator can go fractionally negative.
    """
    xd = discretize(x, n_bins)
    yd = discretize(y, n_bins)
    mi = entropy(xd) + entropy(yd) - joint_entropy(xd, yd)
    return max(mi, 0.0)


def mutual_information_matrix(data: np.ndarray, *, n_bins: int = 8) -> np.ndarray:
    """Pairwise MI between the rows of ``data``.

    ``data`` is (n_variables, n_samples) — in the paper's usage, one row
    per network, one column per training device. For ``i < j``, entry
    ``[i, j]`` equals ``mutual_information(data[i], data[j],
    n_bins=n_bins)`` byte for byte and ``[j, i]`` mirrors it; the
    diagonal holds each row's binned entropy.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be 2-D")
    n, n_samples = data.shape
    binned = _discretize_rows(data, n_bins)
    entropies = np.array([entropy(binned[i]) for i in range(n)])
    out = np.diag(entropies)
    onehot = np.zeros((n, n_bins, n_samples))
    onehot[np.arange(n)[:, None], binned, np.arange(n_samples)] = 1.0
    onehot = onehot.reshape(n * n_bins, n_samples)
    cells = n_bins * n_bins
    start = 0
    while start < n - 1:
        width = n - start - 1
        stop = min(n - 1, start + max(1, _BLOCK_CELLS // (cells * width)))
        # Rows start..stop-1 against columns start+1..n-1: counts[a, :, b, :]
        # is the (u, v) joint histogram of variables start+a and start+1+b.
        counts = onehot[start * n_bins:stop * n_bins] @ onehot[(start + 1) * n_bins:].T
        counts = counts.reshape(stop - start, n_bins, width, n_bins)
        a, b = np.nonzero(np.arange(width) >= np.arange(stop - start)[:, None])
        pairs = counts.transpose(0, 2, 1, 3)[a, b].reshape(-1, cells)
        i, j = a + start, b + start + 1
        mi = np.maximum(entropies[i] + entropies[j] - _occupied_entropies(pairs, n_samples), 0.0)
        out[i, j] = mi
        out[j, i] = mi
        start = stop
    return out


def _discretize_rows(data: np.ndarray, n_bins: int) -> np.ndarray:
    """``discretize(row, n_bins)`` for every row of ``data``.

    One row-wise sort gives every row's quantile points. A value's code
    is the number of distinct points at or below it, which is
    ``np.searchsorted`` over ``np.unique``'s edges. Rows whose values or
    points are not all finite, where NaN orders last, go through
    ``discretize`` itself.
    """
    if data.shape[1] == 0:
        raise ValueError("values must be non-empty")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    ordered = np.sort(data, axis=1)
    points = np.sort(row_quantiles(ordered, n_bins), axis=1)
    finite = np.isfinite(ordered[:, [0, -1]]).all(axis=1) & np.isfinite(points).all(axis=1)
    points[:, 1:][points[:, 1:] == points[:, :-1]] = np.inf  # count each edge once
    codes = np.zeros(data.shape, dtype=np.intp)
    for k in range(points.shape[1]):
        codes += points[:, k, None] <= data
    for i in np.flatnonzero(~finite):
        codes[i] = discretize(data[i], n_bins)
    return codes


def _occupied_entropies(counts: np.ndarray, n_samples: int) -> np.ndarray:
    """``entropy()`` of each row's nonzero counts, with its exact sum.

    Rows with the same number of occupied cells are gathered into one
    ``(rows, width)`` array in ``(u, v)`` order, so each row reduction
    is the pairwise sum ``entropy()`` runs on that pair's 1-D array.
    """
    occupied = counts > 0
    width = occupied.sum(axis=1)
    p = counts[occupied] / n_samples
    terms = p * np.log(p)
    first = np.cumsum(width) - width
    out = np.empty(len(counts))
    for w in np.unique(width):
        rows = np.flatnonzero(width == w)
        out[rows] = -terms[first[rows, None] + np.arange(w)].sum(axis=1)
    return out
