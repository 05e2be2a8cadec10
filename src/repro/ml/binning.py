"""Quantile binning utilities shared across the training pipeline.

The GBT learner trains on quantile-binned feature codes (histogram
method). Fitting on the float design matrix re-derives bin edges by
running ``np.quantile`` over each column of every (device, network)
pair, even though the network-encoding block of that matrix is the
*same* ~1.6k columns repeated for every device.

Two pieces let callers pay for quantization once:

- :func:`fit_bin_edges` / :func:`apply_bin_edges` — the exact seed
  binning primitives.
- :class:`QuantizedFeatureBlock` — a per-column sort of a fixed feature
  block (e.g. all encoded networks of a suite), from which
  :meth:`~QuantizedFeatureBlock.weighted_edges` derives, **bit-for-bit**,
  the bin edges ``np.quantile`` would give on the block's rows repeated
  any number of times each, without materializing the repeats. This
  works because ``np.quantile`` depends only on each column's value
  multiset, and numpy's ``linear`` interpolation is a fixed arithmetic
  expression of two order statistics (replicated exactly in
  :func:`_numpy_lerp`). The pair-level fit in
  :mod:`repro.core.cost_model` derives every training cell's edges this
  way.

:func:`dedup_columns` supports a second reuse axis: masked layer
encodings contain many byte-identical columns (repeated one-hot /
padding patterns), and histogram work only needs one representative
per distinct column.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QuantizedFeatureBlock",
    "apply_bin_edges",
    "dedup_columns",
    "fit_bin_edges",
]


def fit_bin_edges(X: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """Per-feature interior quantile boundaries (possibly empty).

    Boundaries equal to the column maximum are dropped: they could only
    produce an empty right side, and removing them guarantees constant
    columns get zero edges (all codes 0), which is what lets the GBT
    fit exclude padding columns from split search.
    """
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    edges = []
    for f in range(X.shape[1]):
        e = np.unique(np.quantile(X[:, f], quantiles))
        edges.append(e[e < X[:, f].max()])
    return edges


def apply_bin_edges(X: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    codes = np.empty(X.shape, dtype=np.uint8)
    for f, e in enumerate(edges):
        codes[:, f] = np.searchsorted(e, X[:, f], side="right")
    return codes


def _numpy_lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """numpy's internal ``_lerp``, replicated operation-for-operation.

    ``np.quantile(method="linear")`` computes
    ``a + (b - a) * t``, then overwrites entries with ``t >= 0.5`` by
    ``b - (b - a) * (1 - t)``. Both float expressions must be evaluated
    in exactly this form for the results to match bit-for-bit.
    """
    diff = b - a
    out = np.asarray(a + diff * t)
    high = t >= 0.5
    if high.any():
        np.copyto(out, b - diff * (1 - t), where=high)
    return out


def dedup_columns(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group byte-identical columns of a 2-D array.

    Returns ``(representatives, inverse)`` where ``representatives``
    holds the column index of the first occurrence of each distinct
    column and ``codes[:, representatives][:, inverse] == codes``
    column-wise. Hash-based (one ``tobytes`` per column), so cost is
    linear in the array size.
    """
    if codes.ndim != 2:
        raise ValueError("codes must be 2-D")
    cols = np.asfortranarray(codes)
    seen: dict[bytes, int] = {}
    representatives: list[int] = []
    inverse = np.empty(codes.shape[1], dtype=np.intp)
    for j in range(codes.shape[1]):
        key = cols[:, j].tobytes()
        group = seen.get(key)
        if group is None:
            group = len(representatives)
            seen[key] = group
            representatives.append(j)
        inverse[j] = group
    return np.asarray(representatives, dtype=np.intp), inverse


class QuantizedFeatureBlock:
    """Per-column sorted view of a fixed feature block.

    Built once per feature population (e.g. the encoded networks of a
    suite) and reused across every training cell that draws its rows
    from that population. The expensive part of quantile binning — the
    per-column sort — happens here exactly once;
    :meth:`weighted_edges` then derives the bin edges of any row
    multiplicities without touching the repeated design matrix.
    """

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be (n_items, n_cols)")
        if values.shape[0] == 0:
            raise ValueError("values must contain at least one row")
        self.values = values
        # order[i, c] = row index of the i-th smallest value in column c;
        # sorted_values[i, c] = values[order[i, c], c].
        self.order = np.argsort(values, axis=0, kind="stable")
        self.sorted_values = np.take_along_axis(values, self.order, axis=0)

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def weighted_edges(self, counts: np.ndarray, max_bins: int) -> list[np.ndarray]:
        """Bin edges when block row ``i`` appears ``counts[i]`` times.

        Byte-identical to ``fit_bin_edges(np.repeat(values, counts,
        axis=0), max_bins)`` without materializing the expansion. Rows
        with count 0 are excluded entirely. Equal counts over a row
        subset are the evaluation protocol's case; unequal ones a
        collaborative repository's, where each network was contributed
        by a different number of devices.

        The order statistic at index ``t`` of the expanded column is
        the first sorted value whose cumulative count exceeds ``t``
        (zero-count rows can never be hit: their cumulative count
        equals their predecessor's, so the strict-exceed test skips
        them). ``np.quantile``'s linear interpolation between adjacent
        order statistics is then replayed exactly via
        :func:`_numpy_lerp`. Like ``np.quantile``, the upper order
        statistic is clipped to the last one, which only binds when the
        counts sum to 1.
        """
        counts = np.asarray(counts)
        if counts.shape != (self.n_items,):
            raise ValueError("counts must have one entry per block row")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be an integer array")
        if (counts < 0).any():
            raise ValueError("counts must be >= 0")
        n = int(counts.sum())
        if n == 0:
            raise ValueError("counts select no rows")
        cumw = np.cumsum(counts[self.order], axis=0)  # (m, n_cols)
        quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
        virtual = (n - 1) * quantiles
        previous = np.floor(virtual)
        gamma = virtual - previous
        prev_i = previous.astype(np.intp)
        sorted_t = self.sorted_values.T  # (n_cols, m)
        cols = np.arange(self.n_cols)
        last = np.count_nonzero(cumw <= n - 1, axis=0)
        nq = virtual.size
        a = np.empty((self.n_cols, nq))
        b = np.empty((self.n_cols, nq))
        for k in range(nq):
            lo = np.count_nonzero(cumw <= prev_i[k], axis=0)
            hi = np.count_nonzero(cumw <= prev_i[k] + 1, axis=0)
            a[:, k] = sorted_t[cols, lo]
            b[:, k] = sorted_t[cols, np.minimum(hi, last)]
        points = _numpy_lerp(a, b, gamma[None, :])
        col_max = sorted_t[cols, last]
        edges = []
        for c in range(self.n_cols):
            e = np.unique(points[c])
            edges.append(e[e < col_max[c]])
        return edges
