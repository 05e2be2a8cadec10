"""Quantile binning utilities shared across the training pipeline.

The GBT learner trains on quantile-binned feature codes (histogram
method). Every routine here reproduces, byte for byte, the edges of the
seed's per-column ``np.unique(np.quantile(column, q))`` over the
``max_bins - 1`` interior quantiles, without calling ``np.quantile``:
numpy's ``linear`` method is a fixed arithmetic expression of two order
statistics of the sorted column (replicated exactly by
:func:`_quantile_positions` and :func:`_numpy_lerp`), so once a column
is sorted its edges cost a gather and a few vector operations.

- :func:`fit_bin_edges` / :func:`apply_bin_edges` — binning of a float
  design matrix. ``fit_bin_edges`` sorts the columns once, a bounded
  block of columns at a time, instead of one ``np.quantile`` partition
  per column.
- :class:`QuantizedFeatureBlock` — a per-column sort of a fixed feature
  block (e.g. all encoded networks of a suite), from which
  :meth:`~QuantizedFeatureBlock.weighted_edges` derives the bin edges
  ``fit_bin_edges`` would give on the block's rows repeated any number
  of times each, without materializing the repeats (quantiles depend
  only on each column's value multiset). The pair-level fit in
  :mod:`repro.core.cost_model` derives every training cell's edges this
  way.
- :func:`row_quantiles` — the interior quantiles of every row of a
  row-sorted matrix; the MIS discretizer
  (:func:`repro.ml.mutual_info.mutual_information_matrix`) bins all
  networks through it.

Both edge routines end in :func:`_interior_edges`, one row-wise sort of
the quantile points that keeps ``np.unique``'s bytes.

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
    "row_quantiles",
]

# Cells per sorted column block in fit_bin_edges (8 MiB of float64), so
# binning never holds a second copy of the design matrix.
_SORT_BLOCK_CELLS = 1 << 20
_TRANSPOSE_TILE_ROWS = 512


def fit_bin_edges(X: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """Per-feature interior quantile boundaries (possibly empty).

    Column ``f`` gets ``np.unique(np.quantile(X[:, f], q))`` over the
    ``max_bins - 1`` interior quantiles ``q``, byte for byte, minus the
    boundaries that are not below the column maximum: they could only
    produce an empty right side, and removing them guarantees constant
    columns get zero edges (all codes 0), which is what lets the GBT
    fit exclude padding columns from split search. A column holding NaN
    gets no edges.

    Columns are copied into one buffer of about ``_SORT_BLOCK_CELLS``
    cells a block at a time and sorted there, and each quantile is read
    from two order statistics (:func:`row_quantiles`).
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    n_rows, n_cols = X.shape
    if n_rows == 0:
        raise ValueError("X must contain at least one row")
    step = max(1, _SORT_BLOCK_CELLS // n_rows)
    buffer = np.empty((min(step, n_cols), n_rows), dtype=X.dtype)
    edges: list[np.ndarray] = []
    for start in range(0, n_cols, step):
        # One column per row, transposed a tile of rows at a time: a
        # whole-block transposing copy strides across pages per element.
        block = buffer[: min(step, n_cols - start)]
        for r in range(0, n_rows, _TRANSPOSE_TILE_ROWS):
            tile = slice(r, r + _TRANSPOSE_TILE_ROWS)
            block[:, tile] = X[tile, start : start + step].T
        block.sort(axis=1)
        edges += _interior_edges(row_quantiles(block, max_bins), block[:, -1])
    return edges


def apply_bin_edges(X: np.ndarray, edges: list[np.ndarray]) -> np.ndarray:
    codes = np.empty(X.shape, dtype=np.uint8)
    for f, e in enumerate(edges):
        codes[:, f] = np.searchsorted(e, X[:, f], side="right")
    return codes


def row_quantiles(sorted_rows: np.ndarray, max_bins: int) -> np.ndarray:
    """``np.quantile(row, q)`` for every row of a row-sorted 2-D array.

    ``q`` are the ``max_bins - 1`` interior quantiles; the result has
    one row of points per input row. Byte-identical to ``np.quantile``
    on rows without NaN (where numpy returns NaN for the whole row),
    up to the sign of zero ties, which a sort and numpy's partition may
    order differently.
    """
    lo, hi, gamma = _quantile_positions(sorted_rows.shape[1], max_bins)
    return _numpy_lerp(sorted_rows[:, lo], sorted_rows[:, hi], gamma)


def _quantile_positions(
    n: int, max_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order statistics and weights of numpy's ``linear`` quantiles.

    For ``n`` sorted values and the ``max_bins - 1`` interior quantiles,
    ``np.quantile`` interpolates between sorted positions ``lo`` and
    ``hi`` with weight ``gamma``. As in numpy's ``_get_indexes``, a
    virtual index at or past the last position reads the last value on
    both sides, with ``gamma`` taken against index ``-1``; for interior
    quantiles that happens only when ``n == 1``.
    """
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    virtual = (n - 1) * quantiles
    lo = np.floor(virtual)
    hi = lo + 1
    above = virtual >= n - 1
    lo[above] = hi[above] = -1
    gamma = virtual - lo
    lo[above] = hi[above] = n - 1
    return lo.astype(np.intp), hi.astype(np.intp), gamma


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


def _interior_edges(points: np.ndarray, col_max: np.ndarray) -> list[np.ndarray]:
    """``np.unique(points[c])`` below ``col_max[c]``, for every row ``c``.

    ``np.unique`` sorts its input and keeps the first element of each
    run of equal values; a row-wise sort calls the same sort on each
    row, so the first of each run is the same element, sign of zero
    included. NaN never survives the ``< col_max`` test, so
    ``np.unique``'s collapsing of NaN runs does not matter. The edges
    are views into one array.
    """
    points = np.sort(points, axis=1)
    keep = points < col_max[:, None]
    keep[:, 1:] &= points[:, 1:] != points[:, :-1]
    flat = points[keep]
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


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
        them). ``np.quantile``'s linear interpolation between the two
        order statistics of :func:`_quantile_positions` is then
        replayed exactly via :func:`_numpy_lerp`.
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
        lo, hi, gamma = _quantile_positions(n, max_bins)
        nq = gamma.size
        # Every column's cumulative counts are non-decreasing in [0, n],
        # so count_nonzero(cumw[:, c] <= t) is a right-side searchsorted.
        # Shifting column c by c * (n + 1) keeps the column-major
        # flattening sorted, and one searchsorted answers every
        # (column, order statistic) query.
        cols = np.arange(self.n_cols)
        shift = cols * (n + 1)
        cumw = np.cumsum(counts[self.order], axis=0).T + shift[:, None]  # (n_cols, m)
        thresholds = np.concatenate([lo, hi, [n - 1]])
        rank = np.searchsorted(cumw.ravel(), shift[:, None] + thresholds, side="right")
        rank -= (cols * self.n_items)[:, None]
        stats = self.sorted_values.T[cols[:, None], rank]
        points = _numpy_lerp(stats[:, :nq], stats[:, nq:-1], gamma)
        return _interior_edges(points, stats[:, -1])
