"""Signature-set selection (paper Section III-C).

Three strategies for choosing the small set of networks whose measured
latencies represent a device:

- **Random Sampling (RS)** — uniform sampling without replacement.
- **Mutual Information Selection (MIS, Algorithm 1)** — greedy
  submodular maximization: repeatedly add the network that maximizes
  how well the chosen set covers the remaining networks, each covered
  by its highest-MI member of the set, treating each network's latency
  vector across the *training* devices as samples of a random variable.
- **Spearman Correlation Coefficient Selection (SCCS, Algorithm 2)** —
  repeatedly pick the network with the most rank-correlation
  "coverage" (pairwise |rho| >= gamma) and drop everything it covers.

Only training devices may participate in selection (the paper's
protocol), so callers pass a latency matrix restricted to the training
rows.
"""

from __future__ import annotations

import numpy as np

from repro.ml.metrics import _ranks
from repro.ml.mutual_info import mutual_information_matrix

__all__ = [
    "mutual_information_selection",
    "random_selection",
    "select_signature_set",
    "spearman_correlation_matrix",
    "spearman_selection",
]


def _mask_missing_rows(matrix: np.ndarray) -> np.ndarray:
    """Drop device rows containing missing (NaN) cells.

    Partial campaigns quarantine devices as NaN rows; selection must
    never rank on NaN statistics, so incomplete devices are masked out
    before any strategy sees the matrix. Raises a clear error when no
    complete device row survives.
    """
    missing = np.isnan(matrix)
    if not missing.any():
        return matrix
    complete = ~missing.any(axis=1)
    if not complete.any():
        raise ValueError(
            "every device row contains missing measurements; cannot "
            "select a signature set (drop incomplete devices or "
            "re-measure the campaign)"
        )
    return matrix[complete]


def _validate_matrix(latencies: np.ndarray, size: int) -> np.ndarray:
    matrix = np.asarray(latencies, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("latencies must be (n_devices, n_networks)")
    if not 1 <= size <= matrix.shape[1]:
        raise ValueError(
            f"signature size {size} out of range for {matrix.shape[1]} networks"
        )
    matrix = _mask_missing_rows(matrix)
    if not np.isfinite(matrix).all():
        raise ValueError("latencies must be finite (NaN rows are masked; inf is not)")
    return matrix


def random_selection(
    latencies: np.ndarray,
    size: int,
    *,
    rng: np.random.Generator | int | None = None,
) -> list[int]:
    """Uniformly sample ``size`` network indices (RS)."""
    matrix = _validate_matrix(latencies, size)
    generator = np.random.default_rng(rng)
    chosen = generator.choice(matrix.shape[1], size=size, replace=False)
    return sorted(int(i) for i in chosen)


def mutual_information_selection(
    latencies: np.ndarray,
    size: int,
    *,
    n_bins: int = 8,
    rng: np.random.Generator | int | None = None,
) -> list[int]:
    """Greedy MI maximization (Algorithm 1).

    The first network is chosen randomly (as in the paper); each later
    iteration adds the candidate ``c`` maximizing, for ``S`` the grown
    set ``subset + [c]``, ``sum over o outside S of max over t in S of
    MI(t, o)``: for each outside network, the best single-network MI
    within the set. This facility-location surrogate for set MI keeps
    the greedy objective submodular and tractable.

    The scores are exact: each is summed left to right over ascending
    ``o`` in NumPy float64, with +0.0 standing in for the networks in
    ``S``, and the first (lowest-index) maximum wins, so ties break as
    a loop over ascending candidates with a strict ``>`` breaks them.
    """
    matrix = _validate_matrix(latencies, size)
    n_networks = matrix.shape[1]
    mi = mutual_information_matrix(matrix.T, n_bins=n_bins)
    generator = np.random.default_rng(rng)
    subset = [int(generator.integers(n_networks))]
    while len(subset) < size:
        candidates = np.setdiff1d(np.arange(n_networks), subset)
        cover = mi[subset].max(axis=0)
        gains = np.maximum(cover, mi[candidates])
        gains[:, subset] = 0.0
        gains[np.arange(len(candidates)), candidates] = 0.0
        scores = np.cumsum(gains, axis=1)[:, -1]
        subset.append(int(candidates[np.argmax(scores)]))
    return sorted(subset)


def spearman_correlation_matrix(latencies: np.ndarray) -> np.ndarray:
    """Pairwise Spearman rho between network latency vectors.

    Device rows with missing (NaN) cells are masked out first — ranks
    over NaN are meaningless.
    """
    matrix = np.asarray(latencies, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("latencies must be (n_devices, n_networks)")
    matrix = _mask_missing_rows(matrix)
    n = matrix.shape[1]
    if matrix.shape[0] == 0:
        rho = np.eye(n)
    else:
        # One rank pass per column, then a single matrix product — the
        # O(n^2) pairwise spearmanr loop collapsed into BLAS. Same
        # fractional tie-averaged ranks, same constant-column (-> 0.0)
        # and clipping semantics as the pairwise path; only the
        # summation order differs (within float tolerance).
        ranks = np.empty_like(matrix)
        for j in range(n):
            ranks[:, j] = _ranks(matrix[:, j])
        centered = ranks - ranks.mean(axis=0)
        ss = np.einsum("ij,ij->j", centered, centered)
        denom = np.sqrt(np.outer(ss, ss))
        rho = np.zeros((n, n))
        np.divide(centered.T @ centered, denom, out=rho, where=denom > 0.0)
        np.clip(rho, -1.0, 1.0, out=rho)
        np.fill_diagonal(rho, 1.0)
    return rho


def spearman_selection(
    latencies: np.ndarray,
    size: int,
    *,
    gamma: float = 0.95,
) -> list[int]:
    """Correlation-coverage greedy selection (Algorithm 2).

    Each round picks the network with the most pairwise correlations
    above ``gamma`` among the still-uncovered networks, then removes
    everything it covers. If coverage runs dry before ``size`` picks
    (every remaining network already covered), the remaining picks
    fall back to the least-covered networks, keeping the requested set
    size.
    """
    matrix = _validate_matrix(latencies, size)
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    rho = spearman_correlation_matrix(matrix)
    n = rho.shape[0]

    alive = np.ones(n, dtype=bool)
    subset: list[int] = []
    for _ in range(size):
        if not alive.any():
            break
        coverage = (np.abs(rho) >= gamma) & alive[None, :]
        counts = coverage.sum(axis=1)
        counts[~alive] = -1
        index = int(np.argmax(counts))
        subset.append(index)
        alive &= ~coverage[index]
    if len(subset) < size:
        # Fallback: all networks covered; add the remaining networks
        # least correlated with the current picks.
        remaining = [j for j in range(n) if j not in subset]
        residual = [max(abs(rho[j, s]) for s in subset) for j in remaining]
        for j in np.argsort(residual):
            subset.append(remaining[int(j)])
            if len(subset) == size:
                break
    return sorted(subset)


def select_signature_set(
    latencies: np.ndarray,
    size: int,
    method: str,
    *,
    rng: np.random.Generator | int | None = None,
    gamma: float = 0.95,
    n_bins: int = 8,
) -> list[int]:
    """Dispatch to one of the three strategies by name.

    ``method`` is ``"rs"``, ``"mis"``, or ``"sccs"``.
    """
    method = method.lower()
    if method == "rs":
        return random_selection(latencies, size, rng=rng)
    if method == "mis":
        return mutual_information_selection(latencies, size, n_bins=n_bins, rng=rng)
    if method == "sccs":
        return spearman_selection(latencies, size, gamma=gamma)
    raise ValueError(f"unknown selection method {method!r} (use rs / mis / sccs)")
