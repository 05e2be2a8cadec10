"""Evaluation protocols from the paper's Section IV.

- :func:`device_split_evaluation` — the main protocol: split *devices*
  70/30, select the signature set using training devices only, discard
  the signature networks' latencies from train and test targets, train
  on everything else, report test R^2 (Figures 9-11).
- :func:`cluster_split_evaluation` — the adversarial protocol: train on
  two device clusters, test on the third (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro import telemetry
from repro.core.cost_model import (
    default_regressor,
    fit_pairs,
    gather_pair_codes,
    observed_pairs,
)
from repro.core.representation import shared_encoded_suite
from repro.core.signature import select_signature_set
from repro.dataset.dataset import LatencyDataset
from repro.generator.suite import BenchmarkSuite
from repro.ml.metrics import r2_score, rmse
from repro.ml.model_selection import train_test_split
from repro.parallel import Executor, get_executor

__all__ = [
    "EvaluationResult",
    "EvaluationSpec",
    "cluster_split_evaluation",
    "device_split_evaluation",
    "evaluate_many",
    "signature_size_sweep",
]


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of one cost-model evaluation run.

    Attributes
    ----------
    method:
        Signature selection method used (``rs`` / ``mis`` / ``sccs``).
    signature_names:
        The selected signature networks.
    r2, rmse_ms:
        Test-set metrics over all (device, network) pairs.
    y_true, y_pred:
        Raw test-set targets and predictions (for scatter plots).
    train_devices, test_devices:
        The device names on each side of the split.
    """

    method: str
    signature_names: tuple[str, ...]
    r2: float
    rmse_ms: float
    y_true: np.ndarray = field(repr=False)
    y_pred: np.ndarray = field(repr=False)
    train_devices: tuple[str, ...] = field(repr=False, default=())
    test_devices: tuple[str, ...] = field(repr=False, default=())


def _run_signature_protocol(
    dataset: LatencyDataset,
    suite: BenchmarkSuite,
    train_devices: Sequence[str],
    test_devices: Sequence[str],
    *,
    signature_size: int,
    method: str,
    selection_rng: np.random.Generator | int | None,
    regressor_seed: int,
    gamma: float = 0.95,
) -> EvaluationResult:
    """Shared core of both evaluation protocols."""
    telemetry.count("evaluate.protocols")
    train_rows = [dataset.device_index(d) for d in train_devices]
    train_matrix = dataset.latencies_ms[train_rows, :]

    # Signature selection sees only training-device measurements.
    signature_idx = select_signature_set(
        train_matrix, signature_size, method, rng=selection_rng, gamma=gamma
    )
    signature_names = [dataset.network_names[i] for i in signature_idx]
    target_networks = [n for n in dataset.network_names if n not in signature_names]

    # A device whose signature cells never arrived (quarantined or
    # partially measured by a fault-tolerant campaign) has no hardware
    # representation; drop it from its side of the split rather than
    # poisoning the fit with NaN. On a complete dataset nothing is
    # dropped and the pairs below equal the full cross product, so
    # results are byte-identical to the NaN-free protocol.
    sig_cols = [dataset.network_index(n) for n in signature_names]

    def with_signature(devices: Sequence[str]) -> list[str]:
        kept = [
            d
            for d in devices
            if not np.isnan(
                dataset.latencies_ms[dataset.device_index(d), sig_cols]
            ).any()
        ]
        if len(kept) < len(devices):
            telemetry.count("evaluate.skipped_devices", len(devices) - len(kept))
        return kept

    train_devices = with_signature(train_devices)
    test_devices = with_signature(test_devices)
    if not train_devices or not test_devices:
        raise ValueError(
            "no devices with complete signature measurements on the "
            "train or test side; re-measure or drop incomplete devices"
        )

    enc_suite = shared_encoded_suite(list(suite))
    regressor = default_regressor(regressor_seed)
    target_cols = np.asarray(
        [dataset.network_index(n) for n in target_networks], dtype=np.intp
    )
    target_rows = np.asarray(
        [enc_suite.row_index(n) for n in target_networks], dtype=np.intp
    )
    # Train devices first, then test devices: one hardware block (the
    # signature latencies) whose test rows no training pair names, so
    # they are coded under the training edges without shaping them.
    device_rows = np.asarray(
        [dataset.device_index(d) for d in (*train_devices, *test_devices)],
        dtype=np.intp,
    )
    hw = dataset.latencies_ms[device_rows[:, None], sig_cols]
    block = dataset.latencies_ms[device_rows[:, None], target_cols]
    n_train = len(train_devices)
    train_dev, train_net, y_train = observed_pairs(block[:n_train], target_rows)
    test_dev, test_net, y_test = observed_pairs(block[n_train:], target_rows)
    net_codes, hw_codes = fit_pairs(
        regressor, enc_suite, hw, train_net, train_dev, y_train
    )
    y_pred = regressor.predict_binned(
        gather_pair_codes(net_codes, hw_codes, test_net, test_dev + n_train)
    )
    return EvaluationResult(
        method=method,
        signature_names=tuple(signature_names),
        r2=r2_score(y_test, y_pred),
        rmse_ms=rmse(y_test, y_pred),
        y_true=y_test,
        y_pred=y_pred,
        train_devices=tuple(train_devices),
        test_devices=tuple(test_devices),
    )


def device_split_evaluation(
    dataset: LatencyDataset,
    suite: BenchmarkSuite,
    *,
    signature_size: int = 10,
    method: str = "mis",
    split_seed: int = 0,
    selection_rng: np.random.Generator | int | None = 0,
    regressor_seed: int = 0,
    test_fraction: float = 0.3,
    gamma: float = 0.95,
) -> EvaluationResult:
    """The paper's main protocol: random 70/30 device split."""
    train_idx, test_idx = train_test_split(
        dataset.n_devices, test_fraction, rng=split_seed
    )
    train_devices = [dataset.device_names[i] for i in train_idx]
    test_devices = [dataset.device_names[i] for i in test_idx]
    return _run_signature_protocol(
        dataset,
        suite,
        train_devices,
        test_devices,
        signature_size=signature_size,
        method=method,
        selection_rng=selection_rng,
        regressor_seed=regressor_seed,
        gamma=gamma,
    )


@dataclass(frozen=True)
class EvaluationSpec:
    """One device-split evaluation, fully described by plain values.

    Specs are the unit of work of :func:`evaluate_many`: because every
    field is an immutable primitive (seeds rather than live RNGs), a
    spec evaluates to the same :class:`EvaluationResult` on any
    executor backend and any worker.
    """

    method: str = "mis"
    signature_size: int = 10
    split_seed: int = 0
    selection_seed: int = 0
    regressor_seed: int = 0
    test_fraction: float = 0.3
    gamma: float = 0.95


def _evaluate_spec(
    shared: tuple[LatencyDataset, BenchmarkSuite], spec: EvaluationSpec
) -> EvaluationResult:
    dataset, suite = shared
    telemetry.count("evaluate.cells")
    with telemetry.span("evaluate.cell"):
        return device_split_evaluation(
            dataset,
            suite,
            signature_size=spec.signature_size,
            method=spec.method,
            split_seed=spec.split_seed,
            selection_rng=spec.selection_seed,
            regressor_seed=spec.regressor_seed,
            test_fraction=spec.test_fraction,
            gamma=spec.gamma,
        )


def evaluate_many(
    dataset: LatencyDataset,
    suite: BenchmarkSuite,
    specs: Sequence[EvaluationSpec],
    *,
    jobs: int | None = None,
    backend: str | None = None,
    executor: Executor | None = None,
) -> list[EvaluationResult]:
    """Run many independent evaluations, results in spec order.

    The sweeps behind Figures 9-11 repeat :func:`device_split_evaluation`
    across methods, signature sizes and selection seeds; each run is
    independent, so they distribute over a
    :class:`repro.parallel.Executor` with no cross-talk.
    """
    executor = executor or get_executor(backend, jobs)
    return executor.map(_evaluate_spec, list(specs), shared=(dataset, suite))


def signature_size_sweep(
    dataset: LatencyDataset,
    suite: BenchmarkSuite,
    *,
    sizes: Sequence[int],
    methods: Sequence[str] = ("rs", "mis", "sccs"),
    rs_repeats: int = 1,
    split_seed: int = 0,
    regressor_seed: int = 0,
    jobs: int | None = None,
    backend: str | None = None,
) -> dict[int, dict[str, float]]:
    """Mean test R^2 per (signature size, method) — the Figure 11 grid.

    Deterministic methods run once per size; ``rs`` is averaged over
    ``rs_repeats`` selection seeds, as the paper averages 100 random
    samples. The full grid is evaluated in parallel.
    """
    if rs_repeats < 1:
        raise ValueError("rs_repeats must be >= 1")
    specs: list[EvaluationSpec] = []
    for size in sizes:
        for method in methods:
            repeats = rs_repeats if method == "rs" else 1
            specs.extend(
                EvaluationSpec(
                    method=method,
                    signature_size=size,
                    split_seed=split_seed,
                    selection_seed=rep,
                    regressor_seed=regressor_seed,
                )
                for rep in range(repeats)
            )
    results = evaluate_many(dataset, suite, specs, jobs=jobs, backend=backend)
    table: dict[int, dict[str, list[float]]] = {}
    for spec, result in zip(specs, results):
        table.setdefault(spec.signature_size, {}).setdefault(spec.method, []).append(
            result.r2
        )
    return {
        size: {method: float(np.mean(scores)) for method, scores in row.items()}
        for size, row in table.items()
    }


def cluster_split_evaluation(
    dataset: LatencyDataset,
    suite: BenchmarkSuite,
    cluster_labels: Sequence[int],
    test_cluster: int,
    *,
    signature_size: int = 10,
    method: str = "mis",
    selection_rng: np.random.Generator | int | None = 0,
    regressor_seed: int = 0,
    gamma: float = 0.95,
) -> EvaluationResult:
    """Table I protocol: train on two clusters, test on the third.

    ``cluster_labels[i]`` is the cluster id of ``dataset.device_names[i]``.
    """
    labels = np.asarray(cluster_labels)
    if labels.size != dataset.n_devices:
        raise ValueError("one cluster label per device is required")
    if test_cluster not in set(labels.tolist()):
        raise ValueError(f"no devices in cluster {test_cluster}")
    train_devices = [
        name for name, lab in zip(dataset.device_names, labels) if lab != test_cluster
    ]
    test_devices = [
        name for name, lab in zip(dataset.device_names, labels) if lab == test_cluster
    ]
    return _run_signature_protocol(
        dataset,
        suite,
        train_devices,
        test_devices,
        signature_size=signature_size,
        method=method,
        selection_rng=selection_rng,
        regressor_seed=regressor_seed,
        gamma=gamma,
    )
