"""Collaborative workload characterization (paper Section V).

Simulates the proposed global-repository protocol on a collected
dataset:

1. choose a signature set (MIS, size 10) over the full network list;
2. devices join one at a time, each contributing its signature-set
   latencies (its hardware representation) plus measurements on a small
   fraction of randomly chosen networks;
3. after each join, retrain the cost model on everything contributed so
   far and evaluate the average per-device R^2 on *all* networks for
   the devices joined so far (Figure 12);
4. compare against training a model for one device in isolation with a
   growing number of its own measurements (Figure 13).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import telemetry
from repro.core.cost_model import (
    CostModel,
    default_regressor,
    fit_pairs,
    gather_pair_codes,
    observed_pairs,
)
from repro.core.representation import (
    EncodedSuite,
    SignatureHardwareEncoder,
    shared_encoded_suite,
)
from repro.core.signature import select_signature_set
from repro.dataset.dataset import LatencyDataset
from repro.generator.suite import BenchmarkSuite
from repro.ml.binning import apply_bin_edges
from repro.ml.gbt import GradientBoostedTrees
from repro.ml.metrics import r2_score
from repro.parallel import Executor, get_executor
from repro.trust import AdmissionController, AdmissionDecision, AdmissionPolicy

__all__ = [
    "CollaborationRecord",
    "CollaborativeRepository",
    "ShardModelRecord",
    "ShardedTrainReport",
    "collaborative_r2_for_device",
    "isolated_learning_curve",
    "simulate_collaboration",
    "train_sharded_repository",
]


def _resolve_admission(admission: object) -> AdmissionController | None:
    """Normalize the ``admission`` argument to a controller (or None)."""
    if admission is None or admission is False:
        return None
    if isinstance(admission, AdmissionController):
        return admission
    if isinstance(admission, AdmissionPolicy):
        return AdmissionController((), policy=admission)
    if admission is True:
        return AdmissionController(())
    raise TypeError(
        "admission must be None, True, an AdmissionPolicy or an "
        f"AdmissionController, got {type(admission).__name__}"
    )


def _observed_pairs(
    dataset: LatencyDataset, device_names: Sequence[str]
) -> list[tuple[str, str]]:
    """All (device, network) pairs with an actual measurement.

    Iterates devices then networks — the same order as the full cross
    product — so on a complete dataset the result is identical to the
    unmasked evaluation set.
    """
    pairs: list[tuple[str, str]] = []
    for device in device_names:
        row = dataset.latencies_ms[dataset.device_index(device)]
        pairs.extend(
            (device, network)
            for j, network in enumerate(dataset.network_names)
            if not np.isnan(row[j])
        )
    return pairs


@dataclass(frozen=True)
class CollaborationRecord:
    """State of the collaborative model after one device joined.

    Attributes
    ----------
    n_devices:
        Devices in the repository so far.
    avg_r2:
        Pooled R^2 over all (joined device, network) pairs — the
        paper's Figure-12 metric.
    n_training_points:
        Total (device, network) measurements contributed so far.
    """

    n_devices: int
    avg_r2: float
    n_training_points: int


class CollaborativeRepository:
    """The shared repository: signature set + contributed measurements.

    Parameters
    ----------
    dataset:
        The full measurement matrix the simulation draws from (stands
        in for devices actually measuring networks).
    suite:
        Network structures, for encoding.
    signature_size, selection_method:
        How the commonly agreed signature set is chosen (paper: MIS,
        size 10, over all networks).
    seed:
        Seeds signature selection tie-breaking and contribution
        sampling.
    signature_names:
        Use this exact signature set instead of selecting one — the
        fleet-scale sharded path agrees on one signature globally and
        builds every per-shard repository against it. Skips selection
        entirely (the RNG stream is not advanced).
    """

    def __init__(
        self,
        dataset: LatencyDataset,
        suite: BenchmarkSuite,
        *,
        signature_size: int = 10,
        selection_method: str = "mis",
        seed: int = 0,
        signature_names: Sequence[str] | None = None,
    ) -> None:
        self.dataset = dataset
        self.suite = suite
        self._rng = np.random.default_rng(seed)
        if signature_names is not None:
            missing = [n for n in signature_names if n not in dataset.network_names]
            if missing:
                raise ValueError(f"dataset lacks signature network(s) {missing}")
            self.signature_names = list(signature_names)
        else:
            signature_idx = select_signature_set(
                dataset.latencies_ms, signature_size, selection_method, rng=self._rng
            )
            self.signature_names = [dataset.network_names[i] for i in signature_idx]
        self.hw_encoder = SignatureHardwareEncoder(self.signature_names)
        encoded = shared_encoded_suite(list(suite))
        self.encoded_suite = encoded
        self.network_encoder = encoded.encoder
        # Pre-encoded network rows (shared, read-only) so every
        # checkpoint retrain skips re-encoding the suite.
        suite_names = set(encoded.names)
        self.network_features = {
            name: encoded.row(name)
            for name in dataset.network_names
            if name in suite_names
        }
        # device name -> list of contributed network names (beyond signature).
        self.contributions: dict[str, list[str]] = {}
        # device name -> fraction of its networks actually measured
        # (1.0 on a complete dataset; lower for partial campaigns).
        self.completeness: dict[str, float] = {}

    @property
    def n_devices(self) -> int:
        return len(self.contributions)

    @property
    def n_training_points(self) -> int:
        """Contributed measurements: signature + extra nets per device."""
        return sum(
            len(self.signature_names) + len(nets) for nets in self.contributions.values()
        )

    def device_has_signature(self, device_name: str) -> bool:
        """Whether the device measured its full signature set.

        A device whose signature cells are missing (quarantined or
        partially measured in a fault-tolerant campaign) has no
        hardware representation and cannot join.
        """
        hw = self.hw_encoder.encode_from_dataset(self.dataset, device_name)
        return bool(np.isfinite(hw).all())

    def _measured_candidates(self, device_name: str) -> list[str]:
        """Non-signature networks this device actually measured."""
        row = self.dataset.latencies_ms[self.dataset.device_index(device_name)]
        return [
            n
            for i, n in enumerate(self.dataset.network_names)
            if n not in self.signature_names and not np.isnan(row[i])
        ]

    def _sample_contribution(self, device_name: str, count: int) -> list[str]:
        """Draw the device's extra-network contribution (consumes RNG).

        Split from the join bookkeeping so an admission-screened join
        can sample *first* — advancing the shared RNG stream exactly
        like an unscreened join — and only then decide whether the
        contribution enters the repository. A clean fleet therefore
        produces byte-identical joins with screening on or off.
        """
        if device_name in self.contributions:
            raise ValueError(f"device {device_name!r} already joined")
        if not self.device_has_signature(device_name):
            raise ValueError(
                f"device {device_name!r} is missing signature-set measurements "
                "and cannot join the repository"
            )
        candidates = self._measured_candidates(device_name)
        n_non_signature = self.dataset.n_networks - len(self.signature_names)
        if not 0 <= count <= n_non_signature:
            raise ValueError(
                f"contribution count {count} out of range for "
                f"{n_non_signature} non-signature networks"
            )
        count = min(count, len(candidates))
        chosen = self._rng.choice(len(candidates), size=count, replace=False)
        return [candidates[i] for i in chosen]

    def _record_join(self, device_name: str, networks: list[str]) -> None:
        self.contributions[device_name] = networks
        row = self.dataset.latencies_ms[self.dataset.device_index(device_name)]
        self.completeness[device_name] = float(np.mean(~np.isnan(row)))

    def _join_count(self, device_name: str, count: int) -> None:
        self._record_join(device_name, self._sample_contribution(device_name, count))

    def signature_values(self, device_name: str) -> np.ndarray:
        """The device's measured signature-set latencies (ms)."""
        row = self.dataset.latencies_ms[self.dataset.device_index(device_name)]
        idx = [self.dataset.network_index(n) for n in self.signature_names]
        return row[idx]

    def join(self, device_name: str, contribution_fraction: float) -> None:
        """A device joins, contributing a fraction of non-signature nets.

        The count is ``round(fraction * n_non_signature_networks)`` —
        the signature set is excluded from the base, matching what the
        device actually has left to contribute. Only networks the
        device has really measured are eligible, so partial campaigns
        contribute what they have instead of crashing.
        """
        if not 0.0 <= contribution_fraction <= 1.0:
            raise ValueError("contribution_fraction must be in [0, 1]")
        n_non_signature = self.dataset.n_networks - len(self.signature_names)
        self._join_count(
            device_name, int(round(contribution_fraction * n_non_signature))
        )

    def join_with_count(self, device_name: str, n_networks: int) -> None:
        """Join contributing an absolute number of extra networks.

        The count is used exactly as given (no fraction round-trip), so
        ``join_with_count(d, n)`` always contributes ``n`` networks
        when the device measured at least that many.
        """
        self._join_count(device_name, n_networks)

    def join_screened(
        self, device_name: str, contribution_fraction: float, controller
    ) -> "AdmissionDecision":
        """Submit a join through an admission controller.

        The contribution is sampled first (advancing the shared RNG
        exactly as :meth:`join` would), then the device's signature
        latencies are screened by the
        :class:`~repro.trust.AdmissionController`; only an admitted
        device's contribution is recorded. Returns the decision.
        """
        if not 0.0 <= contribution_fraction <= 1.0:
            raise ValueError("contribution_fraction must be in [0, 1]")
        n_non_signature = self.dataset.n_networks - len(self.signature_names)
        networks = self._sample_contribution(
            device_name, int(round(contribution_fraction * n_non_signature))
        )
        decision = controller.submit(device_name, self.signature_values(device_name))
        if decision.admitted:
            self._record_join(device_name, networks)
        return decision

    def train(self, *, regressor_seed: int = 0) -> CostModel:
        """Fit a cost model on all contributed measurements.

        Every member's signature-set measurements double as training
        targets (they are real contributed measurements — the paper's
        "10 measurements on the signature set and 10 measurements on
        other randomly chosen networks"), which anchors each device's
        latency scale.
        """
        if not self.contributions:
            raise RuntimeError("no devices have joined yet")
        # Still the float path (build_training_set + CostModel.fit), not
        # fit_pairs: the end-to-end benchmark's tracer
        # (benchmarks/e2e/trace.py) expects CostModel.build_training_set
        # to record a call on every workload, and this is its only
        # caller there. Both paths give identical predictions.
        model = CostModel(
            self.network_encoder, self.hw_encoder, default_regressor(regressor_seed)
        )
        pairs = [
            (device, network)
            for device, networks in self.contributions.items()
            for network in (*self.signature_names, *networks)
        ]
        device_hw = {
            d: self.hw_encoder.encode_from_dataset(self.dataset, d)
            for d in self.contributions
        }
        X, y = model.build_training_set(
            self.dataset,
            self.suite,
            device_hw,
            pairs=pairs,
            network_features=self.network_features,
        )
        return model.fit(X, y)

    def publish_checkpoint(
        self,
        registry,
        *,
        cluster: str = "default",
        regressor_seed: int = 0,
        metadata: dict | None = None,
    ):
        """Retrain on the current membership and publish to a serving registry.

        This is the repository-to-serving handoff: each call trains a
        fresh model over all contributed measurements and publishes it
        as the cluster's next version, content-addressed by the exact
        training state (membership, per-device contributions, signature
        set, regressor seed). A running
        :class:`~repro.serve.service.PredictionService` picks the new
        version up on its next ``refresh()`` — an atomic hot swap, no
        restart.

        The checkpoint's metadata carries a ``static_estimate`` block —
        per-cluster network latency means over the contributing members
        (:func:`repro.serve.resilience.fit_static_estimate`). It lives
        in the registry *manifest*, not the model file, so the serving
        layer's last fallback tier survives checkpoint corruption.

        Returns the published
        :class:`~repro.serve.registry.ModelCheckpoint`.
        """
        from repro.serve.resilience import fit_static_estimate

        model = self.train(regressor_seed=regressor_seed)
        config = {
            "signature_names": list(self.signature_names),
            "contributions": {
                d: sorted(nets) for d, nets in sorted(self.contributions.items())
            },
            "regressor_seed": regressor_seed,
        }
        meta = {
            "n_devices": self.n_devices,
            "n_training_points": self.n_training_points,
            "static_estimate": fit_static_estimate(
                self.dataset, self.signature_names, sorted(self.contributions)
            ),
            **(metadata or {}),
        }
        return registry.publish(model, config, cluster=cluster, metadata=meta)

    def evaluate_device(self, model: CostModel, device_name: str) -> float:
        """Per-device R^2 of ``model`` over all *measured* networks.

        Missing (NaN) cells are excluded from the prediction set — a
        partially measured device is scored on what it has.
        """
        hw = {device_name: self.hw_encoder.encode_from_dataset(self.dataset, device_name)}
        pairs = _observed_pairs(self.dataset, [device_name])
        if not pairs:
            raise ValueError(f"device {device_name!r} has no observed measurements")
        X, y = model.build_training_set(
            self.dataset,
            self.suite,
            hw,
            pairs=pairs,
            network_features=self.network_features,
        )
        return r2_score(y, model.predict(X))

    def evaluate_joined(self, model: CostModel) -> float:
        """Pooled R^2 over all observed (joined device, network) pairs.

        The paper's Figure 12 reports "the model's average R^2 when
        evaluated on all networks for the hardware devices added till
        then" — a single score over the pooled prediction set. Missing
        cells of partially measured devices are excluded.
        """
        hw = {
            d: self.hw_encoder.encode_from_dataset(self.dataset, d)
            for d in self.contributions
        }
        pairs = _observed_pairs(self.dataset, list(self.contributions))
        X, y = model.build_training_set(
            self.dataset,
            self.suite,
            hw,
            pairs=pairs,
            network_features=self.network_features,
        )
        return r2_score(y, model.predict(X))


_CollabContext = tuple[
    LatencyDataset,
    "EncodedSuite",
    tuple[str, ...],
    tuple[tuple[str, tuple[str, ...]], ...],
    int,
    LatencyDataset,
]


def _context(
    repo: CollaborativeRepository, regressor_seed: int, eval_dataset: LatencyDataset
) -> _CollabContext:
    """Freeze a repository's membership for fitting and scoring.

    Returns ``(dataset, encoded_suite, signature_names, members,
    regressor_seed, eval_dataset)``; ``members`` lists every joined
    device with its contributed networks in join order, so each
    earlier membership is a prefix of it.
    """
    members = tuple(
        (device, tuple(networks)) for device, networks in repo.contributions.items()
    )
    return (
        repo.dataset,
        repo.encoded_suite,
        tuple(repo.signature_names),
        members,
        regressor_seed,
        eval_dataset,
    )


def _snapshot_arrays(
    shared: _CollabContext, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays describing the first ``size`` members.

    Returns ``(hw_matrix, dev_rows, train_dev_idx, train_net_rows, y)``:
    the members' signature latencies (their hardware vectors), their
    dataset row indices, and — one entry per contributed (device,
    network) training pair, in join/contribution order — the member
    index, the encoded-suite row index, and the measured latency.
    """
    dataset, enc, signature_names, members, _, _ = shared
    members = members[:size]
    dev_rows = np.fromiter(
        (dataset.device_index(device) for device, _ in members),
        dtype=np.intp,
        count=size,
    )
    sig_cols = [dataset.network_index(n) for n in signature_names]
    hw_matrix = dataset.latencies_ms[dev_rows[:, None], sig_cols]
    lengths = [len(signature_names) + len(networks) for _, networks in members]
    train_dev_idx = np.repeat(np.arange(size, dtype=np.intp), lengths)
    names = [n for _, networks in members for n in (*signature_names, *networks)]
    train_net_rows = np.fromiter(
        (enc.row_index(n) for n in names), dtype=np.intp, count=len(names)
    )
    net_cols = np.fromiter(
        (dataset.network_index(n) for n in names), dtype=np.intp, count=len(names)
    )
    y = dataset.latencies_ms[dev_rows[train_dev_idx], net_cols]
    return hw_matrix, dev_rows, train_dev_idx, train_net_rows, y


class _StepFit(NamedTuple):
    """One fitted membership prefix, with what scoring it needs."""

    regressor: GradientBoostedTrees
    net_codes: np.ndarray
    hw_codes: np.ndarray
    dev_rows: np.ndarray
    n_points: int


def _fit_steps(
    shared: _CollabContext,
    steps: Sequence[tuple[int, bool]],
    incremental_trees: int,
) -> Iterator[_StepFit]:
    """Fit membership prefixes in order, yielding after each step.

    Step ``(size, warm)`` fits the first ``size`` members: fully through
    :func:`~repro.core.cost_model.fit_pairs`, or, when ``warm``, by
    appending ``incremental_trees`` boosting rounds to the previous
    step's model under its frozen bin edges
    (:meth:`~repro.ml.gbt.GradientBoostedTrees.fit_more_binned`). The
    first step is never warm. This is the one warm-start loop behind
    ``simulate_collaboration(incremental=True)`` and the warm-started
    shards.
    """
    _, enc, _, _, regressor_seed, _ = shared
    net_width = enc.matrix.shape[1]
    for size, warm in steps:
        hw_matrix, dev_rows, dev_idx, net_rows, y = _snapshot_arrays(shared, size)
        if warm:
            # Frozen edges: the last full fit's network codes stand;
            # only the grown hardware block is re-coded.
            hw_codes = apply_bin_edges(hw_matrix, regressor.bin_edges[net_width:])
            regressor.fit_more_binned(
                gather_pair_codes(net_codes, hw_codes, net_rows, dev_idx),
                y,
                incremental_trees,
            )
        else:
            regressor = default_regressor(regressor_seed)
            net_codes, hw_codes = fit_pairs(
                regressor, enc, hw_matrix, net_rows, dev_idx, y
            )
        yield _StepFit(regressor, net_codes, hw_codes, dev_rows, int(y.size))


def _score(shared: _CollabContext, fit: _StepFit) -> float:
    """Pooled R^2 over the fitted members' observed evaluation cells.

    Pairs run devices outer and ``network_names`` inner, NaN cells
    skipped — the Figure-12 metric's historical pair order.
    """
    _, enc, _, _, _, eval_dataset = shared
    suite_rows = np.fromiter(
        (enc.row_index(n) for n in eval_dataset.network_names),
        dtype=np.intp,
        count=eval_dataset.n_networks,
    )
    dev_idx, net_rows, y = observed_pairs(
        eval_dataset.latencies_ms[fit.dev_rows], suite_rows
    )
    pred = fit.regressor.predict_binned(
        gather_pair_codes(fit.net_codes, fit.hw_codes, net_rows, dev_idx)
    )
    return r2_score(y, pred)


def _evaluate_checkpoint(shared: _CollabContext, size: int) -> CollaborationRecord:
    """Train on the first ``size`` members and score the Figure-12 metric.

    Checkpoints are membership prefixes taken serially — contribution
    sampling consumes a shared RNG — but the train/evaluate work per
    checkpoint is independent, so checkpoints distribute across workers.

    Training targets always come from the (possibly corrupted)
    contributed dataset; evaluation targets come from the shared
    context's evaluation dataset, which an adversarial experiment sets
    to the clean ground truth.
    """
    (fit,) = _fit_steps(shared, [(size, False)], 0)
    return CollaborationRecord(
        n_devices=size, avg_r2=_score(shared, fit), n_training_points=fit.n_points
    )


def _incremental_steps(
    sizes: Sequence[int], min_devices: int, refresh_factor: float
) -> list[tuple[int, bool]]:
    """Warm-start schedule over checkpoint sizes.

    A checkpoint refits from scratch until a full fit covered at least
    ``min_devices`` members, and again whenever membership reaches
    ``refresh_factor`` times its size at the last full fit; every other
    checkpoint is a warm step.
    """
    steps: list[tuple[int, bool]] = []
    can_warm = False
    last_full = 0
    for size in sizes:
        warm = can_warm and size < refresh_factor * last_full
        if not warm:
            last_full = size
            can_warm = size >= min_devices
        steps.append((size, warm))
    return steps


def simulate_collaboration(
    dataset: LatencyDataset,
    suite: BenchmarkSuite,
    *,
    contribution_fraction: float = 0.1,
    n_iterations: int = 50,
    signature_size: int = 10,
    selection_method: str = "mis",
    seed: int = 0,
    regressor_seed: int = 0,
    evaluate_every: int = 1,
    jobs: int | None = None,
    backend: str | None = None,
    executor: Executor | None = None,
    incremental: bool = False,
    incremental_trees: int = 20,
    incremental_min_devices: int = 10,
    incremental_refresh_factor: float = 2.0,
    admission: object = None,
    eval_dataset: LatencyDataset | None = None,
) -> list[CollaborationRecord]:
    """Run the Section-V simulation (Figure 12).

    Devices join in a seeded random order; after every
    ``evaluate_every`` joins the model is retrained and scored. Joins
    are replayed serially (contribution sampling consumes one shared
    RNG stream), then the per-checkpoint retrain/evaluate rounds — the
    expensive part — run on the chosen executor backend. Results are
    identical across backends.

    ``admission`` gates joins through the trust layer: ``True`` uses a
    default-policy :class:`~repro.trust.AdmissionController`, an
    :class:`~repro.trust.AdmissionPolicy` customizes thresholds, and a
    pre-built (unbound) controller lets the caller inspect the
    reputation ledger afterwards. Each submission samples its
    contribution first — advancing the shared RNG exactly like an
    unscreened join — so a fleet with nothing to reject produces
    byte-identical records with admission on or off. Rejected devices
    still consume an iteration (the paper's x-axis counts *joined*
    devices, so checkpoints record the member count at that point and
    duplicate snapshots are skipped).

    ``eval_dataset`` supplies the evaluation ground truth (same
    devices and networks); adversarial experiments train on the
    corrupted matrix while scoring checkpoints against the clean one.

    With ``incremental=True`` the model is *warm-started* instead of
    retrained: each checkpoint appends ``incremental_trees`` boosting
    rounds on the grown repository (the paper's Section-V framing of
    the repository as incrementally updated). Warm-starting freezes the
    feature bin edges of the fit it continues from, so checkpoints with
    fewer than ``incremental_min_devices`` members still refit from
    scratch — a tiny repository quantizes the hardware columns too
    coarsely to extend, and those early refits are the cheap ones.
    Those full refits match the default mode exactly; once
    warm-starting begins the mode is an explicit approximation —
    predictions are close but **not** byte-identical to the full
    retrain (the train-path bench reports the R² parity gap) — and it
    runs serially, since each checkpoint extends the previous model.
    Because frozen edges grow stale as the repository grows, the model
    is additionally *refreshed* — refit from scratch, byte-equal to the
    default mode at that checkpoint — whenever membership exceeds
    ``incremental_refresh_factor`` times its size at the last full fit
    (a doubling schedule by default: amortized O(1) extra refits with
    boundedly stale quantization in between).

    ``regressor_seed`` seeds the per-checkpoint cost-model regressor
    independently of the protocol ``seed``, so sensitivity to model
    initialization can be studied without changing who joined.

    Devices missing signature-set measurements (quarantined by a
    fault-tolerant campaign) cannot represent their hardware and are
    skipped in the join order; there must remain at least
    ``n_iterations`` eligible devices.
    """
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    if n_iterations > dataset.n_devices:
        raise ValueError("cannot iterate more times than there are devices")
    if incremental and incremental_trees < 1:
        raise ValueError("incremental_trees must be >= 1")
    if incremental and incremental_refresh_factor < 1.0:
        raise ValueError("incremental_refresh_factor must be >= 1")
    if eval_dataset is not None and (
        eval_dataset.device_names != dataset.device_names
        or eval_dataset.network_names != dataset.network_names
    ):
        raise ValueError(
            "eval_dataset must cover the same devices and networks as dataset"
        )
    repo = CollaborativeRepository(
        dataset,
        suite,
        signature_size=signature_size,
        selection_method=selection_method,
        seed=seed,
    )
    order = np.random.default_rng(seed).permutation(dataset.n_devices)
    eligible = [
        int(i)
        for i in order
        if repo.device_has_signature(dataset.device_names[int(i)])
    ]
    n_skipped = dataset.n_devices - len(eligible)
    if n_skipped:
        telemetry.count("collab.skipped_devices", n_skipped)
    if n_iterations > len(eligible):
        raise ValueError(
            f"only {len(eligible)} of {dataset.n_devices} devices have complete "
            f"signature measurements; cannot run {n_iterations} iterations "
            f"({n_skipped} quarantined/partial devices were skipped)"
        )
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    controller = _resolve_admission(admission)
    if controller is not None:
        controller.bind(repo.signature_names)
    sizes: list[int] = []
    for step, device_idx in enumerate(eligible[:n_iterations], start=1):
        device_name = dataset.device_names[device_idx]
        if controller is None:
            repo.join(device_name, contribution_fraction)
        else:
            repo.join_screened(device_name, contribution_fraction, controller)
        size = repo.n_devices
        if (step % evaluate_every == 0 or step == n_iterations) and size and (
            not sizes or sizes[-1] != size
        ):
            sizes.append(size)
    shared = _context(repo, regressor_seed, eval_ds)
    if incremental:
        steps = _incremental_steps(
            sizes, incremental_min_devices, incremental_refresh_factor
        )
        records: list[CollaborationRecord] = []
        for (size, warm), fit in zip(
            steps, _fit_steps(shared, steps, incremental_trees)
        ):
            if warm:
                telemetry.count("collab.warm_start_steps")
            records.append(
                CollaborationRecord(
                    n_devices=size,
                    avg_r2=_score(shared, fit),
                    n_training_points=fit.n_points,
                )
            )
        return records
    executor = executor or get_executor(backend, jobs)
    return executor.map(_evaluate_checkpoint, sizes, shared=shared)


def isolated_learning_curve(
    dataset: LatencyDataset,
    suite: BenchmarkSuite,
    device_name: str,
    train_sizes: Sequence[int],
    *,
    seed: int = 0,
    regressor_seed: int = 0,
) -> list[tuple[int, float]]:
    """Per-device model accuracy vs number of own measurements (Fig. 13).

    For each size, trains a network-features-only GBT on that many
    randomly chosen networks of ``device_name`` and scores R^2 on all
    networks.
    """
    encoded = shared_encoded_suite(list(suite))
    features = encoded.matrix[
        [encoded.row_index(n) for n in dataset.network_names]
    ]
    targets = dataset.device_vector(device_name)
    observed = np.flatnonzero(~np.isnan(targets))
    if observed.size == 0:
        raise ValueError(f"device {device_name!r} has no observed measurements")
    rng = np.random.default_rng(seed)
    curve: list[tuple[int, float]] = []
    for size in train_sizes:
        if not 1 <= size <= observed.size:
            raise ValueError(
                f"train size {size} out of range for {observed.size} "
                f"observed measurements of {device_name!r}"
            )
        chosen = observed[rng.choice(observed.size, size=size, replace=False)]
        model = GradientBoostedTrees(seed=regressor_seed)
        model.fit(features[chosen], targets[chosen])
        curve.append(
            (int(size), r2_score(targets[observed], model.predict(features[observed])))
        )
    return curve


def collaborative_r2_for_device(
    dataset: LatencyDataset,
    suite: BenchmarkSuite,
    target_device: str,
    *,
    n_contributors: int = 50,
    extra_networks_per_device: int = 10,
    signature_size: int = 10,
    selection_method: str = "mis",
    seed: int = 0,
    regressor_seed: int = 0,
) -> float:
    """Figure 13's collaborative side: R^2 on ``target_device`` when 50
    devices (including the target) each contribute the signature set
    plus ``extra_networks_per_device`` measurements."""
    if target_device not in dataset.device_names:
        raise ValueError(
            f"unknown target device {target_device!r}; "
            f"dataset has {dataset.n_devices} devices"
        )
    if n_contributors < 1:
        raise ValueError(f"n_contributors must be >= 1, got {n_contributors}")
    others = [d for d in dataset.device_names if d != target_device]
    if n_contributors - 1 > len(others):
        raise ValueError(
            f"n_contributors={n_contributors} needs {n_contributors - 1} other "
            f"devices but the dataset has only {len(others)}"
        )
    repo = CollaborativeRepository(
        dataset,
        suite,
        signature_size=signature_size,
        selection_method=selection_method,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(others), size=n_contributors - 1, replace=False)
    members = [target_device] + [others[i] for i in chosen]
    for device in members:
        repo.join_with_count(device, extra_networks_per_device)
    model = repo.train(regressor_seed=regressor_seed)
    return repo.evaluate_device(model, target_device)


# -- fleet-scale sharded training ---------------------------------------


@dataclass(frozen=True)
class ShardModelRecord:
    """Outcome of training one shard's model.

    Attributes
    ----------
    cluster:
        The shard key (e.g. a chipset name).
    n_devices:
        Members whose contributions entered the fit.
    n_skipped:
        Devices without full signature measurements (quarantined or
        partially measured) that could not represent their hardware.
    n_rejected:
        Devices turned away by the admission ladder.
    n_training_points:
        Contributed (device, network) measurements in the final fit.
    n_warm_batches:
        Warm-start continuation rounds (0 for a single full fit).
    r2:
        Pooled R^2 over the shard members' observed cells.
    version:
        Registry version the shard model was published as.
    """

    cluster: str
    n_devices: int
    n_skipped: int
    n_rejected: int
    n_training_points: int
    n_warm_batches: int
    r2: float
    version: int


@dataclass(frozen=True)
class ShardedTrainReport:
    """What :func:`train_sharded_repository` trained and published."""

    signature_names: tuple[str, ...]
    default_cluster: str
    shards: tuple[ShardModelRecord, ...]

    def shard(self, cluster: str) -> ShardModelRecord:
        for record in self.shards:
            if record.cluster == cluster:
                return record
        raise KeyError(f"no shard model for cluster {cluster!r}")

    @property
    def n_devices(self) -> int:
        return sum(record.n_devices for record in self.shards)


def train_sharded_repository(
    sharded,
    suite: BenchmarkSuite,
    registry,
    *,
    signature_names: Sequence[str] | None = None,
    signature_size: int = 10,
    selection_method: str = "mis",
    contribution_fraction: float = 0.1,
    seed: int = 0,
    regressor_seed: int = 0,
    admission: object = None,
    warm_batch_devices: int | None = None,
    incremental_trees: int = 20,
    metadata: dict | None = None,
) -> ShardedTrainReport:
    """Train one cost model per shard and publish them for routing.

    The fleet-scale merge step: walks a
    :class:`~repro.dataset.sharded.ShardedLatencyDataset` cluster by
    cluster (never materializing the full matrix), builds a
    fixed-signature :class:`CollaborativeRepository` over each shard,
    joins its devices — optionally screened through a shared
    :class:`~repro.trust.AdmissionController` whose peer context
    carries across shards — fits a per-shard model, and publishes each
    to ``registry`` under its cluster name. The largest shard's model
    is additionally published under the registry's default cluster so
    :meth:`~repro.serve.registry.ModelRegistry.resolve` has a fallback
    for devices from unseen clusters — together that is the per-cluster
    routing table.

    ``signature_names`` fixes the globally agreed signature set; when
    omitted it is selected (MIS, as in the paper) over the largest
    shard — the one with the most evidence — deterministically, ties
    broken by cluster name. Every shard then shares that signature, so
    their hardware representations are comparable and one admission
    ladder screens them all.

    Per-shard fitting defaults to a single quantize-once fit that is
    byte-identical to the in-memory float path. With
    ``warm_batch_devices`` set, the first batch of members is fitted
    fully and each later batch extends the model with
    ``incremental_trees`` boosting rounds under frozen bin edges — the
    explicit warm-start approximation, mirroring
    ``simulate_collaboration(incremental=True)``.

    Devices missing signature measurements are skipped with telemetry
    (``sharded.devices_skipped``); shards where nobody could join are
    left unpublished (``sharded.shards_unfit``) and resolve to the
    default model.
    """
    if warm_batch_devices is not None and warm_batch_devices < 1:
        raise ValueError("warm_batch_devices must be >= 1")
    if warm_batch_devices is not None and incremental_trees < 1:
        raise ValueError("incremental_trees must be >= 1")
    clusters = list(sharded.clusters())
    if not clusters:
        raise ValueError("sharded dataset has no shards")
    if signature_names is None:
        anchor = min(
            clusters,
            key=lambda c: (-len(sharded.shard_device_names(c)), c),
        )
        anchor_ds = sharded.shard(anchor)
        rng = np.random.default_rng(seed)
        signature_idx = select_signature_set(
            anchor_ds.latencies_ms, signature_size, selection_method, rng=rng
        )
        signature_names = [anchor_ds.network_names[i] for i in signature_idx]
    signature = tuple(signature_names)
    controller = _resolve_admission(admission)
    if controller is not None:
        controller.bind(signature)
    records: list[ShardModelRecord] = []
    published: dict[str, tuple[CostModel, dict]] = {}
    for cluster in clusters:
        with telemetry.span("sharded.train_shard"):
            shard_ds = sharded.shard(cluster)
            repo = CollaborativeRepository(
                shard_ds, suite, seed=seed, signature_names=signature
            )
            n_skipped = n_rejected = 0
            start = len(controller.decisions) if controller is not None else 0
            for device in shard_ds.device_names:
                if not repo.device_has_signature(device):
                    n_skipped += 1
                    continue
                if controller is None:
                    repo.join(device, contribution_fraction)
                elif not repo.join_screened(
                    device, contribution_fraction, controller
                ).admitted:
                    n_rejected += 1
            if controller is not None:
                controller.record_shard(cluster, controller.decisions[start:])
            if n_skipped:
                telemetry.count("sharded.devices_skipped", n_skipped)
            if not repo.contributions:
                telemetry.count("sharded.shards_unfit")
                continue
            shared = _context(repo, regressor_seed, shard_ds)
            n_members = repo.n_devices
            batch = n_members if warm_batch_devices is None else warm_batch_devices
            steps = [
                (min(size, n_members), i > 0)
                for i, size in enumerate(range(batch, n_members + batch, batch))
            ]
            *_, fit = _fit_steps(shared, steps, incremental_trees)
            n_warm = len(steps) - 1
            if n_warm:
                telemetry.count("sharded.warm_start_batches", n_warm)
            model = CostModel(repo.network_encoder, repo.hw_encoder, fit.regressor)
            # The regressor was fitted through the quantize-once path
            # (not CostModel.fit), so mark the wrapper servable.
            model._fitted = True
            config = {
                "sharded": True,
                "signature_names": list(signature),
                "contributions": {
                    d: sorted(nets) for d, nets in sorted(repo.contributions.items())
                },
                "regressor_seed": regressor_seed,
                "warm_batch_devices": warm_batch_devices,
                "incremental_trees": incremental_trees if n_warm else None,
            }
            meta = {
                "n_devices": n_members,
                "n_skipped": n_skipped,
                "n_rejected": n_rejected,
                "n_training_points": fit.n_points,
                **(metadata or {}),
            }
            checkpoint = registry.publish(model, config, cluster=cluster, metadata=meta)
            telemetry.count("sharded.shards_trained")
            records.append(
                ShardModelRecord(
                    cluster=cluster,
                    n_devices=n_members,
                    n_skipped=n_skipped,
                    n_rejected=n_rejected,
                    n_training_points=fit.n_points,
                    n_warm_batches=n_warm,
                    r2=_score(shared, fit),
                    version=checkpoint.version,
                )
            )
            published[cluster] = (model, config)
    if not records:
        raise ValueError("no shard produced a trainable repository")
    default_cluster = min(records, key=lambda r: (-r.n_devices, r.cluster)).cluster
    model, config = published[default_cluster]
    registry.publish(
        model,
        {**config, "routed_from": default_cluster},
        cluster="default",
        metadata={"routed_from": default_cluster},
    )
    return ShardedTrainReport(
        signature_names=signature,
        default_cluster=default_cluster,
        shards=tuple(records),
    )
