"""One-call construction of the paper's experimental artifacts.

Everything downstream (examples, tests, benches) needs the same three
objects — the 118-network suite, the 105-device fleet, and the measured
latency matrix. :func:`build_paper_artifacts` builds them
deterministically, with an optional content-addressed on-disk cache
(:class:`repro.cache.ArtifactCache`) for the latency matrix so repeated
runs skip the measurement campaign.

The cache key covers the full campaign configuration — build
parameters plus every harness and latency-model knob — so changing any
of them misses cleanly. A cached entry whose device/network names no
longer match the (deterministically rebuilt) suite and fleet is
evicted and re-measured, never served or left behind stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.cache import ArtifactCache, CampaignCheckpoint
from repro.dataset.collection import collect_dataset
from repro.dataset.dataset import LatencyDataset
from repro.devices.catalog import DeviceFleet, build_fleet
from repro.devices.measurement import MeasurementHarness
from repro.faults import AdversaryPlan, FaultPlan, RetryPolicy
from repro.generator.suite import BenchmarkSuite

__all__ = [
    "PaperArtifacts",
    "ShardedArtifacts",
    "build_paper_artifacts",
    "build_search_plane",
    "build_sharded_artifacts",
    "campaign_config",
    "publish_serving_checkpoint",
]


@dataclass(frozen=True)
class PaperArtifacts:
    """The dataset triple every experiment consumes."""

    suite: BenchmarkSuite
    fleet: DeviceFleet
    dataset: LatencyDataset


@dataclass(frozen=True)
class ShardedArtifacts:
    """The fleet-scale triple: matrix stays on disk, shard by shard."""

    suite: BenchmarkSuite
    fleet: DeviceFleet
    sharded: "ShardedLatencyDataset"  # noqa: F821 - imported lazily


def campaign_config(
    *,
    seed: int,
    n_random_networks: int,
    n_devices: int,
    harness: MeasurementHarness,
    fault_plan: FaultPlan | None = None,
    adversary_plan: AdversaryPlan | None = None,
    retry_policy: RetryPolicy | None = None,
) -> dict[str, Any]:
    """The full configuration a campaign's cache entry is keyed by.

    Fault-injection, adversary and retry knobs join the key only when
    a plan is given (and the aggregation protocol only when it departs
    from the paper's mean): faults and adversaries change the measured
    matrix, while a fault-free campaign is unaffected by the retry
    policy — so clean-campaign cache keys stay stable.
    """
    model = harness.model
    harness_config: dict[str, Any] = {
        "runs": harness.runs,
        "jitter_sigma": harness.jitter_sigma,
        "spike_probability": harness.spike_probability,
        "spike_scale": harness.spike_scale,
        "seed": harness.seed,
    }
    if harness.aggregate != "mean":
        harness_config["aggregate"] = harness.aggregate
    config: dict[str, Any] = {
        "campaign": "paper-artifacts",
        "seed": seed,
        "n_random_networks": n_random_networks,
        "n_devices": n_devices,
        "harness": harness_config,
        "model": {
            "precision": model.precision,
            "dispatch_us": model.dispatch_us,
            "l2_bytes_per_cycle": model.l2_bytes_per_cycle,
            "dram_stream_efficiency": model.dram_stream_efficiency,
            "dw_inorder_penalty": model.dw_inorder_penalty,
        },
    }
    if fault_plan is not None:
        config["faults"] = fault_plan.to_config()
        config["retry"] = (retry_policy or RetryPolicy()).to_config()
    if adversary_plan is not None:
        config["adversaries"] = adversary_plan.to_config()
    return config


def build_paper_artifacts(
    *,
    seed: int = 0,
    n_random_networks: int = 100,
    n_devices: int = 105,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    jobs: int | None = None,
    backend: str | None = None,
    harness: MeasurementHarness | None = None,
    fault_plan: FaultPlan | None = None,
    adversary_plan: AdversaryPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    resume: bool = False,
    block_size: int | None = None,
) -> PaperArtifacts:
    """Build (or load from cache) the suite, fleet and latency dataset.

    Parameters
    ----------
    seed:
        Master seed; drives network generation, fleet sampling and
        measurement noise.
    n_random_networks:
        Random networks beyond the 18-network zoo (paper: 100).
    n_devices:
        Fleet size (paper: 105).
    cache_dir:
        If given, the measured latency matrix is cached there under a
        content-addressed key. The suite and fleet are cheap and always
        rebuilt (deterministically).
    use_cache:
        ``False`` bypasses the cache entirely (no reads, no writes).
    jobs, backend:
        Parallelism knobs forwarded to
        :func:`repro.dataset.collection.collect_dataset`; they never
        change the measured matrix, only how fast it is collected.
    harness:
        Measurement harness override; defaults to the paper protocol
        (30 runs) seeded with ``seed``.
    fault_plan:
        Deterministic failure injection for the campaign (see
        :class:`repro.faults.FaultPlan`). Participates in the cache
        key, since injected faults change the matrix.
    adversary_plan:
        Deterministic Byzantine-device injection (see
        :class:`repro.faults.AdversaryPlan`): adversarial devices
        report corrupted-but-plausible rows. Participates in the cache
        key when given.
    retry_policy:
        Retry/quarantine response to failures; defaults to 3 retries.
    resume:
        Resume an interrupted campaign from its incremental row
        checkpoint (requires ``cache_dir``); completed devices are not
        re-measured. Without ``resume``, stale checkpoint rows for
        this configuration are cleared before measuring.
    block_size:
        Devices per streaming tile block on the fault-free campaign
        path; like ``jobs``/``backend`` it is purely a scheduling knob
        and never changes the matrix.
    """
    with telemetry.span("stage.build_suite"):
        suite = BenchmarkSuite.default(n_random=n_random_networks, seed=seed)
    with telemetry.span("stage.build_fleet"):
        fleet = build_fleet(n_devices, seed=seed)
    harness = harness or MeasurementHarness(seed=seed)

    cache: ArtifactCache | None = None
    checkpoint: CampaignCheckpoint | None = None
    slug = f"latency_seed{seed}_nets{n_random_networks}_devs{n_devices}"
    config = campaign_config(
        seed=seed,
        n_random_networks=n_random_networks,
        n_devices=n_devices,
        harness=harness,
        fault_plan=fault_plan,
        adversary_plan=adversary_plan,
        retry_policy=retry_policy,
    )
    if cache_dir is not None and use_cache:
        cache = ArtifactCache(cache_dir)
        checkpoint = CampaignCheckpoint(cache_dir, slug, config)
        with telemetry.span("stage.cache_lookup"):
            dataset = cache.load_dataset(slug, config)
        if dataset is not None:
            if (
                dataset.device_names == fleet.names
                and dataset.network_names == suite.names
            ):
                return PaperArtifacts(suite, fleet, dataset)
            # The entry is internally valid but does not describe these
            # artifacts (e.g. written by a different code revision):
            # evict now so the re-measured matrix replaces it below.
            telemetry.count("cache.evict.stale")
            cache.evict(slug, config)
    elif resume:
        raise ValueError(
            "resume=True requires cache_dir with use_cache=True "
            "(campaign checkpoints live in the cache directory)"
        )

    with telemetry.span("stage.collect"):
        dataset = collect_dataset(
            suite,
            fleet,
            harness,
            jobs=jobs,
            backend=backend,
            fault_plan=fault_plan,
            adversary_plan=adversary_plan,
            retry_policy=retry_policy,
            checkpoint=checkpoint,
            resume=resume,
            block_size=block_size,
        )
    if cache is not None:
        with telemetry.span("stage.cache_store"):
            cache.store_dataset(
                slug, config, dataset, extra_metadata={"summary": dataset.summary()}
            )
        if checkpoint is not None:
            # The full matrix is cached; per-row checkpoints are spent.
            checkpoint.clear()
    return PaperArtifacts(suite, fleet, dataset)


def build_sharded_artifacts(
    *,
    store_dir: str | Path,
    seed: int = 0,
    n_random_networks: int = 100,
    n_devices: int = 105,
    shard_by: str = "chipset",
    max_resident_mb: float | None = None,
    enforce_budget: bool = False,
    jobs: int | None = None,
    backend: str | None = None,
    harness: MeasurementHarness | None = None,
    fault_plan: FaultPlan | None = None,
    adversary_plan: AdversaryPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    block_size: int | None = None,
) -> ShardedArtifacts:
    """Build the suite and fleet, then measure shard by shard to disk.

    The fleet-scale sibling of :func:`build_paper_artifacts`: instead of
    one in-memory matrix it fills an npz-backed
    :class:`~repro.dataset.sharded.ShardStore` at ``store_dir``, cluster
    by cluster (``shard_by``: ``chipset`` or ``core``), keeping resident
    memory under ``max_resident_mb``. Re-running over an existing store
    skips completed shards and tops up interrupted ones, so the campaign
    is resumable at shard granularity; ``checkpoint_dir`` adds row-level
    resume *within* a shard via :class:`~repro.cache.CampaignCheckpoint`
    (one checkpoint per cluster, same campaign config key as the
    in-memory path).

    Returns a :class:`ShardedArtifacts` whose ``sharded`` view streams
    shards on demand and never materializes the full matrix.
    """
    from repro.dataset.sharded import collect_sharded_dataset

    with telemetry.span("stage.build_suite"):
        suite = BenchmarkSuite.default(n_random=n_random_networks, seed=seed)
    with telemetry.span("stage.build_fleet"):
        fleet = build_fleet(n_devices, seed=seed)
    harness = harness or MeasurementHarness(seed=seed)

    checkpoint_factory = None
    if checkpoint_dir is not None:
        config = campaign_config(
            seed=seed,
            n_random_networks=n_random_networks,
            n_devices=n_devices,
            harness=harness,
            fault_plan=fault_plan,
            adversary_plan=adversary_plan,
            retry_policy=retry_policy,
        )
        root = Path(checkpoint_dir)

        def checkpoint_factory(cluster: str) -> CampaignCheckpoint:
            slug = f"sharded_seed{seed}_nets{n_random_networks}_devs{n_devices}"
            return CampaignCheckpoint(
                root, slug, {**config, "campaign": "sharded", "cluster": cluster}
            )

    elif resume:
        raise ValueError(
            "resume=True requires checkpoint_dir (row checkpoints live there; "
            "shard-level resume over an existing store works without it)"
        )

    with telemetry.span("stage.collect_sharded"):
        sharded = collect_sharded_dataset(
            suite,
            fleet,
            harness,
            store_root=store_dir,
            shard_by=shard_by,
            max_resident_mb=max_resident_mb,
            enforce_budget=enforce_budget,
            jobs=jobs,
            backend=backend,
            fault_plan=fault_plan,
            adversary_plan=adversary_plan,
            retry_policy=retry_policy,
            checkpoint_factory=checkpoint_factory,
            resume=resume,
            block_size=block_size,
        )
    return ShardedArtifacts(suite, fleet, sharded)


def publish_serving_checkpoint(
    artifacts: PaperArtifacts,
    registry_root: str | Path,
    *,
    cluster: str = "default",
    signature_size: int = 10,
    contribution_fraction: float = 0.5,
    members: int | None = None,
    seed: int = 0,
    regressor_seed: int = 0,
):
    """Train a collaborative model on the artifacts and publish it for serving.

    The artifacts-to-serving bridge: simulates a membership (``members``
    devices — default every device with complete signature measurements
    — each contributing ``contribution_fraction`` of its non-signature
    networks), trains the repository model and publishes it as the
    cluster's next version in a
    :class:`~repro.serve.registry.ModelRegistry` rooted at
    ``registry_root``. Deterministic under (``seed``,
    ``regressor_seed``): repeated calls publish byte-identical
    checkpoints under the same content key, each as a fresh version.

    Returns ``(repository, checkpoint)`` so callers can keep joining
    devices and re-publishing (the hot-swap loop ``repro serve``
    exercises).
    """
    from repro.core.collaborative import CollaborativeRepository
    from repro.serve.registry import ModelRegistry

    with telemetry.span("stage.serve_train"):
        repo = CollaborativeRepository(
            artifacts.dataset,
            artifacts.suite,
            signature_size=signature_size,
            seed=seed,
        )
        eligible = [
            d for d in artifacts.dataset.device_names if repo.device_has_signature(d)
        ]
        if members is not None:
            eligible = eligible[:members]
        for device in eligible:
            repo.join(device, contribution_fraction)
    with telemetry.span("stage.serve_publish"):
        checkpoint = repo.publish_checkpoint(
            ModelRegistry(registry_root),
            cluster=cluster,
            regressor_seed=regressor_seed,
        )
    return repo, checkpoint


def build_search_plane(
    artifacts: PaperArtifacts,
    registry_root: str | Path,
    *,
    signature_size: int = 10,
    members: int | None = None,
    seed: int = 0,
    publish: bool = False,
    max_encodings: int = 4096,
    max_encoding_bytes: int | None = None,
):
    """The artifacts-to-search bridge: a served, cached bulk query plane.

    Publishes a collaborative checkpoint when the registry is empty (or
    ``publish`` forces a fresh version), starts a
    :class:`~repro.serve.service.PredictionService` pre-warmed from the
    measured dataset, and wraps it in a
    :class:`~repro.serve.bulk.BulkQueryPlane`. Returns
    ``(service, plane)``; the caller owns closing the service.
    """
    from repro.serve import BulkQueryPlane, ModelRegistry, PredictionService

    registry = ModelRegistry(registry_root)
    if publish or not registry.clusters():
        publish_serving_checkpoint(
            artifacts,
            registry_root,
            signature_size=signature_size,
            members=members,
            seed=seed,
        )
    service = PredictionService(registry, list(artifacts.suite), dataset=artifacts.dataset)
    plane = BulkQueryPlane(
        service,
        max_encodings=max_encodings,
        max_encoding_bytes=max_encoding_bytes,
    )
    return service, plane
