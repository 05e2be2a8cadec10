"""Sharded fleet-scale latency repository.

A 100k-device campaign is affordable in compute (PR 7's zero-copy
engine) but not in memory: the dense ``(devices x networks)`` float64
matrix alone is ~400 MB at 100k x 500, and the per-cell noise state
table the engine precomputes is 4x that again. This module partitions
the fleet by a *device cluster* key — the chipset or CPU-core family,
both deterministic functions of the visible :class:`Device` spec — into
npz-backed shards small enough that any one of them densifies in a few
tens of MB, behind a :class:`ShardedLatencyDataset` facade that never
materializes the full matrix.

Storage model
-------------
Each shard is a directory of immutable chunk files plus a tiny JSON
manifest::

    <root>/manifest.json
    <root>/<shard-slug>/chunk-0000.npz   (devices, indptr, cols, values)

A chunk holds one collection batch's rows in CSR form over *observed*
cells only — NaN cells (quarantined devices, never-arrived
measurements; the PR 3 machinery) are simply absent and reappear as
NaN on densify. Chunks are written atomically (tempfile +
``os.replace``) and appended, never rewritten, so an interrupted
campaign leaves a valid store and the write cost of a shard is linear
in its size.

Collection model
----------------
:func:`collect_sharded_dataset` streams the campaign shard by shard,
batch by batch, through the ordinary :func:`collect_dataset` engine
(``Executor.map_stream`` + ``CampaignCheckpoint`` underneath): batch
size is derived from the residency budget, each finished batch is
flushed to the store and dropped, and per-(device, network) noise
keying makes every shard byte-identical to the same slice of a
monolithic campaign — on any backend, at any batch size.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections import OrderedDict
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import telemetry
from repro.dataset.collection import collect_dataset
from repro.dataset.dataset import LatencyDataset
from repro.devices.catalog import DeviceFleet
from repro.devices.device import Device

if TYPE_CHECKING:  # avoids a circular import; used only as types
    from repro.devices.measurement import MeasurementHarness
    from repro.faults import AdversaryPlan, FaultPlan, RetryPolicy
    from repro.generator.suite import BenchmarkSuite
    from repro.parallel import Executor

__all__ = [
    "ResidencyBudgetExceeded",
    "SHARD_KEYS",
    "ShardStore",
    "ShardedLatencyDataset",
    "collect_sharded_dataset",
    "shard_key",
    "partition_fleet",
]

#: Supported shard keys. Both are visible, deterministic device
#: attributes — a contributor's shard is known before any measurement.
#: ``chipset`` (38 values at catalog scale) keeps shards balanced;
#: ``core`` (22 CPU-core families) matches the paper's
#: microarchitecture clusters but is popularity-skewed.
SHARD_KEYS = ("chipset", "core")

_MANIFEST_VERSION = 1

#: Empirical residency cost of one in-flight campaign cell: the noise
#: state-table build transiently allocates ~300 B/cell and the memo
#: retains up to 4 tables at 32 B/cell; 400 B/cell is a conservative
#: envelope used to derive batch sizes from ``max_resident_mb``.
_BYTES_PER_CELL = 400

#: Fraction of the residency budget a single collection batch may
#: claim; the rest covers the interpreter, the fleet/suite objects and
#: the store's write buffers.
_BATCH_FRACTION = 0.35


class ResidencyBudgetExceeded(RuntimeError):
    """Peak RSS crossed the campaign's ``max_resident_mb`` budget."""


def shard_key(device: Device, by: str = "chipset") -> str:
    """The cluster key a device shards under (no measurement needed)."""
    if by == "chipset":
        return device.chipset
    if by == "core":
        return device.cpu_model
    raise ValueError(f"shard_by must be one of {SHARD_KEYS}, got {by!r}")


def partition_fleet(
    fleet: DeviceFleet | Sequence[Device], by: str = "chipset"
) -> dict[str, list[Device]]:
    """Fleet devices grouped by cluster key, fleet order kept per group.

    Keys are returned in sorted order so every consumer walks shards
    deterministically regardless of fleet composition.
    """
    groups: dict[str, list[Device]] = {}
    for device in fleet:
        groups.setdefault(shard_key(device, by), []).append(device)
    return {key: groups[key] for key in sorted(groups)}


def _slug(cluster: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", cluster)


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class ShardStore:
    """Append-only npz-backed store of per-cluster latency shards.

    Parameters
    ----------
    root:
        Store directory; created on :meth:`initialize`.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._manifest: dict[str, Any] | None = None

    # -- manifest ------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    def initialize(self, network_names: Sequence[str], shard_by: str) -> None:
        """Create an empty store (idempotent if compatible).

        Re-initializing with the same networks and shard key keeps the
        existing shards — a resumed campaign appends to them; anything
        else is a configuration change and raises.
        """
        if shard_by not in SHARD_KEYS:
            raise ValueError(f"shard_by must be one of {SHARD_KEYS}, got {shard_by!r}")
        if self.exists():
            manifest = self._load_manifest()
            if (
                manifest["networks"] != list(network_names)
                or manifest["shard_by"] != shard_by
            ):
                raise ValueError(
                    f"store at {self.root} was built with a different "
                    "network suite or shard key; use a fresh directory"
                )
            return
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest = {
            "version": _MANIFEST_VERSION,
            "shard_by": shard_by,
            "networks": list(network_names),
            "shards": {},
        }
        self._write_manifest()

    def _load_manifest(self) -> dict[str, Any]:
        if self._manifest is None:
            if not self.exists():
                raise FileNotFoundError(f"no shard store at {self.root}")
            self._manifest = json.loads(self.manifest_path.read_text())
            version = self._manifest.get("version")
            if version != _MANIFEST_VERSION:
                raise ValueError(f"unsupported shard-store version {version!r}")
        return self._manifest

    def _write_manifest(self) -> None:
        assert self._manifest is not None
        _atomic_write_bytes(
            self.manifest_path,
            (json.dumps(self._manifest, indent=2) + "\n").encode(),
        )

    # -- read side -----------------------------------------------------

    @property
    def network_names(self) -> list[str]:
        return list(self._load_manifest()["networks"])

    @property
    def shard_by(self) -> str:
        return str(self._load_manifest()["shard_by"])

    def clusters(self) -> list[str]:
        return sorted(self._load_manifest()["shards"])

    def shard_info(self, cluster: str) -> dict[str, Any]:
        shards = self._load_manifest()["shards"]
        if cluster not in shards:
            raise KeyError(f"no shard for cluster {cluster!r}")
        return dict(shards[cluster])

    def chunk_paths(self, cluster: str) -> list[Path]:
        info = self.shard_info(cluster)
        directory = self.root / info["slug"]
        return [
            directory / f"chunk-{index:04d}.npz" for index in range(info["chunks"])
        ]

    def iter_chunks(
        self, cluster: str
    ) -> Iterator[tuple[list[str], np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(devices, indptr, cols, values)`` per chunk, in order."""
        for path in self.chunk_paths(cluster):
            with np.load(path, allow_pickle=False) as data:
                devices = [str(name) for name in data["devices"]]
                indptr = np.asarray(data["indptr"], dtype=np.int64)
                cols = np.asarray(data["cols"], dtype=np.int32)
                values = np.asarray(data["values"], dtype=np.float64)
            if indptr.shape != (len(devices) + 1,) or indptr[-1] != len(values):
                raise ValueError(f"corrupt shard chunk {path}")
            yield devices, indptr, cols, values

    def iter_chunk_index(
        self, cluster: str
    ) -> Iterator[tuple[list[str], np.ndarray]]:
        """Yield only ``(devices, indptr)`` per chunk — metadata reads.

        npz members load lazily, so skipping ``cols``/``values`` keeps
        fleet-wide accounting passes (names, completeness) cheap.
        """
        for path in self.chunk_paths(cluster):
            with np.load(path, allow_pickle=False) as data:
                devices = [str(name) for name in data["devices"]]
                indptr = np.asarray(data["indptr"], dtype=np.int64)
            if indptr.shape != (len(devices) + 1,):
                raise ValueError(f"corrupt shard chunk {path}")
            yield devices, indptr

    def mark_complete(self, cluster: str) -> None:
        """Record that every device of ``cluster`` has been flushed.

        Distinguishes a finished shard from one an interrupted campaign
        left half-written; :func:`collect_sharded_dataset` only skips
        complete shards and tops up incomplete ones device-by-device.
        """
        manifest = self._load_manifest()
        if cluster not in manifest["shards"]:
            raise KeyError(f"no shard for cluster {cluster!r}")
        manifest["shards"][cluster]["complete"] = True
        self._write_manifest()

    def is_complete(self, cluster: str) -> bool:
        shards = self._load_manifest()["shards"]
        return cluster in shards and bool(shards[cluster].get("complete"))

    # -- write side ----------------------------------------------------

    def append_chunk(
        self, cluster: str, device_names: Sequence[str], rows: np.ndarray
    ) -> Path:
        """Append one batch of rows (NaN = unobserved) to a shard.

        Rows are CSR-encoded over observed cells only and written
        atomically; the manifest is updated last, so a crash mid-append
        at worst leaves an orphan chunk file the manifest never names.
        """
        manifest = self._load_manifest()
        rows = np.asarray(rows, dtype=np.float64)
        n_networks = len(manifest["networks"])
        if rows.ndim != 2 or rows.shape != (len(device_names), n_networks):
            raise ValueError(
                f"expected ({len(device_names)}, {n_networks}) rows, got {rows.shape}"
            )
        observed = ~np.isnan(rows)
        indptr = np.zeros(len(device_names) + 1, dtype=np.int64)
        np.cumsum(observed.sum(axis=1), out=indptr[1:])
        cols = np.nonzero(observed)[1].astype(np.int32)
        values = rows[observed]

        info = manifest["shards"].setdefault(
            cluster,
            {"slug": _slug(cluster), "chunks": 0, "n_devices": 0, "observed": 0},
        )
        directory = self.root / info["slug"]
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"chunk-{info['chunks']:04d}.npz"
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp.npz")
        os.close(fd)
        tmp = Path(tmp_name)
        try:
            np.savez(
                tmp,
                devices=np.array(list(device_names)),
                indptr=indptr,
                cols=cols,
                values=values,
            )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        info["chunks"] += 1
        info["n_devices"] += len(device_names)
        info["observed"] += int(values.size)
        self._write_manifest()
        telemetry.count("sharded.chunks")
        telemetry.count("sharded.devices_stored", len(device_names))
        return path


class ShardedLatencyDataset:
    """Read facade over a :class:`ShardStore`.

    Exposes fleet-wide accounting (device names, completeness, summary
    statistics) by streaming one shard at a time, and densifies single
    shards on demand into ordinary :class:`LatencyDataset` objects. A
    small LRU keeps recently used shards resident, bounded by
    ``max_resident_mb``; the *full* matrix is only ever materialized by
    an explicit :meth:`to_dataset` call, which refuses when the dense
    size alone would exceed the budget.
    """

    def __init__(
        self, store: ShardStore, *, max_resident_mb: float | None = None
    ) -> None:
        self.store = store
        self.max_resident_mb = max_resident_mb
        self.network_names: list[str] = store.network_names
        self._cache: OrderedDict[str, LatencyDataset] = OrderedDict()
        self._cache_bytes = 0

    # -- shape ---------------------------------------------------------

    @property
    def n_networks(self) -> int:
        return len(self.network_names)

    @property
    def n_devices(self) -> int:
        return sum(
            self.store.shard_info(cluster)["n_devices"]
            for cluster in self.store.clusters()
        )

    @property
    def n_shards(self) -> int:
        return len(self.store.clusters())

    def clusters(self) -> list[str]:
        return self.store.clusters()

    def shard_device_names(self, cluster: str) -> list[str]:
        names: list[str] = []
        for devices, _ in self.store.iter_chunk_index(cluster):
            names.extend(devices)
        return names

    def iter_device_names(self) -> Iterator[str]:
        for cluster in self.clusters():
            yield from self.shard_device_names(cluster)

    def cluster_of(self, device_name: str) -> str:
        """The cluster whose shard holds ``device_name``."""
        for cluster in self.clusters():
            if device_name in set(self.shard_device_names(cluster)):
                return cluster
        raise KeyError(f"no shard holds device {device_name!r}")

    # -- shard access --------------------------------------------------

    def shard(self, cluster: str) -> LatencyDataset:
        """Densify one shard (LRU-cached within the residency budget)."""
        cached = self._cache.get(cluster)
        if cached is not None:
            self._cache.move_to_end(cluster)
            telemetry.count("sharded.shard_hit")
            return cached
        telemetry.count("sharded.shard_miss")
        names: list[str] = []
        blocks: list[np.ndarray] = []
        for devices, indptr, cols, values in self.store.iter_chunks(cluster):
            block = np.full((len(devices), self.n_networks), np.nan)
            rows = np.repeat(np.arange(len(devices)), np.diff(indptr))
            block[rows, cols] = values
            names.extend(devices)
            blocks.append(block)
        dataset = LatencyDataset(np.vstack(blocks), names, self.network_names)
        self._remember(cluster, dataset)
        return dataset

    def _remember(self, cluster: str, dataset: LatencyDataset) -> None:
        nbytes = dataset.latencies_ms.nbytes
        self._cache[cluster] = dataset
        self._cache_bytes += nbytes
        if self.max_resident_mb is None:
            # Unbudgeted: keep a single shard resident, which is what
            # streaming consumers touch anyway.
            budget_bytes = nbytes
        else:
            budget_bytes = int(self.max_resident_mb * 1e6 * _BATCH_FRACTION)
        while len(self._cache) > 1 and self._cache_bytes > budget_bytes:
            _, evicted = self._cache.popitem(last=False)
            self._cache_bytes -= evicted.latencies_ms.nbytes
            telemetry.count("sharded.shard_evict")

    # -- fleet-wide accounting (streaming) -----------------------------

    def device_completeness(self) -> dict[str, float]:
        """Per-device observed fraction, streamed shard by shard."""
        if self.n_networks == 0:
            return {}
        fractions: dict[str, float] = {}
        for cluster in self.clusters():
            for devices, indptr in self.store.iter_chunk_index(cluster):
                counts = np.diff(indptr) / self.n_networks
                fractions.update(zip(devices, (float(c) for c in counts)))
        return fractions

    def observed_cells(self) -> int:
        return sum(
            self.store.shard_info(cluster)["observed"]
            for cluster in self.clusters()
        )

    def summary(self) -> dict[str, Any]:
        """Fleet-wide headline statistics without densifying anything."""
        n_values = 0
        total = 0.0
        lat_min = np.inf
        lat_max = -np.inf
        for cluster in self.clusters():
            for _, _, _, values in self.store.iter_chunks(cluster):
                if values.size:
                    n_values += values.size
                    total += float(values.sum())
                    lat_min = min(lat_min, float(values.min()))
                    lat_max = max(lat_max, float(values.max()))
        n_devices = self.n_devices
        n_cells = n_devices * self.n_networks
        return {
            "n_devices": n_devices,
            "n_networks": self.n_networks,
            "n_shards": self.n_shards,
            "shard_by": self.store.shard_by,
            "observed_fraction": (n_values / n_cells) if n_cells else 0.0,
            "latency_min_ms": lat_min if n_values else float("nan"),
            "latency_max_ms": lat_max if n_values else float("nan"),
            "latency_mean_ms": (total / n_values) if n_values else float("nan"),
        }

    # -- escape hatch --------------------------------------------------

    def to_dataset(self) -> LatencyDataset:
        """Materialize the full matrix — small fleets and tests only.

        Refuses when the dense matrix alone would break the residency
        budget; the facade's contract is that nothing else ever
        materializes it implicitly.
        """
        dense_mb = self.n_devices * self.n_networks * 8 / 1e6
        if self.max_resident_mb is not None and dense_mb > self.max_resident_mb:
            raise ResidencyBudgetExceeded(
                f"dense matrix needs {dense_mb:.0f} MB, over the "
                f"{self.max_resident_mb:.0f} MB residency budget"
            )
        names: list[str] = []
        blocks: list[np.ndarray] = []
        for cluster in self.clusters():
            shard = self.shard(cluster)
            names.extend(shard.device_names)
            blocks.append(shard.latencies_ms)
        return LatencyDataset(np.vstack(blocks), names, self.network_names)


def _batch_devices(n_networks: int, max_resident_mb: float | None) -> int | None:
    """Devices per collection batch under the residency budget.

    ``None`` (no budget) collects each shard in one batch. The
    per-cell constant is calibrated against the engine's dominant
    transient, the noise state-table build.
    """
    if max_resident_mb is None:
        return None
    budget_cells = max_resident_mb * 1e6 * _BATCH_FRACTION / _BYTES_PER_CELL
    return max(1, int(budget_cells // max(1, n_networks)))


def collect_sharded_dataset(
    suite: BenchmarkSuite,
    fleet: DeviceFleet,
    harness: MeasurementHarness | None = None,
    *,
    store_root: str | Path,
    shard_by: str = "chipset",
    max_resident_mb: float | None = None,
    enforce_budget: bool = False,
    jobs: int | None = None,
    backend: str | None = None,
    executor: Executor | None = None,
    fault_plan: FaultPlan | None = None,
    adversary_plan: AdversaryPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    checkpoint_factory: Callable[[str], Any] | None = None,
    resume: bool = False,
    clusters: Sequence[str] | None = None,
    on_shard: Callable[[str, LatencyDataset], None] | None = None,
    block_size: int | None = None,
) -> ShardedLatencyDataset:
    """Measure the fleet shard by shard into a :class:`ShardStore`.

    The campaign walks clusters in sorted order; within a cluster,
    devices are collected in batches sized by ``max_resident_mb`` and
    each batch runs through the ordinary :func:`collect_dataset` engine
    (same executor streaming, fault handling and checkpointing), then
    is flushed to the store and dropped. Because every cell's noise
    stream is keyed purely by ``(seed, device, network)``, each shard
    is byte-identical to the matching slice of a monolithic campaign —
    on any backend, at any batch size.

    Parameters
    ----------
    store_root:
        Directory for the :class:`ShardStore`; an existing compatible
        store is appended to only for clusters it does not yet hold.
    shard_by:
        Cluster key (see :data:`SHARD_KEYS`).
    max_resident_mb:
        Residency budget driving batch sizes; ``None`` collects each
        shard in one batch.
    enforce_budget:
        Raise :class:`ResidencyBudgetExceeded` when this process's peak
        RSS crosses the budget after any shard (the perf-gate contract;
        off by default because peak RSS is process-global and test
        runners carry unrelated baggage).
    checkpoint_factory:
        Called with a cluster key, returns the
        :class:`repro.cache.CampaignCheckpoint` (or ``None``) for that
        shard's batches; with ``resume=True`` previously checkpointed
        rows are skipped.
    clusters:
        Restrict collection to these clusters (for targeted re-checks);
        default is every cluster in the fleet.
    on_shard:
        Streaming hook invoked with ``(cluster, shard_dataset)`` as
        each shard completes — e.g. per-shard admission screening or a
        warm-start fit — while the shard is still resident.
    """
    store = ShardStore(store_root)
    store.initialize(list(suite.names), shard_by)
    groups = partition_fleet(fleet, shard_by)
    if clusters is not None:
        unknown = sorted(set(clusters) - set(groups))
        if unknown:
            raise ValueError(f"fleet has no devices in cluster(s) {unknown}")
        groups = {key: groups[key] for key in sorted(clusters)}
    batch_size = _batch_devices(len(suite.names), max_resident_mb)
    view = ShardedLatencyDataset(store, max_resident_mb=max_resident_mb)

    telemetry.count("sharded.campaigns")
    with telemetry.span("stage.sharded_campaign"):
        for cluster, devices in groups.items():
            if store.is_complete(cluster):
                telemetry.count("sharded.shard_skipped")
                continue
            if cluster in store.clusters():
                # An interrupted campaign left a partial shard: top up
                # only the devices its chunks do not already hold.
                stored = set(view.shard_device_names(cluster))
                devices = [d for d in devices if d.name not in stored]
                telemetry.count("sharded.shard_resumed")
            checkpoint = (
                checkpoint_factory(cluster) if checkpoint_factory is not None else None
            )
            step = batch_size or max(1, len(devices))
            with telemetry.span("stage.sharded_shard"):
                for lo in range(0, len(devices), step):
                    batch = devices[lo : lo + step]
                    dataset = collect_dataset(
                        suite,
                        DeviceFleet(batch),
                        harness,
                        jobs=jobs,
                        backend=backend,
                        executor=executor,
                        fault_plan=fault_plan,
                        adversary_plan=adversary_plan,
                        retry_policy=retry_policy,
                        checkpoint=checkpoint,
                        resume=resume and checkpoint is not None,
                        block_size=block_size,
                    )
                    store.append_chunk(
                        cluster, dataset.device_names, dataset.latencies_ms
                    )
                    telemetry.count("sharded.batches")
            store.mark_complete(cluster)
            telemetry.count("sharded.shards")
            peak = telemetry.peak_rss_mb()
            telemetry.set_gauge("sharded.peak_rss_mb", peak)
            if on_shard is not None:
                on_shard(cluster, view.shard(cluster))
            if (
                enforce_budget
                and max_resident_mb is not None
                and peak > max_resident_mb
            ):
                raise ResidencyBudgetExceeded(
                    f"peak RSS {peak:.0f} MB exceeded the "
                    f"{max_resident_mb:.0f} MB budget after shard {cluster!r}"
                )
    return view
