"""Tests for the sharded fleet-scale repository: the npz shard store,
the streaming facade, memory-bounded collection, streaming admission,
and per-shard warm-start training merged through the model registry.

The load-bearing contract throughout is byte-identity: every cell's
noise stream is keyed by ``(seed, device, network)`` names only, so a
shard must equal the matching slice of a monolithic campaign
bit-for-bit — on any backend, at any batch size.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.core.collaborative import (
    CollaborativeRepository,
    train_sharded_repository,
)
from repro.core.cost_model import CostModel, default_regressor
from repro.dataset.collection import collect_dataset
from repro.dataset.sharded import (
    SHARD_KEYS,
    ResidencyBudgetExceeded,
    ShardStore,
    ShardedLatencyDataset,
    collect_sharded_dataset,
    partition_fleet,
    shard_key,
)
from repro.devices import build_fleet
from repro.devices.measurement import MeasurementHarness
from repro.faults import FaultPlan, RetryPolicy
from repro.generator.suite import BenchmarkSuite
from repro.serve.registry import ModelRegistry
from repro.trust import AdmissionController

N_DEVICES = 16  # 8 core-family clusters, the largest holding 6 devices


@pytest.fixture(scope="module")
def suite():
    return BenchmarkSuite.default(n_random=2, seed=0)  # 18 zoo + 2 random


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(N_DEVICES, seed=0)


def _harness():
    return MeasurementHarness(seed=0, runs=3)


@pytest.fixture(scope="module")
def faulty_campaign(tmp_path_factory, suite, fleet):
    """One sharded + one monolithic campaign under the same fault plan.

    ``FaultPlan(seed=4, device_dropout=0.2)`` permanently drops three
    of the sixteen devices — two of them inside multi-member core
    clusters — so both campaigns carry quarantined all-NaN rows and the
    training loop exercises its skip path (the satellite-5 fixture).
    """
    plan = FaultPlan(seed=4, device_dropout=0.2)
    policy = RetryPolicy()
    view = collect_sharded_dataset(
        suite,
        fleet,
        _harness(),
        store_root=tmp_path_factory.mktemp("shard-store"),
        shard_by="core",
        fault_plan=plan,
        retry_policy=policy,
    )
    dense = collect_dataset(
        suite, fleet, _harness(), fault_plan=plan, retry_policy=policy
    )
    return view, dense


# -- partitioning -------------------------------------------------------


class TestPartition:
    def test_shard_key_dispatch(self, fleet):
        device = list(fleet)[0]
        assert shard_key(device, "chipset") == device.chipset
        assert shard_key(device, "core") == device.cpu_model
        with pytest.raises(ValueError, match="shard_by"):
            shard_key(device, "vendor")

    def test_partition_is_sorted_and_order_preserving(self, fleet):
        groups = partition_fleet(fleet, "core")
        assert list(groups) == sorted(groups)
        fleet_order = {d.name: i for i, d in enumerate(fleet)}
        for members in groups.values():
            indices = [fleet_order[d.name] for d in members]
            assert indices == sorted(indices)
        assert sum(len(m) for m in groups.values()) == len(list(fleet))

    def test_every_key_is_supported(self, fleet):
        for by in SHARD_KEYS:
            assert partition_fleet(fleet, by)


# -- the npz store ------------------------------------------------------


def _tiny_store(root, networks=("net_a", "net_b", "net_c")):
    store = ShardStore(root)
    store.initialize(list(networks), "chipset")
    return store


class TestShardStore:
    def test_append_and_roundtrip_with_nan(self, tmp_path):
        store = _tiny_store(tmp_path)
        rows = np.array([[1.0, np.nan, 3.0], [np.nan, np.nan, np.nan]])
        store.append_chunk("soc_x", ["dev_a", "dev_b"], rows)
        (chunk,) = store.iter_chunks("soc_x")
        devices, indptr, cols, values = chunk
        assert devices == ["dev_a", "dev_b"]
        assert indptr.tolist() == [0, 2, 2]  # the all-NaN row stores nothing
        assert cols.tolist() == [0, 2] and values.tolist() == [1.0, 3.0]
        shard = ShardedLatencyDataset(store).shard("soc_x")
        assert np.array_equal(shard.latencies_ms, rows, equal_nan=True)

    def test_reinitialize_compatible_is_idempotent(self, tmp_path):
        store = _tiny_store(tmp_path)
        store.append_chunk("soc_x", ["dev"], np.array([[1.0, 2.0, 3.0]]))
        again = ShardStore(tmp_path)
        again.initialize(["net_a", "net_b", "net_c"], "chipset")
        assert again.clusters() == ["soc_x"]

    def test_reinitialize_incompatible_raises(self, tmp_path):
        _tiny_store(tmp_path)
        with pytest.raises(ValueError, match="different"):
            ShardStore(tmp_path).initialize(["other_net"], "chipset")
        with pytest.raises(ValueError, match="different"):
            ShardStore(tmp_path).initialize(
                ["net_a", "net_b", "net_c"], "core"
            )

    def test_bad_shard_by_raises(self, tmp_path):
        with pytest.raises(ValueError, match="shard_by"):
            ShardStore(tmp_path).initialize(["net_a"], "vendor")

    def test_shape_mismatch_raises(self, tmp_path):
        store = _tiny_store(tmp_path)
        with pytest.raises(ValueError, match="rows"):
            store.append_chunk("soc_x", ["dev"], np.ones((1, 2)))
        with pytest.raises(ValueError, match="rows"):
            store.append_chunk("soc_x", ["a", "b"], np.ones((1, 3)))

    def test_mark_complete_and_shard_info(self, tmp_path):
        store = _tiny_store(tmp_path)
        store.append_chunk("soc_x", ["dev"], np.ones((1, 3)))
        assert not store.is_complete("soc_x")
        store.mark_complete("soc_x")
        assert store.is_complete("soc_x")
        assert ShardStore(tmp_path).is_complete("soc_x")  # persisted
        info = store.shard_info("soc_x")
        assert info["chunks"] == 1 and info["n_devices"] == 1
        assert info["observed"] == 3
        with pytest.raises(KeyError):
            store.shard_info("soc_unknown")
        with pytest.raises(KeyError):
            store.mark_complete("soc_unknown")

    def test_no_temp_files_left(self, tmp_path):
        store = _tiny_store(tmp_path)
        store.append_chunk("soc x/odd", ["dev"], np.ones((1, 3)))
        strays = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
        assert strays == []

    def test_unsupported_manifest_version_raises(self, tmp_path):
        store = _tiny_store(tmp_path)
        payload = json.loads(store.manifest_path.read_text())
        payload["version"] = 99
        store.manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            ShardStore(tmp_path).network_names

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardStore(tmp_path / "nowhere").network_names

    def test_corrupt_chunk_detected(self, tmp_path):
        store = _tiny_store(tmp_path)
        path = store.append_chunk("soc_x", ["dev"], np.ones((1, 3)))
        with np.load(path) as data:
            arrays = dict(data)
        arrays["indptr"] = np.array([0, 7], dtype=np.int64)  # lies
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="corrupt"):
            list(store.iter_chunks("soc_x"))


# -- the streaming facade ----------------------------------------------


@pytest.fixture()
def synthetic_view(tmp_path):
    """Three hand-built shards with a quarantined row and a NaN cell."""
    store = _tiny_store(tmp_path)
    store.append_chunk("soc_a", ["a0", "a1"], np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    store.append_chunk("soc_b", ["b0"], np.array([[np.nan, np.nan, np.nan]]))
    store.append_chunk("soc_c", ["c0"], np.array([[7.0, np.nan, 9.0]]))
    store.append_chunk("soc_c", ["c1"], np.array([[10.0, 11.0, 12.0]]))
    return ShardedLatencyDataset(store)


class TestShardedFacade:
    def test_shape_accounting(self, synthetic_view):
        view = synthetic_view
        assert (view.n_devices, view.n_networks, view.n_shards) == (5, 3, 3)
        assert view.clusters() == ["soc_a", "soc_b", "soc_c"]
        assert view.shard_device_names("soc_c") == ["c0", "c1"]
        assert list(view.iter_device_names()) == ["a0", "a1", "b0", "c0", "c1"]
        assert view.observed_cells() == 11

    def test_cluster_of(self, synthetic_view):
        assert synthetic_view.cluster_of("c1") == "soc_c"
        with pytest.raises(KeyError):
            synthetic_view.cluster_of("nobody")

    def test_completeness_matches_dense(self, synthetic_view):
        fractions = synthetic_view.device_completeness()
        dense = synthetic_view.to_dataset().device_completeness()
        assert fractions == dense
        assert fractions["b0"] == 0.0 and fractions["c0"] == pytest.approx(2 / 3)

    def test_summary_matches_dense(self, synthetic_view):
        summary = synthetic_view.summary()
        dense = synthetic_view.to_dataset()
        observed = dense.latencies_ms[~np.isnan(dense.latencies_ms)]
        assert summary["n_devices"] == 5 and summary["n_shards"] == 3
        assert summary["latency_min_ms"] == observed.min()
        assert summary["latency_max_ms"] == observed.max()
        assert summary["latency_mean_ms"] == pytest.approx(observed.mean())
        assert summary["observed_fraction"] == pytest.approx(11 / 15)

    def test_empty_network_completeness_is_empty(self, tmp_path):
        store = ShardStore(tmp_path)
        store.initialize([], "chipset")
        assert ShardedLatencyDataset(store).device_completeness() == {}

    def test_lru_keeps_one_shard_without_budget(self, synthetic_view):
        view = synthetic_view
        with telemetry.scoped_registry() as reg:
            view.shard("soc_a")
            view.shard("soc_a")  # hit
            view.shard("soc_b")  # evicts soc_a (unbudgeted: 1 resident)
            view.shard("soc_a")  # miss again
            assert reg.counter_value("sharded.shard_hit") == 1
            assert reg.counter_value("sharded.shard_miss") == 3
            assert reg.counter_value("sharded.shard_evict") >= 1

    def test_generous_budget_keeps_shards_resident(self, synthetic_view):
        view = synthetic_view
        view.max_resident_mb = 100.0
        with telemetry.scoped_registry() as reg:
            view.shard("soc_a")
            view.shard("soc_b")
            view.shard("soc_a")  # still cached
            assert reg.counter_value("sharded.shard_hit") == 1
            assert reg.counter_value("sharded.shard_evict") == 0

    def test_to_dataset_refuses_over_budget(self, synthetic_view):
        view = synthetic_view
        view.max_resident_mb = 5 * 3 * 8 / 1e6 / 2  # half the dense size
        with pytest.raises(ResidencyBudgetExceeded, match="residency budget"):
            view.to_dataset()


# -- memory-bounded collection -----------------------------------------


class TestShardedCollection:
    def test_spans_at_least_three_clusters(self, faulty_campaign):
        view, _ = faulty_campaign
        assert view.n_shards >= 3

    def test_shards_match_monolithic_campaign_bitwise(self, faulty_campaign):
        """Satellite 5: every shard equals the same slice of the
        in-memory campaign byte-for-byte, quarantined NaN rows
        included."""
        view, dense = faulty_campaign
        assert view.network_names == dense.network_names
        row_of = {name: i for i, name in enumerate(dense.device_names)}
        quarantined_rows = 0
        for cluster in view.clusters():
            shard = view.shard(cluster)
            expected = dense.latencies_ms[
                [row_of[name] for name in shard.device_names]
            ]
            assert shard.latencies_ms.tobytes() == expected.tobytes()
            quarantined_rows += int(
                np.isnan(shard.latencies_ms).all(axis=1).sum()
            )
        assert sorted(view.iter_device_names()) == sorted(dense.device_names)
        assert quarantined_rows >= 1  # the fault plan really dropped devices

    def test_batched_collection_is_byte_identical(
        self, tmp_path, suite, fleet, faulty_campaign
    ):
        # A residency budget small enough to force multi-batch shards
        # must not change a single byte.
        view, _ = faulty_campaign
        plan = FaultPlan(seed=4, device_dropout=0.2)
        budget = 0.05  # MB -> ~2 devices per batch at 20 networks
        batched = collect_sharded_dataset(
            suite,
            fleet,
            _harness(),
            store_root=tmp_path / "batched",
            shard_by="core",
            max_resident_mb=budget,
            fault_plan=plan,
            retry_policy=RetryPolicy(),
        )
        biggest = max(batched.clusters(), key=lambda c: len(batched.shard_device_names(c)))
        assert batched.store.shard_info(biggest)["chunks"] > 1
        for cluster in view.clusters():
            assert (
                batched.shard(cluster).latencies_ms.tobytes()
                == view.shard(cluster).latencies_ms.tobytes()
            )

    def test_thread_backend_is_byte_identical(
        self, tmp_path, suite, fleet, faulty_campaign
    ):
        view, _ = faulty_campaign
        clusters = view.clusters()[:2]
        threaded = collect_sharded_dataset(
            suite,
            fleet,
            _harness(),
            store_root=tmp_path / "threaded",
            shard_by="core",
            backend="thread",
            jobs=2,
            fault_plan=FaultPlan(seed=4, device_dropout=0.2),
            retry_policy=RetryPolicy(),
            clusters=clusters,
        )
        for cluster in clusters:
            assert (
                threaded.shard(cluster).latencies_ms.tobytes()
                == view.shard(cluster).latencies_ms.tobytes()
            )

    def test_completed_shards_are_skipped_on_rerun(
        self, tmp_path, suite, fleet
    ):
        root = tmp_path / "store"
        first = collect_sharded_dataset(
            suite, fleet, _harness(), store_root=root, shard_by="core",
            clusters=list(partition_fleet(fleet, "core"))[:2],
        )
        assert first.n_shards == 2
        with telemetry.scoped_registry() as reg:
            full = collect_sharded_dataset(
                suite, fleet, _harness(), store_root=root, shard_by="core"
            )
            assert reg.counter_value("sharded.shard_skipped") == 2
        assert full.n_shards == len(partition_fleet(fleet, "core"))
        assert sorted(full.iter_device_names()) == sorted(
            d.name for d in fleet
        )

    def test_interrupted_shard_is_topped_up(self, tmp_path, suite, fleet):
        # Pre-write a partial shard (as an interrupted campaign would)
        # and check the rerun measures only the missing devices.
        groups = partition_fleet(fleet, "core")
        cluster = max(groups, key=lambda c: len(groups[c]))
        devices = groups[cluster]
        assert len(devices) >= 3
        root = tmp_path / "store"
        seeded = collect_sharded_dataset(
            suite,
            build_fleet(N_DEVICES, seed=0),
            _harness(),
            store_root=root,
            shard_by="core",
            clusters=[cluster],
        )
        # Truncate the manifest's completion flag to simulate the
        # interruption: keep the chunk, drop the completed mark.
        store = ShardStore(root)
        payload = json.loads(store.manifest_path.read_text())
        payload["shards"][cluster].pop("complete", None)
        store.manifest_path.write_text(json.dumps(payload))
        # Drop one device's rows by rewriting the chunk without it.
        (chunk_path,) = ShardStore(root).chunk_paths(cluster)
        kept = seeded.shard(cluster)
        short = kept.latencies_ms[:-1]
        chunk_path.unlink()
        fresh = ShardStore(root)
        info = json.loads(fresh.manifest_path.read_text())
        info["shards"][cluster].update(chunks=0, n_devices=0, observed=0)
        fresh.manifest_path.write_text(json.dumps(info))
        ShardStore(root).append_chunk(cluster, kept.device_names[:-1], short)

        with telemetry.scoped_registry() as reg:
            resumed = collect_sharded_dataset(
                suite, fleet, _harness(), store_root=root,
                shard_by="core", clusters=[cluster],
            )
            assert reg.counter_value("sharded.shard_resumed") == 1
        topped = resumed.shard(cluster)
        assert topped.device_names == kept.device_names  # order preserved
        assert topped.latencies_ms.tobytes() == kept.latencies_ms.tobytes()

    def test_unknown_cluster_restriction_raises(self, tmp_path, suite, fleet):
        with pytest.raises(ValueError, match="no devices"):
            collect_sharded_dataset(
                suite, fleet, _harness(),
                store_root=tmp_path / "s", shard_by="core",
                clusters=["not-a-core"],
            )

    def test_enforce_budget_raises_when_rss_exceeds(
        self, tmp_path, suite, fleet
    ):
        # The test process's peak RSS is far beyond 1 MB, so an
        # enforced 1 MB budget must trip after the first shard.
        with pytest.raises(ResidencyBudgetExceeded, match="peak RSS"):
            collect_sharded_dataset(
                suite, fleet, _harness(),
                store_root=tmp_path / "s", shard_by="core",
                max_resident_mb=1.0, enforce_budget=True,
                clusters=list(partition_fleet(fleet, "core"))[:1],
            )

    def test_on_shard_hook_sees_resident_shards(self, tmp_path, suite, fleet):
        seen = []
        clusters = list(partition_fleet(fleet, "core"))[:2]
        collect_sharded_dataset(
            suite, fleet, _harness(),
            store_root=tmp_path / "s", shard_by="core", clusters=clusters,
            on_shard=lambda cluster, shard: seen.append(
                (cluster, shard.n_devices)
            ),
        )
        assert [c for c, _ in seen] == clusters
        assert all(n >= 1 for _, n in seen)

    def test_resume_without_checkpoint_dir_raises(self, tmp_path):
        from repro.pipeline import build_sharded_artifacts

        with pytest.raises(ValueError, match="checkpoint_dir"):
            build_sharded_artifacts(
                store_dir=tmp_path / "s", n_random_networks=1,
                n_devices=2, resume=True,
            )


# -- streaming admission -----------------------------------------------


class TestStreamingAdmission:
    def test_shard_summaries_accumulate(self, faulty_campaign, suite):
        view, _ = faulty_campaign
        controller = AdmissionController(())
        signature = tuple(view.network_names[:6])
        controller.bind(signature)
        total = 0
        for cluster in view.clusters():
            decisions = controller.submit_shard_dataset(
                cluster, view.shard(cluster)
            )
            total += len(decisions)
            summary = controller.shard_summaries[cluster]
            assert summary["n_contributions"] == len(decisions)
            assert (
                summary["n_admitted"] + summary["n_rejected"]
                == summary["n_contributions"]
            )
        assert total == view.n_devices
        assert len(controller.decisions) == total
        assert list(controller.shard_summaries) == view.clusters()

    def test_quarantined_rows_fail_schema_not_crash(self, faulty_campaign):
        view, dense = faulty_campaign
        controller = AdmissionController(())
        controller.bind(tuple(view.network_names[:6]))
        nan_devices = {
            name
            for name, i in zip(
                dense.device_names, range(dense.n_devices)
            )
            if np.isnan(dense.latencies_ms[i]).all()
        }
        assert nan_devices
        for cluster in view.clusters():
            for decision in controller.submit_shard_dataset(
                cluster, view.shard(cluster)
            ):
                if decision.device_name in nan_devices:
                    assert not decision.admitted
                    assert "schema" in decision.reasons

    def test_peer_context_carries_across_shards(self, faulty_campaign):
        view, _ = faulty_campaign
        controller = AdmissionController(())
        controller.bind(tuple(view.network_names[:6]))
        admitted_after = []
        for cluster in view.clusters():
            controller.submit_shard_dataset(cluster, view.shard(cluster))
            admitted_after.append(len(controller._profiles))
        # Profiles accumulate monotonically: later shards are screened
        # against the peers earlier shards admitted.
        assert admitted_after == sorted(admitted_after)
        assert admitted_after[-1] > 0


# -- per-shard training and registry merge -----------------------------


class TestTrainShardedRepository:
    @pytest.fixture()
    def trained(self, tmp_path, faulty_campaign, suite):
        view, _ = faulty_campaign
        registry = ModelRegistry(tmp_path / "registry")
        report = train_sharded_repository(
            view, suite, registry, signature_size=6, seed=0
        )
        return view, registry, report

    def test_publishes_per_cluster_plus_default(self, trained):
        view, registry, report = trained
        trained_clusters = {r.cluster for r in report.shards}
        assert trained_clusters  # at least one shard trained
        assert set(registry.clusters()) == trained_clusters | {"default"}
        assert report.default_cluster in trained_clusters
        # The default route is the biggest shard's model.
        biggest = max(report.shards, key=lambda r: (r.n_devices, r.cluster))
        assert report.shard(report.default_cluster).n_devices == biggest.n_devices

    def test_unseen_cluster_routes_to_default(self, trained):
        _, registry, report = trained
        checkpoint = registry.resolve("never-benchmarked-soc")
        assert checkpoint is not None and checkpoint.cluster == "default"
        assert registry.load(checkpoint) is not None

    def test_quarantined_devices_are_skipped(self, trained):
        view, _, report = trained
        n_total = view.n_devices
        accounted = sum(r.n_devices + r.n_skipped + r.n_rejected for r in report.shards)
        # Shards whose every device was quarantined never make a record.
        assert accounted <= n_total
        assert sum(r.n_skipped for r in report.shards) >= 1

    def test_shard_model_matches_in_memory_fit_bitwise(
        self, trained, suite
    ):
        """A published shard model predicts byte-identically to an
        in-memory CollaborativeRepository fit over the same members."""
        view, registry, report = trained
        record = max(report.shards, key=lambda r: (r.n_devices, r.cluster))
        shard_ds = view.shard(record.cluster)
        repo = CollaborativeRepository(
            shard_ds, suite, seed=0,
            signature_names=list(report.signature_names),
        )
        for device in shard_ds.device_names:
            if repo.device_has_signature(device):
                repo.join(device, 0.1)
        in_memory = repo.train(regressor_seed=0)
        loaded = registry.load(registry.resolve(record.cluster))
        enc = repo.encoded_suite
        device = next(iter(repo.contributions))
        hw = repo.hw_encoder.encode_from_dataset(shard_ds, device)
        X = np.hstack([enc.matrix, np.tile(hw, (enc.matrix.shape[0], 1))])
        assert np.array_equal(in_memory.predict(X), loaded.predict(X))

    def test_report_lookup_raises_for_unknown(self, trained):
        _, _, report = trained
        with pytest.raises(KeyError):
            report.shard("nope")
        assert report.n_devices == sum(r.n_devices for r in report.shards)

    def test_warm_start_batches_counted(self, tmp_path, faulty_campaign, suite):
        view, _ = faulty_campaign
        registry = ModelRegistry(tmp_path / "registry")
        with telemetry.scoped_registry() as reg:
            report = train_sharded_repository(
                view, suite, registry,
                signature_size=6, seed=0,
                warm_batch_devices=2, incremental_trees=4,
            )
            counted = reg.counter_value("sharded.warm_start_batches")
        for record in report.shards:
            expected = (
                0
                if record.n_devices <= 2
                else -(-(record.n_devices - 2) // 2)  # ceil division
            )
            assert record.n_warm_batches == expected
        total_warm = sum(r.n_warm_batches for r in report.shards)
        assert total_warm >= 1  # the 6-device core shard warm-starts
        assert counted == total_warm

    def test_warm_start_matches_float_api(self, tmp_path, faulty_campaign, suite):
        """The warm-started shard model equals a float-API replay of its
        schedule: a full fit on the first two members, then four trees
        per later prefix under the first fit's frozen edges."""
        view, _ = faulty_campaign
        registry = ModelRegistry(tmp_path / "registry")
        report = train_sharded_repository(
            view, suite, registry, signature_size=6, seed=0,
            warm_batch_devices=2, incremental_trees=4,
        )
        shard_ds = view.shard("Cortex-A53")
        repo = CollaborativeRepository(
            shard_ds, suite, seed=0, signature_names=list(report.signature_names)
        )
        for device in shard_ds.device_names:
            if repo.device_has_signature(device):
                repo.join(device, 0.1)
        members = list(repo.contributions)
        assert len(members) == 5
        assert report.shard("Cortex-A53").n_warm_batches == 2
        hw = {d: repo.hw_encoder.encode_from_dataset(shard_ds, d) for d in members}
        model = CostModel(repo.network_encoder, repo.hw_encoder)

        def design(prefix):
            pairs = [
                (d, n)
                for d in prefix
                for n in (*repo.signature_names, *repo.contributions[d])
            ]
            return model.build_training_set(
                shard_ds, suite, {d: hw[d] for d in prefix}, pairs=pairs,
                network_features=repo.network_features,
            )

        regressor = default_regressor(0).fit(*design(members[:2]))
        for size in (4, 5):
            regressor.fit_more(*design(members[:size]), 4)
        loaded = registry.load(registry.resolve("Cortex-A53"))
        enc = repo.encoded_suite
        X = np.vstack(
            [np.hstack([enc.matrix, np.tile(hw[d], (enc.matrix.shape[0], 1))]) for d in members]
        )
        assert np.array_equal(loaded.predict(X), regressor.predict(X))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(warm_batch_devices=2, incremental_trees=0), "incremental_trees"),
            (dict(warm_batch_devices=0), "warm_batch_devices"),
        ],
    )
    def test_warm_start_args_rejected_before_any_publish(
        self, tmp_path, faulty_campaign, suite, kwargs, match
    ):
        view, _ = faulty_campaign
        registry = ModelRegistry(tmp_path / "registry")
        controller = AdmissionController(())
        with pytest.raises(ValueError, match=match):
            train_sharded_repository(
                view, suite, registry, signature_size=6, seed=0,
                admission=controller, **kwargs,
            )
        assert registry.clusters() == []
        assert controller.decisions == []

    def test_admission_screens_every_shard(self, tmp_path, faulty_campaign, suite):
        view, _ = faulty_campaign
        registry = ModelRegistry(tmp_path / "registry")
        controller = AdmissionController(())
        report = train_sharded_repository(
            view, suite, registry,
            signature_size=6, seed=0, admission=controller,
        )
        assert controller.signature_names == report.signature_names
        # Every cluster got a shard summary, even quarantine-only ones.
        assert set(controller.shard_summaries) == set(view.clusters())
        for record in report.shards:
            summary = controller.shard_summaries[record.cluster]
            assert summary["n_contributions"] == record.n_devices + record.n_rejected
            assert summary["n_rejected"] == record.n_rejected

    def test_explicit_signature_names_validated(self, faulty_campaign, suite, tmp_path):
        view, _ = faulty_campaign
        registry = ModelRegistry(tmp_path / "registry")
        with pytest.raises(ValueError, match="signature network"):
            train_sharded_repository(
                view, suite, registry,
                signature_names=["not_a_network"], seed=0,
            )

    def test_empty_store_raises(self, tmp_path, suite):
        store = ShardStore(tmp_path / "empty")
        store.initialize([str(n) for n in suite.names], "chipset")
        registry = ModelRegistry(tmp_path / "registry")
        with pytest.raises(ValueError, match="no shards"):
            train_sharded_repository(
                ShardedLatencyDataset(store), suite, registry
            )


# -- CLI surface --------------------------------------------------------


class TestShardCli:
    def test_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["shard"])
        assert args.command == "shard"
        assert args.shard_by == "chipset"
        assert args.max_resident_mb is None
        assert not args.enforce_budget and not args.train

    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "shard", "--store", "x", "--shard-by", "core",
                "--max-resident-mb", "64", "--enforce-budget",
                "--devices", "12", "--networks", "3",
                "--train", "--registry", "r", "--signature-size", "4",
                "--warm-batch-devices", "2", "--incremental-trees", "8",
            ]
        )
        assert args.shard_by == "core"
        assert args.max_resident_mb == 64.0
        assert args.enforce_budget and args.train
        assert args.warm_batch_devices == 2

    def test_bad_shard_key_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard", "--shard-by", "vendor"])
