"""Tests for the serving layer (repro.serve): micro-batcher semantics,
registry versioning/eviction, the prediction service's byte-identity
determinism contract, hot-swap atomicity under concurrent readers, and
the serve telemetry roll-up."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.core.collaborative import CollaborativeRepository
from repro.serve import (
    DEFAULT_CLUSTER,
    MicroBatcher,
    ModelRegistry,
    PredictRequest,
    PredictionService,
)
from repro.serve.loadgen import LoadProfile, build_requests, run_load
from repro.serve.registry import file_digest


@pytest.fixture(scope="module")
def trained(small_suite, small_dataset):
    """A 12-member collaborative repository and its trained model."""
    repo = CollaborativeRepository(
        small_dataset, small_suite, signature_size=5, seed=0
    )
    for device in small_dataset.device_names[:12]:
        repo.join(device, 0.5)
    model = repo.train(regressor_seed=0)
    return SimpleNamespace(repo=repo, model=model)


@pytest.fixture()
def registry(tmp_path, trained):
    """A fresh registry with the trained model published as v1."""
    reg = ModelRegistry(tmp_path / "registry")
    reg.publish(trained.model, {"members": 12})
    return reg


# ---------------------------------------------------------------------------
# MicroBatcher


class TestMicroBatcher:
    def test_results_map_to_items_in_order(self):
        with MicroBatcher(lambda xs: [x * 2 for x in xs], max_batch=4) as batcher:
            futures = [batcher.submit(i) for i in range(10)]
            assert [f.result(5.0) for f in futures] == [i * 2 for i in range(10)]

    def test_full_flush_cause(self):
        with telemetry.scoped_registry() as reg:
            with MicroBatcher(
                lambda xs: xs, max_batch=3, max_wait_ms=10_000.0
            ) as batcher:
                futures = [batcher.submit(i) for i in range(3)]
                [f.result(5.0) for f in futures]
                stats = batcher.stats()
            assert stats.flushes["full"] == 1
            assert stats.flushes["timeout"] == 0
            assert stats.max_batch_seen == 3
        counters = reg.snapshot()["counters"]
        assert counters["serve.batch_full"] == 1
        assert "serve.batch_timeout" not in counters

    def test_timeout_flush_cause(self):
        with telemetry.scoped_registry() as reg:
            with MicroBatcher(
                lambda xs: xs, max_batch=100, max_wait_ms=5.0
            ) as batcher:
                future = batcher.submit("lonely")
                assert future.result(5.0) == "lonely"
                stats = batcher.stats()
            assert stats.flushes["timeout"] == 1
            assert stats.flushes["full"] == 0
        counters = reg.snapshot()["counters"]
        assert counters["serve.batch_timeout"] == 1
        assert "serve.batch_full" not in counters

    def test_lone_item_flushes_idle_by_default(self):
        with telemetry.scoped_registry() as reg:
            with MicroBatcher(lambda xs: xs) as batcher:
                assert batcher.submit("lonely").result(5.0) == "lonely"
                stats = batcher.stats()
            assert stats.flushes == {"full": 0, "idle": 1, "timeout": 0, "shutdown": 0}
        counters = reg.snapshot()["counters"]
        assert counters["serve.batch_idle"] == 1
        assert "serve.batch_timeout" not in counters

    def test_arrivals_during_a_flush_coalesce_into_the_next(self):
        entered, release = threading.Event(), threading.Event()
        batches = []

        def flush(xs):
            batches.append(list(xs))
            if len(batches) == 1:
                entered.set()
                release.wait(5.0)
            return xs

        with MicroBatcher(flush, max_batch=64) as batcher:
            first = batcher.submit("first")
            assert entered.wait(5.0)
            k = 5
            futures = [batcher.submit(i) for i in range(k)]
            release.set()
            assert first.result(5.0) == "first"
            assert [f.result(5.0) for f in futures] == list(range(k))
            stats = batcher.stats()
        assert batches == [["first"], list(range(k))]
        assert stats.flushes["idle"] == 2
        assert stats.flushes["timeout"] == 0

    def test_shutdown_drains_pending_items(self):
        batcher = MicroBatcher(lambda xs: xs, max_batch=100, max_wait_ms=10_000.0)
        futures = [batcher.submit(i) for i in range(7)]
        batcher.close()
        assert [f.result(1.0) for f in futures] == list(range(7))
        assert batcher.stats().flushes["shutdown"] >= 1

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda xs: xs)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(1)

    def test_flush_error_fails_only_that_batch(self):
        calls = []

        def flaky(xs):
            calls.append(list(xs))
            if len(calls) == 1:
                raise ValueError("boom")
            return xs

        with MicroBatcher(flaky, max_batch=2, max_wait_ms=5.0) as batcher:
            first = [batcher.submit(i) for i in range(2)]
            for f in first:
                with pytest.raises(ValueError):
                    f.result(5.0)
            second = [batcher.submit(i) for i in range(2)]
            assert [f.result(5.0) for f in second] == [0, 1]
        stats = batcher.stats()
        assert stats.failed == 2
        assert stats.completed == 2

    def test_wrong_result_count_is_an_error(self):
        with MicroBatcher(lambda xs: xs[:-1], max_batch=2, max_wait_ms=5.0) as b:
            futures = [b.submit(i) for i in range(2)]
            with pytest.raises(RuntimeError, match="1 results for 2 items"):
                futures[0].result(5.0)

    def test_queue_depth_gauge_is_recorded(self):
        release = threading.Event()

        def slow(xs):
            release.wait(5.0)
            return xs

        with telemetry.scoped_registry() as reg:
            batcher = MicroBatcher(slow, max_batch=1, max_wait_ms=0.0)
            futures = [batcher.submit(i) for i in range(5)]
            deadline = time.monotonic() + 5.0
            while batcher.queue_depth == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert batcher.queue_depth > 0
            assert reg.snapshot()["gauges"]["serve.queue_depth"] > 0
            release.set()
            batcher.close()
            [f.result(5.0) for f in futures]
        assert reg.snapshot()["gauges"]["serve.queue_depth"] == 0

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda xs: xs, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda xs: xs, max_wait_ms=-1.0)


# ---------------------------------------------------------------------------
# ModelRegistry


class TestModelRegistry:
    def test_versions_are_monotonic_and_keys_content_addressed(
        self, registry, trained
    ):
        second = registry.publish(trained.model, {"members": 12})
        third = registry.publish(trained.model, {"members": 13})
        versions = [c.version for c in registry.versions(DEFAULT_CLUSTER)]
        assert versions == [1, 2, 3]
        assert registry.latest(DEFAULT_CLUSTER).version == 3
        # Same config -> same content key; different config -> new key.
        assert second.key == registry.versions(DEFAULT_CLUSTER)[0].key
        assert third.key != second.key

    def test_resolve_falls_back_to_default_cluster(self, registry):
        with telemetry.scoped_registry() as reg:
            checkpoint = registry.resolve("tablet-cluster")
            assert checkpoint is not None
            assert checkpoint.cluster == DEFAULT_CLUSTER
            assert reg.snapshot()["counters"]["serve.route.fallback"] == 1
        assert registry.resolve(DEFAULT_CLUSTER).cluster == DEFAULT_CLUSTER

    def test_empty_registry_resolves_none(self, tmp_path):
        assert ModelRegistry(tmp_path / "empty").resolve("anything") is None

    def test_load_roundtrip_preserves_predictions(self, registry, trained):
        checkpoint = registry.latest(DEFAULT_CLUSTER)
        loaded = registry.load(checkpoint)
        assert loaded is not None
        assert (
            list(loaded.hardware_encoder.signature_names)
            == trained.repo.signature_names
        )

    def test_corrupt_checkpoint_is_evicted_with_survivor(
        self, registry, trained
    ):
        v2 = registry.publish(trained.model, {"members": 12})
        v2.path.write_bytes(b"garbage")
        assert registry.load(v2) is None
        assert registry.latest(DEFAULT_CLUSTER).version == 1
        assert not v2.path.exists()
        assert registry.load(registry.latest(DEFAULT_CLUSTER)) is not None

    def test_digest_actually_covers_file_bytes(self, registry):
        checkpoint = registry.latest(DEFAULT_CLUSTER)
        assert file_digest(checkpoint.path) == checkpoint.digest

    def test_publish_rejects_static_models_and_bad_clusters(
        self, registry, trained, small_suite, small_dataset
    ):
        from repro.core.cost_model import CostModel
        from repro.core.representation import (
            StaticHardwareEncoder,
            shared_encoded_suite,
        )

        enc = shared_encoded_suite(list(small_suite))
        static = CostModel(enc.encoder, StaticHardwareEncoder(["cortex-a76"]))
        with pytest.raises(TypeError, match="signature"):
            registry.publish(static, {})
        with pytest.raises(ValueError, match="cluster"):
            registry.publish(trained.model, {}, cluster="bad/name")


# ---------------------------------------------------------------------------
# PredictionService


class TestPredictionService:
    def test_batch_boundaries_never_change_predictions(
        self, registry, trained, small_suite, small_dataset
    ):
        """The determinism contract: byte-identical predictions whether
        requests are served alone, in small batches, or in large ones."""
        profile = LoadProfile(
            n_requests=120,
            mode="closed",
            concurrency=3,
            cold_fraction=0.25,
            unknown_fraction=0.1,
            seed=11,
        )
        requests = build_requests(
            small_dataset, trained.repo.signature_names, profile
        )
        digests = []
        # The last entry is the default-constructed service (idle flushing).
        for knobs in (
            dict(max_batch=1, max_wait_ms=0.0),
            dict(max_batch=7, max_wait_ms=1.0),
            dict(max_batch=32, max_wait_ms=2.0),
            {},
        ):
            with PredictionService(
                registry, list(small_suite), dataset=small_dataset, **knobs
            ) as service:
                report = run_load(service, requests, profile)
            digests.append(report.digest())
        assert len(set(digests)) == 1

    def test_batched_matches_direct_model_prediction(
        self, registry, trained, small_suite, small_dataset
    ):
        """Service output equals assembling the design row by hand."""
        from repro.core.representation import shared_encoded_suite

        device = small_dataset.device_names[0]
        network = [
            n
            for n in small_dataset.network_names
            if n not in trained.repo.signature_names
        ][0]
        with PredictionService(
            registry, list(small_suite), dataset=small_dataset
        ) as service:
            response = service.predict(
                PredictRequest(network=network, device=device)
            )
        enc = shared_encoded_suite(list(small_suite))
        hw = trained.repo.hw_encoder.encode_from_dataset(small_dataset, device)
        expected = trained.model.predict_one(enc.row(network), hw)
        assert response.ok
        assert response.latency_ms == expected

    def test_miss_reasons(self, registry, trained, small_suite, small_dataset):
        sig = trained.repo.signature_names
        with PredictionService(
            registry, list(small_suite), dataset=small_dataset
        ) as service:
            unknown = service.predict(
                PredictRequest(network="no-such-net", device=small_dataset.device_names[0])
            )
            cold = service.predict(
                PredictRequest(network=small_dataset.network_names[0], device="stranger")
            )
            partial = service.predict(
                PredictRequest(
                    network=small_dataset.network_names[0],
                    device="stranger",
                    signature_ms={sig[0]: 12.0},  # missing the rest
                )
            )
            onboarded = service.predict(
                PredictRequest(
                    network=small_dataset.network_names[0],
                    device="stranger",
                    signature_ms={
                        n: small_dataset.latency(small_dataset.device_names[3], n)
                        for n in sig
                    },
                )
            )
        assert unknown.error == "unknown_network"
        assert cold.error == "cold_device"
        assert partial.error == "signature"
        assert onboarded.ok and onboarded.latency_ms > 0

    def test_mixed_signatures_in_one_flush_answer_as_if_alone(
        self, registry, trained, small_suite, small_dataset
    ):
        """Warm, cold, partial and non-finite signatures share one flush
        block; every row still gets its single-request answer."""
        sig = trained.repo.signature_names
        network = small_dataset.network_names[0]
        shipped = {n: small_dataset.latency(small_dataset.device_names[3], n) for n in sig}
        requests = [
            PredictRequest(network, small_dataset.device_names[0]),
            PredictRequest(network, "stranger", signature_ms=shipped),
            PredictRequest(network, "stranger", signature_ms={**shipped, sig[0]: float("nan")}),
            PredictRequest(network, "stranger", signature_ms={sig[0]: 12.0}),
            PredictRequest(network, "stranger"),
            PredictRequest(network, small_dataset.device_names[1]),
        ]
        with PredictionService(
            registry, list(small_suite), dataset=small_dataset,
            max_batch=len(requests), max_wait_ms=10_000.0,
        ) as service:
            batched = service.predict_many(requests)
            assert service.batch_stats().flushes["full"] == 1
            alone = [service.predict(r) for r in requests]
        assert [r.error for r in batched] == [
            None, None, "signature", "signature", "cold_device", None
        ]
        assert [(r.error, r.latency_ms) for r in batched] == [
            (r.error, r.latency_ms) for r in alone
        ]

    def test_no_model_miss_on_empty_registry(
        self, tmp_path, small_suite, small_dataset
    ):
        empty = ModelRegistry(tmp_path / "none")
        with PredictionService(
            empty, list(small_suite), dataset=small_dataset
        ) as service:
            response = service.predict(
                PredictRequest(
                    network=small_dataset.network_names[0],
                    device=small_dataset.device_names[0],
                )
            )
        assert response.error == "no_model"

    def test_cold_cluster_routes_to_default(
        self, registry, trained, small_suite, small_dataset
    ):
        with PredictionService(
            registry, list(small_suite), dataset=small_dataset
        ) as service:
            response = service.predict(
                PredictRequest(
                    network=small_dataset.network_names[0],
                    device=small_dataset.device_names[0],
                    cluster="never-trained",
                )
            )
        assert response.ok
        assert response.cluster == "never-trained"
        assert response.served_cluster == DEFAULT_CLUSTER

    def test_cluster_specific_model_wins_over_default(
        self, registry, trained, small_suite, small_dataset
    ):
        registry.publish(trained.model, {"members": 12}, cluster="flagship")
        with PredictionService(
            registry, list(small_suite), dataset=small_dataset
        ) as service:
            response = service.predict(
                PredictRequest(
                    network=small_dataset.network_names[0],
                    device=small_dataset.device_names[0],
                    cluster="flagship",
                )
            )
        assert response.ok
        assert response.served_cluster == "flagship"
        assert service.model_versions() == {DEFAULT_CLUSTER: 1, "flagship": 1}

    def test_hot_swap_under_concurrent_readers(
        self, registry, trained, small_suite, small_dataset
    ):
        """Readers racing refresh() always get a complete model — either
        version, never an error, never a torn table."""
        stop = threading.Event()
        failures: list[str] = []
        versions_seen: set[int] = set()
        request = PredictRequest(
            network=small_dataset.network_names[0],
            device=small_dataset.device_names[0],
        )

        with PredictionService(
            registry,
            list(small_suite),
            dataset=small_dataset,
            max_batch=8,
            max_wait_ms=0.5,
        ) as service:

            def reader() -> None:
                while not stop.is_set():
                    response = service.predict(request, timeout=10.0)
                    if not response.ok:
                        failures.append(response.error)
                        return
                    versions_seen.add(response.model_version)

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            published = {1}
            for _ in range(4):
                checkpoint = registry.publish(trained.model, {"members": 12})
                published.add(checkpoint.version)
                service.refresh()
                time.sleep(0.01)
            stop.set()
            for t in threads:
                t.join()
            final = service.predict(request)

        assert failures == []
        assert versions_seen <= published
        assert final.model_version == max(published)

    def test_refresh_reports_swapped_clusters_once(
        self, registry, trained, small_suite, small_dataset
    ):
        with PredictionService(
            registry, list(small_suite), dataset=small_dataset
        ) as service:
            assert service.refresh() == {}  # nothing new
            registry.publish(trained.model, {"members": 12})
            assert service.refresh() == {DEFAULT_CLUSTER: 2}
            assert service.refresh() == {}

    def test_warm_device_api(self, registry, trained, small_suite, small_dataset):
        sig = trained.repo.signature_names
        with PredictionService(registry, list(small_suite)) as service:
            assert not service.is_warm("late-device")
            service.warm_device(
                "late-device",
                {n: small_dataset.latency(small_dataset.device_names[5], n) for n in sig},
            )
            assert service.is_warm("late-device")
            response = service.predict(
                PredictRequest(
                    network=small_dataset.network_names[0], device="late-device"
                )
            )
        assert response.ok

    def test_asyncio_facade(self, registry, small_suite, small_dataset):
        import asyncio

        async def go(service):
            return await asyncio.gather(
                *[
                    service.predict_async(
                        PredictRequest(network=n, device=small_dataset.device_names[0])
                    )
                    for n in small_dataset.network_names[:5]
                ]
            )

        with PredictionService(
            registry, list(small_suite), dataset=small_dataset
        ) as service:
            responses = asyncio.run(go(service))
        assert all(r.ok for r in responses)

    def test_serve_telemetry_summary_block(
        self, registry, trained, small_suite, small_dataset
    ):
        profile = LoadProfile(
            n_requests=60, cold_fraction=0.25, unknown_fraction=0.1, seed=2
        )
        requests = build_requests(
            small_dataset, trained.repo.signature_names, profile
        )
        with telemetry.scoped_registry() as reg:
            with PredictionService(
                registry,
                list(small_suite),
                dataset=small_dataset,
                max_batch=16,
                max_wait_ms=1.0,
            ) as service:
                service.predict_many(requests)
            serve = telemetry.summarize(reg)["serve"]
        assert serve["requests"] == 60
        assert serve["warm_served"] + serve["cold_served"] + sum(
            serve["misses"].values()
        ) == 60
        assert serve["cold_served"] > 0
        assert serve["misses"].get("unknown_network", 0) > 0
        assert serve["batches"] >= 1
        assert serve["mean_batch_size"] > 1
        flushes = serve["flushes"]
        assert set(flushes) == {"full", "idle", "timeout", "shutdown"}
        assert sum(flushes.values()) == serve["batches"]
        assert serve["queue_depth"] is not None


# ---------------------------------------------------------------------------
# Load generator


class TestLoadGenerator:
    def test_request_stream_is_deterministic(self, trained, small_dataset):
        profile = LoadProfile(n_requests=50, cold_fraction=0.3, seed=9)
        first = build_requests(small_dataset, trained.repo.signature_names, profile)
        second = build_requests(small_dataset, trained.repo.signature_names, profile)
        assert first == second
        assert build_requests(
            small_dataset,
            trained.repo.signature_names,
            LoadProfile(n_requests=50, cold_fraction=0.3, seed=10),
        ) != first

    def test_cold_requests_carry_signatures(self, trained, small_dataset):
        profile = LoadProfile(n_requests=80, cold_fraction=0.5, seed=1)
        requests = build_requests(
            small_dataset, trained.repo.signature_names, profile
        )
        cold = [r for r in requests if r.signature_ms is not None]
        assert cold
        for request in cold:
            assert set(request.signature_ms) == set(trained.repo.signature_names)
        # Cold is a device-level property: a device is cold in every
        # request or none.
        by_device: dict[str, set[bool]] = {}
        for r in requests:
            by_device.setdefault(r.device, set()).add(r.signature_ms is not None)
        assert all(len(kinds) == 1 for kinds in by_device.values())

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            LoadProfile(n_requests=0)
        with pytest.raises(ValueError):
            LoadProfile(mode="sideways")
        with pytest.raises(ValueError):
            LoadProfile(cold_fraction=1.5)
        with pytest.raises(ValueError):
            LoadProfile(arrival="bursty")

    def test_open_and_closed_loops_agree_on_predictions(
        self, registry, trained, small_suite, small_dataset
    ):
        closed = LoadProfile(
            n_requests=60, mode="closed", concurrency=2,
            cold_fraction=0.2, unknown_fraction=0.05, seed=4,
        )
        open_loop = LoadProfile(
            n_requests=60, mode="open", rate_rps=5000.0,
            cold_fraction=0.2, unknown_fraction=0.05, seed=4,
        )
        requests = build_requests(
            small_dataset, trained.repo.signature_names, closed
        )
        with PredictionService(
            registry, list(small_suite), dataset=small_dataset, max_batch=16
        ) as service:
            closed_report = run_load(service, requests, closed)
        with PredictionService(
            registry, list(small_suite), dataset=small_dataset, max_batch=16
        ) as service:
            open_report = run_load(service, requests, open_loop)
        assert closed_report.digest() == open_report.digest()
        assert closed_report.n_errors == open_report.n_errors
        metrics = closed_report.metrics()
        assert metrics["throughput_rps"] > 0
        assert metrics["p99_ms"] >= metrics["p50_ms"] > 0

    def test_report_digest_tracks_predictions(self):
        from repro.serve.loadgen import LoadReport

        def report(values):
            return LoadReport(
                n_requests=len(values), n_errors=0, wall_s=1.0,
                throughput_rps=1.0, p50_ms=1.0, p99_ms=1.0, mean_ms=1.0,
                max_ms=1.0, predictions=np.array(values),
            )

        assert report([1.0, 2.0]).digest() == report([1.0, 2.0]).digest()
        assert report([1.0, 2.0]).digest() != report([1.0, 2.1]).digest()
