"""Tests for the serving-plane resilience layer (repro.serve.resilience):
seeded fault-plan grammar and determinism, bounded admission and deadline
shedding, circuit-breaker trip -> probe -> recover sequencing, the
degraded fallback chain (stale -> default -> static) with served_by
tagging, registry fault injection, concurrent corrupt-checkpoint
eviction, and the clean-path byte-identity contract."""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
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
from repro.serve.registry import RegistryIOError
from repro.serve.resilience import (
    CircuitBreaker,
    DeadlineExceeded,
    Overloaded,
    ResilienceConfig,
    ServeFaultPlan,
    StaticEstimator,
    fit_static_estimate,
)
from repro.serve.service import (
    MISS_DEADLINE,
    MISS_DEGRADED,
    MISS_OVERLOADED,
)


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


def publish(reg, trained, dataset, *, cluster=DEFAULT_CLUSTER, tag=0):
    """Publish the pre-trained model with publish-time static estimates."""
    static = fit_static_estimate(
        dataset, trained.repo.signature_names, sorted(trained.repo.contributions)
    )
    return reg.publish(
        trained.model,
        {"members": 12, "tag": tag},
        cluster=cluster,
        metadata={"static_estimate": static},
    )


def warm_request(dataset, *, cluster=DEFAULT_CLUSTER, k=0):
    return PredictRequest(
        network=dataset.network_names[k % dataset.n_networks],
        device=dataset.device_names[0],
        cluster=cluster,
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
# ServeFaultPlan


class TestServeFaultPlan:
    def test_from_spec_grammar_and_aliases(self):
        plan = ServeFaultPlan.from_spec(
            "seed=7, slow_flush=0.5, slow_flush_ms=25, corrupt_checkpoint=0.1,"
            "registry_io=0.2, predict_fail=0.3, predict_fail_limit=4"
        )
        assert plan.seed == 7
        assert plan.slow_flush_probability == 0.5
        assert plan.slow_flush_ms == 25.0
        assert plan.checkpoint_corrupt_probability == 0.1
        assert plan.registry_io_probability == 0.2
        assert plan.predict_failure_probability == 0.3
        assert plan.predict_failure_limit == 4

    def test_from_spec_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(ValueError, match="unknown serve fault spec key"):
            ServeFaultPlan.from_spec("bogus=1")
        with pytest.raises(ValueError, match="not key=value"):
            ServeFaultPlan.from_spec("seed")
        with pytest.raises(ValueError, match="must be in"):
            ServeFaultPlan.from_spec("predict_fail=1.5")

    def test_draw_is_deterministic_per_entity_and_attempt(self):
        a = ServeFaultPlan(seed=3, predict_failure_probability=0.5)
        b = ServeFaultPlan(seed=3, predict_failure_probability=0.5)
        seq_a = [a.draw("predict", "m-v1") for _ in range(40)]
        seq_b = [b.draw("predict", "m-v1") for _ in range(40)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)
        # A different entity gets an independent decision stream.
        c = ServeFaultPlan(seed=3, predict_failure_probability=0.5)
        assert [c.draw("predict", "m-v2") for _ in range(40)] != seq_a

    def test_draw_is_thread_safe_and_deterministic_as_a_multiset(self):
        plan = ServeFaultPlan(seed=1, predict_failure_probability=0.5)
        hits = []
        lock = threading.Lock()

        def worker():
            mine = [plan.draw("predict", "e") for _ in range(50)]
            with lock:
                hits.extend(mine)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reference = ServeFaultPlan(seed=1, predict_failure_probability=0.5)
        expected = sum(reference.draw("predict", "e") for _ in range(200))
        assert sum(hits) == expected

    def test_injection_limit_stops_failures_deterministically(self):
        plan = ServeFaultPlan(
            seed=0, predict_failure_probability=1.0, predict_failure_limit=3
        )
        draws = [plan.draw("predict", "m-v1") for _ in range(10)]
        assert draws == [True] * 3 + [False] * 7
        plan.reset()
        assert plan.draw("predict", "m-v1") is True

    def test_flush_delay_and_to_config(self):
        plan = ServeFaultPlan(
            seed=0, slow_flush_probability=1.0, slow_flush_ms=40.0, slow_flush_limit=1
        )
        assert plan.flush_delay_s("b") == pytest.approx(0.04)
        assert plan.flush_delay_s("b") == 0.0  # limit reached
        config = plan.to_config()
        assert config["slow_flush_ms"] == 40.0
        assert ServeFaultPlan(**config).to_config() == config


# ---------------------------------------------------------------------------
# CircuitBreaker


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        clock = FakeClock()
        breaker = CircuitBreaker("m", failure_threshold=3, reset_after_s=5, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_probe_recover_and_reopen(self):
        clock = FakeClock()
        breaker = CircuitBreaker("m", failure_threshold=1, reset_after_s=5, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 6.0
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # one probe at a time
        breaker.record_failure()  # probe failed: reopen, fresh cooldown
        assert breaker.state == "open" and not breaker.allow()
        clock.now = 12.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()


# ---------------------------------------------------------------------------
# Bounded admission + deadlines (MicroBatcher)


class TestBoundedAdmission:
    def test_overload_shed_is_typed_and_deterministic(self):
        gate = threading.Event()

        def flush(items):
            gate.wait(5.0)
            return items

        with MicroBatcher(flush, max_batch=1, max_wait_ms=0, max_queue_depth=2) as b:
            first = b.submit("a")  # dequeued by the worker, stuck in flush
            time.sleep(0.05)
            accepted = [b.submit(x) for x in ("b", "c")]
            shed = [b.submit(x) for x in ("d", "e")]
            for f in shed:
                with pytest.raises(Overloaded):
                    f.result(1.0)
            gate.set()
            assert first.result(5.0) == "a"
            assert [f.result(5.0) for f in accepted] == ["b", "c"]
        stats = b.stats()
        assert stats.shed_overloaded == 2 and stats.shed == 2

    def test_deadline_shed_at_dequeue(self):
        plan = ServeFaultPlan(
            seed=0, slow_flush_probability=1.0, slow_flush_ms=120.0, slow_flush_limit=1
        )
        with MicroBatcher(
            lambda xs: xs,
            max_batch=1,
            max_wait_ms=0,
            deadline_ms=30.0,
            fault_plan=plan,
            name="b",
        ) as b:
            slow = b.submit(1)  # its own flush stalls 120ms, but it was dequeued
            time.sleep(0.02)
            late = b.submit(2)  # still queued when its 30ms budget expires
            assert slow.result(5.0) == 1
            with pytest.raises(DeadlineExceeded):
                late.result(5.0)
        assert b.stats().shed_deadline == 1

    def test_on_shed_maps_to_results_instead_of_exceptions(self):
        gate = threading.Event()

        def flush(items):
            gate.wait(5.0)
            return items

        with MicroBatcher(
            flush,
            max_batch=1,
            max_wait_ms=0,
            max_queue_depth=1,
            on_shed=lambda item, reason: (item, reason),
        ) as b:
            b.submit("a")
            time.sleep(0.05)
            b.submit("b")
            shed = b.submit("c")
            assert shed.result(1.0) == ("c", "overloaded")
            gate.set()


# ---------------------------------------------------------------------------
# Service-level resilience


class TestServiceResilience:
    def test_shed_and_deadline_become_miss_responses(self, tmp_path, trained,
                                                     small_suite, small_dataset):
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset)
        plan = ServeFaultPlan(
            seed=0, slow_flush_probability=1.0, slow_flush_ms=200.0, slow_flush_limit=1
        )
        config = ResilienceConfig(max_queue_depth=3, fault_plan=plan)
        with PredictionService(
            reg, list(small_suite), dataset=small_dataset,
            max_batch=1, max_wait_ms=0, resilience=config,
        ) as service:
            first = service.submit(warm_request(small_dataset))  # slow flush
            time.sleep(0.05)
            # A short per-request deadline behind the stuck flush resolves
            # to a typed miss instead of blocking the caller.
            t0 = time.perf_counter()
            late = service.predict(
                warm_request(small_dataset, k=4), deadline_ms=40.0
            )
            assert time.perf_counter() - t0 < 1.0
            assert late.error == MISS_DEADLINE
            # The abandoned entry still occupies its queue slot until the
            # worker sheds it, so two more fills the bound of 3.
            queued = [
                service.submit(warm_request(small_dataset, k=k)) for k in (1, 2)
            ]
            response = service.submit(warm_request(small_dataset, k=3)).result(1.0)
            assert response.error == MISS_OVERLOADED and response.latency_ms is None
            assert first.result(5.0).ok
            assert all(f.result(5.0).ok for f in queued)

    def test_predict_many_shares_one_deadline(self, tmp_path, trained,
                                              small_suite, small_dataset):
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset)
        plan = ServeFaultPlan(
            seed=0, slow_flush_probability=1.0, slow_flush_ms=120.0,
            slow_flush_limit=10,
        )
        with PredictionService(
            reg, list(small_suite), dataset=small_dataset,
            max_batch=1, max_wait_ms=0,
            resilience=ResilienceConfig(fault_plan=plan),
        ) as service:
            requests = [warm_request(small_dataset, k=k) for k in range(5)]
            t0 = time.perf_counter()
            with pytest.raises(FuturesTimeoutError):
                service.predict_many(requests, timeout=0.3)
            elapsed = time.perf_counter() - t0
            # The old per-future timeout would have allowed ~5 * 0.3s.
            assert elapsed < 1.0

    def test_breaker_trip_probe_recover_sequencing(self, tmp_path, trained,
                                                   small_suite, small_dataset):
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset)
        plan = ServeFaultPlan(
            seed=0, predict_failure_probability=1.0, predict_failure_limit=3
        )
        clock = FakeClock()
        with telemetry.scoped_registry() as treg:
            with PredictionService(
                reg, list(small_suite), dataset=small_dataset,
                max_batch=1, max_wait_ms=0,
                resilience=ResilienceConfig(
                    breaker_threshold=2, breaker_reset_s=10.0, fault_plan=plan
                ),
            ) as service:
                service._breaker_clock = clock
                tiers = []
                # Two injected failures trip the breaker; while open, the
                # chain answers from the static tier without touching the
                # model (no draws consumed).
                for _ in range(3):
                    tiers.append(service.predict(warm_request(small_dataset)))
                assert service.health()["breakers"] == {"default-v1": "open"}
                # Cooldown elapses: the probe is admitted, consumes the
                # third (final) injection, and re-opens the breaker.
                clock.now = 11.0
                tiers.append(service.predict(warm_request(small_dataset)))
                assert service.health()["breakers"] == {"default-v1": "open"}
                # Next probe succeeds: the breaker closes and primary
                # serving resumes.
                clock.now = 22.0
                tiers.append(service.predict(warm_request(small_dataset)))
                tiers.append(service.predict(warm_request(small_dataset)))
                assert service.health()["breakers"] == {"default-v1": "closed"}
                assert service.health()["status"] == "ok"
            assert [r.served_by for r in tiers] == [
                "static", "static", "static", "static", "primary", "primary",
            ]
            assert all(r.ok for r in tiers)
            counters = treg.snapshot()["counters"]
            assert counters["serve.breaker.trip"] == 2
            assert counters["serve.breaker.probe"] == 2
            assert counters["serve.breaker.recover"] == 1
            assert counters["serve.fault.predict"] == 3

    def test_empty_score_uses_no_probe(self, tmp_path, trained, small_suite, small_dataset):
        """An empty block is answered before the breaker: past the
        cooldown it takes no half-open probe, so the next non-empty call
        is admitted as the probe and closes the breaker."""
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset)
        clock = FakeClock()
        with telemetry.scoped_registry() as treg:
            with PredictionService(
                reg, list(small_suite), dataset=small_dataset,
                resilience=ResilienceConfig(breaker_threshold=1, breaker_reset_s=1.0),
            ) as service:
                service._breaker_clock = clock
                loaded = service.router.models[DEFAULT_CLUSTER]
                service._breaker(loaded.key).record_failure()
                clock.now = 2.0  # cooldown over: the next admitted call is the probe
                empty = service.score(
                    loaded, loaded.net_codes[:0], np.empty((0, 0), dtype=np.uint8), "primary"
                )
                assert empty is not None and len(empty) == 0
                response = service.predict(warm_request(small_dataset))
                assert service.health()["breakers"] == {"default-v1": "closed"}
            counters = treg.snapshot()["counters"]
        assert response.served_by == "primary"
        assert counters["serve.breaker.probe"] == 1
        assert counters["serve.breaker.recover"] == 1

    def test_stale_tier_serves_when_primary_breaker_open(self, tmp_path, trained,
                                                         small_suite, small_dataset):
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset, tag=1)
        with PredictionService(
            reg, list(small_suite), dataset=small_dataset,
            max_batch=1, max_wait_ms=0,
            resilience=ResilienceConfig(breaker_threshold=1, breaker_reset_s=1e6),
        ) as service:
            publish(reg, trained, small_dataset, tag=2)
            swapped = service.refresh()
            assert swapped == {DEFAULT_CLUSTER: 2}
            baseline = service.predict(warm_request(small_dataset))
            assert baseline.served_by == "primary" and baseline.model_version == 2
            service._breaker((DEFAULT_CLUSTER, 2)).record_failure()  # trips at 1
            degraded = service.predict(warm_request(small_dataset))
            assert degraded.ok and degraded.served_by == "stale"
            assert degraded.model_version == 1
            # Same (network, device, model) -> byte-identical latency,
            # whichever tier routed it (v1 == v2 here: same training).
            assert degraded.latency_ms == baseline.latency_ms
            assert service.health()["status"] == "degraded"

    def test_default_tier_serves_tripped_cluster(self, tmp_path, trained,
                                                 small_suite, small_dataset):
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset)
        publish(reg, trained, small_dataset, cluster="west")
        with PredictionService(
            reg, list(small_suite), dataset=small_dataset,
            max_batch=1, max_wait_ms=0,
            resilience=ResilienceConfig(breaker_threshold=1, breaker_reset_s=1e6),
        ) as service:
            request = warm_request(small_dataset, cluster="west")
            assert service.predict(request).served_by == "primary"
            service._breaker(("west", 1)).record_failure()
            fallback = service.predict(request)
            assert fallback.ok and fallback.served_by == "default"
            assert fallback.served_cluster == DEFAULT_CLUSTER

    def test_static_tier_survives_total_checkpoint_loss(self, tmp_path, trained,
                                                        small_suite, small_dataset):
        reg = ModelRegistry(tmp_path / "r")
        checkpoint = publish(reg, trained, small_dataset)
        with PredictionService(
            reg, list(small_suite), dataset=small_dataset,
            max_batch=1, max_wait_ms=0, resilience=ResilienceConfig(),
        ) as warm:
            checkpoint.path.write_bytes(b"rotten")
            # A warm service never re-reads an unchanged version, so its
            # in-memory copy keeps serving primary despite disk rot.
            warm.refresh()
            survivor = warm.predict(warm_request(small_dataset))
            assert survivor.ok and survivor.served_by == "primary"
        # A fresh service must load from disk, fails, and is left with
        # only the manifest-resident static estimate — which answers.
        with PredictionService(
            reg, list(small_suite), dataset=small_dataset,
            max_batch=1, max_wait_ms=0, resilience=ResilienceConfig(),
        ) as cold:
            assert cold.model_versions() == {}
            static_served = cold.predict(warm_request(small_dataset))
            assert static_served.ok and static_served.served_by == "static"
            assert static_served.model_version is None
            assert static_served.latency_ms > 0
            # Networks outside the estimator's means still miss by name.
            degraded = cold.predict(
                PredictRequest(
                    network="unknown-net-1",
                    device=small_dataset.device_names[0],
                )
            )
            assert degraded.error == "unknown_network"

    def test_registry_io_error_keeps_current_table(self, tmp_path, trained,
                                                   small_suite, small_dataset):
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset)
        with PredictionService(
            reg, list(small_suite), dataset=small_dataset,
            max_batch=1, max_wait_ms=0,
        ) as service:
            before = service.model_versions()
            reg.fault_plan = ServeFaultPlan(
                seed=0, registry_io_probability=1.0, registry_io_limit=1
            )
            with telemetry.scoped_registry() as treg:
                assert service.refresh() == {}
                counters = treg.snapshot()["counters"]
            assert counters["serve.resilience.registry_error"] == 1
            assert service.model_versions() == before
            assert service.predict(warm_request(small_dataset)).ok
            # The injected fault was transient (limit=1): next refresh works.
            assert service.refresh() == {}
            assert service.model_versions() == before

    def test_clean_path_is_byte_identical_with_resilience_enabled(
        self, tmp_path, trained, small_suite, small_dataset
    ):
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset)
        profile = LoadProfile(n_requests=120, concurrency=2, seed=5)
        requests = build_requests(
            small_dataset, trained.repo.signature_names, profile
        )
        digests = []
        for resilience in (
            None,
            ResilienceConfig(
                max_queue_depth=10_000,
                deadline_ms=60_000.0,
                breaker_threshold=2,
                breaker_reset_s=1.0,
            ),
        ):
            with PredictionService(
                reg, list(small_suite), dataset=small_dataset,
                resilience=resilience,
            ) as service:
                report = run_load(service, requests, profile)
            digests.append(report.digest())
            assert report.n_shed_overloaded == 0
            assert report.n_deadline_misses == 0
            assert report.n_degraded == 0
            assert set(report.served_by) <= {"primary"}
        assert digests[0] == digests[1]

    def test_health_reports_unready_after_close(self, tmp_path, trained,
                                                small_suite, small_dataset):
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset)
        service = PredictionService(
            reg, list(small_suite), dataset=small_dataset
        )
        assert service.health()["status"] == "ok"
        service.close()
        health = service.health()
        assert health["status"] == "unready" and not health["accepting"]


# ---------------------------------------------------------------------------
# Registry eviction under concurrency (satellite)


class TestConcurrentCorruptEviction:
    def test_concurrent_refresh_readers_converge_after_corruption(
        self, tmp_path, trained, small_suite, small_dataset
    ):
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset, tag=1)
        with PredictionService(
            reg, list(small_suite), dataset=small_dataset,
            max_batch=8, max_wait_ms=0,
        ) as service:
            assert service.model_versions() == {DEFAULT_CLUSTER: 1}
            # A corrupt v2 lands while the service is live: racing
            # refreshers all try to adopt it, fail to load, and evict it;
            # racing requesters must keep getting answers from v1.
            v2 = publish(reg, trained, small_dataset, tag=2)
            v2.path.write_bytes(b"bit rot")
            errors: list[BaseException] = []
            barrier = threading.Barrier(6)

            def refresher():
                try:
                    barrier.wait(5.0)
                    for _ in range(3):
                        service.refresh()
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            def requester():
                try:
                    barrier.wait(5.0)
                    for k in range(10):
                        response = service.predict(
                            warm_request(small_dataset, k=k), timeout=10.0
                        )
                        assert response.ok
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [threading.Thread(target=refresher) for _ in range(3)] + [
                threading.Thread(target=requester) for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            # Every reader converged on the surviving version, and the
            # corrupt one is gone from the manifest (eviction is
            # idempotent under racing refreshers).
            assert service.model_versions() == {DEFAULT_CLUSTER: 1}
            assert [c.version for c in reg.versions(DEFAULT_CLUSTER)] == [1]
            assert not v2.path.exists()
            assert service.predict(warm_request(small_dataset)).ok


# ---------------------------------------------------------------------------
# Static estimator + publish integration


class TestStaticEstimator:
    def test_speed_scaling_and_unknown_network(self):
        est = StaticEstimator(
            network_mean_ms={"n1": 10.0, "n2": 40.0},
            signature_mean_ms={"n1": 10.0},
        )
        assert est.predict_ms("n1") == pytest.approx(10.0)
        # A device twice as slow as the cluster mean doubles the estimate.
        assert est.predict_ms("n2", {"n1": 20.0}) == pytest.approx(80.0)
        assert est.predict_ms("missing") is None

    def test_from_metadata_roundtrip(self, small_dataset, trained):
        block = fit_static_estimate(
            small_dataset, trained.repo.signature_names, sorted(trained.repo.contributions)
        )
        est = StaticEstimator.from_metadata({"static_estimate": block})
        assert est is not None
        name = small_dataset.network_names[0]
        assert est.predict_ms(name) == pytest.approx(block["network_mean_ms"][name])
        assert StaticEstimator.from_metadata({}) is None

    def test_publish_checkpoint_embeds_static_estimate(self, tmp_path, trained):
        reg = ModelRegistry(tmp_path / "r")
        checkpoint = trained.repo.publish_checkpoint(reg, regressor_seed=0)
        block = checkpoint.metadata["static_estimate"]
        assert set(block) == {"network_mean_ms", "signature_mean_ms"}
        assert len(block["network_mean_ms"]) > 0
        # The estimate survives checkpoint-file corruption: it lives in
        # the manifest, and the fresh-from-disk registry still has it.
        checkpoint.path.write_bytes(b"rotten")
        again = ModelRegistry(tmp_path / "r").latest(DEFAULT_CLUSTER)
        assert again.metadata["static_estimate"] == block


# ---------------------------------------------------------------------------
# Telemetry roll-up


class TestResilienceTelemetry:
    def test_summary_resilience_block(self, tmp_path, trained,
                                      small_suite, small_dataset):
        reg = ModelRegistry(tmp_path / "r")
        publish(reg, trained, small_dataset)
        plan = ServeFaultPlan(
            seed=0, predict_failure_probability=1.0, predict_failure_limit=2
        )
        with telemetry.scoped_registry() as treg:
            with PredictionService(
                reg, list(small_suite), dataset=small_dataset,
                max_batch=1, max_wait_ms=0,
                resilience=ResilienceConfig(breaker_threshold=5, fault_plan=plan),
            ) as service:
                for k in range(4):
                    assert service.predict(warm_request(small_dataset, k=k)).ok
            block = telemetry.summarize(treg)["serve"]["resilience"]
        assert block["faults_injected"]["predict"] == 2
        assert block["predict_errors"] == 2
        assert block["served_by"]["static"] == 2
        assert block["served_by"]["primary"] == 2
        assert block["fallbacks"]["static"] == 2
        assert block["shed"] == {"overloaded": 0, "deadline": 0, "abandoned": 0}
