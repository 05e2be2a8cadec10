"""Bulk query plane tests: byte-identity against the per-request and
micro-batched paths, content-hash dedup within and across calls, LRU
eviction under a tiny budget, incremental re-encode correctness after
depth/width/kernel mutations, hot-swap (refresh) freshness, and the
shared fallback chain: a bulk block and a micro-batch of the same rows
get the same tier, cluster, version and latency bytes in every
degraded case, and a failing group costs one kernel call per tier."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.core.collaborative import CollaborativeRepository
from repro.core.representation import network_content_hash
from repro.search.space import EvolutionSpace, mutate, random_genotype
from repro.serve import (
    DEFAULT_CLUSTER,
    BulkQueryPlane,
    ModelRegistry,
    PredictRequest,
    PredictionService,
)
from repro.serve.resilience import ResilienceConfig, ServeFaultPlan, fit_static_estimate
from repro.serve.service import MISS_UNENCODABLE


@pytest.fixture(scope="module")
def served(small_suite, small_dataset, tmp_path_factory):
    """A published registry plus a warm service and bulk plane."""
    repo = CollaborativeRepository(
        small_dataset, small_suite, signature_size=5, seed=0
    )
    for device in small_dataset.device_names[:12]:
        repo.join(device, 0.5)
    registry = ModelRegistry(tmp_path_factory.mktemp("bulk-registry"))
    repo.publish_checkpoint(registry)
    service = PredictionService(
        registry, list(small_suite), dataset=small_dataset
    )
    yield SimpleNamespace(
        repo=repo,
        registry=registry,
        service=service,
        device=small_dataset.device_names[0],
        suite=small_suite,
        dataset=small_dataset,
    )
    service.close()


def _candidates(n, seed=0, space=None):
    space = space or EvolutionSpace()
    rng = np.random.default_rng(seed)
    genotypes = [random_genotype(space, rng) for _ in range(n)]
    return [g.to_network(space, f"cand-{i}") for i, g in enumerate(genotypes)]


class TestByteIdentity:
    def test_bulk_equals_per_request_definitions(self, served):
        nets = _candidates(24, seed=1)
        plane = BulkQueryPlane(served.service)
        bulk = plane.predict_block(nets, served.device)
        with PredictionService(
            served.registry,
            list(served.suite),
            dataset=served.dataset,
            max_batch=1,
            max_wait_ms=0.0,
        ) as single:
            per = single.predict_many(
                [
                    PredictRequest(network=n.name, device=served.device, definition=n)
                    for n in nets
                ]
            )
        assert all(r.ok for r in bulk)
        a = np.array([r.latency_ms for r in bulk])
        b = np.array([r.latency_ms for r in per])
        assert a.tobytes() == b.tobytes()

    def test_bulk_equals_micro_batched(self, served):
        nets = _candidates(16, seed=2)
        plane = BulkQueryPlane(served.service)
        bulk = plane.predict_block(nets, served.device)
        batched = served.service.predict_many(
            [
                PredictRequest(network=n.name, device=served.device, definition=n)
                for n in nets
            ]
        )
        a = np.array([r.latency_ms for r in bulk])
        b = np.array([r.latency_ms for r in batched])
        assert a.tobytes() == b.tobytes()

    def test_suite_networks_match_named_path(self, served):
        """A suite network through the bulk plane equals the name path."""
        names = served.dataset.network_names[:8]
        nets = [served.suite[n] for n in names]
        plane = BulkQueryPlane(served.service)
        bulk = plane.predict_block(nets, served.device)
        named = served.service.predict_many(
            [PredictRequest(network=n, device=served.device) for n in names]
        )
        a = np.array([r.latency_ms for r in bulk])
        b = np.array([r.latency_ms for r in named])
        assert a.tobytes() == b.tobytes()


class TestDedupAndCaches:
    def test_within_call_dedup(self, served):
        nets = _candidates(6, seed=3)
        block = nets + [nets[0], nets[3]]  # repeats by object
        plane = BulkQueryPlane(served.service)
        responses = plane.predict_block(block, served.device)
        assert plane.stats["predicted"] == 6
        assert plane.stats["dedup_hits"] == 2
        assert responses[6].latency_ms == responses[0].latency_ms
        assert responses[7].latency_ms == responses[3].latency_ms

    def test_rename_still_dedups(self, served):
        """Content hashing ignores names: a renamed clone is a dup."""
        space = EvolutionSpace()
        rng = np.random.default_rng(4)
        g = random_genotype(space, rng)
        a = g.to_network(space, "alpha")
        b = g.to_network(space, "beta")
        assert network_content_hash(a) == network_content_hash(b)
        plane = BulkQueryPlane(served.service)
        responses = plane.predict_block([a, b], served.device)
        assert plane.stats["predicted"] == 1
        assert responses[0].latency_ms == responses[1].latency_ms
        assert responses[1].network == "beta"

    def test_cross_call_prediction_cache(self, served):
        nets = _candidates(5, seed=5)
        plane = BulkQueryPlane(served.service)
        first = plane.predict_block(nets, served.device)
        second = plane.predict_block(nets, served.device)
        assert plane.stats["predicted"] == 5
        assert plane.stats["pred_hits"] == 5
        a = np.array([r.latency_ms for r in first])
        b = np.array([r.latency_ms for r in second])
        assert a.tobytes() == b.tobytes()

    def test_encoding_lru_eviction_under_tiny_budget(self, served):
        nets = _candidates(8, seed=6)
        plane = BulkQueryPlane(
            served.service, max_encodings=2, max_predictions=2
        )
        responses = plane.predict_block(nets, served.device)
        assert all(r.ok for r in responses)
        assert plane.stats["enc_evictions"] >= 6
        info = plane.cache_info()
        assert info["encodings"] <= 2
        assert info["predictions"] <= 2
        # Evicted encodings re-encode on the next call, but the values
        # must not change (the caches are an optimization, not state).
        again = plane.predict_block(nets, served.device)
        a = np.array([r.latency_ms for r in responses])
        b = np.array([r.latency_ms for r in again])
        assert a.tobytes() == b.tobytes()

    def test_byte_budget_evicts(self, served):
        nets = _candidates(6, seed=7)
        one_encoding = 64  # bytes: far below a single entry's footprint
        plane = BulkQueryPlane(served.service, max_encoding_bytes=one_encoding)
        plane.predict_block(nets, served.device)
        assert plane.stats["enc_evictions"] >= 5
        assert plane.cache_info()["encodings"] == 1  # keeps at least one


class TestMutationChildren:
    def test_children_reuse_parent_encodings(self, served):
        space = EvolutionSpace()
        rng = np.random.default_rng(8)
        parent_g = random_genotype(space, rng)
        parent = parent_g.to_network(space, "parent")
        parent_hash = network_content_hash(parent)
        children = []
        for i in range(6):
            child_g, _ = mutate(parent_g, space, rng)
            children.append(child_g.to_network(space, f"child-{i}"))
        plane = BulkQueryPlane(served.service)
        first = plane.predict_block([parent], served.device)
        hinted = plane.predict_block(
            children,
            served.device,
            parent_hashes=[parent_hash] * len(children),
        )
        # Same children, no hints, fresh plane: identical predictions.
        blank = BulkQueryPlane(served.service)
        unhinted = blank.predict_block(children, served.device)
        assert first[0].ok
        a = np.array([r.latency_ms for r in hinted])
        b = np.array([r.latency_ms for r in unhinted])
        assert a.tobytes() == b.tobytes()

    def test_parent_hashes_must_align(self, served):
        plane = BulkQueryPlane(served.service)
        with pytest.raises(ValueError, match="align"):
            plane.predict_block(
                _candidates(3, seed=9), served.device, parent_hashes=[None]
            )


class TestMisses:
    def test_too_deep_candidate_misses_unencodable(self, served):
        encoder = served.service.encoder
        space = EvolutionSpace(max_blocks=encoder.max_layers)  # way too deep
        rng = np.random.default_rng(10)
        g = random_genotype(space, rng)
        while g.to_network(space, "deep").n_layers <= encoder.max_layers:
            g, _ = mutate(g, space, rng)
        deep = g.to_network(space, "deep")
        ok = _candidates(2, seed=11)
        plane = BulkQueryPlane(served.service)
        responses = plane.predict_block([ok[0], deep, ok[1]], served.device)
        assert responses[0].ok and responses[2].ok
        assert responses[1].error == MISS_UNENCODABLE
        assert plane.stats["unencodable"] == 1

    def test_cold_device_misses_whole_block(self, served):
        plane = BulkQueryPlane(served.service)
        responses = plane.predict_block(
            _candidates(3, seed=12), "never-seen-device"
        )
        assert [r.error for r in responses] == ["cold_device"] * 3

    def test_cold_device_served_with_shipped_signature(self, served):
        sig = {
            n: served.dataset.latency(served.device, n)
            for n in served.repo.signature_names
        }
        plane = BulkQueryPlane(served.service)
        shipped = plane.predict_block(
            _candidates(4, seed=13), "fresh-device", signature_ms=sig
        )
        warm = plane.predict_block(_candidates(4, seed=13), served.device)
        assert all(r.ok for r in shipped)
        # Same signature values as the warm device -> same predictions.
        a = np.array([r.latency_ms for r in shipped])
        b = np.array([r.latency_ms for r in warm])
        assert a.tobytes() == b.tobytes()


class TestHotSwap:
    def test_refresh_does_not_serve_stale_predictions(
        self, small_suite, small_dataset, tmp_path
    ):
        repo = CollaborativeRepository(
            small_dataset, small_suite, signature_size=5, seed=0
        )
        for device in small_dataset.device_names[:10]:
            repo.join(device, 0.5)
        registry = ModelRegistry(tmp_path / "registry")
        repo.publish_checkpoint(registry)
        nets = _candidates(10, seed=14)
        device = small_dataset.device_names[0]
        with PredictionService(
            registry, list(small_suite), dataset=small_dataset
        ) as service:
            plane = BulkQueryPlane(service)
            before = plane.predict_block(nets, device)
            assert {r.model_version for r in before} == {1}

            # Retrain on a grown membership and hot-swap mid-search.
            for extra in small_dataset.device_names[10:16]:
                repo.join(extra, 0.5)
            repo.publish_checkpoint(registry)
            service.refresh()
            after = plane.predict_block(nets, device)
            assert {r.model_version for r in after} == {2}
            # The v1 values were cached; v2 must NOT reuse them.
            a = np.array([r.latency_ms for r in before])
            b = np.array([r.latency_ms for r in after])
            assert a.tobytes() != b.tobytes()
            # And the v2 values must equal a fresh, cache-less service.
            with PredictionService(
                registry, list(small_suite), dataset=small_dataset
            ) as fresh:
                reference = fresh.predict_many(
                    [
                        PredictRequest(network=n.name, device=device, definition=n)
                        for n in nets
                    ]
                )
            c = np.array([r.latency_ms for r in reference])
            assert b.tobytes() == c.tobytes()


class TestPerRequestDefinitionPath:
    def test_unknown_name_without_definition_still_misses(self, served):
        response = served.service.predict(
            PredictRequest(network="no-such-net", device=served.device)
        )
        assert response.error == "unknown_network"

    def test_definition_deeper_than_encoder_misses(self, served):
        encoder = served.service.encoder
        space = EvolutionSpace(max_blocks=encoder.max_layers)
        rng = np.random.default_rng(15)
        g = random_genotype(space, rng)
        while g.to_network(space, "deep").n_layers <= encoder.max_layers:
            g, _ = mutate(g, space, rng)
        response = served.service.predict(
            PredictRequest(
                network="deep",
                device=served.device,
                definition=g.to_network(space, "deep"),
            )
        )
        assert response.error == MISS_UNENCODABLE


# ---------------------------------------------------------------------------
# One chain, one kernel: every predict path agrees


@pytest.fixture(scope="module")
def models(small_suite, small_dataset):
    """Two trained repositories whose signature sets are disjoint."""

    def train(signature_names=None):
        repo = CollaborativeRepository(
            small_dataset, small_suite, signature_size=5, seed=0,
            signature_names=signature_names,
        )
        for device in small_dataset.device_names[:12]:
            repo.join(device, 0.5)
        return repo, repo.train(regressor_seed=0)

    main = train()
    others = [n for n in small_dataset.network_names if n not in main[0].signature_names]
    return SimpleNamespace(main=main, other=train(others[:5]))


def publish(registry, trained, dataset, *, cluster=DEFAULT_CLUSTER, tag=0):
    repo, model = trained
    static = fit_static_estimate(dataset, repo.signature_names, sorted(repo.contributions))
    return registry.publish(
        model, {"tag": tag}, cluster=cluster, metadata={"static_estimate": static}
    )


def stale_primary_open(reg, m, ds):
    publish(reg, m.main, ds, tag=1)

    def arm(service):
        publish(reg, m.main, ds, tag=2)
        assert service.refresh() == {DEFAULT_CLUSTER: 2}
        service._breaker((DEFAULT_CLUSTER, 2)).record_failure()

    return arm


def cluster_tripped(reg, m, ds):
    publish(reg, m.main, ds)
    publish(reg, m.main, ds, cluster="west")
    return lambda service: service._breaker(("west", 1)).record_failure()


def total_checkpoint_loss(reg, m, ds):
    publish(reg, m.main, ds).path.write_bytes(b"rotten")
    return lambda service: None


def fallback_lacks_signature(reg, m, ds):
    publish(reg, m.other, ds)
    publish(reg, m.main, ds, cluster="west")
    return lambda service: service._breaker(("west", 1)).record_failure()


def outcome(response):
    latency = None if response.latency_ms is None else response.latency_ms.hex()
    return (response.served_by, response.served_cluster, response.model_version,
            response.error, latency)


@pytest.mark.parametrize(
    "setup, cluster, device, shipped, expected",
    [
        (stale_primary_open, DEFAULT_CLUSTER, "warm", False, ("stale", DEFAULT_CLUSTER, 1)),
        (cluster_tripped, "west", "warm", False, ("default", DEFAULT_CLUSTER, 1)),
        (total_checkpoint_loss, DEFAULT_CLUSTER, "warm", False,
         ("static", DEFAULT_CLUSTER, None)),
        # The routed (tripped) west model sees the shipped signature, the
        # default model cannot: the block falls through to west's static.
        (fallback_lacks_signature, "west", "fresh", True, ("static", "west", None)),
        # The routed model decides servability for every row alike, even
        # while its breaker is open: no shipped signature, no answer.
        (stale_primary_open, DEFAULT_CLUSTER, "fresh", False, (None, None, None)),
    ],
    ids=["stale", "default", "static", "fallback-signature", "cold-device"],
)
def test_bulk_and_micro_batch_walk_the_same_chain(
    setup, cluster, device, shipped, expected, tmp_path, models, small_suite, small_dataset
):
    reg = ModelRegistry(tmp_path / "r")
    arm = setup(reg, models, small_dataset)
    names = small_dataset.network_names[:8]
    if device == "warm":
        device = small_dataset.device_names[0]
    signature = (
        {n: small_dataset.latency(small_dataset.device_names[0], n)
         for n in models.main[0].signature_names}
        if shipped else None
    )
    with PredictionService(
        reg, list(small_suite), dataset=small_dataset,
        max_batch=len(names), max_wait_ms=1000.0,
        resilience=ResilienceConfig(breaker_threshold=1, breaker_reset_s=1e6),
    ) as service:
        arm(service)
        bulk = BulkQueryPlane(service).predict_block(
            [small_suite[n] for n in names], device, cluster=cluster, signature_ms=signature
        )
        batched = service.predict_many(
            [PredictRequest(n, device, cluster, signature) for n in names]
        )
    assert [outcome(r) for r in bulk] == [outcome(r) for r in batched]
    assert {outcome(r)[:3] for r in bulk} == {expected}
    if expected[0] is None:
        assert {r.error for r in bulk} == {"cold_device"}


def test_bulk_serves_static_tier_after_total_checkpoint_loss(
    tmp_path, models, small_suite, small_dataset
):
    reg = ModelRegistry(tmp_path / "r")
    total_checkpoint_loss(reg, models, small_dataset)
    device = small_dataset.device_names[0]
    with PredictionService(reg, list(small_suite), dataset=small_dataset) as service:
        assert service.model_versions() == {}
        suite_nets = [small_suite[n] for n in small_dataset.network_names[:4]]
        responses = BulkQueryPlane(service).predict_block(suite_nets + _candidates(2), device)
    assert [r.served_by for r in responses[:4]] == ["static"] * 4
    assert all(r.latency_ms > 0 and r.model_version is None for r in responses[:4])
    # Ad-hoc candidates are outside the publish-time means: nothing to serve.
    assert [r.error for r in responses[4:]] == ["no_model"] * 2


@pytest.mark.parametrize("rows", [1, 8, 32])
def test_failing_group_walks_the_chain_once(rows, tmp_path, models, small_suite, small_dataset):
    reg = ModelRegistry(tmp_path / "r")
    publish(reg, models.main, small_dataset)
    publish(reg, models.main, small_dataset, cluster="west")
    names = small_dataset.network_names
    plan = ServeFaultPlan(seed=0, predict_failure_probability=1.0)
    with telemetry.scoped_registry() as treg:
        with PredictionService(
            reg, list(small_suite), dataset=small_dataset,
            max_batch=rows, max_wait_ms=1000.0,
            resilience=ResilienceConfig(breaker_threshold=1000, fault_plan=plan),
        ) as service:
            responses = service.predict_many([
                PredictRequest(names[k % len(names)], small_dataset.device_names[0], "west")
                for k in range(rows)
            ])
        counters = treg.snapshot()["counters"]
    # One failed call for west, one for default, then the static tier —
    # whatever the group size, so the breaker threshold counts calls.
    assert counters["serve.fault.predict"] == 2
    assert counters["serve.resilience.predict_error"] == 2
    assert [r.served_by for r in responses] == ["static"] * rows


def test_degraded_micro_batch_answers_each_row_as_if_alone(
    tmp_path, models, small_suite, small_dataset
):
    """Under an open breaker, a row's answer does not depend on which
    rows share its flush: servable rows fall to the stale tier, and a
    cold device without a signature misses as it would alone."""
    reg = ModelRegistry(tmp_path / "r")
    arm = stale_primary_open(reg, models, small_dataset)
    names = small_dataset.network_names[:4]
    warm = small_dataset.device_names[0]
    requests = [PredictRequest(n, d) for d in (warm, "fresh") for n in names]
    config = ResilienceConfig(breaker_threshold=1, breaker_reset_s=1e6)
    with PredictionService(
        reg, list(small_suite), dataset=small_dataset,
        max_batch=len(requests), max_wait_ms=1000.0, resilience=config,
    ) as service:
        arm(service)
        batched = service.predict_many(requests)
        alone = [service.predict_many([r])[0] for r in requests]
    assert [outcome(r) for r in batched] == [outcome(r) for r in alone]
    assert [r.served_by for r in batched[:4]] == ["stale"] * 4
    assert [r.error for r in batched[4:]] == ["cold_device"] * 4


def test_clusters_sharing_a_chain_share_one_kernel_call(
    tmp_path, models, small_suite, small_dataset, monkeypatch
):
    """Two unpublished clusters both route to ``default``: one flush of
    their rows walks that chain once, with one ``predict_block`` call."""
    from repro.ml.gbt import GradientBoostedTrees

    reg = ModelRegistry(tmp_path / "r")
    publish(reg, models.main, small_dataset)
    device = small_dataset.device_names[0]
    requests = [
        PredictRequest(n, device, cluster)
        for n in small_dataset.network_names[:4]
        for cluster in ("a", "b")
    ]
    calls = []
    kernel = GradientBoostedTrees.predict_block

    def counting(self, net_codes, hw_codes):
        calls.append(len(net_codes))
        return kernel(self, net_codes, hw_codes)

    monkeypatch.setattr(GradientBoostedTrees, "predict_block", counting)
    with PredictionService(
        reg, list(small_suite), dataset=small_dataset,
        max_batch=len(requests), max_wait_ms=1000.0,
    ) as service:
        with telemetry.scoped_registry() as treg:
            batched = service.predict_many(requests)
        counters = treg.snapshot()["counters"]
        assert calls == [len(requests)]
        alone = [service.predict_many([r])[0] for r in requests]
    assert [outcome(r) for r in batched] == [outcome(r) for r in alone]
    assert [r.cluster for r in batched] == [r.cluster for r in requests]
    assert {r.served_by for r in batched} == {"default"}
    assert counters["serve.route.fallback"] == len(requests)
