"""Bulk query plane tests: byte-identity against the per-request and
micro-batched paths, content-hash dedup within a call, layer-row memo
reuse and its bound after depth/width/kernel mutations, hot-swap
(refresh) freshness, and the shared walk: a bulk block and a
micro-batch of the same rows get the same tier, cluster, version,
miss reason and latency bytes in every degraded case, and a failing
group costs one kernel call per tier."""

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


def _too_deep(encoder, seed):
    """A candidate with more layers than ``encoder`` can encode."""
    space = EvolutionSpace(max_blocks=encoder.max_layers)
    rng = np.random.default_rng(seed)
    g = random_genotype(space, rng)
    while g.to_network(space, "deep").n_layers <= encoder.max_layers:
        g, _ = mutate(g, space, rng)
    return g.to_network(space, "deep")


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


class TestMutationChildren:
    def test_children_reuse_parent_encodings(self, served):
        space = EvolutionSpace()
        rng = np.random.default_rng(8)
        parent_g = random_genotype(space, rng)
        parent = parent_g.to_network(space, "parent")
        children = []
        for i in range(6):
            child_g, _ = mutate(parent_g, space, rng)
            children.append(child_g.to_network(space, f"child-{i}"))
        plane = BulkQueryPlane(served.service)
        first = plane.predict_block([parent], served.device)
        with telemetry.scoped_registry() as reg:
            reused_rows = plane.predict_block(children, served.device)
            reused = reg.counter_value("encode.rows_reused")
            computed = reg.counter_value("encode.rows_computed")
        assert reused >= 2 * len(children)  # at least the stems
        assert reused + computed == sum(c.n_layers for c in children)
        parent_rows = {(layer.op, shapes) for layer, shapes, _ in parent.walk()}
        assert plane.cache_info()["layer_rows"] == len(parent_rows) + computed
        # Same children, fresh plane (empty memo): identical predictions.
        blank = BulkQueryPlane(served.service)
        fresh = blank.predict_block(children, served.device)
        assert first[0].ok
        a = np.array([r.latency_ms for r in reused_rows])
        b = np.array([r.latency_ms for r in fresh])
        assert a.tobytes() == b.tobytes()

    def test_layer_row_memo_is_bounded(self, served, monkeypatch):
        import repro.serve.bulk as bulk

        nets = _candidates(8, seed=9)
        unbounded = BulkQueryPlane(served.service)
        expected = unbounded.predict_block(nets, served.device)
        assert unbounded.cache_info()["layer_rows"] > 5
        monkeypatch.setattr(bulk, "_MAX_LAYER_ROWS", 5)
        plane = BulkQueryPlane(served.service)
        responses = plane.predict_block(nets, served.device)
        assert plane.cache_info()["layer_rows"] == 5
        a = np.array([r.latency_ms for r in responses])
        b = np.array([r.latency_ms for r in expected])
        assert a.tobytes() == b.tobytes()

    def test_threads_share_the_memo_without_lost_updates(self, served):
        """Eight threads on one plane, released together and switching
        every microsecond, two per block of candidates that share layers
        with the other blocks: each call encodes its own distinct
        candidates, every distinct layer is encoded exactly once, and
        every answer equals a serial plane's. Repeated on fresh planes,
        since a race shows only in some rounds."""
        import sys
        import threading

        blocks = [_candidates(6, seed=20 + k) for k in range(4)]
        serial = BulkQueryPlane(served.service)
        expected = [serial.predict_block(b, served.device) for b in blocks]
        encodes = sum(len({network_content_hash(n) for n in blocks[k % 4]}) for k in range(8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):
                plane = BulkQueryPlane(served.service)
                answers = [None] * 8
                barrier = threading.Barrier(8, timeout=60)

                def ask(k):
                    barrier.wait()
                    answers[k] = plane.predict_block(blocks[k % 4], served.device)

                threads = [threading.Thread(target=ask, args=(k,)) for k in range(8)]
                with telemetry.scoped_registry() as reg:
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
                    computed = reg.counter_value("encode.rows_computed")
                assert not any(t.is_alive() for t in threads)
                assert plane.stats["enc_misses"] == encodes
                assert computed == plane.cache_info()["layer_rows"]
                for k, got in enumerate(answers):
                    a = np.array([r.latency_ms for r in got])
                    b = np.array([r.latency_ms for r in expected[k % 4]])
                    assert a.tobytes() == b.tobytes(), k
        finally:
            sys.setswitchinterval(interval)


class TestMisses:
    def test_too_deep_candidate_misses_unencodable(self, served):
        deep = _too_deep(served.service.encoder, seed=10)
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
        response = served.service.predict(
            PredictRequest(
                network="deep",
                device=served.device,
                definition=_too_deep(served.service.encoder, seed=15),
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


def test_bulk_and_micro_batch_miss_alike_on_a_cold_device(served):
    """Both paths resolve each row's network before routing: on a device
    without a signature, an unencodable candidate misses ``unencodable``
    and an encodable one ``cold_device``."""
    block = [_candidates(1, seed=16)[0], _too_deep(served.service.encoder, seed=17)]
    bulk = BulkQueryPlane(served.service).predict_block(block, "never-seen-device")
    batched = served.service.predict_many(
        [PredictRequest(n.name, "never-seen-device", definition=n) for n in block]
    )
    assert [outcome(r) for r in bulk] == [outcome(r) for r in batched]
    assert [r.error for r in bulk] == ["cold_device", MISS_UNENCODABLE]


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
