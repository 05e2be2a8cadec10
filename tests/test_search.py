"""Evolutionary-search tests: space/mutation invariants, Pareto-front
properties, and the seed-determinism contract across executor backends."""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.core.collaborative import CollaborativeRepository
from repro.core.representation import NetworkEncoder, network_content_hash
from repro.nnir.flops import network_work
from repro.search import (
    Candidate,
    EvolutionSpace,
    Genotype,
    LayerMemo,
    MUTATION_KINDS,
    SearchConfig,
    accuracy_proxy,
    mutate,
    pareto_front,
    random_genotype,
    run_search,
)
from repro.serve import BulkQueryPlane, ModelRegistry, PredictionService


@pytest.fixture(scope="module")
def served(small_suite, small_dataset, tmp_path_factory):
    repo = CollaborativeRepository(
        small_dataset, small_suite, signature_size=5, seed=0
    )
    for device in small_dataset.device_names[:12]:
        repo.join(device, 0.5)
    registry = ModelRegistry(tmp_path_factory.mktemp("search-registry"))
    repo.publish_checkpoint(registry)
    service = PredictionService(
        registry, list(small_suite), dataset=small_dataset
    )
    yield SimpleNamespace(
        service=service, device=small_dataset.device_names[0]
    )
    service.close()


class TestSpace:
    def test_random_genotypes_respect_bounds(self):
        space = EvolutionSpace()
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = random_genotype(space, rng)
            assert len(g.stage_widths) == space.n_stages
            for stage, (width, blocks) in enumerate(
                zip(g.stage_widths, g.blocks)
            ):
                assert width in space.channel_choices[stage]
                assert space.min_blocks <= len(blocks) <= space.max_blocks
                for expansion, kernel in blocks:
                    assert expansion in space.expansions
                    assert kernel in space.kernels

    def test_networks_fit_declared_depth(self):
        space = EvolutionSpace()
        rng = np.random.default_rng(1)
        for i in range(20):
            g = random_genotype(space, rng)
            net = g.to_network(space, f"n{i}")
            assert net.n_layers <= space.max_network_layers

    def test_mutations_stay_in_bounds_and_differ(self):
        space = EvolutionSpace()
        rng = np.random.default_rng(2)
        g = random_genotype(space, rng)
        kinds = set()
        for _ in range(200):
            child, kind = mutate(g, space, rng)
            assert kind in MUTATION_KINDS
            kinds.add(kind)
            assert child != g
            child.to_network(space, "child")  # shape inference must hold
            g = child
        assert kinds == set(MUTATION_KINDS)

    def test_mutation_stream_is_seed_deterministic(self):
        space = EvolutionSpace()
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        ga, gb = random_genotype(space, a), random_genotype(space, b)
        for _ in range(50):
            ga, ka = mutate(ga, space, a)
            gb, kb = mutate(gb, space, b)
            assert ga == gb and ka == kb

    def test_accuracy_proxy_monotone_diminishing(self):
        # Equally spaced work increments: gains shrink as work grows.
        small = accuracy_proxy(100_000_000, 4)
        mid = accuracy_proxy(200_000_000, 8)
        big = accuracy_proxy(300_000_000, 12)
        assert small < mid < big
        assert (mid - small) > (big - mid)  # diminishing returns


def _genotypes_for_memo(space):
    """Random genotypes with every stage at each depth bound and in
    between, then a 200-step mutation chain."""
    rng = np.random.default_rng(3)
    genotypes = []
    for depth in range(space.min_blocks, space.max_blocks + 1):
        for _ in range(8):
            widths = random_genotype(space, rng).stage_widths
            blocks = tuple(
                tuple(
                    (int(rng.choice(space.expansions)), int(rng.choice(space.kernels)))
                    for _ in range(depth)
                )
                for _ in range(space.n_stages)
            )
            genotypes.append(Genotype(stage_widths=widths, blocks=blocks))
    genotype = random_genotype(space, rng)
    for _ in range(200):
        genotype, _ = mutate(genotype, space, rng)
        genotypes.append(genotype)
    return genotypes


class TestLayerMemo:
    def test_memoized_materialization_equals_plain(self):
        """One memo across every depth bound and a mutation chain builds
        networks equal to the memo-free ones in layers, shapes, content
        hash, encoding bytes and work."""
        space = EvolutionSpace()
        genotypes = _genotypes_for_memo(space)
        plain = [g.to_network(space, f"plain-{i}") for i, g in enumerate(genotypes)]
        memo = LayerMemo(space)
        memoized = [
            g.to_network(space, f"memo-{i}", layers=memo) for i, g in enumerate(genotypes)
        ]
        encoder = NetworkEncoder(plain)
        assert encoder.max_layers == space.max_network_layers
        for a, b in zip(plain, memoized):
            assert a.layers == b.layers, b.name
            assert [repr(layer) for layer in a.layers] == [repr(layer) for layer in b.layers]
            assert a.layer_shapes() == b.layer_shapes(), b.name
            assert network_content_hash(a) == network_content_hash(b), b.name
            assert encoder.encode(a).tobytes() == encoder.encode(b).tobytes(), b.name
            work_a, work_b = network_work(a), network_work(b)
            assert work_a == work_b, b.name
            assert list(work_a.by_kind.items()) == list(work_b.by_kind.items()), b.name
        assert 0 < len(memo) < sum(n.n_layers for n in memoized)

    def test_equal_position_and_gene_share_one_layer(self):
        space = EvolutionSpace()
        memo = LayerMemo(space)
        parent = Genotype(
            stage_widths=(16, 24, 48, 80),
            blocks=(((1, 3),), ((6, 3), (6, 5)), ((6, 3),), ((3, 3),)),
        )
        child = Genotype(  # the third stage's kernel flipped
            stage_widths=parent.stage_widths,
            blocks=(((1, 3),), ((6, 3), (6, 5)), ((6, 7),), ((3, 3),)),
        )
        a = parent.to_network(space, "a", layers=memo)
        b = child.to_network(space, "b", layers=memo)
        again = parent.to_network(space, "again", layers=memo)
        assert all(x is y for x, y in zip(a.layers, again.layers))
        flipped = 2 + 3  # after the stem pair and the first three blocks
        assert all(x is y for x, y in zip(a.layers[:flipped], b.layers[:flipped]))
        assert a.layers[flipped] is not b.layers[flipped]
        assert a.layers[flipped] != b.layers[flipped]
        # The block after the flip has the same position and gene.
        assert a.layers[flipped + 1] is b.layers[flipped + 1]
        assert all(x is y for x, y in zip(a.layers[-5:], b.layers[-5:]))
        # Numpy integer genes are read as ints: same layers, same bytes.
        numpy_genes = Genotype(
            stage_widths=tuple(np.int64(w) for w in parent.stage_widths),
            blocks=tuple(
                tuple((np.int64(e), np.int64(k)) for e, k in stage) for stage in parent.blocks
            ),
        )
        plain = numpy_genes.to_network(space, "numpy")
        assert network_content_hash(plain) == network_content_hash(a)
        memoized = numpy_genes.to_network(space, "numpy", layers=memo)
        assert all(x is y for x, y in zip(memoized.layers, a.layers))

    def test_threads_sharing_one_memo_keep_one_layer_per_key(self):
        """Eight threads (more than cores) materialize the same genotypes
        through one fresh memo per round, with a tiny switch interval.
        Every network equals the memo-free one and holds exactly the
        layer objects the memo keeps, so no concurrent miss replaced a
        stored layer."""
        space = EvolutionSpace()
        genotypes = _genotypes_for_memo(space)[:24]
        plain = [g.to_network(space, f"plain-{i}") for i, g in enumerate(genotypes)]

        def work(memo, barrier, out):
            barrier.wait(timeout=30)
            for i, g in enumerate(genotypes):
                out.append(g.to_network(space, f"thread-{i}", layers=memo))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                memo = LayerMemo(space)
                built = [[] for _ in range(8)]
                barrier = threading.Barrier(len(built))
                threads = [
                    threading.Thread(target=work, args=(memo, barrier, out)) for out in built
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert all(len(out) == len(genotypes) for out in built)
                size = len(memo)
                kept = [g.to_network(space, "kept", layers=memo) for g in genotypes]
                assert len(memo) == size  # every layer was already stored
                for out in built:
                    for net, ref, expected in zip(out, kept, plain):
                        assert net.layers == expected.layers
                        assert all(a is b for a, b in zip(net.layers, ref.layers)), net.name
        finally:
            sys.setswitchinterval(interval)

    def test_memo_refuses_another_space(self):
        space = EvolutionSpace()
        memo = LayerMemo(space)
        genotype = random_genotype(space, np.random.default_rng(0))
        genotype.to_network(space, "ok", layers=memo)
        genotype.to_network(EvolutionSpace(), "equal space", layers=memo)
        wider = EvolutionSpace(stem=24)
        with pytest.raises(ValueError, match="different EvolutionSpace"):
            genotype.to_network(wider, "wider", layers=memo)
        assert genotype.to_network(wider, "plain").layers[0].op.out_channels == 24


class TestParetoFront:
    def _cand(self, lat, acc, tag):
        return Candidate(
            genotype=Genotype(stage_widths=(16,), blocks=(((1, 3),),)),
            content_hash=tag,
            latency_ms=lat,
            accuracy=acc,
        )

    def test_front_is_nondominated_and_sorted(self):
        cands = [
            self._cand(10.0, 30.0, "a"),
            self._cand(12.0, 28.0, "b"),  # dominated by a
            self._cand(15.0, 40.0, "c"),
            self._cand(15.0, 35.0, "d"),  # dominated by c
            self._cand(30.0, 50.0, "e"),
        ]
        front = pareto_front(cands)
        assert [c.content_hash for c in front] == ["a", "c", "e"]
        lats = [c.latency_ms for c in front]
        accs = [c.accuracy for c in front]
        assert lats == sorted(lats)
        assert accs == sorted(accs)

    def test_exact_tie_breaks_on_hash(self):
        cands = [self._cand(10.0, 30.0, "z"), self._cand(10.0, 30.0, "a")]
        front = pareto_front(cands)
        assert [c.content_hash for c in front] == ["a"]


class TestRunSearch:
    def _config(self, **kw):
        defaults = dict(
            generations=3, population=10, latency_budget_ms=450.0, seed=7
        )
        defaults.update(kw)
        return SearchConfig(**defaults)

    def test_same_seed_same_digest_across_backends(self, served):
        results = {}
        for backend, jobs in (("serial", 1), ("thread", 3)):
            plane = BulkQueryPlane(served.service)
            results[backend] = run_search(
                plane,
                served.device,
                self._config(backend=backend, jobs=jobs),
            )
        assert results["serial"].digest == results["thread"].digest
        assert results["serial"].winner == results["thread"].winner
        assert results["serial"].pareto == results["thread"].pareto

    def test_serial_rerun_is_bit_stable(self, served):
        a = run_search(
            BulkQueryPlane(served.service), served.device, self._config()
        )
        b = run_search(
            BulkQueryPlane(served.service), served.device, self._config()
        )
        assert a.digest == b.digest

    def test_different_seeds_explore_differently(self, served):
        a = run_search(
            BulkQueryPlane(served.service), served.device, self._config(seed=1)
        )
        b = run_search(
            BulkQueryPlane(served.service), served.device, self._config(seed=2)
        )
        assert a.digest != b.digest

    def test_winner_is_feasible_and_on_front(self, served):
        result = run_search(
            BulkQueryPlane(served.service),
            served.device,
            self._config(latency_budget_ms=1e6),  # everything feasible
        )
        assert result.winner is not None
        assert result.winner.latency_ms <= 1e6
        best_acc = max(c.accuracy for c in result.pareto)
        assert result.winner.accuracy == best_acc

    def test_impossible_budget_has_no_winner(self, served):
        result = run_search(
            BulkQueryPlane(served.service),
            served.device,
            self._config(latency_budget_ms=1e-6),
        )
        assert result.winner is None
        assert len(result.pareto) >= 1  # front exists regardless

    @pytest.mark.parametrize("backend, jobs", [("serial", 1), ("thread", 3)])
    def test_layer_memo_persists_across_generations(self, served, monkeypatch, backend, jobs):
        """Every generation materializes through the run's one memo, so
        an unchanged layer is the same object in the first and last
        generation; a copy per executor map would rebuild it."""
        calls = []
        to_network = Genotype.to_network

        def recording(genotype, space, name, layers=None):
            network = to_network(genotype, space, name, layers=layers)
            calls.append((layers, network))
            return network

        monkeypatch.setattr(Genotype, "to_network", recording)
        config = self._config(generations=4, population=8, backend=backend, jobs=jobs)
        run_search(BulkQueryPlane(served.service), served.device, config)
        assert len(calls) == config.generations * config.population
        memos = {id(layers) for layers, _ in calls}
        assert len(memos) == 1 and isinstance(calls[0][0], LayerMemo)
        stems = {id(network.layers[0]) for _, network in calls}
        assert len(stems) == 1

    def test_one_bulk_call_per_generation(self, served):
        plane = BulkQueryPlane(served.service)
        config = self._config(generations=4, population=8)
        with telemetry.scoped_registry() as reg:
            run_search(plane, served.device, config)
            counters = reg.snapshot()["counters"]
        stats = plane.stats
        assert stats["calls"] == config.generations
        assert stats["requests"] == config.generations * config.population
        # Every query is an in-call duplicate or a distinct row the
        # service walk answered, with a latency or a miss.
        misses = sum(v for k, v in counters.items() if k.startswith("serve.miss."))
        assert counters["serve.requests"] == stats["predicted"] + misses
        assert stats["requests"] == stats["dedup_hits"] + counters["serve.requests"]

    def test_space_too_deep_for_encoder_raises(self, served):
        deep = EvolutionSpace(max_blocks=64)
        with pytest.raises(ValueError, match="encoder"):
            run_search(
                BulkQueryPlane(served.service),
                served.device,
                self._config(space=deep),
            )
