"""Tests for the network and hardware encoders."""

import numpy as np
import pytest

from repro.core.representation import (
    NetworkEncoder,
    SignatureHardwareEncoder,
    StaticHardwareEncoder,
    _LAYER_WIDTH,
)
from repro.devices.catalog import build_fleet
from repro.nnir.graph import Layer, Network
from repro.nnir.ops import Activation, Conv2d, TensorShape


def _chain(name, n_layers):
    layers = [Layer(Conv2d(3, 8, 3, 1, 1))]
    for _ in range(n_layers - 1):
        layers.append(Layer(Activation("relu"), (len(layers) - 1,)))
    return Network(name, TensorShape(3, 16, 16), layers)


class TestNetworkEncoder:
    def test_width_sized_by_longest(self):
        nets = [_chain("a", 2), _chain("b", 5)]
        encoder = NetworkEncoder(nets)
        assert encoder.max_layers == 5
        assert encoder.width == 5 * _LAYER_WIDTH

    def test_padding_is_zero(self):
        nets = [_chain("a", 2), _chain("b", 5)]
        encoder = NetworkEncoder(nets)
        vec = encoder.encode(nets[0])
        assert vec.shape == (encoder.width,)
        assert np.all(vec[2 * _LAYER_WIDTH :] == 0.0)
        assert np.any(vec[: 2 * _LAYER_WIDTH] != 0.0)

    def test_one_hot_block_is_valid(self):
        net = _chain("a", 3)
        encoder = NetworkEncoder([net])
        vec = encoder.encode(net)
        from repro.nnir.ops import OP_KINDS

        for i in range(3):
            block = vec[i * _LAYER_WIDTH : i * _LAYER_WIDTH + len(OP_KINDS)]
            assert block.sum() == 1.0
            assert set(np.unique(block)) <= {0.0, 1.0}

    def test_distinct_networks_encode_differently(self, small_suite):
        encoder = NetworkEncoder(list(small_suite))
        a = encoder.encode(small_suite["mobilenet_v2_1.0"])
        b = encoder.encode(small_suite["fbnet_c"])
        assert not np.array_equal(a, b)

    def test_too_deep_network_rejected(self):
        encoder = NetworkEncoder([_chain("a", 2)])
        with pytest.raises(ValueError, match="layers"):
            encoder.encode(_chain("deep", 3))

    def test_encode_all_stacks(self, small_suite):
        encoder = NetworkEncoder(list(small_suite))
        matrix = encoder.encode_all(list(small_suite)[:4])
        assert matrix.shape == (4, encoder.width)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            NetworkEncoder([])

    def test_encoding_deterministic(self, small_suite):
        encoder = NetworkEncoder(list(small_suite))
        net = small_suite["mnasnet_a1"]
        assert np.array_equal(encoder.encode(net), encoder.encode(net))


class TestStaticHardwareEncoder:
    def test_width_and_content(self):
        fleet = build_fleet(10, seed=0)
        encoder = StaticHardwareEncoder.from_devices(list(fleet))
        vec = encoder.encode(fleet[0])
        assert vec.shape == (encoder.width,)
        assert vec[: len(encoder.cpu_models)].sum() == 1.0
        assert vec[-2] == fleet[0].frequency_ghz
        assert vec[-1] == fleet[0].dram_gb

    def test_unknown_cpu_encodes_all_zero_onehot(self):
        fleet = build_fleet(10, seed=0)
        encoder = StaticHardwareEncoder(["SomeOtherCPU"])
        vec = encoder.encode(fleet[0])
        assert vec[0] == 0.0

    def test_vocabulary_deduplicated_and_sorted(self):
        encoder = StaticHardwareEncoder(["b", "a", "b"])
        assert encoder.cpu_models == ["a", "b"]

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            StaticHardwareEncoder([])


class TestSignatureHardwareEncoder:
    def test_encode_from_dataset(self, small_dataset):
        names = small_dataset.network_names[:3]
        encoder = SignatureHardwareEncoder(names)
        device = small_dataset.device_names[0]
        vec = encoder.encode_from_dataset(small_dataset, device)
        expected = [small_dataset.latency(device, n) for n in names]
        assert vec.tolist() == expected
        assert encoder.width == 3

    def test_encode_from_measurements(self):
        encoder = SignatureHardwareEncoder(["a", "b"])
        vec = encoder.encode_from_measurements({"b": 2.0, "a": 1.0, "c": 9.0})
        assert vec.tolist() == [1.0, 2.0]

    def test_missing_measurement_raises(self):
        encoder = SignatureHardwareEncoder(["a", "b"])
        with pytest.raises(ValueError, match="missing"):
            encoder.encode_from_measurements({"a": 1.0})

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SignatureHardwareEncoder(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SignatureHardwareEncoder([])


class TestIncrementalEncode:
    """encode_network: byte-identity with encode() and row-memo reuse."""

    def _mutated_pairs(self):
        """(parent, child) pairs covering depth, width and kernel moves."""
        from repro.search.space import (
            MUTATION_KINDS,
            EvolutionSpace,
            mutate,
            random_genotype,
        )

        space = EvolutionSpace()
        rng = np.random.default_rng(0)
        pairs = {}
        while set(pairs) != set(MUTATION_KINDS):
            parent = random_genotype(space, rng)
            child, kind = mutate(parent, space, rng)
            pairs.setdefault(
                kind,
                (
                    parent.to_network(space, "parent"),
                    child.to_network(space, "child"),
                ),
            )
        return pairs

    def test_encode_network_matches_encode(self):
        from repro.search.space import EvolutionSpace, random_genotype

        space = EvolutionSpace()
        rng = np.random.default_rng(1)
        nets = [
            random_genotype(space, rng).to_network(space, f"n{i}")
            for i in range(10)
        ]
        encoder = NetworkEncoder(nets)
        for net in nets:
            built = encoder.encode_network(net, {})
            assert built.tobytes() == encoder.encode(net).tobytes()
            assert built.shape == (encoder.width,)
            assert not built.flags.writeable

    def test_incremental_equals_full_after_each_mutation_kind(self):
        pairs = self._mutated_pairs()
        nets = [n for pair in pairs.values() for n in pair]
        encoder = NetworkEncoder(nets)
        for kind, (parent, child) in pairs.items():
            rows = {}
            encoder.encode_network(parent, rows)
            incremental = encoder.encode_network(child, rows)
            assert incremental.tobytes() == encoder.encode(child).tobytes(), kind

    def test_incremental_actually_reuses_rows(self):
        from repro import telemetry

        pairs = self._mutated_pairs()
        nets = [n for pair in pairs.values() for n in pair]
        encoder = NetworkEncoder(nets)
        for kind, (parent, child) in pairs.items():
            rows = {}
            encoder.encode_network(parent, rows)
            with telemetry.scoped_registry() as reg:
                encoder.encode_network(child, rows)
                reused = reg.counter_value("encode.rows_reused")
                computed = reg.counter_value("encode.rows_computed")
            assert reused >= 2, kind  # at least the stem survives
            assert reused + computed == child.n_layers, kind
            parent_rows = {(layer.op, shapes) for layer, shapes, _ in parent.walk()}
            assert len(rows) == len(parent_rows) + computed

    def test_wrong_parent_never_corrupts(self):
        """The memo keys on (op, input shapes): rows left by an unrelated
        network are only taken where they are genuinely identical."""
        from repro.search.space import EvolutionSpace, random_genotype

        space = EvolutionSpace()
        rng = np.random.default_rng(2)
        a = random_genotype(space, rng).to_network(space, "a")
        b = random_genotype(space, rng).to_network(space, "b")
        encoder = NetworkEncoder([a, b])
        rows = {}
        encoder.encode_network(a, rows)
        with_wrong_parent = encoder.encode_network(b, rows)
        assert with_wrong_parent.tobytes() == encoder.encode(b).tobytes()

    def test_too_deep_network_raises(self):
        nets = [_chain("short", 3)]
        encoder = NetworkEncoder(nets)
        rows = {}
        with pytest.raises(ValueError, match="at most"):
            encoder.encode_network(_chain("long", 5), rows)
        assert rows == {}

    def test_shared_memo_matches_encode_on_zoo_random_and_search_chain(
        self, memo_population
    ):
        """One row memo across every zoo network, 50 random networks, a
        200-candidate mutation chain and two value-equal bottlenecks
        (``use_se=0`` and ``use_se=False``) equals ``encode()`` byte for
        byte, in both orders of the population."""
        from repro import telemetry

        encoder = NetworkEncoder(memo_population)
        for nets in (memo_population, memo_population[::-1]):
            rows = {}
            with telemetry.scoped_registry() as reg:
                for net in nets:
                    built = encoder.encode_network(net, rows)
                    assert built.tobytes() == encoder.encode(net).tobytes(), net.name
                reused = reg.counter_value("encode.rows_reused")
                computed = reg.counter_value("encode.rows_computed")
            assert computed == len(rows)
            assert reused + computed == sum(n.n_layers for n in nets)
            assert reused > computed


class TestNetworkContentHash:
    def test_name_independent(self):
        from repro.core.representation import network_content_hash

        a = _chain("alpha", 4)
        b = _chain("beta", 4)
        assert network_content_hash(a) == network_content_hash(b)

    def test_structure_sensitive(self):
        from repro.core.representation import network_content_hash

        assert network_content_hash(_chain("a", 4)) != network_content_hash(
            _chain("a", 5)
        )
