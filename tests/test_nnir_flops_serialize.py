"""Tests for work accounting and serialization round-trips."""

import json

import pytest

from repro.nnir.flops import network_work
from repro.nnir.graph import Layer, Network
from repro.nnir.ops import (
    Activation,
    ComputeKind,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    InvertedBottleneck,
    Linear,
    TensorShape,
)
from repro.nnir.serialize import network_from_dict, network_to_dict


def _net():
    layers = [
        Layer(Conv2d(3, 16, 3, 2, 1)),
        Layer(Activation("relu6"), (0,)),
        Layer(InvertedBottleneck(16, 24, 6, 3, 2, use_se=True), (1,)),
        Layer(GlobalAvgPool(), (2,)),
        Layer(Flatten(), (3,)),
        Layer(Linear(24, 100), (4,)),
    ]
    return Network("acct", TensorShape(3, 64, 64), layers)


class TestNetworkWork:
    def test_macs_equal_sum_of_layer_primitives(self):
        net = _net()
        work = network_work(net)
        manual = sum(
            p.macs
            for layer, in_shapes, _ in net.walk()
            for p in layer.op.primitives(in_shapes)
        )
        assert work.macs == manual

    def test_params_equal_sum_of_layer_params(self):
        net = _net()
        work = network_work(net)
        manual = sum(layer.op.param_count(ins) for layer, ins, _ in net.walk())
        assert work.params == manual

    def test_by_kind_partitions_macs(self):
        work = network_work(_net())
        assert sum(work.by_kind.values()) == work.macs

    def test_flops_is_twice_macs(self):
        work = network_work(_net())
        assert work.flops == 2 * work.macs

    def test_primitive_order_preserved(self):
        work = network_work(_net())
        # First primitive is the stem convolution.
        assert work.primitives[0].kind is ComputeKind.CONV_STD

    def test_total_bytes(self):
        work = network_work(_net())
        assert work.total_bytes == work.params + work.activation_bytes


class TestSerialization:
    def test_roundtrip_preserves_structure(self):
        net = _net()
        clone = network_from_dict(network_to_dict(net))
        assert clone.name == net.name
        assert clone.n_layers == net.n_layers
        assert clone.layer_shapes() == net.layer_shapes()
        assert network_work(clone).macs == network_work(net).macs

    def test_dict_is_json_safe(self):
        payload = network_to_dict(_net())
        restored = json.loads(json.dumps(payload))
        clone = network_from_dict(restored)
        assert clone.output_shape == _net().output_shape

    def test_unknown_op_type_rejected(self):
        payload = network_to_dict(_net())
        payload["layers"][0]["op"]["type"] = "Conv3d"
        with pytest.raises(ValueError, match="unknown operator"):
            network_from_dict(payload)

    def test_all_zoo_networks_roundtrip(self):
        from repro.generator.zoo import build_zoo

        for net in build_zoo():
            clone = network_from_dict(network_to_dict(net))
            assert network_work(clone).macs == network_work(net).macs


class TestLayerWorkMemo:
    def test_shared_memo_equals_fresh_work(self, memo_population):
        """One memo across every zoo network, 50 random networks, a
        200-candidate mutation chain and value-equal bottlenecks gives
        every field of the memo-free profile, in both orders of the
        population; ``by_kind`` keeps the kinds in order of first
        appearance over the primitives in execution order."""
        for nets in (memo_population, memo_population[::-1]):
            layers = {}
            for net in nets:
                fresh = network_work(net)
                memo = network_work(net, layers)
                assert memo.macs == fresh.macs, net.name
                assert memo.params == fresh.params, net.name
                assert memo.activation_bytes == fresh.activation_bytes, net.name
                assert memo.primitives == fresh.primitives, net.name
                assert list(memo.by_kind.items()) == list(fresh.by_kind.items()), net.name
            assert len(layers) < sum(n.n_layers for n in nets)
        for net in memo_population:
            by_kind = {}
            for layer, in_shapes, _ in net.walk():
                for p in layer.op.primitives(in_shapes):
                    by_kind[p.kind] = by_kind.get(p.kind, 0) + p.macs
            assert list(network_work(net).by_kind.items()) == list(by_kind.items()), net.name

    def test_memo_entries_are_the_layer_work(self):
        net = _net()
        layers = {}
        network_work(net, layers)
        for layer, in_shapes, _ in net.walk():
            primitives, params = layers[(layer.op, in_shapes)]
            assert primitives == tuple(layer.op.primitives(in_shapes))
            assert params == layer.op.param_count(in_shapes)
