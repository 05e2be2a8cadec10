"""Tests for the network graph: validation, shape inference, walking."""

import pytest

from repro.nnir.graph import Layer, Network
from repro.nnir.ops import (
    Activation,
    Add,
    Concat,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    InvertedBottleneck,
    Linear,
    TensorShape,
)


def _tiny_net():
    layers = [
        Layer(Conv2d(3, 16, 3, 2, 1)),
        Layer(Activation("relu"), (0,)),
        Layer(InvertedBottleneck(16, 16, 3), (1,)),
        Layer(GlobalAvgPool(), (2,)),
        Layer(Flatten(), (3,)),
        Layer(Linear(16, 10), (4,)),
    ]
    return Network("tiny", TensorShape(3, 32, 32), layers)


class TestNetworkConstruction:
    def test_valid_network(self):
        net = _tiny_net()
        assert net.n_layers == 6
        assert net.output_shape == TensorShape(10)

    def test_layer_shapes_in_order(self):
        net = _tiny_net()
        shapes = net.layer_shapes()
        assert shapes[0] == TensorShape(16, 16, 16)
        assert shapes[3] == TensorShape(16, 1, 1)

    def test_walk_yields_consistent_triples(self):
        net = _tiny_net()
        for layer, in_shapes, out_shape in net.walk():
            assert layer.op.out_shape(in_shapes) == out_shape

    def test_skip_connection_inputs(self):
        layers = [
            Layer(Conv2d(3, 8, 3, 1, 1)),
            Layer(Conv2d(8, 8, 3, 1, 1), (0,)),
            Layer(Add(), (0, 1)),
        ]
        net = Network("skip", TensorShape(3, 8, 8), layers)
        assert net.output_shape == TensorShape(8, 8, 8)
        assert net.layer_inputs(2) == (TensorShape(8, 8, 8), TensorShape(8, 8, 8))

    def test_forward_reference_rejected(self):
        layers = [
            Layer(Conv2d(3, 8, 3, 1, 1), (1,)),  # refers to a later layer
            Layer(Activation("relu"), (0,)),
        ]
        with pytest.raises(ValueError, match="invalid input"):
            Network("bad", TensorShape(3, 8, 8), layers)

    def test_self_reference_rejected(self):
        layers = [Layer(Conv2d(3, 8, 3, 1, 1), (0,))]
        with pytest.raises(ValueError, match="invalid input"):
            Network("bad", TensorShape(3, 8, 8), layers)

    def test_shape_error_names_layer(self):
        layers = [
            Layer(Conv2d(3, 8, 3, 1, 1)),
            Layer(Conv2d(16, 8, 3, 1, 1), (0,)),  # channel mismatch
        ]
        with pytest.raises(ValueError, match="layer 1"):
            Network("bad", TensorShape(3, 8, 8), layers)

    def test_arity_mismatch_rejected_at_layer(self):
        with pytest.raises(ValueError, match="expects 2 inputs"):
            Layer(Add(), (0,))

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            Network("empty", TensorShape(3, 8, 8), [])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            Network("", TensorShape(3, 8, 8), [Layer(Activation("relu"))])

    def test_repr_mentions_name_and_depth(self):
        text = repr(_tiny_net())
        assert "tiny" in text and "6 layers" in text


def _two_input_nets():
    """Adds and concats fed by earlier layers and by the network input,
    the concats' two inputs of different shapes."""
    return [
        Network("skip", TensorShape(3, 8, 8), [
            Layer(Conv2d(3, 8, 3, 1, 1)),
            Layer(Conv2d(8, 8, 3, 1, 1), (0,)),
            Layer(Add(), (0, 1)),
        ]),
        Network("input-skip", TensorShape(3, 8, 8), [
            Layer(Conv2d(3, 5, 3, 1, 1)),
            Layer(Concat(), (0, -1)),
            Layer(Concat(), (-1, 1)),
            Layer(Conv2d(11, 3, 1, 1, 0), (2,)),
            Layer(Add(), (-1, 3)),
        ]),
    ]


class TestWalk:
    def test_walk_equals_the_shape_oracle(self, memo_population):
        """Every ``(layer, in_shapes, out_shape)`` from ``walk()`` equals
        the triple built here from ``layer.inputs``, ``input_shape`` and
        ``layer_shapes()``, and ``layer_inputs(i)``, on the memo population
        and on two-input layers fed by layers and by the network input."""
        from_input = two_input = 0
        nets = [*memo_population, *_two_input_nets()]
        for net in nets:
            shapes = net.layer_shapes()
            walked = list(net.walk())
            assert len(walked) == net.n_layers, net.name
            for i, (layer, triple) in enumerate(zip(net.layers, walked)):
                expected_in = tuple(
                    net.input_shape if src == -1 else shapes[src] for src in layer.inputs
                )
                assert triple == (layer, expected_in, shapes[i]), (net.name, i)
                assert triple[0] is layer
                assert net.layer_inputs(i) == expected_in, (net.name, i)
                from_input += -1 in layer.inputs
                two_input += len(layer.inputs) == 2
        assert from_input >= len(nets) + 3
        assert two_input == 4

    def test_walk_stores_nothing_on_the_network(self):
        net = _tiny_net()
        before = dict(vars(net))
        for _ in net.walk():
            pass
        assert vars(net) == before
