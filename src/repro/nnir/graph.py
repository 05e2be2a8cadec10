"""Network graph: a validated DAG of layers in topological order.

Most mobile networks are linear chains with occasional skip
connections; we store them as a topologically ordered layer list where
each layer names its input layers by index (-1 denotes the network
input). Shape inference runs at construction, so an instantiated
:class:`Network` is valid by construction.

Both classes are immutable, so each caches what is derived from its
structure alone on first use: a layer its content bytes, a network its
content hash. The caches live on the object, never in a table keyed by
value: value-equal operators can have different reprs (``use_se=0``
against ``use_se=False``), and so different hashes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.nnir.ops import Op, TensorShape

__all__ = ["Layer", "Network"]

#: Layer-input index denoting the network's input tensor.
NETWORK_INPUT = -1


@dataclass(frozen=True)
class Layer:
    """One node of the network DAG.

    Attributes
    ----------
    op:
        The operator.
    inputs:
        Indices of producer layers (must be smaller than this layer's
        own index); ``-1`` refers to the network input.
    """

    op: Op
    inputs: tuple[int, ...] = (NETWORK_INPUT,)

    def __post_init__(self) -> None:
        if len(self.inputs) != self.op.arity:
            raise ValueError(
                f"{self.op.kind.value} expects {self.op.arity} inputs, "
                f"got {len(self.inputs)}"
            )

    @cached_property
    def content_bytes(self) -> bytes:
        """``b"\\x00" + repr(op) + repr(inputs)``: this layer's share of
        :attr:`Network.content_hash`, built once per layer object."""
        return b"\x00" + repr(self.op).encode() + repr(self.inputs).encode()


class Network:
    """An immutable, shape-checked DNN.

    Parameters
    ----------
    name:
        Human-readable identifier (unique within a benchmark suite).
    input_shape:
        Shape of the single network input.
    layers:
        Topologically ordered layers; layer *i* may only consume
        outputs of layers ``< i`` or the network input (``-1``).

    Raises
    ------
    ValueError
        If the topology is malformed or any operator rejects its input
        shapes.
    """

    def __init__(self, name: str, input_shape: TensorShape, layers: Sequence[Layer]) -> None:
        if not name:
            raise ValueError("network name must be non-empty")
        if not layers:
            raise ValueError("network must have at least one layer")
        self.name = name
        self.input_shape = input_shape
        self.layers: tuple[Layer, ...] = tuple(layers)
        self._shapes: tuple[TensorShape, ...] = self._infer_shapes()

    def _infer_shapes(self) -> tuple[TensorShape, ...]:
        shapes: list[TensorShape] = []
        for i, layer in enumerate(self.layers):
            in_shapes = []
            for src in layer.inputs:
                if src == NETWORK_INPUT:
                    in_shapes.append(self.input_shape)
                elif 0 <= src < i:
                    in_shapes.append(shapes[src])
                else:
                    raise ValueError(
                        f"layer {i} ({layer.op.kind.value}) references invalid input {src}"
                    )
            try:
                shapes.append(layer.op.out_shape(in_shapes))
            except ValueError as exc:
                raise ValueError(f"layer {i} ({layer.op.kind.value}): {exc}") from exc
        return tuple(shapes)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def output_shape(self) -> TensorShape:
        return self._shapes[-1]

    def layer_shapes(self) -> tuple[TensorShape, ...]:
        """Output shape of every layer, in order."""
        return self._shapes

    def layer_inputs(self, index: int) -> tuple[TensorShape, ...]:
        """Input shapes feeding layer ``index``."""
        layer = self.layers[index]
        return tuple(
            self.input_shape if src == NETWORK_INPUT else self._shapes[src]
            for src in layer.inputs
        )

    def walk(self) -> Iterator[tuple[Layer, tuple[TensorShape, ...], TensorShape]]:
        """Yield ``(layer, input_shapes, output_shape)`` in topo order.

        Each input-shape tuple equals :meth:`layer_inputs` and is built
        as its layer is reached, a one-input layer's without a loop. The
        network stores no per-layer input tuples: that would be one more
        object per layer of every network alive.
        """
        input_shape, shapes = self.input_shape, self._shapes
        for layer, out_shape in zip(self.layers, shapes):
            inputs = layer.inputs
            if len(inputs) == 1:
                src = inputs[0]
                in_shapes = (input_shape if src == NETWORK_INPUT else shapes[src],)
            else:
                in_shapes = tuple(
                    [input_shape if src == NETWORK_INPUT else shapes[src] for src in inputs]
                )
            yield layer, in_shapes, out_shape

    @cached_property
    def content_hash(self) -> str:
        """Name-independent SHA-256 of the structure, computed once per object.

        The digest covers ``repr(input_shape)`` and then each layer's
        :attr:`Layer.content_bytes`, in order. Two networks that differ
        only in ``name`` hash equal. The value rides along when the
        network is pickled or copied.
        """
        digest = hashlib.sha256(repr(self.input_shape).encode())
        for layer in self.layers:
            digest.update(layer.content_bytes)
        return digest.hexdigest()

    def __repr__(self) -> str:
        return f"Network({self.name!r}, {self.n_layers} layers, in={self.input_shape})"
