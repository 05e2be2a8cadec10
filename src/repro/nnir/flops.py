"""Whole-network work accounting: MACs, parameters, memory traffic.

Figure 2 of the paper characterizes the 118-network suite by FLOPs;
this module provides that accounting plus the per-layer primitive
breakdown the latency simulator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.nnir.graph import Network
from repro.nnir.ops import ComputeKind, Op, PrimitiveWork, TensorShape

__all__ = ["LayerWork", "NetworkWork", "network_work"]


@dataclass(frozen=True)
class NetworkWork:
    """Aggregate work of one network.

    Attributes
    ----------
    macs:
        Total multiply-accumulates for one inference (1 MAC = 2 FLOPs).
    params:
        Learned parameter count (== parameter bytes at int8).
    activation_bytes:
        Total activation traffic (reads + writes) at int8.
    primitives:
        Flat list of every hardware-kernel invocation, in execution
        order — the latency simulator's input.
    by_kind:
        MACs aggregated per :class:`ComputeKind`.
    """

    macs: int
    params: int
    activation_bytes: int
    primitives: tuple[PrimitiveWork, ...]
    by_kind: dict[ComputeKind, int]

    @property
    def flops(self) -> int:
        return 2 * self.macs

    @property
    def total_bytes(self) -> int:
        return self.params + self.activation_bytes


class LayerWork(NamedTuple):
    """One layer's work, the value of a :func:`network_work` memo entry.

    ``by_kind`` holds ``(kind, MACs)`` pairs in order of first appearance
    over ``primitives``.
    """

    primitives: tuple[PrimitiveWork, ...]
    params: int
    macs: int
    activation_bytes: int
    by_kind: tuple[tuple[ComputeKind, int], ...]


def _layer_work(op: Op, in_shapes: tuple[TensorShape, ...]) -> LayerWork:
    """Lower one layer and total its primitives."""
    primitives = tuple(op.primitives(in_shapes))
    macs = 0
    activation_bytes = 0
    by_kind: dict[ComputeKind, int] = {}
    for p in primitives:
        macs += p.macs
        activation_bytes += p.input_bytes + p.output_bytes
        by_kind[p.kind] = by_kind.get(p.kind, 0) + p.macs
    return LayerWork(
        primitives, op.param_count(in_shapes), macs, activation_bytes, tuple(by_kind.items())
    )


def network_work(network: Network, layers: dict[tuple, LayerWork] | None = None) -> NetworkWork:
    """Compute the full work profile of ``network``.

    The network's totals are sums of its layers' :class:`LayerWork`.
    ``layers`` is an optional caller-owned memo mapping ``(layer.op,
    in_shapes)`` to that layer's :class:`LayerWork`. A layer found there
    is neither lowered nor totalled again; a layer missing from it is
    lowered, totalled and stored. Ops and shapes are frozen dataclasses,
    so equal keys mean the same operator class with equal fields, and
    the same work. Integer sums do not depend on grouping, and merging
    each layer's first-appearance ``by_kind`` in layer order gives the
    first-appearance order over all primitives, so the totals and the
    ``by_kind`` key order are those of one pass over the primitives, with
    or without a memo.
    """
    primitives: list[PrimitiveWork] = []
    params = 0
    macs = 0
    activation_bytes = 0
    by_kind: dict[ComputeKind, int] = {}
    for layer, in_shapes, _ in network.walk():
        if layers is None:
            work = _layer_work(layer.op, in_shapes)
        else:
            key = (layer.op, in_shapes)
            work = layers.get(key)
            if work is None:
                work = layers[key] = _layer_work(layer.op, in_shapes)
        primitives += work.primitives
        params += work.params
        macs += work.macs
        activation_bytes += work.activation_bytes
        for kind, kind_macs in work.by_kind:
            by_kind[kind] = by_kind.get(kind, 0) + kind_macs
    return NetworkWork(
        macs=macs,
        params=params,
        activation_bytes=activation_bytes,
        primitives=tuple(primitives),
        by_kind=by_kind,
    )
