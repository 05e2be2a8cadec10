"""Whole-network work accounting: MACs, parameters, memory traffic.

Figure 2 of the paper characterizes the 118-network suite by FLOPs;
this module provides that accounting plus the per-layer primitive
breakdown the latency simulator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nnir.graph import Network
from repro.nnir.ops import ComputeKind, PrimitiveWork

__all__ = ["NetworkWork", "network_work"]


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


def network_work(network: Network, layers: dict[tuple, tuple] | None = None) -> NetworkWork:
    """Compute the full work profile of ``network``.

    ``layers`` is an optional caller-owned memo mapping ``(layer.op,
    in_shapes)`` to that layer's ``(primitives, param_count)``. A layer
    found there is not lowered again; a layer missing from it is lowered
    and stored. Ops and shapes are frozen dataclasses, so equal keys mean
    the same operator class with equal fields, and the same work. The
    totals are summed over the primitives in execution order either way,
    so a memo changes no value and no ``by_kind`` key order.
    """
    primitives: list[PrimitiveWork] = []
    params = 0
    for layer, in_shapes, _ in network.walk():
        key = (layer.op, in_shapes)
        work = None if layers is None else layers.get(key)
        if work is None:
            work = (tuple(layer.op.primitives(in_shapes)), layer.op.param_count(in_shapes))
            if layers is not None:
                layers[key] = work
        primitives += work[0]
        params += work[1]

    by_kind: dict[ComputeKind, int] = {}
    macs = 0
    activation_bytes = 0
    for p in primitives:
        macs += p.macs
        activation_bytes += p.input_bytes + p.output_bytes
        by_kind[p.kind] = by_kind.get(p.kind, 0) + p.macs
    return NetworkWork(
        macs=macs,
        params=params,
        activation_bytes=activation_bytes,
        primitives=tuple(primitives),
        by_kind=by_kind,
    )
