"""The bulk query plane: generation-sized prediction for search consumers.

An evolutionary search asks the cost model about 1-2k mostly-similar
candidates per generation. Through the per-request ingress each would
pay a queue round trip, a from-scratch encode and its own tiny
``predict_block`` call. :class:`BulkQueryPlane` is a thin front over the
service that amortizes all three:

1. **content-hash dedup** — candidates are keyed by
   :func:`~repro.core.representation.network_content_hash` (name
   independent): a duplicate inside a call is answered once, and the
   answer is handed to each duplicate under its own name;
2. **layer-row memo** — each distinct candidate takes each layer's
   feature row from a memo keyed by ``(layer.op, in_shapes)``
   (:meth:`~repro.core.representation.NetworkEncoder.encode_network`),
   so a layer shared with any earlier candidate is encoded once per
   plane; the memo holds at most :data:`_MAX_LAYER_ROWS` rows. A
   candidate deeper than the encoder becomes an ``unencodable`` miss;
3. **one walk** — the distinct rows are answered by
   :meth:`~repro.serve.service.PredictionService.answer`, the walk a
   micro-batch flush takes: one kernel call per tier for the block.

Byte-identity contract: a bulk answer equals the per-request and
micro-batched answer for the same (network, device, model version) —
every amortization is a grouping change, never a numeric one. The plane
keeps no prediction or encoding across calls, only layer rows, which no
model version changes, so a hot swap needs no invalidation.

Telemetry: ``serve.bulk.<stat>`` for every key of :attr:`BulkQueryPlane.
stats` but the two that stay 0. The distinct rows also count in
``serve.*`` like a micro-batch's rows; a duplicate counts only in
``serve.bulk.requests`` and ``serve.bulk.dedup_hits``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping, Sequence

import numpy as np

from repro import telemetry
from repro.core.representation import network_content_hash
from repro.nnir.graph import Network
from repro.serve.registry import DEFAULT_CLUSTER
from repro.serve.service import (
    MISS_UNENCODABLE, PredictionService, PredictRequest, PredictResponse,
)

__all__ = ["BulkQueryPlane"]

#: Per call, ``requests`` is ``dedup_hits`` plus the distinct rows, each
#: encoded once (``enc_misses``); ``predicted`` counts the distinct rows
#: answered with a latency and ``unencodable`` those too deep to encode.
#: ``pred_hits`` and ``enc_hits`` stay 0, as the plane caches no
#: prediction or encoding; they remain so that hit ratios read from them
#: still exist.
_STAT_KEYS = (
    "calls", "requests", "predicted", "pred_hits", "dedup_hits",
    "enc_hits", "enc_misses", "unencodable",
)

#: Bound of a plane's layer-row memo. One 8 x 256 search meets ~370
#: distinct layers; past the bound the oldest rows are dropped first.
_MAX_LAYER_ROWS = 1 << 14


class BulkQueryPlane:
    """Generation-at-a-time facade over a :class:`PredictionService`.

    The plane answers through the service's walk (its warm-signature
    cache, router and scoring kernel) and never mutates the service.
    The layer-row memo belongs to the plane, so it is freed with it.
    """

    def __init__(self, service: PredictionService) -> None:
        self.service = service
        self._layer_rows: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self.stats: dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)

    def cache_info(self) -> dict[str, int]:
        """Current occupancy of the layer-row memo."""
        with self._lock:
            return {"layer_rows": len(self._layer_rows)}

    def predict_block(
        self,
        networks: Sequence[Network],
        device: str,
        *,
        cluster: str = DEFAULT_CLUSTER,
        signature_ms: Mapping[str, float] | None = None,
    ) -> list[PredictResponse]:
        """Predict one device's latency for a block of candidates.

        Returns one :class:`PredictResponse` per network, in input order,
        equal to the byte to the per-request answer. Each distinct
        candidate is encoded with the plane's layer-row memo, under the
        plane's lock, so only layers no earlier candidate had are
        encoded; the distinct rows then walk ``cluster``'s chain as one
        block (:meth:`PredictionService.answer`). A duplicate gets its
        first occurrence's answer under its own name.
        """
        start = time.perf_counter()
        slots: list[int] = []  # per network: its row among the distinct ones
        first: dict[str, int] = {}
        unique: list[Network] = []
        for network in networks:
            content = network_content_hash(network)
            slot = first.get(content)
            if slot is None:
                slot = first[content] = len(unique)
                unique.append(network)
            slots.append(slot)
        encode = self.service.encoder.encode_network
        sources: list[np.ndarray | str] = []
        unencodable = 0
        with self._lock:
            rows = self._layer_rows
            for network in unique:
                try:
                    sources.append(encode(network, rows))
                except ValueError:  # deeper than the encoder
                    sources.append(MISS_UNENCODABLE)
                    unencodable += 1
                while len(rows) > _MAX_LAYER_ROWS:
                    rows.popitem(last=False)
        answers = self.service.answer(
            [PredictRequest(n.name, device, cluster, signature_ms) for n in unique], sources
        )
        responses = []
        for network, slot in zip(networks, slots):
            answer = answers[slot]
            if answer.network != network.name:
                answer = dataclasses.replace(answer, network=network.name)
            responses.append(answer)
        with self._lock:
            for key, value in (
                ("calls", 1),
                ("requests", len(networks)),
                ("predicted", sum(answer.ok for answer in answers)),
                ("dedup_hits", len(networks) - len(unique)),
                ("enc_misses", len(unique)),
                ("unencodable", unencodable),
            ):
                self.stats[key] += value
                telemetry.count(f"serve.bulk.{key}", value)
        telemetry.observe("serve.bulk.block_ms", (time.perf_counter() - start) * 1e3)
        return responses
