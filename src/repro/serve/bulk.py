"""The bulk query plane: generation-sized prediction for search consumers.

An evolutionary search asks the cost model about 1-2k mostly-similar
candidates per generation. Through the per-request ingress each would
pay a queue round trip, a from-scratch encode and its own tiny
``predict_block`` call. :class:`BulkQueryPlane` amortizes all three:

1. **content-hash dedup** — candidates are keyed by
   :func:`~repro.core.representation.network_content_hash` (name
   independent): a duplicate inside a call is predicted once, and a
   candidate revisited later hits the prediction LRU;
2. **encoding LRU** — encoded vectors are cached per content hash under
   an entry *and* byte budget, so survivors and elites never re-encode;
3. **layer-row memo** — a new candidate takes each layer's feature row
   from a memo keyed by ``(layer.op, in_shapes)``
   (:meth:`~repro.core.representation.NetworkEncoder.encode_network`),
   so a layer shared with any earlier candidate is encoded once per
   plane; the memo holds at most :data:`_MAX_LAYER_ROWS` rows;
4. **one kernel call** — the uncached, deduplicated rows of a block are
   binned once and scored by the service's kernel
   (:meth:`~repro.serve.service.PredictionService.score`) while the block
   walks the same fallback chain as a micro-batch.

Byte-identity contract: a bulk answer equals the per-request and
micro-batched answer for the same (network, device, model version) —
every amortization is a grouping change, never a numeric one. The
prediction cache is keyed by the answering model's (cluster, version),
so a hot swap is a new key and stale entries age out of the LRU.
Telemetry: ``serve.bulk.<stat>`` for every key of :attr:`stats`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping, Sequence

import numpy as np

from repro import telemetry
from repro.core.representation import network_content_hash
from repro.ml.binning import apply_bin_edges
from repro.nnir.graph import Network
from repro.serve.registry import DEFAULT_CLUSTER
from repro.serve.resilience import TIER_DEFAULT, TIER_STATIC
from repro.serve.service import (
    MISS_UNENCODABLE, PredictionService, PredictRequest, PredictResponse,
)

__all__ = ["BulkQueryPlane"]

_STAT_KEYS = (
    "calls", "requests", "predicted", "pred_hits", "dedup_hits",
    "enc_hits", "enc_misses", "enc_evictions", "unencodable",
)

#: Bound of a plane's layer-row memo. One 8 x 256 search meets ~370
#: distinct layers; past the bound the oldest rows are dropped first.
_MAX_LAYER_ROWS = 1 << 14


class BulkQueryPlane:
    """Generation-at-a-time facade over a :class:`PredictionService`.

    The plane reuses the service's warm-signature cache, router and
    scoring kernel, and never mutates the service. ``max_encodings`` and
    the optional ``max_encoding_bytes`` budget the encoding LRU (oldest
    evicted first); ``max_predictions`` budgets the (network, model
    version, signature) prediction LRU. The layer-row memo belongs to
    the plane, so it is freed with it.
    """

    def __init__(
        self,
        service: PredictionService,
        *,
        max_encodings: int = 4096,
        max_encoding_bytes: int | None = None,
        max_predictions: int = 1 << 16,
    ) -> None:
        if max_encodings < 1:
            raise ValueError("max_encodings must be >= 1")
        if max_predictions < 1:
            raise ValueError("max_predictions must be >= 1")
        self.service = service
        self.max_encodings = max_encodings
        self.max_encoding_bytes = max_encoding_bytes
        self.max_predictions = max_predictions
        self._enc_lru: OrderedDict[str, np.ndarray] = OrderedDict()
        self._enc_bytes = 0
        self._layer_rows: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._pred_lru: OrderedDict[tuple, float] = OrderedDict()
        self._lock = threading.Lock()
        self.stats: dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)

    # -- cache internals ------------------------------------------------

    def _count(self, key: str, value: int = 1) -> None:
        self.stats[key] += value
        telemetry.count(f"serve.bulk.{key}", value)

    def _encoding(self, network: Network, content_hash: str) -> np.ndarray | None:
        """The cached (or freshly computed) encoding of one candidate.

        Returns ``None`` when the network is deeper than the suite
        encoder (an ``unencodable`` miss, not cached). A miss encodes
        under the plane's lock, which guards the layer-row memo.
        """
        with self._lock:
            hit = self._enc_lru.get(content_hash)
            if hit is not None:
                self._enc_lru.move_to_end(content_hash)
                self._count("enc_hits")
                return hit
            self._count("enc_misses")
            try:
                built = self.service.encoder.encode_network(network, self._layer_rows)
            except ValueError:
                self._count("unencodable")
                return None
            finally:
                while len(self._layer_rows) > _MAX_LAYER_ROWS:
                    self._layer_rows.popitem(last=False)
            self._enc_lru[content_hash] = built
            self._enc_bytes += built.nbytes
            while len(self._enc_lru) > self.max_encodings or (
                self.max_encoding_bytes is not None
                and self._enc_bytes > self.max_encoding_bytes
                and len(self._enc_lru) > 1
            ):
                _, evicted = self._enc_lru.popitem(last=False)
                self._enc_bytes -= evicted.nbytes
                self._count("enc_evictions")
        return built

    def _remember(self, predictions: Mapping[tuple, float]) -> None:
        with self._lock:
            for key, latency_ms in predictions.items():
                self._pred_lru[key] = latency_ms
                self._pred_lru.move_to_end(key)
            while len(self._pred_lru) > self.max_predictions:
                self._pred_lru.popitem(last=False)

    def cache_info(self) -> dict[str, int]:
        """Current cache occupancy (entries and encoded bytes)."""
        with self._lock:
            return {
                "encodings": len(self._enc_lru),
                "encoding_bytes": self._enc_bytes,
                "layer_rows": len(self._layer_rows),
                "predictions": len(self._pred_lru),
            }

    # -- the bulk path --------------------------------------------------

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
        equal to the byte to the per-request answer. A candidate missing
        from the encoding LRU is encoded with the plane's layer-row memo,
        so only layers no earlier candidate had are encoded. The block
        walks ``cluster``'s chain like one micro-batch group: the first
        tier that answers serves every row, cache hits included, with one
        kernel call over the uncached, deduplicated rows; a refusing or
        failing tier hands the whole block on, down to the static tier.
        """
        start = time.perf_counter()
        self._count("calls")
        self._count("requests", len(networks))
        service = self.service
        chain = service.router.chain(cluster)  # one snapshot for the whole block
        hashes = [network_content_hash(n) for n in networks]
        flats: dict[str, np.ndarray | None] = {}  # content -> encoded row, per call
        responses: list[PredictResponse | None] = [None] * len(networks)
        pending = list(range(len(networks)))

        def request(i: int) -> PredictRequest:
            return PredictRequest(networks[i].name, device, cluster, signature_ms)

        for n, (tier, loaded) in enumerate(chain):
            if tier == TIER_STATIC or not pending:
                break
            signature = service.signature_vector(loaded, device, signature_ms)
            if n == 0:  # the routed model decides whether the device is servable
                if tier == TIER_DEFAULT:
                    telemetry.count("serve.route.fallback", len(pending))
                if isinstance(signature, str):
                    for i in pending:
                        responses[i] = service.miss(request(i), signature)
                    pending = []
            if isinstance(signature, str):
                continue
            # Prediction-cache hits and within-call dedup under this model.
            model_key = loaded.key
            sig_key = hashlib.sha256(signature.tobytes()).hexdigest()[:16]
            hits: dict[int, float] = {}
            first_seen: dict[str, int] = {}
            dups = 0
            with self._lock:
                for i in pending:
                    key = (hashes[i], model_key, sig_key)
                    cached = self._pred_lru.get(key)
                    if cached is not None:
                        self._pred_lru.move_to_end(key)
                        hits[i] = cached
                    elif hashes[i] in first_seen:
                        dups += 1
                    else:
                        first_seen[hashes[i]] = i
            # Encode the unique misses once per call; unencodable rows
            # miss here.
            for content, i in first_seen.items():
                if content not in flats:
                    flats[content] = self._encoding(networks[i], content)
            for i in pending:
                if i not in hits and flats[hashes[i]] is None:
                    responses[i] = service.miss(request(i), MISS_UNENCODABLE)
            pending = [i for i in pending if responses[i] is None]
            order = [c for c in first_seen if flats[c] is not None]
            net_codes = (
                apply_bin_edges(np.stack([flats[c] for c in order]), loaded.net_edges)
                if order
                else np.empty((0, 0), dtype=np.uint8)
            )
            hw_codes = apply_bin_edges(signature[None, :], loaded.hw_edges)[0]
            pred = service.score(loaded, net_codes, hw_codes, tier)
            if pred is None:
                continue  # the whole block falls to the next tier
            self._count("pred_hits", len(hits))
            self._count("dedup_hits", dups)
            self._count("predicted", len(order))
            predicted = dict(zip(order, map(float, pred)))
            self._remember({(c, model_key, sig_key): v for c, v in predicted.items()})
            for i in pending:
                responses[i] = PredictResponse(
                    networks[i].name, device, cluster,
                    loaded.checkpoint.cluster, loaded.checkpoint.version,
                    hits[i] if i in hits else predicted[hashes[i]], served_by=tier,
                )
            pending = []
        for i in pending:
            responses[i] = service.static_response(chain, request(i))
        telemetry.observe(
            "serve.bulk.block_ms", (time.perf_counter() - start) * 1e3
        )
        return responses  # type: ignore[return-value]
