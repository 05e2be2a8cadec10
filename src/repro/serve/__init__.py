"""Latency-prediction serving layer.

The collaborative cost model only pays off if a device can ask "how
fast is network N on device D" at production rates. This package turns
the trained model into a long-lived, in-process service:

- :mod:`repro.serve.registry` — versioned, content-addressed model
  checkpoints (SHA-256 keys shared with :mod:`repro.cache`) with
  per-device-cluster routing and atomic publish, so a collaborative
  retrain hot-swaps into the serving path without a restart;
- :mod:`repro.serve.batcher` — a thread-safe micro-batching queue that
  flushes as soon as its worker is idle, coalescing what arrived during
  the previous flush (up to ``max_batch`` requests; a positive
  ``max_wait_ms`` lingers for batch-mates instead);
- :mod:`repro.serve.service` — the :class:`PredictionService` facade:
  sync / future / asyncio submission, warm device-signature cache,
  typed miss responses, hot swap via
  :meth:`~repro.serve.service.PredictionService.refresh`, and the two
  pieces every predict path shares — the fallback chain
  (:meth:`~repro.serve.service.Router.chain`) and the scoring kernel
  (:meth:`~repro.serve.service.PredictionService.score`, one flat-SoA
  ``predict_block`` call per routed block);
- :mod:`repro.serve.resilience` — bounded admission, circuit breakers,
  the static fallback estimator and seeded serving chaos;
- :mod:`repro.serve.loadgen` — a deterministic closed- and open-loop
  load generator (seeded request mix of warm / cold devices and
  unknown-network misses) reporting p50/p99 latency and throughput;
- :mod:`repro.serve.bulk` — the :class:`BulkQueryPlane`: a
  generation-at-a-time query path for architecture-search consumers
  with content-hash dedup, an encoded-row LRU, incremental re-encoding
  of mutated children, and one kernel call per block.

Determinism contract: a prediction depends only on the (network,
hardware-signature, model-version) triple — never on how requests were
coalesced or which path asked. Single-request, micro-batched and bulk
predictions are byte-identical (``tests/test_serve.py``,
``tests/test_serve_bulk.py`` and the ``serve`` bench gate assert this).
"""

from repro.serve.batcher import BatchStats, MicroBatcher
from repro.serve.bulk import BulkQueryPlane
from repro.serve.loadgen import (
    LoadProfile,
    LoadReport,
    build_requests,
    run_load,
)
from repro.serve.registry import DEFAULT_CLUSTER, ModelCheckpoint, ModelRegistry
from repro.serve.service import PredictionService, PredictRequest, PredictResponse

__all__ = [
    "DEFAULT_CLUSTER",
    "BatchStats",
    "BulkQueryPlane",
    "LoadProfile",
    "LoadReport",
    "MicroBatcher",
    "ModelCheckpoint",
    "ModelRegistry",
    "PredictRequest",
    "PredictResponse",
    "PredictionService",
    "build_requests",
    "run_load",
]
