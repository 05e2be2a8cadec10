"""The long-lived, in-process latency-prediction service.

:class:`PredictionService` answers "how fast is network N on device D"
at production rates: requests enter a thread-safe ingress (or the
asyncio facade), are coalesced by the
:class:`~repro.serve.batcher.MicroBatcher`, and each flush is answered
block-wise. Every predict path — one request, a micro-batch, a bulk
block (:class:`~repro.serve.bulk.BulkQueryPlane`) — answers through one
walk, :meth:`PredictionService.answer`, over rows whose networks are
already resolved (a suite row, an encoding or a miss reason). The walk
is built from two pieces:

- **the chain** — :meth:`Router.chain` lists a cluster's fallback
  candidates against one atomic snapshot of the model tables:
  ``primary`` → ``stale`` (the cluster's previous version) →
  ``default`` (the cross-cluster model) → ``static`` (the publish-time
  estimator of :mod:`repro.serve.resilience`), always last;
- **the kernel** — :meth:`PredictionService.score` is the only code
  that consults a model's breaker, draws the injected ``predict``
  fault, calls :meth:`~repro.ml.gbt.GradientBoostedTrees.predict_block`,
  records the outcome and counts ``served_by`` / ``fallback`` tiers.

A row whose source is a miss reason (``unknown_network``,
``unencodable``) misses before routing, on any device. The rest go down
their chain as one block. The first model (the *routed* one) decides
whether a device is servable at all: a miss ``cold_device`` without
warm or shipped measurements, ``signature`` with some missing. A tier
whose breaker refuses or whose call fails passes the whole block on; a
fallback model that cannot see a device's signature passes only that
device's rows on. What no model answers gets the static tier, else
misses ``degraded`` (``no_model`` when the chain has no model). Misses
are *responses*, not exceptions.

Each loaded model caches the bin codes of the whole encoded suite, so a
request only pays for binning its signature; :meth:`~PredictionService.
refresh` hot-swaps versions by installing a new :class:`Router` with one
reference assignment. Determinism contract: a prediction depends only on
(network encoding, signature vector, model version) — every per-row step
is row-independent, so batched and single requests are byte-identical,
and with no faults and no shedding every answer is ``primary``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.cost_model import CostModel
from repro.core.representation import EncodedSuite, NetworkEncoder, shared_encoded_suite
from repro.dataset.dataset import LatencyDataset
from repro.ml.binning import apply_bin_edges
from repro.nnir.graph import Network
from repro.serve.batcher import SHED_OVERLOADED, MicroBatcher
from repro.serve.registry import DEFAULT_CLUSTER, ModelCheckpoint, ModelRegistry, RegistryIOError
from repro.serve.resilience import (
    TIER_DEFAULT, TIER_PRIMARY, TIER_STALE, TIER_STATIC,
    CircuitBreaker, ResilienceConfig, StaticEstimator,
)

__all__ = ["LoadedModel", "PredictRequest", "PredictResponse", "PredictionService", "Router"]

#: Miss reasons carried on error responses (and telemetry suffixes).
MISS_UNKNOWN_NETWORK = "unknown_network"
MISS_COLD_DEVICE = "cold_device"
MISS_SIGNATURE = "signature"
MISS_NO_MODEL = "no_model"
MISS_UNENCODABLE = "unencodable"
MISS_OVERLOADED = "overloaded"
MISS_DEADLINE = "deadline_exceeded"
MISS_DEGRADED = "degraded"

#: Miss reasons produced by shedding / degraded serving (not data problems).
RESILIENCE_MISSES = (MISS_OVERLOADED, MISS_DEADLINE, MISS_DEGRADED)


@dataclass(frozen=True)
class PredictRequest:
    """One latency query.

    ``network`` names a suite network; ``cluster`` routes it (default:
    the global model). A cold device ships ``signature_ms`` (network
    name -> ms; it overrides the warm cache). ``definition`` is an
    optional ad-hoc network (a search candidate, say) the flush encodes
    from scratch when ``network`` is outside the suite — the reference
    path the bulk plane amortizes; a definition deeper than the suite
    encoder misses ``unencodable``.
    """

    network: str
    device: str
    cluster: str = DEFAULT_CLUSTER
    signature_ms: Mapping[str, float] | None = None
    definition: Network | None = None


@dataclass(frozen=True)
class PredictResponse:
    """The service's answer to one :class:`PredictRequest`.

    ``latency_ms`` is ``None`` exactly when ``error`` is set;
    ``served_cluster`` names the cluster whose model (or static
    estimate) answered; ``served_by`` names the fallback tier that
    answered (see :data:`repro.serve.resilience.TIERS`) and is ``None``
    on misses.
    """

    network: str
    device: str
    cluster: str
    served_cluster: str | None
    model_version: int | None
    latency_ms: float | None
    error: str | None = None
    served_by: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class LoadedModel:
    """One hot-swappable serving model with its precomputed suite codes."""

    checkpoint: ModelCheckpoint
    model: CostModel
    net_codes: np.ndarray  # uint8 (n_networks, net_width), read-only
    net_edges: list[np.ndarray] = field(repr=False)
    hw_edges: list[np.ndarray] = field(repr=False)

    @property
    def signature_names(self) -> tuple[str, ...]:
        return self.checkpoint.signature_names

    @property
    def key(self) -> tuple[str, int]:
        return (self.checkpoint.cluster, self.checkpoint.version)


#: One chain element: a tier and what answers for it — a model, or the
#: estimator for the ``static`` tier.
Candidate = tuple[str, "LoadedModel | StaticEstimator"]


@dataclass(frozen=True)
class Router:
    """One atomic snapshot of the serving tables and the chains over it."""

    models: Mapping[str, LoadedModel] = field(default_factory=dict)
    stale: Mapping[str, LoadedModel] = field(default_factory=dict)
    static: Mapping[str, StaticEstimator] = field(default_factory=dict)

    def chain(self, cluster: str) -> list[Candidate]:
        """``cluster``'s fallback candidates: primary → stale → default → static.

        Absent tiers are left out. ``default`` backs every other
        cluster; the static tier is the cluster's own estimate, else
        the default cluster's, and is always the last element.
        """
        default = self.models.get(DEFAULT_CLUSTER) if cluster != DEFAULT_CLUSTER else None
        static = self.static.get(cluster) or self.static.get(DEFAULT_CLUSTER)
        return [
            (tier, candidate)
            for tier, candidate in (
                (TIER_PRIMARY, self.models.get(cluster)),
                (TIER_STALE, self.stale.get(cluster)),
                (TIER_DEFAULT, default),
                (TIER_STATIC, static),
            )
            if candidate is not None
        ]


class PredictionService:
    """Serves latency predictions from registry checkpoints.

    ``suite`` is the population requests may name (encoded and quantized
    once via :func:`~repro.core.representation.shared_encoded_suite`);
    every device measured in ``dataset`` starts warm. ``max_batch`` /
    ``max_wait_ms`` tune the :class:`~repro.serve.batcher.MicroBatcher`
    (default: flush as soon as its worker is idle; a positive
    ``max_wait_ms`` lingers for batch-mates);
    ``resilience`` bundles the admission bound, deadline budget, breaker
    thresholds and fault plan (default: the clean-path identity). The
    service serves from construction and is a context manager;
    :meth:`close` drains the queue. :attr:`router` is the current
    :class:`Router` snapshot.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        suite: Iterable[Network],
        *,
        dataset: LatencyDataset | None = None,
        max_batch: int = 64,
        max_wait_ms: float = 0.0,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        self.registry = registry
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self._enc: EncodedSuite = shared_encoded_suite(list(suite))
        self._warm: dict[str, dict[str, float]] = {}
        if dataset is not None:
            self.warm_from_dataset(dataset)
        self.router = Router()
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._breaker_clock = time.monotonic  # injectable for tests
        self.refresh()
        self._batcher: MicroBatcher[PredictRequest, PredictResponse] = MicroBatcher(
            self._flush,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue_depth=self.resilience.max_queue_depth,
            deadline_ms=self.resilience.deadline_ms,
            on_shed=self._shed_response,
            fault_plan=self.resilience.fault_plan,
            name="service",
        )

    @property
    def encoder(self) -> NetworkEncoder:
        """The suite's network encoder (ad-hoc definitions encode with it)."""
        return self._enc.encoder

    # -- warm-signature cache -------------------------------------------

    def warm_from_dataset(self, dataset: LatencyDataset) -> int:
        """Cache every measured (device, network) latency as warm state.

        Returns the number of devices cached. NaN cells (quarantined /
        partial campaigns) are skipped, so a device missing part of a
        model's signature set still misses cleanly at request time.
        """
        for i, device in enumerate(dataset.device_names):
            row = dataset.latencies_ms[i]
            measured = {
                network: float(row[j])
                for j, network in enumerate(dataset.network_names)
                if not np.isnan(row[j])
            }
            if measured:
                self._warm[device] = measured
        return len(self._warm)

    def warm_device(self, device: str, measurements: Mapping[str, float]) -> None:
        """Add or extend one device's cached measurements."""
        self._warm.setdefault(device, {}).update(
            {str(k): float(v) for k, v in measurements.items()}
        )

    def is_warm(self, device: str) -> bool:
        return device in self._warm

    # -- model lifecycle ------------------------------------------------

    def _prepare(self, checkpoint: ModelCheckpoint, model: CostModel) -> LoadedModel:
        net_width = model.network_encoder.width
        if net_width != self._enc.matrix.shape[1]:
            raise ValueError(
                f"checkpoint {checkpoint.cluster} v{checkpoint.version} encodes "
                f"networks at width {net_width}, but the serving suite encodes "
                f"at width {self._enc.matrix.shape[1]} — it was trained on a "
                "different population"
            )
        edges = model.regressor.bin_edges  # type: ignore[union-attr]
        net_codes = apply_bin_edges(self._enc.matrix, edges[:net_width])
        net_codes.setflags(write=False)
        return LoadedModel(checkpoint, model, net_codes, edges[:net_width], edges[net_width:])

    def _breaker(self, key: tuple[str, int]) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = self._breakers[key] = CircuitBreaker(
                    f"{key[0]}-v{key[1]}",
                    failure_threshold=self.resilience.breaker_threshold,
                    reset_after_s=self.resilience.breaker_reset_s,
                    clock=self._breaker_clock,
                )
            return breaker

    def refresh(self) -> dict[str, int]:
        """Load newly published checkpoints and hot-swap them in.

        Returns ``{cluster: version}`` for every cluster whose model
        changed. The swap installs a whole new :class:`Router` with one
        assignment, so a batch routes against the old or the new tables,
        never a mix. A corrupt latest checkpoint is evicted and the prior
        version loaded; a replaced version stays on as the ``stale``
        tier, and static estimates are re-read from the manifest. A
        transient :class:`~repro.serve.registry.RegistryIOError` keeps
        the current router and returns ``{}``.
        """
        current = self.router
        table: dict[str, LoadedModel] = {}
        swapped: dict[str, int] = {}
        stale = dict(current.stale)
        static = dict(current.static)
        try:
            for cluster in self.registry.clusters():
                serving = current.models.get(cluster)
                checkpoint = self.registry.latest(cluster)
                if checkpoint is not None:
                    estimator = StaticEstimator.from_metadata(checkpoint.metadata, cluster)
                    if estimator is not None:
                        static[cluster] = estimator
                while checkpoint is not None:
                    if (
                        serving is not None
                        and serving.checkpoint.version == checkpoint.version
                        and serving.checkpoint.digest == checkpoint.digest
                    ):
                        table[cluster] = serving
                        break
                    model = self.registry.load(checkpoint)
                    if model is None:  # corrupt: evicted, try the prior version
                        self._breaker((cluster, checkpoint.version)).record_failure()
                        checkpoint = self.registry.latest(cluster)
                        continue
                    table[cluster] = self._prepare(checkpoint, model)
                    swapped[cluster] = checkpoint.version
                    if serving is not None and serving.checkpoint.version != checkpoint.version:
                        stale[cluster] = serving
                    telemetry.count("serve.hot_swap")
                    break
        except RegistryIOError:
            telemetry.count("serve.resilience.registry_error")
            return {}
        # A cluster whose checkpoints all became unloadable keeps serving
        # from memory — its last good model moves to the stale tier.
        for cluster, loaded in current.models.items():
            if cluster not in table:
                stale[cluster] = loaded
        self.router = Router(table, stale, static)
        return swapped

    def model_versions(self) -> dict[str, int]:
        """Currently serving ``{cluster: version}``."""
        return {
            cluster: loaded.checkpoint.version
            for cluster, loaded in sorted(self.router.models.items())
        }

    def health(self) -> dict[str, object]:
        """Readiness snapshot: ``ok`` (models loaded, breakers closed),
        ``degraded`` (a breaker is not closed, or only fallback tiers
        remain) or ``unready`` (closed, or nothing to serve from)."""
        router = self.router
        with self._breaker_lock:
            breakers = {b.name: b.state for b in self._breakers.values()}
        accepting = self._batcher.alive and not self._batcher.closed
        models = self.model_versions()
        if not accepting or not (models or router.stale or router.static):
            status = "unready"
        elif models and all(state == "closed" for state in breakers.values()):
            status = "ok"
        else:
            status = "degraded"
        stats = self._batcher.stats()
        return {
            "status": status,
            "accepting": accepting,
            "queue_depth": self._batcher.queue_depth,
            "models": models,
            "stale": sorted(router.stale),
            "static": sorted(router.static),
            "breakers": breakers,
            "shed_overloaded": stats.shed_overloaded,
            "shed_deadline": stats.shed_deadline,
        }

    # -- request ingress ------------------------------------------------

    def submit(
        self, request: PredictRequest, *, deadline_ms: float | None = None
    ) -> "Future[PredictResponse]":
        """Enqueue one request; the future resolves to its response.

        ``deadline_ms`` overrides the service-wide deadline budget;
        shed requests resolve to typed miss responses.
        """
        return self._batcher.submit(request, deadline_ms=deadline_ms)

    def predict(
        self,
        request: PredictRequest,
        timeout: float | None = None,
        *,
        deadline_ms: float | None = None,
    ) -> PredictResponse:
        """Blocking single prediction: :meth:`predict_many` of one request."""
        return self.predict_many([request], timeout, deadline_ms=deadline_ms)[0]

    def predict_many(
        self,
        requests: Sequence[PredictRequest],
        timeout: float | None = None,
        *,
        deadline_ms: float | None = None,
    ) -> list[PredictResponse]:
        """Submit a burst and gather every response, in request order.

        ``timeout`` is one shared budget for the whole burst; exceeding
        it raises ``TimeoutError``. No call blocks past a request's
        deadline budget: an unanswered request resolves to a
        ``deadline_exceeded`` miss (``serve.shed.abandoned``).
        """
        budget_ms = deadline_ms if deadline_ms is not None else self.resilience.deadline_ms
        overall = None if timeout is None else time.monotonic() + timeout
        pending = []
        for request in requests:
            deadline_at = None if budget_ms is None else time.monotonic() + budget_ms / 1e3
            pending.append((request, self.submit(request, deadline_ms=deadline_ms), deadline_at))
        responses: list[PredictResponse] = []
        for request, future, deadline_at in pending:
            now = time.monotonic()
            wait = None if overall is None else max(overall - now, 0.0)
            deadline_bound = False
            if deadline_at is not None:
                remaining = max(deadline_at - now, 0.0)
                if wait is None or remaining <= wait:
                    wait = remaining
                    deadline_bound = True
            try:
                responses.append(future.result(wait))
            except FuturesTimeoutError:
                if not deadline_bound:
                    raise
                future.cancel()
                telemetry.count("serve.shed.abandoned")
                responses.append(self.miss(request, MISS_DEADLINE))
        return responses

    async def predict_async(self, request: PredictRequest) -> PredictResponse:
        """Asyncio facade over the thread-safe ingress."""
        return await asyncio.wrap_future(self.submit(request))

    def close(self) -> None:
        """Drain the queue (every accepted future resolves) and stop."""
        self._batcher.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def batch_stats(self):
        """The batcher's lifetime accounting (see ``BatchStats``)."""
        return self._batcher.stats()

    # -- the kernel and the chain's ends ---------------------------------

    def score(
        self, loaded: LoadedModel, net_codes: np.ndarray, hw_codes: np.ndarray, tier: str
    ) -> np.ndarray | None:
        """The scoring kernel: one breaker-guarded ``predict_block`` call.

        Returns one latency per ``net_codes`` row, or ``None`` when the
        model's breaker refuses or the (possibly injected) call fails —
        the caller then hands the block to its next tier. An empty block
        is answered before the breaker, so it never takes a half-open
        probe.
        """
        if not len(net_codes):
            return np.empty(0)
        breaker = self._breaker(loaded.key)
        if not breaker.allow():
            return None
        entity = f"{loaded.key[0]}-v{loaded.key[1]}"
        fault = self.resilience.fault_plan
        try:
            if fault is not None and fault.draw("predict", entity):
                raise RuntimeError(f"injected predict failure: {entity}")
            pred = loaded.model.regressor.predict_block(net_codes, hw_codes)
        except Exception:
            telemetry.count("serve.resilience.predict_error")
            breaker.record_failure()
            return None
        breaker.record_success()
        telemetry.count(f"serve.served_by.{tier}", len(pred))
        if tier != TIER_PRIMARY:
            telemetry.count(f"serve.fallback.{tier}", len(pred))
        return pred

    def _signature_values(
        self, names: Sequence[str], device: str, signature_ms: Mapping[str, float] | None
    ) -> list[float] | str:
        """The signature's values in ``names`` order (finite or not), or a miss reason."""
        source = signature_ms if signature_ms is not None else self._warm.get(device)
        if source is None:
            return MISS_COLD_DEVICE
        try:
            return [float(source[n]) for n in names]
        except KeyError:
            return MISS_SIGNATURE

    def _signature_block(
        self, loaded: LoadedModel, requests: Sequence[PredictRequest], rows: list[int]
    ) -> tuple[list[int], np.ndarray, dict[int, str]]:
        """``rows``' signature vectors for ``loaded``, built as one block.

        Returns the rows with a servable signature, their vectors
        stacked in that order, and a miss reason for every other row:
        ``cold_device`` without measurements, ``signature`` with one
        missing or not finite.
        """
        names = loaded.signature_names
        ready: list[int] = []
        values: list[list[float]] = []
        misses: dict[int, str] = {}
        for i in rows:
            request = requests[i]
            row = self._signature_values(names, request.device, request.signature_ms)
            if isinstance(row, str):
                misses[i] = row
            else:
                ready.append(i)
                values.append(row)
        block = np.array(values).reshape(len(values), len(names))
        if not np.isfinite(block).all():
            finite = np.isfinite(block).all(axis=1)
            for j in np.flatnonzero(~finite):
                misses[ready[j]] = MISS_SIGNATURE
            ready = [i for i, ok in zip(ready, finite) if ok]
            block = block[finite]
        return ready, block, misses

    def static_response(
        self, chain: Sequence[Candidate], request: PredictRequest
    ) -> PredictResponse:
        """The chain's end for a row no model answered.

        The static tier answers when the chain has one and it knows the
        network; otherwise the row misses ``degraded`` — or
        ``no_model`` when the chain holds no model at all.
        """
        tier, estimator = chain[-1] if chain else (None, None)
        if tier == TIER_STATIC:
            signature = request.signature_ms
            if signature is None:
                signature = self._warm.get(request.device)
            value = estimator.predict_ms(request.network, signature)
            if value is not None:
                telemetry.count("serve.fallback.static")
                telemetry.count(f"serve.served_by.{TIER_STATIC}")
                return PredictResponse(
                    request.network, request.device, request.cluster,
                    estimator.cluster, None, value, served_by=TIER_STATIC,
                )
        modelled = bool(chain) and chain[0][0] != TIER_STATIC
        return self.miss(request, MISS_DEGRADED if modelled else MISS_NO_MODEL)

    def miss(self, request: PredictRequest, reason: str) -> PredictResponse:
        """A typed miss response for ``request`` (counted as ``serve.miss.*``)."""
        telemetry.count(f"serve.miss.{reason}")
        return PredictResponse(
            request.network, request.device, request.cluster, None, None, None, error=reason
        )

    def _shed_response(self, request: PredictRequest, reason: str) -> PredictResponse:
        """Map a batcher shed (overload / deadline) to a typed miss response."""
        return self.miss(request, MISS_OVERLOADED if reason == SHED_OVERLOADED else MISS_DEADLINE)

    # -- the walk -------------------------------------------------------

    def _flush(self, requests: list[PredictRequest]) -> list[PredictResponse]:
        """Answer one micro-batch: resolve each row's network, then :meth:`answer`."""
        start = time.perf_counter()
        responses = self.answer(requests, [self._network_source(r) for r in requests])
        telemetry.observe("serve.predict_ms", (time.perf_counter() - start) * 1e3)
        return responses

    def answer(
        self, requests: Sequence[PredictRequest], sources: Sequence[int | np.ndarray | str]
    ) -> list[PredictResponse]:
        """Answer rows whose networks are resolved: one walk per chain.

        ``sources[i]`` is request ``i``'s suite row index, its encoded
        network vector, or a miss reason that answers the row at once.
        The micro-batch flush and the bulk plane both answer here. Rows
        group by the chain their cluster routes to — clusters that
        share every tier's candidate (say, two unpublished clusters that
        both route to ``default``) share one block — and each group
        walks its chain once, so a failing model costs one fault draw
        and one breaker failure per call, whatever the block size. Row
        order within a block follows request order and every step is
        row-independent — byte-identical to serving each request alone.
        Each row counts once in ``serve.requests`` and once in
        ``serve.served_by.*`` or ``serve.miss.*``.
        """
        telemetry.count("serve.requests", len(requests))
        router = self.router  # one atomic snapshot for the whole block
        responses: list[PredictResponse | None] = [None] * len(requests)
        chain_keys: dict[str, tuple] = {}
        groups: dict[tuple, tuple[list[Candidate], list[int]]] = {}
        for i, request in enumerate(requests):
            source = sources[i]
            if isinstance(source, str):
                responses[i] = self.miss(request, source)
                continue
            key = chain_keys.get(request.cluster)
            if key is None:
                chain = router.chain(request.cluster)
                # A list, not a generator: tuple() of a generator allocates
                # a 10-slot tuple and shrinks it, leaving the young-GC count
                # one higher per flush, which raised a two-client closed
                # loop's collections by ~70% (and its p99.5 with them).
                key = chain_keys[request.cluster] = tuple([(t, id(c)) for t, c in chain])
                groups.setdefault(key, (chain, []))
            groups[key][1].append(i)
        for chain, rows in groups.values():
            self._walk(chain, requests, rows, sources, responses)
        return responses  # type: ignore[return-value]

    def _network_source(self, request: PredictRequest) -> int | np.ndarray | str:
        """The request's suite row, its ad-hoc encoding, or a miss reason."""
        try:
            return self._enc.row_index(request.network)
        except KeyError:
            if request.definition is None:
                return MISS_UNKNOWN_NETWORK
        # Ad-hoc candidate: a full from-scratch encode per request, by
        # design — the reference path the bulk plane's layer-row memo
        # amortizes.
        try:
            encoded = self._enc.encoder.encode(request.definition)
        except ValueError:
            return MISS_UNENCODABLE
        telemetry.count("serve.adhoc_encoded")
        return encoded

    def _walk(
        self, chain: list[Candidate], requests: Sequence[PredictRequest], pending: list[int],
        sources: Sequence, responses: list[PredictResponse | None],
    ) -> None:
        """Serve one chain's rows down it, one kernel call per tier."""
        for n, (tier, loaded) in enumerate(chain):
            if tier == TIER_STATIC or not pending:
                break
            ready, signatures, misses = self._signature_block(loaded, requests, pending)
            if n == 0:  # the routed model decides whether a device is servable
                if tier == TIER_DEFAULT:
                    telemetry.count("serve.route.fallback", len(pending))
                for i, reason in misses.items():
                    responses[i] = self.miss(requests[i], reason)
                pending = ready
                cold = sum(requests[i].signature_ms is not None for i in pending)
                for name, count in (("cold", cold), ("warm", len(pending) - cold)):
                    if count:
                        telemetry.count(f"serve.{name}_served", count)
            if not ready:
                continue
            hw_codes = apply_bin_edges(signatures, loaded.hw_edges)
            net_codes = _net_block(loaded, [sources[i] for i in ready])
            pred = self.score(loaded, net_codes, hw_codes, tier)
            if pred is None:
                continue
            for i, value in zip(ready, pred.tolist()):
                request = requests[i]
                responses[i] = PredictResponse(
                    request.network, request.device, request.cluster,
                    loaded.checkpoint.cluster, loaded.checkpoint.version,
                    value, served_by=tier,
                )
            pending = [i for i in pending if responses[i] is None]
        for i in pending:
            responses[i] = self.static_response(chain, requests[i])


def _net_block(loaded: LoadedModel, sources: list) -> np.ndarray:
    """Rows' network codes: suite rows gathered, ad-hoc encodings binned."""
    adhoc = [j for j, s in enumerate(sources) if isinstance(s, np.ndarray)]
    if not adhoc:
        return loaded.net_codes[sources]
    block = np.empty((len(sources), loaded.net_codes.shape[1]), dtype=np.uint8)
    suite = [j for j, s in enumerate(sources) if not isinstance(s, np.ndarray)]
    block[suite] = loaded.net_codes[[sources[j] for j in suite]]
    block[adhoc] = apply_bin_edges(np.stack([sources[j] for j in adhoc]), loaded.net_edges)
    return block
